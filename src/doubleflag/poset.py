"""Closure order of K-orbits.

The closure of an orbit contains another iff the rank matrix of the smaller
orbit dominates (is entrywise >=) that of the bigger one.  The Hasse diagram
is obtained by transitive reduction, and every cover raises the dimension by
exactly one.

Both steps run on big-integer bitsets, one bit per orbit.

Dominance by threshold masks.  Flatten each rank matrix to a tuple of
(p+1)(q+1) entries in 0..r.  For an entry position e and a value v, let
``at_most[e][v]`` be the set of orbits whose entry e is <= v: put each orbit
in ``at_most[e][its entry]``, then OR each mask into the next value up.  An
orbit b is dominated by a iff entry e of b is <= entry e of a for every e,
that is iff b lies in ``at_most[e][flat[a][e]]`` for every e; so the set of
orbits a dominates, a's up-set in the closure order, is the AND of those
(p+1)(q+1) masks.

Covers by a walk in a linear extension.  If a < b then a's rank matrix
dominates b's and differs from it (rank matrices separate orbits), so the
entry sum of a is strictly larger.  Listing the orbits by decreasing entry
sum is therefore a linear extension: every orbit strictly above a comes
after a.  Give the bits of the masks positions in that list.  The lowest
set bit b of a's strict up-set U is then minimal in U, since anything in U
below b would come before b; so b covers a.  Clear b's whole up-set from U
and repeat.  The lowest bit c left is again minimal in U: an element of U
below c comes before c, so it was taken or cleared, and either way c lies
above a taken cover and was cleared with that cover's up-set.  Every cover
of a is reached, since a cover lies above no other element of U and so is
never cleared.  This costs one step per cover, not one per comparable pair.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .core import Graph, Shape, enumerate_graphs, invariants, rank_matrix


def closure_leq(a: Graph, b: Graph) -> bool:
    """True iff closure(O_a) is contained in closure(O_b)."""
    if a.shape != b.shape:
        raise ValueError("graphs must have the same shape")
    return rank_matrix(a).dominates(rank_matrix(b))


@dataclass(frozen=True)
class OrbitPoset:
    shape: Shape
    orbits: tuple  # Graphs in enumeration order
    dims: tuple
    leq: tuple  # leq[a] = bitmask of b with a <= b
    covers: tuple  # (lower, upper) index pairs

    def is_leq(self, a: int, b: int) -> bool:
        return bool(self.leq[a] >> b & 1)

    @property
    def top(self) -> int:
        """Index of the unique maximal orbit (the dense one)."""
        tops = [a for a in range(len(self.orbits)) if self.leq[a] == 1 << a]
        if len(tops) != 1:
            raise AssertionError(f"expected a unique maximal orbit, found {len(tops)}")
        return tops[0]


def _dominated(flat, r: int) -> list:
    """Bitsets of dominance: bit b of the a-th mask is set iff
    flat[b][e] <= flat[a][e] for every position e (bit b stands for
    flat[b]).  Entries lie in 0..r."""
    at_most = [[0] * (r + 1) for _ in flat[0]]
    for b, fb in enumerate(flat):
        bit = 1 << b
        for masks, v in zip(at_most, fb):
            masks[v] |= bit
    for masks in at_most:
        for v in range(1, r + 1):
            masks[v] |= masks[v - 1]
    out = []
    for fa in flat:
        mask = -1
        for masks, v in zip(at_most, fa):
            mask &= masks[v]
        out.append(mask)
    return out


def build_poset(shape: Shape) -> OrbitPoset:
    """Full closure order, Hasse covers and dimensions for one shape.

    Fails loudly if a cover violates the dim+1 grading or if the maximal
    orbit is not unique; either would falsify the implementation.
    """
    orbits = enumerate_graphs(shape)
    n = len(orbits)
    profiles = [rank_matrix(g).entries for g in orbits]
    if len(set(profiles)) != n:
        raise AssertionError("rank matrices must separate orbits")
    dims = tuple(invariants(g).dim for g in orbits)

    # leq[a] holds b as a bit iff profile[a] >= profile[b] entrywise: the
    # AND over entries e of the threshold mask "entry e <= profile[a][e]".
    flat = [tuple(x for row in pr for x in row) for pr in profiles]
    leq = _dominated(flat, shape.r)

    # Covers, walked in a linear extension: position i of ``order`` holds
    # the orbit with the i-th largest entry sum, and ``up[i]`` is its
    # up-set with bits at positions of ``order``.  a < b forces a strictly
    # larger entry sum for a (the profiles differ, checked above), so
    # the lowest strict up-set bit is a minimal element, hence a cover;
    # clearing that cover's up-set leaves the next cover lowest.
    order = sorted(range(n), key=lambda a: -sum(flat[a]))
    up = _dominated([flat[a] for a in order], shape.r)
    covers = []
    for i, a in enumerate(order):
        rest = up[i] & ~(1 << i)
        while rest:
            j = (rest & -rest).bit_length() - 1
            covers.append((a, order[j]))
            rest &= ~up[j]
    covers.sort()

    for a, b in covers:
        if dims[b] != dims[a] + 1:
            raise AssertionError(
                f"cover {a} -> {b} violates the grading: dims {dims[a]}, {dims[b]}"
            )
    poset = OrbitPoset(shape, orbits, dims, tuple(leq), tuple(covers))
    poset.top  # uniqueness check
    return poset


def to_dot(poset: OrbitPoset) -> str:
    """DOT rendering: one node per orbit labelled with its JSON record and
    dimension, same-dimension nodes on one rank, covers drawn upward."""
    lines = ["digraph orbits {", "  rankdir=BT;", "  node [shape=box];"]
    for idx, g in enumerate(poset.orbits):
        label = json.dumps(g.to_json(), sort_keys=True).replace('"', '\\"')
        lines.append(f'  n{idx} [label="{label}\\ndim {poset.dims[idx]}"];')
    for d in sorted(set(poset.dims)):
        group = " ".join(f"n{i};" for i, dd in enumerate(poset.dims) if dd == d)
        lines.append(f"  {{ rank=same; {group} }}")
    for a, b in poset.covers:
        lines.append(f"  n{a} -> n{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"

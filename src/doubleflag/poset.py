"""Closure order of K-orbits.

The closure of an orbit contains another iff the rank matrix of the smaller
orbit dominates (is entrywise >=) that of the bigger one.  The Hasse diagram
is obtained by transitive reduction, and every cover raises the dimension by
exactly one.

Both steps run on big-integer bitsets, one bit per orbit.

Dominance by row masks.  A rank matrix has p+1 rows of q+1 entries in
0..r, and a dominates b iff row i of b is <= row i of a entrywise for
every row index i.  Few distinct rows occur at one index: (4,4,4) has
16, 30, 36, 30 and 16 distinct rows at its five indices against 1,038
orbits.  So the masks are built per distinct row.  Fix a row index i.

* Group: for each distinct row R at index i, ``groups[R]`` is the set of
  orbits whose row i is R.  Every orbit lies in exactly one group.
* Threshold masks: for a column j and a value v, ``at_most[j][v]`` is
  the union of the groups of the rows R with R[j] <= v.  Each group is
  ORed into ``at_most[j][R[j]]``, and then each mask into the next value
  up, so ``at_most[j][v]`` is the union of the groups put at the values
  0..v.
* Row mask: the mask of R is the AND over the columns j of
  ``at_most[j][R[j]]``.

The row mask of R holds b exactly when row i of b is <= R entrywise.
Write S for row i of b.  b lies in the group of S alone, which went into
``at_most[j][S[j]]``, so b lies in ``at_most[j][v]`` iff S[j] <= v.  So b
lies in every ``at_most[j][R[j]]`` iff S[j] <= R[j] for every column j.
Then the AND of a's p+1 row masks, one per row index, holds b iff every
row of b is <= the same row of a entrywise: it is the set of orbits a
dominates, a's up-set in the closure order.  That costs one AND per
column per distinct row and p per orbit, against (p+1)(q+1) per orbit for
a mask per matrix entry.

Covers off the dimension levels.  Write U(a) for a's strict up-set and
C(a) for the orbits of U(a) with dimension dim a + 1.  ``build_poset``
takes C(a) as a's covers and checks one thing: every b in U(a) lies above
some c in C(a).  This check holds iff the order is a partial order in
which every Hasse cover raises the dimension by exactly one.

If the check holds, dimension rises strictly along the order.  Suppose
some b in U(a) had dim b <= dim a.  The check gives c1 in C(a) with
c1 <= b, and c1 != b since dim c1 > dim b; so b lies in U(c1) with
dim b < dim c1.  Repeating from c1 gives c2, c3, ... of strictly rising
dimension, all distinct: an endless chain of orbits, which is
impossible.  So a < b forces dim a < dim b.  Two orbits above each other
would then each have the larger dimension, so the order is antisymmetric,
and in particular distinct orbits have distinct rank matrices.  Every c
in C(a) is minimal in U(a), because nothing has a dimension strictly
between dim a and dim a + 1.  And a minimal b in U(a) lies above some c in
C(a) with c in U(a), so b = c.  C(a) is therefore exactly the set of
covers of a, and each raises the dimension by one.

Conversely, if the order is a graded partial order, take b in U(a) and a
maximal chain from a up to b.  Its first step is a cover of a, which has
dimension dim a + 1, so it lies in C(a) and below b.

The check costs one OR of an up-set per cover.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from functools import reduce

from .core import Graph, Shape, enumerate_graphs, invariants, rank_matrix

# One DOT node: its index, then the graph record ``json.dumps(record,
# sort_keys=True)`` writes, with each quote escaped, then the dimension.
# ``to_dot`` fills it once per orbit type: the three lists' contents with
# that type's layout, the shape with its sizes, and ``%d`` elsewhere.
_NODE = (
    '  n%s [label="{\\"edges\\": [%s], \\"marked_minus\\": [%s], \\"marked_plus\\": [%s],'
    ' \\"p\\": %s, \\"q\\": %s, \\"r\\": %s}\\ndim %s"];'
)


def closure_leq(a: Graph, b: Graph) -> bool:
    """True iff closure(O_a) is contained in closure(O_b)."""
    if a.shape != b.shape:
        raise ValueError("graphs must have the same shape")
    return rank_matrix(a).dominates(rank_matrix(b))


class OrbitPoset(namedtuple("OrbitPoset", "shape orbits dims leq covers")):
    """The closure order on the orbits (``Graph``s in enumeration order):
    ``leq[a]`` is the bitmask of b with a <= b, and ``covers`` holds the
    (lower, upper) index pairs."""

    __slots__ = ()

    def is_leq(self, a: int, b: int) -> bool:
        """True iff orbit a <= orbit b.  The indices are coerced with
        ``operator.index``, so a float or str index raises TypeError; raises
        IndexError for an index outside range(n)."""
        a, b = operator.index(a), operator.index(b)
        n = len(self.orbits)
        if not (0 <= a < n and 0 <= b < n):
            raise IndexError(f"orbit index pair ({a}, {b}) out of range({n})")
        return bool(self.leq[a] >> b & 1)

    @property
    def top(self) -> int:
        """Index of the unique maximal orbit (the dense one)."""
        tops = [a for a in range(len(self.orbits)) if self.leq[a] == 1 << a]
        if len(tops) != 1:
            raise AssertionError(f"expected a unique maximal orbit, found {len(tops)}")
        return tops[0]


def _up_sets(matrices: list, r: int) -> list:
    """Bitsets of dominance from the rank matrices' ``entries``: bit b of
    the a-th mask is set iff every row of matrix b is <= the same row of
    matrix a entrywise.  Entries lie in 0..r.  Built from each row
    index's distinct rows, as the module docstring proves."""
    per_index = []  # for each row index i, every orbit's row mask at i
    for rows in zip(*matrices):  # row i of every orbit
        groups = {}
        for b, row in enumerate(rows):
            groups[row] = groups.get(row, 0) | 1 << b
        at_most = [[0] * (r + 1) for _ in rows[0]]
        for row, group in groups.items():
            for masks, v in zip(at_most, row):
                masks[v] |= group
        for masks in at_most:
            for v in range(1, r + 1):
                masks[v] |= masks[v - 1]
        mask_of = {}
        for row in groups:
            mask = -1
            for masks, v in zip(at_most, row):
                mask &= masks[v]
            mask_of[row] = mask
        per_index.append(map(mask_of.__getitem__, rows))
    return [reduce(operator.and_, masks) for masks in zip(*per_index)]


def build_poset(shape: Shape) -> OrbitPoset:
    """Full closure order, Hasse covers and dimensions for one shape.

    Raises AssertionError if some orbit b above an orbit a lies above no
    orbit of dimension dim a + 1 above a.  By the module docstring that
    happens iff the closure order is not a partial order in which every
    Hasse cover raises the dimension by one.  Also raises AssertionError if
    the maximal orbit is not unique.  Either would falsify the
    implementation.
    """
    orbits = enumerate_graphs(shape)
    dims = tuple(invariants(g).dim for g in orbits)
    # leq[a] holds b as a bit iff rank matrix a >= rank matrix b entrywise.
    leq = _up_sets([rank_matrix(g).entries for g in orbits], shape.r)

    # level[d] holds the orbits of dimension d.  An orbit's covers are its
    # strict up-set on the next level, and the test below is the one
    # grading check (module docstring).
    level = [0] * (max(dims) + 2)
    for a, d in enumerate(dims):
        level[d] |= 1 << a
    covers = []
    for a, d in enumerate(dims):
        strict = leq[a] & ~(1 << a)
        rest = strict & level[d + 1]
        reached = 0
        while rest:
            b = (rest & -rest).bit_length() - 1
            covers.append((a, b))
            reached |= leq[b]
            rest &= rest - 1
        if strict & ~reached:
            b = (strict & ~reached).bit_length() - 1
            raise AssertionError(f"orbit {b} > {a} is above no dim {d + 1} orbit over {a}")
    poset = OrbitPoset(shape, orbits, dims, tuple(leq), tuple(covers))
    poset.top  # uniqueness check
    return poset


def to_dot(poset: OrbitPoset) -> str:
    """DOT rendering: one node per orbit labelled with its JSON record and
    dimension, same-dimension nodes on one rank, covers drawn upward.

    Each orbit type (k, s, t) gets one node template, ``_NODE`` with the
    shape written in and ``%d`` for the index, the dimension and each int
    of ``Graph.record_ints``; every node of the type fills it with its own.
    That is exact for two reasons.  ``json.dumps`` writes a list of ints
    from those ints alone: ``[``, the ints joined by ", ", ``]``, each int
    as ``%d`` writes it, and a list of [i, j] pairs the same way.  And one
    type means one layout: k edges, t marked- and s marked+ vertices, in
    the order ``record_ints`` gives them.  Rank groups and cover edges are
    fixed ``%`` formats of their indices.
    """
    lines = ["digraph orbits {", "  rankdir=BT;", "  node [shape=box];"]
    templates = {}
    levels = {}
    for idx, (g, d) in enumerate(zip(poset.orbits, poset.dims)):
        triple = g.triple()
        template = templates.get(triple)
        if template is None:
            k, s, t = triple
            lists = (", ".join(["[%d, %d]"] * k), ", ".join(["%d"] * t), ", ".join(["%d"] * s))
            template = templates[triple] = _NODE % ("%d", *lists, *poset.shape, "%d")
        lines.append(template % (idx, *g.record_ints(), d))
        levels.setdefault(d, []).append(idx)
    for d in sorted(levels):
        lines.append("  { rank=same; %s }" % " ".join(map("n%d;".__mod__, levels[d])))
    lines += map("  n%d -> n%d;".__mod__, poset.covers)
    lines.append("}")
    return "\n".join(lines) + "\n"

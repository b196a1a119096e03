"""Orbit combinatorics for the double flag variety of type AIII.

Orbits are parameterized by marked bipartite graphs on p "+" vertices and
q "-" vertices: edges pair a "+" vertex with a "-" vertex, marks single
out vertices, and #edges + #marks = r.  Equivalently, orbits correspond to
full-rank (p+q) x r partial-permutation pairs up to column permutation.

This module owns the graph/matrix dictionary, enumeration, the orbital
invariants (a+, a-, b, c), rank matrices and the dimension formula.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache


@dataclass(frozen=True)
class Shape:
    """Block sizes (p, q) and the Grassmannian parameter r."""

    p: int
    q: int
    r: int

    def __post_init__(self):
        if self.p < 1 or self.q < 1:
            raise ValueError(f"block sizes must be positive, got p={self.p}, q={self.q}")
        if not 0 <= self.r <= self.p + self.q:
            raise ValueError(f"need 0 <= r <= p+q, got r={self.r}")

    @property
    def n(self) -> int:
        return self.p + self.q


def _check_perm(w, size, name):
    if sorted(w) != list(range(1, size + 1)):
        raise ValueError(f"{name} is not a permutation of 1..{size}: {w}")


@dataclass(frozen=True)
class Graph:
    """Marked bipartite graph labelling one K-orbit.

    ``edges`` is a set of pairs (i, j) joining vertex i+ to vertex j-;
    ``marked_plus`` / ``marked_minus`` are the marked vertices on each side.
    Every vertex carries at most one incidence (edge endpoint or mark), and
    #edges + #marks = r.
    """

    shape: Shape
    edges: frozenset
    marked_plus: frozenset
    marked_minus: frozenset

    def __post_init__(self):
        p, q, r = self.shape.p, self.shape.q, self.shape.r
        plus_ends = [i for i, _ in self.edges]
        minus_ends = [j for _, j in self.edges]
        if any(not (1 <= i <= p) for i in plus_ends + list(self.marked_plus)):
            raise ValueError("+ vertex label out of range")
        if any(not (1 <= j <= q) for j in minus_ends + list(self.marked_minus)):
            raise ValueError("- vertex label out of range")
        if len(set(plus_ends)) != len(plus_ends) or len(set(minus_ends)) != len(minus_ends):
            raise ValueError("two edges share a vertex")
        if set(plus_ends) & self.marked_plus or set(minus_ends) & self.marked_minus:
            raise ValueError("a vertex is both marked and an edge endpoint")
        if len(self.edges) + len(self.marked_plus) + len(self.marked_minus) != r:
            raise ValueError("#edges + #marks must equal r")

    def degree(self, side: str, i: int) -> int:
        """Degree of a vertex: 0 free, 1 edge endpoint, 2 marked."""
        if side == "+":
            if not 1 <= i <= self.shape.p:
                raise ValueError(f"vertex {i}+ out of range")
            if i in self.marked_plus:
                return 2
            return 1 if any(a == i for a, _ in self.edges) else 0
        if side == "-":
            if not 1 <= i <= self.shape.q:
                raise ValueError(f"vertex {i}- out of range")
            if i in self.marked_minus:
                return 2
            return 1 if any(b == i for _, b in self.edges) else 0
        raise ValueError(f"side must be '+' or '-', got {side!r}")

    def triple(self) -> tuple:
        """The (k, s, t) = (#edges, #marked+, #marked-) type of the orbit."""
        return (len(self.edges), len(self.marked_plus), len(self.marked_minus))

    def to_json(self) -> dict:
        return {
            "p": self.shape.p,
            "q": self.shape.q,
            "r": self.shape.r,
            "edges": [list(e) for e in sorted(self.edges)],
            "marked_plus": sorted(self.marked_plus),
            "marked_minus": sorted(self.marked_minus),
        }

    @classmethod
    def from_json(cls, data: dict) -> "Graph":
        shape = Shape(data["p"], data["q"], data["r"])
        return cls(
            shape,
            frozenset((int(i), int(j)) for i, j in data["edges"]),
            frozenset(int(i) for i in data["marked_plus"]),
            frozenset(int(j) for j in data["marked_minus"]),
        )


def make_graph(shape, edges=(), marked_plus=(), marked_minus=()) -> Graph:
    """Convenience constructor from plain iterables."""
    return Graph(
        shape,
        frozenset(tuple(e) for e in edges),
        frozenset(marked_plus),
        frozenset(marked_minus),
    )


@dataclass(frozen=True)
class PartialPermutationPair:
    """A (p+q) x r zero-one matrix of full rank whose top and bottom blocks
    are partial permutations (at most one 1 per row and per column).

    Full rank needs no separate check: each row has at most one 1, so
    distinct columns have disjoint supports, and nonzero columns with
    disjoint supports are linearly independent.
    """

    shape: Shape
    matrix: tuple  # rows, each a tuple of length r

    def __post_init__(self):
        p, q, r = self.shape.p, self.shape.q, self.shape.r
        m = self.matrix
        if len(m) != p + q or any(len(row) != r for row in m):
            raise ValueError(f"matrix must be {(p + q)} x {r}")
        if any(x not in (0, 1) for row in m for x in row):
            raise ValueError("entries must be 0 or 1")
        for block in (m[:p], m[p:]):
            for row in block:
                if sum(row) > 1:
                    raise ValueError("a block row contains more than one 1")
            for col in range(r):
                if sum(row[col] for row in block) > 1:
                    raise ValueError("a block column contains more than one 1")
        for col in range(r):
            if all(row[col] == 0 for row in m):
                raise ValueError("zero column")


def graph_from_matrix(m: PartialPermutationPair) -> Graph:
    """Read off the marked graph of a partial-permutation pair.

    A column with 1's at rows i (top) and p+j (bottom) is the edge (i, j);
    a column with a single 1 gives a mark.  The result only depends on the
    column set, so right multiplication by a permutation is invisible here.
    """
    p = m.shape.p
    edges, mplus, mminus = set(), set(), set()
    for col in range(m.shape.r):
        top = next((i + 1 for i in range(p) if m.matrix[i][col]), None)
        bot = next((j + 1 for j in range(m.shape.q) if m.matrix[p + j][col]), None)
        if top and bot:
            edges.add((top, bot))
        elif top:
            mplus.add(top)
        else:
            mminus.add(bot)
    return make_graph(m.shape, edges, mplus, mminus)


def matrix_from_graph(g: Graph) -> PartialPermutationPair:
    """Canonical matrix representative: edge columns sorted by + endpoint,
    then marked + columns ascending, then marked - columns ascending."""
    p, q, r = g.shape.p, g.shape.q, g.shape.r
    cols = []
    for i, j in sorted(g.edges):
        cols.append((i, j))
    for i in sorted(g.marked_plus):
        cols.append((i, None))
    for j in sorted(g.marked_minus):
        cols.append((None, j))
    rows = [[0] * r for _ in range(p + q)]
    for c, (i, j) in enumerate(cols):
        if i is not None:
            rows[i - 1][c] = 1
        if j is not None:
            rows[p + j - 1][c] = 1
    return PartialPermutationPair(g.shape, tuple(tuple(row) for row in rows))


def admissible_triples(shape: Shape) -> list:
    """All (k, s, t) with k+s <= p, k+t <= q and k+s+t = r, in lex order."""
    out = []
    for k in range(0, min(shape.p, shape.q, shape.r) + 1):
        for s in range(0, min(shape.p - k, shape.r - k) + 1):
            t = shape.r - k - s
            if 0 <= t <= shape.q - k:
                out.append((k, s, t))
    return sorted(out)


@lru_cache(maxsize=None)
def enumerate_graphs(shape: Shape) -> tuple:
    """All orbit graphs for the shape, in a fixed lexicographic order."""
    p, q = shape.p, shape.q
    out = []
    for k, s, t in admissible_triples(shape):
        for plus_ends in itertools.combinations(range(1, p + 1), k):
            for minus_ends in itertools.combinations(range(1, q + 1), k):
                for sigma in itertools.permutations(plus_ends):
                    edges = frozenset(zip(sigma, minus_ends))
                    rest_plus = [i for i in range(1, p + 1) if i not in plus_ends]
                    rest_minus = [j for j in range(1, q + 1) if j not in minus_ends]
                    for mp in itertools.combinations(rest_plus, s):
                        for mm in itertools.combinations(rest_minus, t):
                            out.append(make_graph(shape, edges, mp, mm))
    return tuple(out)


def triple_count(shape: Shape, triple) -> int:
    """Number of orbits of type (k, s, t): multinomial(p; k, s, s') *
    multinomial(q; k, t, t') * k!, with s' = p-k-s and t' = q-k-t."""
    k, s, t = triple
    sp, tp = shape.p - k - s, shape.q - k - t
    return (
        math.factorial(shape.p) // (math.factorial(k) * math.factorial(s) * math.factorial(sp))
        * (math.factorial(shape.q) // (math.factorial(k) * math.factorial(t) * math.factorial(tp)))
        * math.factorial(k)
    )


def count_orbits(shape: Shape) -> int:
    """Closed-form orbit count: the sum of ``triple_count`` over admissible
    triples."""
    return sum(triple_count(shape, triple) for triple in admissible_triples(shape))


@dataclass(frozen=True)
class Invariants:
    a_plus: int
    a_minus: int
    b: int
    c: int
    dim: int


def invariants(g: Graph) -> Invariants:
    """Orbital invariants and the orbit dimension.

    a+/a- count ascents of the degree sequence on each side, b is the number
    of edges, c the number of edge crossings; the dimension is
    p(p-1)/2 + q(q-1)/2 + a+ + a- + b(b+1)/2 + c.
    """
    p, q = g.shape.p, g.shape.q
    dplus = [g.degree("+", i) for i in range(1, p + 1)]
    dminus = [g.degree("-", j) for j in range(1, q + 1)]
    a_plus = sum(1 for i in range(p) for j in range(i + 1, p) if dplus[i] < dplus[j])
    a_minus = sum(1 for i in range(q) for j in range(i + 1, q) if dminus[i] < dminus[j])
    b = len(g.edges)
    c = crossings(g)
    dim = p * (p - 1) // 2 + q * (q - 1) // 2 + a_plus + a_minus + b * (b + 1) // 2 + c
    return Invariants(a_plus, a_minus, b, c, dim)


def crossings(g: Graph) -> int:
    """Pairs of edges (i,j), (k,l) with i < k and j > l."""
    es = sorted(g.edges)
    return sum(
        1
        for a in range(len(es))
        for b in range(a + 1, len(es))
        if es[a][1] > es[b][1]
    )


@dataclass(frozen=True)
class RankMatrix:
    """The (p+1) x (q+1) rank profile of an orbit; a complete invariant."""

    entries: tuple  # (p+1) rows, each a tuple of length q+1

    def __post_init__(self):
        e = self.entries
        rows, cols = len(e), len(e[0])
        if e[0][0] != 0:
            raise ValueError("corner (0,0) must be 0")
        for i in range(rows):
            for j in range(cols):
                if i > 0 and e[i][j] - e[i - 1][j] not in (0, 1):
                    raise ValueError("row steps must be 0 or 1")
                if j > 0 and e[i][j] - e[i][j - 1] not in (0, 1):
                    raise ValueError("column steps must be 0 or 1")
                if i > 0 and j > 0 and e[i][j] + e[i - 1][j - 1] < e[i - 1][j] + e[i][j - 1]:
                    raise ValueError("rank matrix must be supermodular")

    def __getitem__(self, idx):
        return self.entries[idx]

    def dominates(self, other: "RankMatrix") -> bool:
        return all(
            a >= b for ra, rb in zip(self.entries, other.entries) for a, b in zip(ra, rb)
        )


@lru_cache(maxsize=None)
def rank_matrix(g: Graph) -> RankMatrix:
    """entries[i][j] = #edges within {1..i}+ x {1..j}- plus marks below i / j."""
    p, q = g.shape.p, g.shape.q
    rows = []
    for i in range(p + 1):
        row = []
        for j in range(q + 1):
            v = sum(1 for a, b in g.edges if a <= i and b <= j)
            v += sum(1 for a in g.marked_plus if a <= i)
            v += sum(1 for b in g.marked_minus if b <= j)
            row.append(v)
        rows.append(tuple(row))
    m = RankMatrix(tuple(rows))
    if m.entries[p][q] != g.shape.r:
        raise AssertionError("rank matrix corner must equal r")
    return m


def weyl_act(w, g: Graph) -> Graph:
    """Relabel vertices by w = (w1, w2) in S_p x S_q."""
    w1, w2 = w
    _check_perm(w1, g.shape.p, "w1")
    _check_perm(w2, g.shape.q, "w2")
    return make_graph(
        g.shape,
        ((w1[i - 1], w2[j - 1]) for i, j in g.edges),
        (w1[i - 1] for i in g.marked_plus),
        (w2[j - 1] for j in g.marked_minus),
    )

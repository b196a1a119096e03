"""Orbit combinatorics for the double flag variety of type AIII.

Orbits are parameterized by marked bipartite graphs on p "+" vertices and
q "-" vertices: edges pair a "+" vertex with a "-" vertex, marks single
out vertices, and #edges + #marks = r.  Equivalently, orbits correspond to
full-rank (p+q) x r partial-permutation pairs up to column permutation.

This module owns the orbit encoding (``Graph``: one partner array per
side, which every per-vertex question reads), the graph/matrix dictionary,
enumeration, the orbital invariants (a+, a-, b, c), rank matrices and the
dimension formula.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import namedtuple
from functools import lru_cache


class Shape(namedtuple("Shape", "p q r")):
    """Block sizes (p, q) and the Grassmannian parameter r, each an integer;
    a float or other non-integer raises TypeError."""

    __slots__ = ()

    def __new__(cls, p, q, r):
        p, q, r = operator.index(p), operator.index(q), operator.index(r)
        if p < 1 or q < 1:
            raise ValueError(f"block sizes must be positive, got p={p}, q={q}")
        if not 0 <= r <= p + q:
            raise ValueError(f"need 0 <= r <= p+q, got r={r}")
        return tuple.__new__(cls, (p, q, r))

    @classmethod
    def _make(cls, fields):
        """Build through the validating constructor, as ``_replace`` does."""
        return cls(*fields)

    @property
    def n(self) -> int:
        return self.p + self.q


def _check_perm(w, size, name):
    if sorted(w) != list(range(1, size + 1)):
        raise ValueError(f"{name} is not a permutation of 1..{size}: {w}")


def vertex_degree(entry: int) -> int:
    """A vertex's degree from its partner-array entry: 0 free, 1 edge, 2 marked."""
    return 2 if entry < 0 else 1 if entry else 0


class Graph(namedtuple("Graph", "shape plus minus")):
    """Marked bipartite graph labelling one K-orbit, as one partner array
    per side.  Entry i of ``plus`` is 0 if vertex i+ is free, -1 if it is
    marked, and j if the edge (i, j) joins it to vertex j-; ``minus`` is
    the same for the - side, and entry 0 of each is padding, 0.  The arrays
    must agree on every edge, and #edges + #marks = r.  ``edges``,
    ``marked_plus`` and ``marked_minus`` give the same graph as sets.
    """

    __slots__ = ()

    def __new__(cls, shape, plus, minus):
        p, q, r = shape.p, shape.q, shape.r
        if type(plus) is not tuple or type(minus) is not tuple:
            raise TypeError("partner arrays must be tuples, so that graphs hash and compare")
        if len(plus) != p + 1 or len(minus) != q + 1:
            raise ValueError(f"partner arrays must have lengths {p + 1} and {q + 1}")
        if plus[0] or minus[0]:
            raise ValueError("entry 0 of a partner array is padding and must be 0")
        if min(plus) < -1 or max(plus) > q or min(minus) < -1 or max(minus) > p:
            raise ValueError("partner array entry out of range")
        for i, j in enumerate(plus):
            if j > 0 and minus[j] != i:
                raise ValueError("the partner arrays disagree on an edge")
        for j, i in enumerate(minus):
            if i > 0 and plus[i] != j:
                raise ValueError("the partner arrays disagree on an edge")
        if p + 1 - plus.count(0) + minus.count(-1) != r:
            raise ValueError("#edges + #marks must equal r")
        return tuple.__new__(cls, (shape, plus, minus))

    @classmethod
    def _make(cls, fields):
        """Build through the validating constructor, as ``_replace`` does."""
        return cls(*fields)

    @property
    def edges(self) -> frozenset:
        return frozenset((i, j) for i, j in enumerate(self.plus) if j > 0)

    @property
    def marked_plus(self) -> frozenset:
        return frozenset(i for i, j in enumerate(self.plus) if j < 0)

    @property
    def marked_minus(self) -> frozenset:
        return frozenset(j for j, i in enumerate(self.minus) if i < 0)

    def degree(self, side: str, i: int) -> int:
        """Degree of a vertex: 0 free, 1 edge endpoint, 2 marked."""
        if side not in ("+", "-"):
            raise ValueError(f"side must be '+' or '-', got {side!r}")
        array = self.plus if side == "+" else self.minus
        if not 1 <= i < len(array):
            raise ValueError(f"vertex {i}{side} out of range")
        return vertex_degree(array[i])

    def triple(self) -> tuple:
        """The (k, s, t) = (#edges, #marked+, #marked-) type of the orbit."""
        s, t = self.plus.count(-1), self.minus.count(-1)
        return (self.shape.r - s - t, s, t)

    def record_lists(self) -> tuple:
        """The lists of the ``to_json`` record in its sorted-key order:
        ``edges`` as [i, j] pairs, ``marked_minus``, ``marked_plus``; the
        keys p, q, r follow them.  They are cut from ``record_ints`` by the
        type (k, s, t): 2k edge ints, then t marked- and s marked+
        vertices.  So only this class knows the record's layout, and
        ``record_ints`` alone reads the partner arrays for it."""
        ints = self.record_ints()
        k, _, t = self.triple()
        e, m = 2 * k, 2 * k + t
        return [list(ints[i : i + 2]) for i in range(0, e, 2)], list(ints[e:m]), list(ints[m:])

    def record_ints(self) -> tuple:
        """The ints of the graph record in its sorted-key order: each
        edge's i and j, then ``marked_minus``, then ``marked_plus``.  This
        is the one reader of the partner arrays for the record:
        ``record_lists`` cuts its lists from these ints, and the text
        writers fill per-type templates with them (``cli._json_rows``,
        ``poset.to_dot``).  That is exact because one type (k, s, t) means
        one layout: k edges, t marked- and s marked+ vertices, so every
        record of the type has lists of the same lengths; a list of ints
        is written from those ints alone, each as ``%d`` writes it; and
        ``json.dumps``'s indentation depends only on nesting depth.  One
        pass over each partner array, in label order, so each list
        comes out sorted."""
        ints, marked_plus = [], []
        append = ints.append
        for i, j in enumerate(self.plus):
            if j > 0:
                append(i)
                append(j)
            elif j:
                marked_plus.append(i)
        for j, i in enumerate(self.minus):
            if i < 0:
                append(j)
        ints += marked_plus
        return tuple(ints)

    def to_json(self) -> dict:
        edges, marked_minus, marked_plus = self.record_lists()
        return {
            **self.shape._asdict(),
            "edges": edges,
            "marked_plus": marked_plus,
            "marked_minus": marked_minus,
        }

    @classmethod
    def from_json(cls, data: dict) -> "Graph":
        """The graph of a ``to_json`` record.  Labels are coerced with
        ``operator.index``, as ``Shape`` coerces sizes, so a float or str
        label raises TypeError."""
        index = operator.index
        return make_graph(
            Shape(data["p"], data["q"], data["r"]),
            ((index(i), index(j)) for i, j in data["edges"]),
            map(index, data["marked_plus"]),
            map(index, data["marked_minus"]),
        )


def make_graph(shape, edges=(), marked_plus=(), marked_minus=()) -> Graph:
    """The graph with edges (i, j), joining i+ to j-, and marks, from plain
    iterables.  Raises ValueError for a label out of range, an edge or a
    mark given twice, two edges on one vertex, a marked edge end, or
    #edges + #marks != r.  The first four are checked here because
    ``Graph`` sees only the arrays, where a later edge or a mark overwrites
    an entry and can leave another, valid graph, and a repeat would leave
    a graph whose ``to_json`` lists it once."""
    plus, minus = [0] * (shape.p + 1), [0] * (shape.q + 1)
    for i, j in edges:
        if not (1 <= i <= shape.p and 1 <= j <= shape.q):
            raise ValueError(f"edge ({i}, {j}) has a vertex label out of range")
        if plus[i] == j:
            raise ValueError(f"edge ({i}, {j}) is given twice")
        if plus[i] or minus[j]:
            raise ValueError("two edges share a vertex")
        plus[i], minus[j] = j, i
    for array, marks in ((plus, marked_plus), (minus, marked_minus)):
        for k in marks:
            if not 1 <= k < len(array):
                raise ValueError(f"marked vertex {k} out of range")
            if array[k] > 0:
                raise ValueError("a vertex is both marked and an edge endpoint")
            if array[k]:
                raise ValueError(f"marked vertex {k} is given twice")
            array[k] = -1
    return Graph(shape, tuple(plus), tuple(minus))


class PartialPermutationPair(namedtuple("PartialPermutationPair", "shape matrix")):
    """A (p+q) x r zero-one matrix of full rank whose top and bottom blocks
    are partial permutations (at most one 1 per row and per column).

    Full rank needs no separate check: each row has at most one 1, so
    distinct columns have disjoint supports, and nonzero columns with
    disjoint supports are linearly independent.
    """

    __slots__ = ()

    def __new__(cls, shape, matrix):
        """``matrix`` is the tuple of rows, each a tuple of length r."""
        p, q, r = shape.p, shape.q, shape.r
        m = matrix
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
        return tuple.__new__(cls, (shape, matrix))

    @classmethod
    def _make(cls, fields):
        """Build through the validating constructor, as ``_replace`` does."""
        return cls(*fields)


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
    p = g.shape.p
    cols = [(i - 1, p + j - 1) for i, j in enumerate(g.plus) if j > 0]
    cols += [(i - 1,) for i, j in enumerate(g.plus) if j < 0]
    cols += [(p + j - 1,) for j, i in enumerate(g.minus) if i < 0]
    rows = [[0] * g.shape.r for _ in range(g.shape.n)]
    for c, ones in enumerate(cols):
        for k in ones:
            rows[k][c] = 1
    return PartialPermutationPair(g.shape, tuple(tuple(row) for row in rows))


def admissible_triples(shape: Shape) -> list:
    """All (k, s, t) with k+s <= p, k+t <= q and k+s+t = r, in lex order:
    k ascends, then s, and t is fixed by k and s."""
    out = []
    for k in range(0, min(shape.p, shape.q, shape.r) + 1):
        for s in range(0, min(shape.p - k, shape.r - k) + 1):
            t = shape.r - k - s
            if 0 <= t <= shape.q - k:
                out.append((k, s, t))
    return out


@lru_cache(maxsize=None)
def enumerate_graphs(shape: Shape) -> tuple:
    """All orbit graphs for the shape, in a fixed lexicographic order: by
    type (k, s, t), then the k + ends, the k - ends, the bijection sigma
    between them, the s + marks and the t - marks.

    The partner arrays are written directly.  Each side's mark choices are
    listed once per choice of edge ends, outside the loop over sigma.  Per
    sigma, each marked array is a copy of the edge array with -1 written
    at the marks: every - array once, before the + marks loop, and every
    + array once per + marks.  Each orbit is then built by ``Graph``, so
    every check of ``Graph`` runs once per orbit.

    Proof of the order by type.  For each admissible (k, s, t), and for no
    other triple, the loop nest chooses the k + ends, the k - ends, a
    bijection between them and the s and t marks among the remaining
    vertices: C(p, k) C(q, k) k! C(p-k, s) C(q-k, t) = ``triple_count``
    choices, and distinct choices write distinct partner arrays.  That
    loop nest sits inside the loop over ``admissible_triples``, so the
    enumeration lists the orbits type by type in that order,
    ``triple_count`` of each.  ``_type_blocks`` cuts the text writers'
    type blocks by these closed forms, and ``hecke.weyl_decompose`` reads
    its blocks off them."""
    p, q = shape.p, shape.q
    out = []
    for k, s, t in admissible_triples(shape):
        for plus_ends in itertools.combinations(range(1, p + 1), k):
            rest_plus = [i for i in range(1, p + 1) if i not in plus_ends]
            plus_marks = list(itertools.combinations(rest_plus, s))
            for minus_ends in itertools.combinations(range(1, q + 1), k):
                rest_minus = [j for j in range(1, q + 1) if j not in minus_ends]
                minus_marks = list(itertools.combinations(rest_minus, t))
                for sigma in itertools.permutations(plus_ends):
                    plus, minus = [0] * (p + 1), [0] * (q + 1)
                    for i, j in zip(sigma, minus_ends):
                        plus[i], minus[j] = j, i
                    marked_minus = [_with_marks(minus, mm) for mm in minus_marks]
                    for mp in plus_marks:
                        marked_plus = _with_marks(plus, mp)
                        for mm in marked_minus:
                            out.append(Graph(shape, marked_plus, mm))
    return tuple(out)


def _with_marks(array: list, marks: tuple) -> tuple:
    """A copy of the partner array with -1 at each marked vertex."""
    array = array.copy()
    for i in marks:
        array[i] = -1
    return tuple(array)


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


def _type_blocks(orbits):
    """Yield ((k, s, t), block) for each admissible type, in the order of
    ``admissible_triples``: the block is the next ``triple_count`` orbits
    of ``orbits``, which must be ``enumerate_graphs`` of their shape.  No
    orbit's type is computed: ``enumerate_graphs``'s docstring proves that
    the enumeration lists the orbits type by type in that order, with
    ``triple_count`` orbits of each type.  Raises AssertionError if a
    block is empty or runs past the end, if its first or last orbit has
    another type, or if the blocks do not use up ``orbits`` exactly; so a
    count off by one moves a block's end onto a neighbouring type and is
    caught.  The raises are explicit, so ``python -O`` keeps them."""
    shape = orbits[0].shape
    start = 0
    for triple in admissible_triples(shape):
        n = triple_count(shape, triple)
        block = orbits[start : start + n]
        if not 0 < n == len(block) or block[0].triple() != triple or block[-1].triple() != triple:
            raise AssertionError(f"{shape}: orbit {start} does not start a {triple} block of {n}")
        yield triple, block
        start += n
    if start != len(orbits):
        raise AssertionError(f"the type blocks of {shape} cover {start} of {len(orbits)} orbits")


@lru_cache(maxsize=None)
def count_orbits(shape: Shape) -> int:
    """Closed-form orbit count: the sum of ``triple_count`` over admissible
    triples.  Cached per shape, one int each, as ``enumerate_graphs`` caches
    the orbits themselves: the CLI's budget check asks for it on every
    call."""
    return sum(triple_count(shape, triple) for triple in admissible_triples(shape))


class Invariants(namedtuple("Invariants", "a_plus a_minus b c dim")):
    __slots__ = ()


@lru_cache(maxsize=None)
def invariants(g: Graph) -> Invariants:
    """Orbital invariants and the orbit dimension.

    a+/a- count ascents of the degree sequence on each side (pairs of
    vertices i < j with deg i < deg j), b is the number of edges, c the
    number of edge crossings; the dimension is
    p(p-1)/2 + q(q-1)/2 + a+ + a- + b(b+1)/2 + c.  Cached like
    ``rank_matrix``, so ``build_poset``'s dimensions and the CLI's rows
    share one computation per orbit.  Every field is an int.

    ``_ascents`` counts a side's ascents in one pass.  Each ascent (i, j)
    is counted once, at its later vertex j, so the sum over j of the
    number of earlier vertices of smaller degree is the ascent count.  A
    degree is 0, 1 or 2, so that number is 0 at degree 0, n0 at degree 1
    and n0 + n1 at degree 2, where n0 and n1 count the earlier vertices of
    degree 0 and 1; the pass keeps n0 and n1 as it goes.
    """
    p, q = g.shape.p, g.shape.q
    a_plus, a_minus = _ascents(g.plus), _ascents(g.minus)
    b = g.triple()[0]
    c = crossings(g)
    dim = p * (p - 1) // 2 + q * (q - 1) // 2 + a_plus + a_minus + b * (b + 1) // 2 + c
    return Invariants(a_plus, a_minus, b, c, dim)


def _ascents(array: tuple) -> int:
    """Ascents of the degree sequence of one side's partner array, in one
    pass; see ``invariants``."""
    n0 = n1 = total = 0
    for e in array[1:]:
        if e < 0:
            total += n0 + n1
        elif e:
            total += n0
            n1 += 1
        else:
            n0 += 1
    return total


def crossings(g: Graph) -> int:
    """Pairs of edges (i,j), (k,l) with i < k and j > l: the inversions of
    the - partners read along the + array, in one pass.  ``seen`` has bit j
    set for each partner j read so far, so at edge (k, l) the set bits
    above bit l are the earlier edges that it crosses."""
    c = seen = 0
    for j in g.plus:
        if j > 0:
            c += (seen >> j).bit_count()
            seen |= 1 << j
    return c


class RankMatrix(namedtuple("RankMatrix", "entries")):
    """The (p+1) x (q+1) rank profile of an orbit; a complete invariant.
    ``entries`` holds p+1 rows, each a tuple of length q+1.  Only
    ``rank_matrix`` builds one, and no function of the library takes one
    built by hand, so it carries no checks of its own: its properties are
    proved in ``rank_matrix``."""

    __slots__ = ()

    def dominates(self, other: "RankMatrix") -> bool:
        """True iff every entry is >= the same entry of ``other``.  Raises
        ValueError for matrices of different dimensions, which ``zip``
        would cut to the smaller one.  Every row of a matrix has q+1
        entries, so the row count and the first row's length fix them."""
        a, b = self.entries, other.entries
        if len(a) != len(b) or len(a[0]) != len(b[0]):
            raise ValueError(
                f"rank matrices of dimensions {len(a)}x{len(a[0])} and {len(b)}x{len(b[0])}"
            )
        return all(x >= y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


@lru_cache(maxsize=None)
def rank_matrix(g: Graph) -> RankMatrix:
    """entries[i][j] = #edges within {1..i}+ x {1..j}- plus marks below i / j:
    prefix counts of - marks, plus 1 from column 0 (i+ marked) or j (edge).

    The matrix is a rank profile by construction, from the checks that
    ``Graph`` already made on g's partner arrays:

    - Row 0 is the prefix counts of - marks.  Entry 0 of ``minus`` is
      padding 0, so corner (0,0) is 0, and each column step of row 0 is 0/1.
    - Row i adds to row i-1 the indicator of j >= e, where e is the partner
      of i+, or 0 if i+ is marked (a free i+ adds nothing).  So each row
      step is 0/1.
    - That increment does not decrease in j, which is supermodularity:
      entries[i][j] - entries[i-1][j] >= entries[i][j-1] - entries[i-1][j-1].
    - The increment moves a column step only at column e >= 1, and only
      i+ is joined to e-, which is then unmarked; so column e's step rises
      from 0 once, and every column step stays 0/1.
    - Corner (p,q) counts every edge and mark once, and ``Graph`` forces
      #edges + #marks = r.

    One list holds the current row: row 0 counts up from the int 0, and
    row i adds the int 1 in place over its columns e..q (0..q for a marked
    i+), with each row stored as a tuple copy.  So every entry is an int,
    never a bool, which would compare equal to 0 or 1 but print as JSON
    ``false`` or ``true``.
    """
    row, marks = [], 0
    for e in g.minus:
        if e < 0:
            marks += 1
        row.append(marks)
    rows = [tuple(row)]
    end = len(row)
    for e in g.plus[1:]:
        if e:
            for j in range(e if e > 0 else 0, end):
                row[j] += 1
        rows.append(tuple(row))
    return RankMatrix(tuple(rows))


def weyl_act(w, g: Graph) -> Graph:
    """Relabel vertices by w = (w1, w2) in S_p x S_q."""
    w1, w2 = w
    _check_perm(w1, g.shape.p, "w1")
    _check_perm(w2, g.shape.q, "w2")
    plus, minus = [0] * len(g.plus), [0] * len(g.minus)
    for i, j in enumerate(g.plus[1:], 1):
        plus[w1[i - 1]] = w2[j - 1] if j > 0 else j
    for j, i in enumerate(g.minus[1:], 1):
        minus[w2[j - 1]] = w1[i - 1] if i > 0 else i
    return Graph(g.shape, tuple(plus), tuple(minus))

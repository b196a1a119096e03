"""Brute-force ground truth over small finite fields.

Enumerates the Grassmannian of r-planes in F^n for a small odd prime field,
classifies points into Borel orbits by their rank profiles (dimensions of
intersections with the standard flags), and evaluates the Hecke convolution
action by direct counting.  This certifies the symbolic three-case action
numerically: the counted coefficients must equal q, q-1 or 1 as predicted.

The classification works one pivot cell at a time.  A cell's points are
the pairs of a + combination and a - combination of its rows' halves, and
a side's combinations are the product of its columns' vectors.  So the
span walk that fixes each half of a point's key is stepped once per
distinct walk prefix and vector of the next column, not once per point or
per combination.  Every point's orbit is read from the cell's table of
(+, -) pairs at the column-major index of its rows' options.

The double coset B s_i B factors as X_i+ s_i B with the root subgroup
X_i+ = {I + c E_{i,i+1}}, so for a B-invariant characteristic function xi:

    (T_i * xi)(x) = sum over c in F of xi(s_i u(c)^{-1} x),

a sum of #F membership tests.  Membership in a Borel orbit is decided by
rank-profile equality, never by enumerating the Borel group.  The counting
moves the same sampled points for every source orbit of a generator, so
``_transform`` is an ``lru_cache`` large enough to keep every image of a
generator's pass until the pass has reused it.  Its key is small: the
field's ``_Samples``, hashed by identity, the sampled point's index, the
generator's column and c; its value is the image's orbit index, so a hit
hashes no point.  ``_image`` computes the image itself.  An image that is
not a classified point raises AssertionError naming the point, c and
generator.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import namedtuple
from functools import lru_cache

from .core import (
    Graph,
    Shape,
    enumerate_graphs,
    invariants,
    matrix_from_graph,
    rank_matrix,
)
from .hecke import _CASES, Basis, ModuleVector, _check_generator, _image_terms, generators

ENUMERATION_BUDGET = 10**5


def gaussian_binomial(n: int, r: int, q: int) -> int:
    """Number of r-dimensional subspaces of F_q^n, by q-Pascal:
    [m, k] = [m-1, k-1] + q^k [m-1, k].  It has no division, so any
    integer q works; q = 1 gives the binomial coefficient C(n, r)."""
    if not 0 <= r <= n:
        return 0
    powers = [q**k for k in range(r + 1)]
    row = [1] + [0] * r  # row[k] = [m, k], from m = 0
    for m in range(1, n + 1):
        for k in range(min(m, r), 0, -1):
            row[k] = row[k - 1] + powers[k] * row[k]
    return row[r]


def _check_field(field_size: int) -> int:
    """The field size as an int, coerced with ``operator.index`` as
    ``Shape`` coerces sizes, so a float or str raises TypeError; raise
    ValueError unless it is an odd prime within ``ENUMERATION_BUDGET``.
    A field over the budget is refused first, before trial division: for
    0 < r < n the Grassmannian has more than F points, and every
    certification record counts over all F field elements, so no run over
    such a field fits the budget."""
    field_size = operator.index(field_size)
    if field_size == 2:
        raise ValueError("field size 2 is excluded (characteristic must be odd)")
    if field_size > ENUMERATION_BUDGET:
        raise ValueError(f"field size is over the budget of {ENUMERATION_BUDGET}")
    if field_size < 2 or any(
        field_size % d == 0 for d in range(2, math.isqrt(field_size) + 1)
    ):
        raise ValueError(f"field size must be an odd prime, got {field_size}")
    return field_size


def grassmannian_size(shape: Shape, field_size: int) -> int:
    """Number of r-planes in F^n, checked before any point is built.

    Raises what ``_check_field`` raises for a bad field, and ValueError for
    a count over ``ENUMERATION_BUDGET``.
    """
    field_size = _check_field(field_size)
    total = gaussian_binomial(shape.n, shape.r, field_size)
    if total > ENUMERATION_BUDGET:
        raise ValueError(f"Grassmannian has {total} points, over the budget")
    return total


def _check_fields(shape: Shape, field_sizes) -> list:
    """The field sizes as ints, checked as one list before any work: each
    is coerced with ``operator.index``, a field given twice raises
    ValueError, and so does what ``grassmannian_size`` refuses for one
    field, or a list whose Grassmannians hold more than
    ``ENUMERATION_BUDGET`` points in all.  ``certify_theorem`` and the
    CLI's ``verify`` both call it, so they refuse the same lists."""
    field_sizes = [operator.index(f) for f in field_sizes]
    if len(set(field_sizes)) < len(field_sizes):
        raise ValueError("a field is given more than once")
    points = sum(grassmannian_size(shape, f) for f in field_sizes)
    if points > ENUMERATION_BUDGET:
        raise ValueError(f"the fields' Grassmannians have {points} points in all, over the budget")
    return field_sizes


def _cells(shape: Shape, field_size: int):
    """The Grassmannian's pivot cells: for each pivot-column choice, in
    ``itertools.combinations`` order, the list of its RREF rows, each as
    (+ entries, - entries).  A side's entries are, for each of its columns
    (the + columns 0..p-1 or the - columns p..n-1), the values the row
    takes there: (1,) at the pivot, every field value at a free column
    (right of the pivot, outside pivot columns), (0,) elsewhere.  Every
    entry takes its values independently of the others."""
    n, p = shape.n, shape.p
    values = tuple(range(field_size))
    for pivots in itertools.combinations(range(n), shape.r):
        rows = []
        for piv in pivots:
            entries = [
                (1,) if col == piv else values if col > piv and col not in pivots else (0,)
                for col in range(n)
            ]
            rows.append((tuple(entries[:p]), tuple(entries[p:])))
        yield rows


def _row_options(rows) -> list:
    """Each cell row's full rows: every + half, the product of its +
    entries, followed by every - half, the - half fastest.  Each half
    varies its last free entry fastest."""
    out = []
    for plus, minus in rows:
        minus_halves = list(itertools.product(*minus))
        out.append([a + b for a in itertools.product(*plus) for b in minus_halves])
    return out


def enumerate_grassmannian(shape: Shape, field_size: int) -> list:
    """All r-planes in F^n, each as its unique r x n RREF basis matrix.

    For each pivot cell of ``_cells``, every RREF row is built once from
    its + and - halves: its pivot is 1, and its free entries sit to the
    right of the pivot, outside pivot columns.  The points are the products
    of one row per pivot, so points share their row tuples.
    ``itertools.product`` varies the last row fastest and each row's
    options vary their last free entry fastest, so points come out with
    the free entries in (row, col) order, the last varying fastest.
    """
    total = grassmannian_size(shape, field_size)
    out = []
    for rows in _cells(shape, field_size):
        out.extend(itertools.product(*_row_options(rows)))
    if len(out) != total:
        raise AssertionError(f"enumerated {len(out)} points, expected {total}")
    return out


def _insert(basis: tuple, v, p: int) -> tuple:
    """The nonzero reduced row echelon rows mod p of span(basis, v), for
    ``basis`` in that form (with () the zero space) and ``v`` any integer
    vector of the same length; ``basis`` itself when v lies in its span.

    This is the oracle's one elimination routine.  In four steps:

    1. Reduce v mod p, and for each basis row subtract f times the row,
       where f is v's entry at the row's pivot ``row.index(1)``.  If v is
       then zero, return ``basis``.
    2. Scale v by the inverse of its first nonzero entry, at column c.
    3. Clear column c in every basis row by subtracting a multiple of v.
    4. Sort the rows in descending tuple order.

    Proof.  In reduced form each row's first nonzero entry is a 1, its
    pivot, and a pivot column is 0 in every other row; so ``row.index(1)``
    is the pivot.  Step 1 subtracts multiples of basis rows, so it keeps
    span(basis, v).  Row k is 0 at every other row's pivot, so its
    subtraction zeroes v at k's pivot and leaves v's other pivot entries
    alone: v ends 0 at every pivot column, whatever the order.  If v is
    zero, it lay in span(basis).  Otherwise its first nonzero entry sits
    at a column c that is no pivot column, and step 2 makes it 1.  Step 3
    subtracts row[c] times v from a row; v is 0 before c and at every old
    pivot column, and a row nonzero at c has its pivot before c, so each
    row keeps its leading 1 and its zeros at the other pivots, and column
    c is 0 in every row but v.  Step 3 also keeps the span, since v is
    one of the rows.  So every row has a leading 1 in a column that is 0
    in every other row.  Of two such rows, the one with the earlier pivot
    has a 1 where the other has its leading 0s, so it is the larger tuple:
    descending tuple order is pivot order, and the rows are the reduced
    row echelon form of span(basis, v).  That form is unique to the
    subspace, so equal spans give equal tuples.  Every entry is reduced
    mod p, so it lies in range(p).

    From the zero span the loop of step 1 is empty and there is no row to
    clear, so v is only reduced and scaled: ``(v,)`` is returned before
    step 3.  ``graph_subspace`` sorts its rows in the same order.
    """
    v = [x % p for x in v]
    for row in basis:
        f = v[row.index(1)]
        if f:
            v = [(x - f * y) % p for x, y in zip(v, row)]
    lead = next(filter(None, v), 0)
    if not lead:
        return basis
    if lead != 1:
        inv = pow(lead, -1, p)
        v = [x * inv % p for x in v]
    v = tuple(v)
    if not basis:
        return (v,)
    c = v.index(1)
    rows = [
        tuple((x - row[c] * y) % p for x, y in zip(row, v)) if row[c] else row
        for row in basis
    ]
    rows.append(v)
    rows.sort(reverse=True)
    return tuple(rows)


class _SpanTable:
    """The subspaces of F^r met so far, and the step table between them.

    Span ``s`` stands for the subspace whose nonzero reduced row echelon
    rows are ``bases[s]``; ``ids`` maps those rows back to ``s``, so equal
    subspaces share one id, and ``len(bases[s])`` is its dimension.
    ``steps[s][v]`` is the id of the span of ``s`` and the vector ``v``.
    Span 0 is the zero space.  ``step`` fills each step on first use by
    one ``_insert`` call.
    """

    def __init__(self, field_size: int):
        self.field_size = field_size
        self.bases = [()]
        self.ids = {(): 0}
        self.steps = [{}]

    def step(self, s: int, v) -> int:
        """``steps[s][v]``, the id of the span of ``s`` and ``v``, filled
        by one ``_insert`` call if missing.  This is the one place the
        table is stepped; a walk is a fold of it over its columns.

        Proof of the step.  A span's id is its nonzero reduced rows, which
        are unique to the subspace, so equal subspaces share one id.  The
        step from a span by a vector is the id of ``_insert`` of the span's
        rows and the vector, the reduced rows of their sum.  It depends
        only on the subspace, the vector, r and the field, so one table
        per (r, field) serves every point and shape, and a step filled once
        is one dict lookup instead of an elimination after.  By induction
        on k, folding ``step`` over columns 0..k from ``s`` meets the span
        of ``s`` and those columns.  ``tests/test_oracle.py`` checks every
        step of F^r against Gauss-Jordan elimination for r <= 3 and F in
        {3, 5}, entries shifted by +-F too.
        """
        try:
            return self.steps[s][v]
        except KeyError:
            pass
        basis = _insert(self.bases[s], v, self.field_size)
        t = self.ids.get(basis)
        if t is None:
            t = self.ids[basis] = len(self.bases)
            self.bases.append(basis)
            self.steps.append({})
        self.steps[s][v] = t
        return t


@lru_cache(maxsize=8, typed=True)
def _span_table(r: int, field_size: int) -> _SpanTable:
    """The span table of F^r over the field, shared by every shape with this
    r.  Its spans are subspaces of F^r and each step reads only a span and
    a vector of F^r, so nothing else changes it.  ``_SpanTable.step`` is
    the one place it is stepped, each new step by one ``_insert`` call:
    ``_WalkTrie`` steps each distinct walk prefix of a pivot cell's side by
    each vector of the next column, and ``rank_profile`` folds it over each
    new key's columns.  It never holds more steps than those calls took.
    A field ``_check_field`` refuses raises on every call, since
    ``lru_cache`` keeps no exception.  The cache is typed, so a float or
    bool equal to a cached int size misses that entry and is refused."""
    return _SpanTable(_check_field(field_size))


class _WalkTrie:
    """Walk prefixes interned as small ints, one numbering per shape.

    A prefix is the span ids met walking the first columns of a side's
    combination from the zero span.  Node 0 is the empty prefix, and a
    longer one is the node ``nodes[parent, span]`` of its parent prefix and
    its last span id, which ``spans`` holds per node.  So two prefixes get
    one node exactly when their span-id tuples are equal (see
    ``classify_orbits``).  ``paths`` holds each node's columns, in walk
    order, as the first combination that reached it walked them.
    """

    def __init__(self, step):
        self.step = step  # a _SpanTable's step, the one stepper
        self.nodes = {}
        self.spans = [0]
        self.paths = [()]

    def walks(self, side) -> tuple:
        """Each combination's walk int, for a side given as its rows'
        entries (one half of each ``_cells`` row): the combinations in
        product order over the side's columns, last column first, each
        column's vectors in product order over the rows.

        Each distinct prefix of a level is stepped by each vector of the
        next column once, and the next level is every entry of the level
        replaced by its node's row of children.  The last level is built as
        a tuple, which ``itertools.product`` takes without a copy."""
        step, nodes, spans, paths = self.step, self.nodes, self.spans, self.paths
        level = (0,)
        for column in reversed(list(zip(*side))):
            children = {}
            for node in dict.fromkeys(level):
                s = spans[node]
                row = children[node] = []
                for v in itertools.product(*column):
                    t = step(s, v)
                    child = nodes.get((node, t))
                    if child is None:
                        child = nodes[node, t] = len(spans)
                        spans.append(t)
                        paths.append(paths[node] + (v,))
                    row.append(child)
            level = tuple(itertools.chain.from_iterable(map(children.__getitem__, level)))
        return level


def rank_profile(w, shape: Shape, field_size: int) -> tuple:
    """(p+1) x (q+1) table of dim(W cap (F_i+ + F_j-)) for the standard flags.

    Proof.  F_i+ + F_j- is the coordinate subspace on + columns 1..i and -
    columns 1..j, so the intersection dimension is r minus the rank of W
    restricted to the other columns.  That rank is the dimension of the
    span in F^r of those columns of the r x n basis matrix, because column
    rank equals row rank.  With U_i the span of + columns i+1..p and M_j
    the span of - columns j+1..q, entry (i, j) is r - dim(U_i + M_j).

    Folding ``_SpanTable.step`` over the + columns p, p-1, ..., 1 from the
    zero span meets U_p = 0, U_{p-1}, ..., U_0, and over the - columns q,
    q-1, ..., 1 from U_i meets U_i, U_i + M_{q-1}, ..., U_i + M_0, so row i
    is that fold read backwards, with r - dim(U_i) = entry (i, q) last.
    A span's dimension is the number of its reduced rows, ``len(bases[s])``.
    ``classify_orbits`` reads the U_i and M_j walks on their own as a
    point's key, each walk once per + or - combination of a pivot cell,
    and calls this only for a key it has not met.

    ``w`` is any r x n integer matrix whose reduction mod ``field_size`` has
    rank r, such as a Grassmannian point; its entries need not lie in
    range(field_size), since ``_insert`` reduces each new step's vector mod
    p.  Raises ValueError for any other ``w``, and what ``_check_field``
    raises for a bad field whether or not its table is cached.  The rank
    needs no elimination of its own: corner (0, 0) is r - dim(U_0 + M_0) =
    r - rank(w), so it must be 0.
    """
    p, q, r = shape.p, shape.q, shape.r
    if len(w) != r or any(len(row) != p + q for row in w):
        raise ValueError(f"w must have {r} rows of {p + q} entries for {shape}")
    table = _span_table(r, field_size)
    bases, step = table.bases, table.step
    cols = list(zip(*w)) or [()] * (p + q)
    minus = cols[:p - 1:-1]  # - columns q down to 1
    rows = []
    for u in itertools.accumulate(cols[p - 1::-1], step, initial=0):  # U_p, ..., U_0
        sums = [*itertools.accumulate(minus, step, initial=u)]  # U_i + M_q, ..., U_i + M_0
        rows.append(tuple(r - len(bases[s]) for s in reversed(sums)))
    rows.reverse()
    if rows[0][0]:
        raise ValueError(f"w has rank {r - rows[0][0]} mod {field_size}, not r = {r}")
    return tuple(rows)


def graph_subspace(g: Graph) -> tuple:
    """The base point of the orbit: the column span of ``matrix_from_graph``
    (e_i + e_{p+j} per edge, e_i per + mark, e_{p+j} per - mark), in RREF
    over every field.

    The rows, one per column of the matrix, have 0/1 entries and disjoint
    supports, since each row of the matrix holds at most one 1, and none
    is zero (``PartialPermutationPair`` checks both).  So each row's first
    nonzero entry is a 1 in a column no other row touches.  Sorted by that
    column, which is descending tuple order as in ``_insert``, they are the
    reduced row echelon form of their span, with no elimination.  With
    r = 0 there are no rows and the form is ()."""
    return tuple(sorted(zip(*matrix_from_graph(g).matrix), reverse=True))


class OrbitClassification(
    namedtuple("OrbitClassification", "shape field_size graphs sizes orbit_of points")
):
    """All Grassmannian points grouped into Borel orbits: ``graphs`` in
    enumeration order, ``sizes`` their point counts, ``orbit_of`` from
    each RREF basis to its orbit index, and ``points[k]`` the tuple of
    subspaces in orbit k."""

    __slots__ = ()


# verify classifies one field at a time, and certify_theorem reuses that
# classification for every generator and orbit; a near-budget one holds
# about 10^5 points, so only the two most recent are kept.
@lru_cache(maxsize=2, typed=True)
def classify_orbits(shape: Shape, field_size: int) -> OrbitClassification:
    """Group all subspaces by rank profile and match them to orbit graphs,
    one pivot cell at a time.

    Any profile without a matching graph (or vice versa) is a hard failure:
    it would falsify the rank-matrix classification.  The field size is
    coerced by ``_check_field`` first.  The cache is typed, so a float or
    bool equal to a cached int size misses that entry and is refused, and
    the result's ``field_size`` is always an int.

    Proof that the walk key fixes the profile.  A point's key is the span
    ids met stepping the span table twice from the zero space
    (``_SpanTable.step``): through its + columns p, p-1, ..., 1, meeting
    U_{p-1}, ..., U_0, and through its - columns q, q-1, ..., 1, meeting
    M_{q-1}, ..., M_0, where U_i and M_j are the spans in F^r of the +
    columns after i and the - columns after j (U_p = M_q = 0).  A span id
    stands for one subspace of F^r, so the key fixes every U_i and M_j,
    hence every dim(U_i + M_j), and entry (i, j) of the rank profile is
    r - dim(U_i + M_j) (see ``rank_profile``).  Two points with one key
    thus have one profile and lie in one orbit, so ``rank_profile`` runs
    only for a key not seen before.

    Proof that a cell's keys factor.  In the cell of one pivot choice
    (``_cells``), every RREF entry takes its values independently, so the
    cell's points are the pairs (A, B) of a + combination A, the r x p
    matrix of the rows' + entries, and a - combination B, the r x q matrix
    of their - entries.  The U-walk reads only the + columns, which are
    A's, and the M-walk only the - columns, which are B's.  So each side's
    combinations are walked on their own and each walk is interned to a
    small int, one numbering for the whole shape; the key of point (A, B)
    is the pair (u, m) of their ints, and equal pairs are equal keys.
    ``index_of`` is filled once per new pair met in the cell, by
    ``rank_profile`` of one representative with that key (see below).

    The column product.  Entry (i, j) of a side's combination ranges over
    row i's values at column j, independently of every other entry.  So the
    side's combinations are the product over its columns j of V_j, the
    product over the rows of their values at column j (``itertools.product``,
    the last row fastest): a combination is one vector of each V_j.  Its
    walk steps through its columns p, p-1, ..., 1 (or q, ..., 1), so the
    combinations are listed in product order over V_{p-1}, ..., V_0, the
    first walked column slowest.

    Prefix sharing.  A walk prefix, the span ids met over the first t
    walked columns, is a node of a trie keyed by (parent node, span id),
    node 0 the empty prefix, and ``spans`` holds each node's last span.  By
    induction on t, two prefixes get one node exactly when their span-id
    tuples are equal: the key holds the parent, which stands for the tuple
    without its last id, and that last id.  A prefix's step by a vector is
    the step of its last span (``_SpanTable.step``), so each distinct node
    of a level is stepped by each vector of the next column once, giving
    the row of its children in V order, and the next level is every entry
    of the level replaced by its node's row, in order.  So level t lists
    the node of each t-column prefix in product order, and the last level
    lists each combination's walk int: equal ints are equal walks.  A new
    node's ``paths`` entry is its parent's with the vector that stepped
    it, so by the same induction it holds the columns, in walk order, of a
    prefix whose span ids are the node's.

    Index arithmetic.  The pair table lists the cell's orbit indices at
    u * |M| + m, for the u-th + and m-th - combination in column-walk
    order.  That position u is the mixed-radix number of the combination's
    column digits, column 0 least significant, and column j's digit is the
    mixed-radix number of its entries' value positions, the last row least
    significant.  So entry (i, j) at value position d adds d * st(i, j) to
    u, where st runs from 1 through column 0's rows r-1, ..., 0, then column
    1's, and so on, each entry multiplying it by its number of values; the
    same holds for m.  ``enumerate_grassmannian`` lists the cell's points
    in ``itertools.product`` order over the rows, each row's options
    (a_i, b_i) with b_i fastest and each half in product order over its
    entries.  So row i's option (a_i, b_i) adds its + entries' share of u
    times |M|, plus its - entries' share of m, to the table index, and the
    point's table index is the sum of its rows' offsets, taken in
    ``itertools.product`` order.  When |U| = 1 or |M| = 1 the offsets give
    each point its own position.  With r = 0 the one cell has no rows, one
    point and empty walks.

    The representative.  A new pair (u, m) is given the point whose + and
    - columns are ``paths[u]`` and ``paths[m]`` reversed, so columns 0, 1,
    ... in order, zipped into rows.  Its walks are u and m, so its key is
    (u, m), and by the first proof its profile is the profile of every
    point of the cell with that key.  It need not be a point of this cell,
    since the numbering is shared, but its rank is r: corner (0, 0) of the
    profile is r - rank, and the cell's points with that key have rank r.

    The alignment check.  The cells hand out orbit indices in order, and
    the points come from ``enumerate_grassmannian`` looked up through the
    module; each point must equal the cell's own point at its position,
    and the cells must use up exactly the enumerated points, or
    AssertionError is raised (a raise, not ``assert``, so ``python -O``
    keeps it).  Each cell's index iterator is zipped before the shared
    points iterator, so a finished cell takes no point from the next.
    """
    field_size = _check_field(field_size)
    graphs = enumerate_graphs(shape)
    profile_to_index = {rank_matrix(g).entries: k for k, g in enumerate(graphs)}
    trie = _WalkTrie(_span_table(shape.r, field_size).step)
    walks, paths = trie.walks, trie.paths
    index_of = {}  # (+ walk int, - walk int) -> orbit index

    def offsets(side) -> list:
        """Each row's share of its side's index, per half of the row in
        product order over its entries: entry (i, j) at value position d
        adds d * st(i, j)."""
        shares = [[] for _ in side]
        st = 1
        for column in zip(*side):
            for row, vals in reversed(list(zip(shares, column))):
                row.append(range(0, len(vals) * st, st))
                st *= len(vals)
        return [list(map(sum, itertools.product(*row))) for row in shares]

    def cell_orbits(rows):
        """The orbit index of each of the cell's points, in enumeration
        order, and the cell's point count.  The walk ints are dropped on
        return, before the cell's points are placed; only the pair table
        lives on in the iterator."""
        plus, minus = zip(*rows) if rows else ((), ())
        us = walks(plus)
        ms = walks(minus)
        m_ids = dict.fromkeys(ms)
        for u in dict.fromkeys(us):
            for m in m_ids:
                if (u, m) not in index_of:
                    w = tuple(zip(*paths[u][::-1], *paths[m][::-1]))
                    k = profile_to_index.get(rank_profile(w, shape, field_size))
                    if k is None:
                        raise AssertionError(f"subspace with unmatched rank profile: {w}")
                    index_of[u, m] = k
        # orbit index at u * |M| + m
        table = list(map(index_of.__getitem__, itertools.product(us, ms)))
        sm = len(ms)
        row_offsets = [
            [x * sm + y for x in xs for y in ys]
            for xs, ys in zip(offsets(plus), offsets(minus))
        ]
        return map(table.__getitem__, map(sum, itertools.product(*row_offsets))), len(table)

    points = enumerate_grassmannian(shape, field_size)
    rest = iter(points)
    used = 0
    buckets = [[] for _ in graphs]
    orbit_of = {}
    for rows in _cells(shape, field_size):
        ks, size = cell_orbits(rows)
        cell = itertools.product(*_row_options(rows))
        for k, w, expected in zip(ks, rest, cell):
            if w != expected:
                raise AssertionError(f"point {w} is not the cell's point {expected}")
            buckets[k].append(w)
            orbit_of[w] = k
        used += size
    if used != len(points):
        raise AssertionError(f"cells hold {used} points, enumerated {len(points)}")
    if any(not bucket for bucket in buckets):
        raise AssertionError("some orbit graph received no Grassmannian points")
    return OrbitClassification(
        shape,
        field_size,
        graphs,
        tuple(len(b) for b in buckets),
        orbit_of,
        tuple(tuple(b) for b in buckets),
    )


def expected_orbit_size(g: Graph, field_size: int) -> int:
    """(F-1)^b * F^(dim g - C(p,2) - C(q,2) - b) for an orbit with b edges.

    dim g - C(p,2) - C(q,2) is the dimension of the orbit's Borel orbit in
    the Grassmannian, and b is the dimension of the torus orbit of its base
    point: the torus fixes it exactly when t_i = t_{p+j} for every edge
    (i, j).  The count is checked, not proved: it equals the size
    ``classify_orbits`` finds for every orbit of every shape with p, q <= 5
    over F_3, F_5, F_7 and F_11 within the enumeration budget (4,286 orbit
    and field pairs; the tests run the 924 with p, q <= 3 over F_3 and F_5).
    """
    p, q = g.shape.p, g.shape.q
    inv = invariants(g)
    exponent = inv.dim - p * (p - 1) // 2 - q * (q - 1) // 2 - inv.b
    return (field_size - 1) ** inv.b * field_size**exponent


def classification_ok(cls: OrbitClassification) -> bool:
    """Whether every orbit holds ``expected_orbit_size`` points.

    The point total needs no check of its own: ``enumerate_grassmannian``
    raises unless it yields the Gaussian binomial count, and
    ``classify_orbits`` puts each point in exactly one orbit.
    """
    return all(
        size == expected_orbit_size(g, cls.field_size)
        for g, size in zip(cls.graphs, cls.sizes)
    )


def _image(w, a: int, c: int, p: int) -> tuple:
    """Image of the subspace under s_i u(c)^{-1}, in RREF.  Uncached: the
    certification caches the image's orbit through ``_transform``.

    u(c)^{-1} = I - c E_{a,a+1} and s_i swaps coordinates a and b = a+1
    (0-based), so each basis row changes in two coordinates only:
    row[a], row[b] = row[b], row[a] - c row[b].

    ``w`` must be in RREF with entries in range(p), as every Grassmannian
    point is.  Then only a pivot at a or at b can move, and the image is
    put back in RREF by a local fix-up instead of folding its rows through
    ``_insert``, which was 2.1-2.6 times slower per call on the four jobs
    of the oracle benchmark workloads.  A row with a pivot after b is zero
    at a and b and does not change, and a row with a pivot before a keeps
    it.  Pivot columns other than a and b keep their single nonzero entry.
    By the pivots at a and b:

    * Neither: a and b are not pivot columns before or after, so the
      changed rows are already in RREF.
    * b only, in row k: row k was (0, 1) at (a, b) and becomes (1, -c),
      with only zeros before a; every other row was 0 at b, so it becomes
      0 at a.  The pivot moves to a, between the same neighbours, and the
      rows are in RREF.
    * a only, in row k: row k was (1, x) and becomes (x, 1 - c x); a row
      j < k with entry y at b becomes (y, -c y).  If x != 0, scale row k
      by 1/x and clear column a in rows 0..k-1.  Otherwise row k is
      (0, 1): the pivot moves to b, and column b is cleared in rows
      0..k-1.
    * Both, in rows k and k+1: they were (1, 0) and (0, 1) and become
      (0, 1) and (1, -c).  Swap the two rows, then add c times the lower
      one to the upper one, which clears -c at b.

    Each case needs at most one row swap, one row scaling and one column
    cleared above that row; only rows nonzero at a or b are rebuilt.  In
    RREF every entry before a row's pivot is 0 and the pivot is 1, so the
    pivot is ``row.index(1)``.
    """
    b = a + 1
    rows = list(w)
    ka = kb = -1
    for k, row in enumerate(w):
        x, y = row[a], row[b]
        if x or y:
            pivot = row.index(1)
            if pivot == a:
                ka = k
            elif pivot == b:
                kb = k
            row = list(row)
            row[a], row[b] = y, (x - c * y) % p
            rows[k] = tuple(row)
    if ka >= 0 and kb >= 0:
        upper, lower = rows[kb], rows[ka]
        if c:
            upper = tuple((u + c * v) % p for u, v in zip(upper, lower))
        rows[ka], rows[kb] = upper, lower
    elif ka >= 0:
        row = rows[ka]
        x = row[a]
        if x:
            if x != 1:
                inv = pow(x, -1, p)
                row = rows[ka] = tuple(v * inv % p for v in row)
            col = a
        else:
            col = b
        for j in range(ka):
            f = rows[j][col]
            if f:
                rows[j] = tuple((u - f * v) % p for u, v in zip(rows[j], row))
    return tuple(rows)


class _Samples:
    """The points that ``_count_images`` samples in one classification:
    ``points`` is the flat tuple of each orbit's first min(3, |O_k|)
    points, ``ranges[k]`` the range of orbit k's samples in it, and
    ``orbit_of``, ``sizes`` and ``field_size`` are the classification's.

    It is a ``_transform`` key, so it is hashed and compared by identity:
    it has ``__slots__``, no ``__eq__``, and nothing changes it after
    ``__init__``.
    """

    __slots__ = ("points", "ranges", "orbit_of", "sizes", "field_size")

    def __init__(self, cls: OrbitClassification):
        points = []
        ranges = []
        for orbit in cls.points:
            start = len(points)
            points.extend(orbit[:3])
            ranges.append(range(start, len(points)))
        self.points = tuple(points)
        self.ranges = tuple(ranges)
        self.orbit_of = cls.orbit_of
        self.sizes = cls.sizes
        self.field_size = cls.field_size


@lru_cache(maxsize=8192)
def _transform(samples: _Samples, i: int, a: int, c: int) -> int:
    """The orbit index of ``_image`` of sampled point ``samples.points[i]``
    by the generator at ``a`` and c, cached so that a generator pass of
    ``certify_theorem`` computes each image once.  An image that is no
    classified point raises ``KeyError``, which ``lru_cache`` does not
    keep.

    The cache.  ``certify_theorem`` calls ``_count_images`` once per
    (generator, source orbit), and each call moves the same sampled points
    by every c, so in one generator's pass each image is asked for once
    per source orbit.  The key holds no point: the image depends on the
    point, a, c and the field, and ``samples`` and i fix the point and
    the field.  A hit hashes one object id and three small ints and
    returns the orbit index, where a point key would hash the r x n point
    and ``orbit_of`` would hash the image again.

    Proof that identity keys are sound.  ``_Samples`` has no ``__eq__``,
    so a key equals another only if both hold the same object.  A key
    holds a reference to its object, so the object lives, and no other
    object can take its identity, while the key is in the cache.  Nothing
    changes the object after ``__init__``, and ``orbit_of`` is the
    classification's dict, which nothing changes after
    ``classify_orbits`` returns; so a cached orbit index stays the index
    that the call would compute.  Two objects built from one
    classification get separate keys: the second recomputes, never reads
    a stale entry.

    What the keys keep alive.  A key holds its ``_Samples``, and through
    it the classification's ``orbit_of`` dict and sampled points, also
    after ``classify_orbits`` has dropped the classification.  So the
    cache keeps at most 8,192 classifications alive, one per key.  If
    every ``_count_images`` call runs to its end, it is fewer: a call
    asks for F >= 3 keys of one ``_Samples``, and an LRU cache that
    still holds a key holds every key used after it, so each
    ``_Samples`` in the cache but the least recent one brings at least 3
    keys, and at most 1 + 8,191 // 3 = 2,731 are held.  A call that
    raises can leave one key.  ``certify_theorem`` builds one
    ``_Samples`` per field and ``convolution_action`` one per call.
    ``cache_clear`` drops them all.

    Proof that the cache evicts no image before its pass reuses it.  A
    pass over the generator at ``a`` asks for (samples, i, a, c) for each
    of the first min(3, |O_k|) points of each orbit O_k and every c in F:
    at most 3 * orbits * F keys.  Over every shape with a generator and
    every field whose Grassmannian is within ``ENUMERATION_BUDGET``, that
    is at most 4,695 when the shape has more than one orbit, reached by
    (2,1,1), (2,1,2), (1,2,1) and (1,2,2) over F_313; with one orbit there
    is one source, so no key is asked for twice.  An LRU cache evicts a
    key only after ``maxsize`` other keys have been used since its last
    use.  Between two uses of a key in one pass, fewer than 4,695 other
    keys are used, so under the ``maxsize`` of 8,192 each image is
    computed at its first call in the pass, and every later call in the
    pass is a hit.
    """
    return samples.orbit_of[_image(samples.points[i], a, c, samples.field_size)]


def _count_images(samples: _Samples, a: int, source: int) -> dict:
    """T_i * xi_source by counting, as {orbit index: count}; ``a`` is the
    0-based first coordinate that s_i swaps.

    The value at a point x is the number of c in F with s_i u(c)^{-1} x in
    the source orbit.  It is counted at the first three points of every
    orbit, ``samples.ranges[k]``, which must agree with the first one's
    count (constancy), and the total mass, the sum of value times orbit
    size, must be F times the source orbit's size, which pins the support
    exactly.

    The count is one flat loop: orbits, then sampled points, then c.  Each
    (sampled point, field element) makes one ``_transform`` call, looked up
    through the module on every call, which returns the image's orbit.
    Every image is a point of the Grassmannian, so an image missing from
    ``orbit_of`` means ``_image`` or the classification is wrong: the
    ``KeyError`` becomes an AssertionError naming the field, ``a``, the
    source, the point and c.  Every check is a raise, not ``assert``, so
    ``python -O`` keeps it.  The calls do not depend on ``source``, so
    within one generator's pass ``_transform`` computes each image for the
    first source and returns its orbit from its cache for every later one.
    """
    field_size = samples.field_size
    field = range(field_size)
    coords = {}
    try:
        for k, sampled in enumerate(samples.ranges):
            first = -1
            for i in sampled:
                count = 0
                for c in field:
                    if _transform(samples, i, a, c) == source:
                        count += 1
                if first < 0:
                    first = count
                elif count != first:
                    raise AssertionError(f"convolution not constant on orbit {k}")
            if first:
                coords[k] = first
    except KeyError:
        raise AssertionError(
            f"image of point {samples.points[i]} under c = {c} (field {field_size},"
            f" a = {a}, source orbit {source}) is not a classified point"
        ) from None

    sizes = samples.sizes
    mass = sum(v * sizes[k] for k, v in coords.items())
    if mass != field_size * sizes[source]:
        raise AssertionError("convolution mass balance failed")
    return coords


def _swap_column(shape: Shape, side: str, i: int) -> int:
    """The 0-based column a of F^n that the generator (side, i) swaps with
    a + 1: the p columns of the + side come first, then the q of the -."""
    return i - 1 if side == "+" else shape.p + i - 1


def convolution_action(
    shape: Shape, field_size: int, side: str, i: int, g: Graph
) -> ModuleVector:
    """T_i * xi_g computed by counting, as an integer-coefficient vector.

    The counting, with its constancy and mass-balance checks, is
    ``_count_images`` on the samples of the field's ``classify_orbits``;
    this wraps its counts in a ``ModuleVector``.  Each call builds its own
    ``_Samples``, so a call reuses no image of an earlier call: every
    image is computed once per call.  Raises ValueError for a generator
    outside the shape or an orbit g of another shape, and TypeError for a
    non-integer index or field size, before any counting: the typed
    ``classify_orbits`` cache refuses a float equal to a classified field
    rather than serving that field's points.
    """
    i = _check_generator(shape, side, i)
    if g.shape != shape:
        raise ValueError(f"orbit of shape {g.shape} given for shape {shape}")
    cls = classify_orbits(shape, field_size)
    a = _swap_column(shape, side, i)
    return ModuleVector(shape, _count_images(_Samples(cls), a, Basis(shape).index[g]))


class CertificationRecord(
    namedtuple("CertificationRecord", "field_size side index orbit case expected observed")
):
    """One (field, generator, orbit) comparison; ``expected`` and
    ``observed`` map orbit index -> coefficient."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "field": self.field_size,
            "generator": f"{self.side}{self.index}",
            "orbit": self.orbit,
            "case": self.case,
            "expected": {str(k): v for k, v in sorted(self.expected.items())},
            "observed": {str(k): v for k, v in sorted(self.observed.items())},
        }


class CertificationReport(namedtuple("CertificationReport", "shape records")):
    __slots__ = ()

    @property
    def mismatches(self):
        return [rec for rec in self.records if rec.expected != rec.observed]

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def to_json(self) -> dict:
        return {
            "shape": self.shape._asdict(),
            "ok": self.ok,
            "records": [rec.to_json() for rec in self.records],
        }


def certify_theorem(shape: Shape, field_sizes) -> CertificationReport:
    """Compare symbolic coefficients (q, q-1, 1 in the three cases) against
    counted convolution coefficients, for every orbit, generator and field.

    Each field is classified once (``classify_orbits``, whose Grassmannian
    enumeration refuses a bad or oversized field before any point is
    built), and each generator's two rows, ``Basis.cases`` and
    ``Basis.partners``, are read as stored.  A record's ``expected`` is
    ``_image_terms`` of its orbit's case index and partner at the values
    (F, F - 1, 1) of q, q - 1 and 1, so the rule gives its int
    coefficients at q = F and no polynomial is evaluated; its ``observed``
    is ``_count_images`` for that orbit as the source; and its ``case`` is
    the ``GeneratorCase`` value "I", "II" or "III".  The two terms of case
    II are distinct orbits (``Basis``), so the dict keeps both.

    Each field's sampled points are one ``_Samples``, built once, and one
    generator's records form one pass of ``_count_images`` calls that move
    them; ``_transform``'s cache, keyed by that object, returns each
    image's orbit after the pass's first source has asked for it.  The
    object is new for each field and each call, so no call reads an orbit
    cached by another.  The field list is
    checked by ``_check_fields`` before any field is classified, so a
    float, a bad field, a field given twice or a list over the budget in
    all raises before any work.
    """
    field_sizes = _check_fields(shape, field_sizes)
    basis = Basis(shape)
    records = []
    for field_size in field_sizes:
        samples = _Samples(classify_orbits(shape, field_size))
        at = (field_size, field_size - 1, 1)
        for gen in generators(shape):
            a = _swap_column(shape, *gen)
            for idx, (case, jdx) in enumerate(zip(basis.cases[gen], basis.partners[gen])):
                expected = dict(_image_terms(idx, case, jdx, at))
                observed = _count_images(samples, a, idx)
                name = _CASES[case].value
                records.append(CertificationRecord(field_size, *gen, idx, name, expected, observed))
    return CertificationReport(shape, tuple(records))

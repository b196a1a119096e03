"""Hecke algebra module structure on the orbit space.

Each simple reflection s_i (on the + or - side) interacts with an orbit in
one of three ways, read off from the degrees of the vertices i, i+1:

* Case I:   s_i fixes the orbit; T_i acts by q.
* Case II:  degree ascent, or two incident edges that cross;
            T_i xi = (q-1) xi + q xi'.
* Case III: degree descent, or two incident edges that do not cross;
            T_i xi = xi'.

Here xi' is the basis vector of the reflected orbit.  Extending linearly
over integer polynomials in q gives the module structure; specializing at
q = 1 gives the permutation representation of the Weyl group S_p x S_q.

The rule is evaluated once per shape on the partner arrays ``core.Graph``
stores.  ``Basis(shape)`` holds two rows per generator: ``cases[gen]``, each
orbit's case as its index 0, 1 or 2 into ``_CASES``, and ``partners[gen]``,
each orbit's reflected orbit.  Every consumer reads those rows as stored.
"""

from __future__ import annotations

import enum
import itertools
import math
import operator
from collections import namedtuple
from functools import lru_cache

from .core import Graph, Shape, admissible_triples, enumerate_graphs, triple_count
from .polynomial import ONE, Q, ZERO, IntPoly


class GeneratorCase(enum.Enum):
    CASE_I = "I"
    CASE_II = "II"
    CASE_III = "III"


# The members in order.  Inside this module a case is its index here:
# 0 for case I, 1 for case II and 2 for case III.
_CASES = tuple(GeneratorCase)


def _case(a: tuple, i: int) -> int:
    """The case of generator i at an orbit, as its index into ``_CASES``,
    from its side's partner array (``Graph.plus`` or ``Graph.minus``).

    The rule reads degrees d, d' of vertices i, i+1 (0 free, 1 edge end,
    2 marked, as ``vertex_degree`` gives them): case I if d = d' != 1;
    else case II if d < d' and case III if d > d'; and for two edge ends,
    case II if the edges cross (the partners are out of order), else III.

    The two entries x, y are compared first.  Equal entries mean case I:
    an entry of 0 or -1 fixes its degree (0 or 2), and two edge ends never
    hold the same partner, since the partner vertex is joined to one
    vertex only; so x = y means both free or both marked.  Unequal
    entries that are both edge ends compare as partners.  Otherwise the
    degrees differ, because unequal entries of equal degree are both edge
    ends, and they are read inline."""
    x, y = a[i], a[i + 1]
    if x == y:
        return 0
    if x > 0 and y > 0:
        return 1 if x > y else 2
    d = 2 if x < 0 else 1 if x else 0
    d2 = 2 if y < 0 else 1 if y else 0
    return 1 if d < d2 else 2


@lru_cache(maxsize=None)
class Basis:
    """Orbit basis in canonical enumeration order, with index lookup and the
    generator action table, two rows per generator (side, i).

    ``cases[(side, i)]`` is a bytes row: entry k is the generator's case
    at orbit k, as its index 0, 1 or 2 into ``_CASES`` (cases I, II and
    III).  ``partners[(side, i)]`` is a tuple of ints: entry k is the
    index of the reflected orbit s_i . g, whose arrays are g's with
    entries i and i+1 of the side's array a swapped and the partners
    i <-> i+1 renamed in the other array.

    The partner is k itself exactly in case I.  In case I both entries are
    0 (free) or both -1 (marked): the swap changes nothing, and no vertex
    of the other side is joined to i or i+1, so the renaming changes
    nothing either.  In cases II and III either the degrees differ, so
    a[i] != a[i+1] because an entry fixes its vertex's degree, or both
    vertices carry an edge, and a[i] != a[i+1] because a vertex of the
    other side is joined to at most one vertex.  Either way the swap
    changes a, so the reflected orbit is another one.  So the table sets
    the case I partner to k without reflecting, and looks up the reflected
    orbit only in cases II and III.

    Orbit keys.  Let R = max(p, q) + 2.  Entry i of ``plus`` has the place
    value R^i (i = 0..p) and entry j of ``minus`` the place value
    R^(p+1+j) (j = 0..q), and an orbit's key is the sum over both arrays
    of (entry + 1) times the entry's place value.  Every entry lies in
    -1..max(p, q): -1 marked, 0 free or padding, else a partner label of
    the other side.  So each digit entry + 1 lies in 0..R-1, and the key
    is the base-R numeral of the digits.  A numeral whose digits lie in
    0..R-1 has one value, so distinct orbits have distinct keys, and
    ``by_key`` maps each key to its orbit.

    The key step.  Let x = a[i] and y = a[i+1].  Only the partners of i
    and i+1 hold the labels i and i+1 in the other array: entry x > 0 of
    one side means entry x of the other side is its vertex.  So the
    reflection rewrites at most four entries: a[i] becomes y and a[i+1]
    becomes x; if x > 0, entry x of the other array goes from i to i+1;
    if y > 0, entry y goes from i+1 to i (x != y in cases II and III, so
    these are two entries).  Each new entry lies in -1..max(p, q) again,
    so the reflected arrays have the digits of a key, and since the key is
    linear in the digits their key is the key plus

        delta = (y - x) (R^i - R^(i+1)) + [x > 0] R^x' - [y > 0] R^y',

    where R^i and R^(i+1) are the place values of entries i and i+1 of a,
    and R^x' and R^y' those of entries x and y of the other array.  So
    ``by_key[key + delta]`` is the reflected orbit, read with no array
    copied and no tuple hashed; a key with no orbit raises KeyError.

    Each partner map is an involution.  In case I the partner is k
    itself.  In cases II and III, at the partner k' the entries i and i+1
    of a are y, x, still unequal, so k' is in case II or III too, and
    entries x and y of the other array hold i+1 and i.  So the key step at
    k' is (x - y) (R^i - R^(i+1)) + [y > 0] R^y' - [x > 0] R^x' = -delta,
    and the partner of k' has the key key(k) + delta - delta = key(k): it
    is k.

    Each partner map keeps the type (k, s, t).  The key step swaps entries
    i and i+1 of one array and moves entries x and y of the other array,
    which are partner labels > 0, to the labels i+1 and i.  So no -1 entry
    is made or unmade, and the counts s and t of -1 in the two arrays, and
    k = r - s - t, are those of the orbit.
    """

    def __init__(self, shape: Shape):
        self.graphs = enumerate_graphs(shape)
        self.index = {g: i for i, g in enumerate(self.graphs)}
        base = max(shape.p, shape.q) + 2
        powers = [base**e for e in range(shape.n + 2)]
        place = (powers[: shape.p + 1], powers[shape.p + 1 :])  # per side
        arrays = ([g.plus for g in self.graphs], [g.minus for g in self.graphs])
        offset = sum(powers)  # the + 1 of every digit
        mul = operator.mul
        keys = [
            sum(map(mul, plus, place[0])) + sum(map(mul, minus, place[1])) + offset
            for plus, minus in zip(*arrays)
        ]
        by_key = {key: k for k, key in enumerate(keys)}
        self.cases, self.partners = {}, {}
        for side, i in generators(shape):
            s = "+-".index(side)
            own, other = place[s], place[1 - s]
            swap = own[i] - own[i + 1]
            cases = bytes([_case(a, i) for a in arrays[s]])
            partners = list(range(len(keys)))  # each orbit its own, as in case I
            for k, (case, key, a) in enumerate(zip(cases, keys, arrays[s])):
                if case:
                    x, y = a[i], a[i + 1]
                    key += (y - x) * swap
                    if x > 0:
                        key += other[x]
                    if y > 0:
                        key -= other[y]
                    partners[k] = by_key[key]
            self.cases[(side, i)] = cases
            self.partners[(side, i)] = tuple(partners)

    def __len__(self):
        return len(self.graphs)


def generators(shape: Shape) -> list:
    """All simple reflections of S_p x S_q as (side, i) labels."""
    return [("+", i) for i in range(1, shape.p)] + [
        ("-", j) for j in range(1, shape.q)
    ]


def _check_generator(shape: Shape, side: str, i: int) -> int:
    """The index i as an int, coerced with ``operator.index`` as ``Shape``
    coerces sizes, so a float or str index raises TypeError; raises
    ValueError for a side or index outside the shape."""
    bound = shape.p if side == "+" else shape.q if side == "-" else None
    if bound is None:
        raise ValueError(f"side must be '+' or '-', got {side!r}")
    i = operator.index(i)
    if not 1 <= i <= bound - 1:
        raise ValueError(f"generator index {i} out of range on side {side}")
    return i


def classify(g: Graph, side: str, i: int) -> GeneratorCase:
    """Which of the three cases the generator (side, i) is in at the orbit g."""
    i = _check_generator(g.shape, side, i)
    return _CASES[_case(g.plus if side == "+" else g.minus, i)]


class ModuleVector(namedtuple("ModuleVector", "shape coords")):
    """Finite IntPoly-linear combination of orbit basis vectors, keyed by
    the orbit's index in the enumeration order.  Zero coordinates are
    never stored.  ``coords`` is a dict, so a vector does not hash."""

    __slots__ = ()
    __hash__ = None

    def __new__(cls, shape, coords=None):
        coords = {k: c for k, v in (coords or {}).items() if (c := IntPoly.coerce(v))}
        return tuple.__new__(cls, (shape, coords))

    @classmethod
    def _make(cls, fields):
        """Build through the normalising constructor, as ``_replace`` does."""
        return cls(*fields)

    @staticmethod
    def basis_vector(shape: Shape, index: int) -> "ModuleVector":
        # ONE is nonzero, so the normalising constructor would keep it as is.
        return tuple.__new__(ModuleVector, (shape, {index: ONE}))

    def __eq__(self, other):
        return (
            isinstance(other, ModuleVector)
            and self.shape == other.shape
            and self.coords == other.coords
        )

    def __ne__(self, other):
        # tuple's != would compare the fields, and so equal a plain tuple
        return not self == other

    def specialize(self, value: int) -> dict:
        """Evaluate every coordinate at an integer, dropping zeros."""
        out = {k: v(value) for k, v in self.coords.items()}
        return {k: v for k, v in out.items() if v}


# The rule's three coefficients q, q - 1 and 1 as polynomials in q: the
# values ``_image_terms`` and ``_relations`` take unless a caller gives its own.
_SYMBOLIC = (Q, Q - 1, ONE)


def _image_terms(idx: int, case: int, jdx: int, at: tuple = _SYMBOLIC) -> tuple:
    """T_i xi_idx as (orbit index, coefficient) pairs, where jdx is the
    reflected orbit and ``case`` the case's index into _CASES: q xi,
    (q-1) xi + q xi' or xi' by the three cases.

    ``at`` holds the values (q, q - 1, 1) the coefficients take: the
    polynomials by default, or the ints at one q, as ``verify_relations``
    (q = 64) and ``certify_theorem`` (q = |F|) pass them.  The rule is
    written here alone, so every caller reads the same three cases."""
    q, q_minus_one, one = at
    if not case:
        return ((idx, q),)
    if case == 1:
        return ((idx, q_minus_one), (jdx, q))
    return ((jdx, one),)


def apply_generator(side: str, i: int, v: ModuleVector) -> ModuleVector:
    """T_i * v, extended linearly from the three-case rule on basis vectors."""
    i = _check_generator(v.shape, side, i)
    basis = Basis(v.shape)
    cases, partners = basis.cases[(side, i)], basis.partners[(side, i)]
    out = {}
    for idx, coeff in v.coords.items():
        if not 0 <= idx < len(cases):
            raise ValueError(f"orbit index {idx} out of range for {v.shape}")
        for k, c in _image_terms(idx, cases[idx], partners[idx]):
            out[k] = out.get(k, ZERO) + c * coeff
    return ModuleVector(v.shape, out)


class _SparseRows:
    """The rows of an n x n matrix kept as their nonzero terms, read as a
    sequence of n dense rows.

    ``terms[r]`` is row r's (col, entry) pairs in increasing column order.
    ``rows[r]`` builds row r as a tuple of n entries, ``ZERO`` where row r
    has no term, and iteration yields the rows in order.  A slice gives a
    tuple of dense rows.  ``==`` holds with another ``_SparseRows`` of the
    same terms, or with a tuple of the n dense rows from either side, and
    the hash is that tuple's, so the two compare and hash alike.  It is
    no tuple subclass, because a tuple's hash, slices and ``+`` would read
    the terms and not the rows."""

    __slots__ = ("_n", "_terms")

    def __init__(self, n: int, terms: tuple):
        self._n = n
        self._terms = terms

    terms = property(operator.attrgetter("_terms"))

    def __len__(self):
        return self._n

    def __getitem__(self, r):
        if isinstance(r, slice):
            return tuple(map(self.__getitem__, range(self._n)[r]))
        row = [ZERO] * self._n
        for col, entry in self._terms[r]:
            row[col] = entry
        return tuple(row)

    def __iter__(self):
        return map(self.__getitem__, range(self._n))

    def __eq__(self, other):
        if isinstance(other, _SparseRows):
            return self._n == other._n and self._terms == other._terms
        if isinstance(other, tuple):
            return len(other) == self._n and all(map(operator.eq, self, other))
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self))

    def __repr__(self):
        return f"_SparseRows({self._n}, {self._terms!r})"


class OperatorMatrix(namedtuple("OperatorMatrix", "shape side index entries")):
    """T_i over the orbit basis; ``entries[row][col]`` is an IntPoly.

    ``entries`` keeps the n x n matrix as its sparse rows (``_SparseRows``):
    by the three cases each column has at most two nonzeros, so row r has
    nonzeros in columns r and r' (its partner) at most.  Indexing builds
    one dense row; ``entries.terms`` gives each row's nonzero terms, from
    which ``hecke-matrix`` writes its CSV."""

    __slots__ = ()

    def specialize(self, value: int) -> tuple:
        return tuple(tuple(e(value) for e in row) for row in self.entries)


def operator_matrix(shape: Shape, side: str, i: int) -> OperatorMatrix:
    """Matrix of T_i over the orbit basis, columns = images of basis
    vectors, kept as its sparse rows.

    One pass over the columns in order appends each term of
    ``_image_terms`` to its row, so every row's terms come out in
    increasing column order with no sort.  A column's rows are distinct:
    case II's partner is another orbit (``Basis``), so no row gets two
    terms in one column."""
    i = _check_generator(shape, side, i)
    basis = Basis(shape)
    n = len(basis)
    rows = [[] for _ in range(n)]
    for col, (case, jdx) in enumerate(zip(basis.cases[(side, i)], basis.partners[(side, i)])):
        for row, coeff in _image_terms(col, case, jdx):
            rows[row].append((col, coeff))
    return OperatorMatrix(shape, side, i, _SparseRows(n, tuple(map(tuple, rows))))


class RelationCheck(namedtuple("RelationCheck", "name ok witness", defaults=(None,))):
    """One relation's verdict; ``witness`` is the first orbit index with a
    nonzero residue, or None."""

    __slots__ = ()


# The integer point every relation is decided at; see verify_relations.
_Q0 = 64


def _relations(shape: Shape, at: tuple = _SYMBOLIC) -> list:
    """The defining relations as (name, terms): each term is (c, word),
    and the relation says the sum of c * word vanishes.  A word lists
    generators left to right and acts right to left.

    Each c is written from ``at``, the values (q, q - 1, 1) as
    ``_image_terms`` takes them: 1, -(q - 1), -q or -1.  So the default
    gives IntPoly coefficients, and ``verify_relations`` gets ints at
    q = _Q0 with no polynomial evaluated."""
    q, q_minus_one, one = at
    gens = generators(shape)
    # (T+1)(T-q) v = T^2 v - (q-1) T v - q v
    relations = [
        (f"quadratic {s}{i}", ((one, ((s, i), (s, i))), (-q_minus_one, ((s, i),)), (-q, ())))
        for s, i in gens
    ]
    for a, b in itertools.combinations(gens, 2):
        braid = a[0] == b[0] and abs(a[1] - b[1]) == 1
        lhs, rhs = ((a, b, a), (b, a, b)) if braid else ((a, b), (b, a))
        name = f"{'braid' if braid else 'commute'} {a[0]}{a[1]},{b[0]}{b[1]}"
        relations.append((name, ((one, lhs), (-one, rhs))))
    return relations


def _vanishes(terms: tuple, start: dict) -> bool:
    """Whether the sum of c * word(v) over the terms (c, columns) is zero at
    q = _Q0, where ``start`` is v at _Q0.  Each c is the relation's int
    coefficient, as ``_relations`` writes it from the values at _Q0, and
    ``columns`` lists the word's letters in the order they act, each as
    the sequence whose entry k holds T xi_k as ``_image_terms`` gives it at
    _Q0: (orbit, int coefficient) pairs.  Each word is applied to v in
    full."""
    residue = {}
    for coeff, columns in terms:
        vec = start
        for column in columns:
            out = {}
            for idx, y in vec.items():
                for k, c in column[idx]:
                    out[k] = out.get(k, 0) + c * y
            vec = out
        for k, y in vec.items():
            residue[k] = residue.get(k, 0) + coeff * y
    return not any(residue.values())


def _words(form: tuple, case_rows: tuple, partner_rows: tuple, rule: tuple) -> list:
    """A relation's terms as ``_vanishes`` takes them.  ``form`` is the
    relation's (c, word) terms with each letter written 0 or 1, and row g
    of ``case_rows`` and ``partner_rows`` gives letter g's case (an index
    into _CASES) and partner at each position, as ``Basis`` stores them.
    ``rule[case]`` is ``_image_terms(0, case, 1, at)``, and column g's
    entry j is those terms with the label 0 read as j and 1 as j's
    partner: that is ``_image_terms(j, case, partner, at)``, since the
    rule reads its orbit indices only as labels."""
    columns = [
        [
            [(jdx if label else j, c) for label, c in rule[case]]
            for j, (case, jdx) in enumerate(zip(*rows))
        ]
        for rows in zip(case_rows, partner_rows)
    ]
    return [(coeff, [columns[g] for g in reversed(word)]) for coeff, word in form]


def _block(c: int, maps: tuple):
    """The block of orbit c under the partner maps of two generators: its
    members in walk order, the letter (0 or 1) of the step from position
    0 to 1, and whether it is a cycle.  None if a step is not undone by
    its own map there, so the maps are not both involutions.

    The walk from c takes maps[0], maps[1], maps[0], ... until it comes
    back to c, a cycle, or reaches a member that its next map fixes.  That
    member ends a path, and the path is walked again from it.  Each step
    m -> m' is checked to have maps[g][m'] = m, and so the walk never
    meets a member twice except by closing a cycle at c."""
    g, m = 0, c
    members = [c]
    while (nxt := maps[g][m]) != m:
        if maps[g][nxt] != m:
            return None
        if nxt == c:
            return members, 0, True
        members.append(nxt)
        m, g = nxt, g ^ 1
    join = g = g ^ 1  # maps[g] fixes the end m, so the path leaves it by the other
    members = [m]
    while (nxt := maps[g][m]) != m:
        if maps[g][nxt] != m:
            return None
        members.append(nxt)
        m, g = nxt, g ^ 1
    return members, join, False


@lru_cache(maxsize=128)
def _block_verdicts(
    form: tuple, rule: tuple, join: int, cycle: bool, cases_a: bytes, cases_b: bytes
) -> tuple:
    """Whether the relation ``form`` vanishes at each position of a block
    with the given picture, under the rule ``rule`` (see ``_words``),
    decided on the block's own table over the positions 0..size-1, where
    position j has the cases cases_a[j] and cases_b[j].  The step from
    position e to e + 1 (to 0 from the last position of a cycle) is taken
    by letter join ^ (e & 1); every other partner is the position itself.

    The verdicts are a function of the arguments alone, so they are kept
    for the life of the process: each (form, rule, picture) is decided
    once, however many shapes and calls share it.  The cache holds at most
    128 entries.  The real rule gives 19 keys on the 136 shapes with
    p+q <= 7 and (4,4,4), (5,3,4), (5,4,5) (``tests/test_hecke.py``
    counts them), and another rule, such as a test's mutant, has keys of
    its own; an evicted entry is decided again."""
    size = len(cases_a)
    partners = [list(range(size)), list(range(size))]
    for e in range(size if cycle else size - 1):
        g, f = join ^ (e & 1), (e + 1) % size
        partners[g][e], partners[g][f] = f, e
    words = _words(form, (cases_a, cases_b), partners, rule)
    return tuple([_vanishes(words, {j: 1}) for j in range(size)])


def verify_relations(shape: Shape) -> list:
    """Check the defining Hecke relations as exact polynomial identities.

    Quadratic (T+1)(T-q) = 0 for every generator; commutation for distinct
    non-adjacent (or opposite-side) pairs; braid for adjacent same-side
    pairs.  Checked on every basis vector; failures are reported, not
    raised.  A failed relation's ``witness`` is the first orbit index
    whose residue is nonzero.

    A relation is a sum of terms c(q) * word that must vanish on every basis
    vector.  Evaluation at q = x commutes with the arithmetic, so it is
    checked with plain integers at the single point q = _Q0 = 64, and that
    decides it.  ``_image_terms`` and ``_relations`` take the values
    (q, q - 1, 1) at _Q0 and so write their coefficients as ints at once:
    no polynomial they would return is built or evaluated.  Write |f| for
    the sum of the absolute values of the coefficients of an integer
    polynomial f; |fg| <= |f| |g|.

    * Each column of T_i has summed |coefficient| <= 3: case I gives
      |q| = 1, case II |q-1| + |q| = 3 and case III |1| = 1.
      So T_i at most triples the summed |coordinate| of a vector, and a
      word of length l applied to a basis vector gives coordinates whose
      summed |.| is at most 3^l.
    * Relation coefficients have |c| <= 2 and words have length <= 3, so
      every coordinate of a residue is an integer polynomial f with
      |f| <= 27 + 27 = 54 (braid; quadratic gives 9 + 2*3 + 1 = 16 and
      commutation 9 + 9 = 18).
    * A nonzero integer polynomial f of degree d with |f| < x cannot
      vanish at x: its top coefficient contributes at least x^d, and the
      others at most (|f| - 1) x^(d-1) < x^d.

    Since 54 < 64, a residue vanishes at _Q0 exactly when it is zero.
    Every intermediate value is below 2^30 (columns at most 2q - 1 = 127
    at _Q0, words of three letters, coefficients at most 64), so all of it
    is small-int arithmetic.

    Each residue is decided once per block, not once per orbit.  A
    relation has the letters a and b (a = b for a quadratic one), and
    T_a sends xi_m into span{xi_m, xi_m'}, where m' is m's partner under
    a in ``Basis.partners``.  So the span of each orbit of the two partner
    maps, a block, is invariant under both letters, and the residue at
    xi_k lies in the span of k's block.  The partner maps are involutions
    (proved in ``Basis``'s docstring), and two involutions have
    dihedral orbits: a block is a path, whose ends are fixed by one map,
    or an even cycle, and ``_block`` walks it.  Relabel the block's
    members by their positions in the walk.  ``_image_terms`` reads its
    orbit indices only as labels (``tests/test_hecke.py`` checks that
    relabelling commutes with it), so under the relabelling the residue
    at xi_k is the residue at k's position on the block's own table,
    whose columns are ``_image_terms`` at _Q0 as before; so the bound
    54 < 64 decides it there too.  That table is fixed by the block's
    picture (path or cycle, the letter of the first step, and each
    member's case under a and b) and by the rule.

    The rule is read once per call, as its signature: for each case, the
    terms ``_image_terms(0, case, 1, at)`` at _Q0, on the labels 0 (the
    orbit) and 1 (its partner).  By the same premise, reading 0 as a
    position and 1 as its partner (the position itself in case I) gives
    that position's column, so ``_words`` builds every column from the
    signature and calls no rule.  A block's verdicts are then a function
    of (relation form, rule signature, picture) alone, and
    ``_block_verdicts`` keeps them for the life of the process: each key
    is decided once, however many shapes and calls share it.  The rule is
    in the key because a verdict depends on it: a mutated rule patched in
    for ``_image_terms`` has another signature, and so verdicts of its
    own, never those of the real rule.  In front of that cache a per-call
    dict keyed by form and picture serves the blocks of one call, so a
    block hashes only its picture, not the nested form and signature.
    Blocks with the same picture share the verdicts, and a member whose
    case differs gives another picture.  A step that its own map does not
    undo (only a damaged table has one) makes ``_block`` return None, and
    that orbit is decided by applying the words to it on the whole table,
    whose columns ``_words`` builds from the signature too.

    The check still builds one basis vector per relation and orbit, in
    orbit order, reads the verdict at that vector's index, and stops at
    the first orbit whose residue is nonzero: that is the witness.
    ``tests/test_hecke.py`` checks the premises on ``_image_terms`` and
    the relation coefficients, that both, given the values at a point,
    return the polynomials' values there, and that the reports equal
    ``tests/reference.py``'s orbit-by-orbit check.
    """
    at = (_Q0, _Q0 - 1, 1)
    # The rule's signature: each case's terms at the labels 0 (the orbit)
    # and 1 (its partner), a key built from a list (see the note below).
    rule = tuple([_image_terms(0, case, 1, at) for case in range(len(_CASES))])
    basis = Basis(shape)
    n = len(basis)
    # The case rows as lists, once per call: a picture reads one entry per
    # member, and a list's __getitem__ is cheaper to call than a bytes row's.
    case_lists = {gen: list(cases) for gen, cases in basis.cases.items()}
    pictures = {}  # relation form -> block picture -> verdict per position
    report = []
    for name, terms in _relations(shape, at):
        pair = terms[0][1][:2]  # the letters a, b of the first word; a, a if quadratic
        # Keys are built from lists and bytes: in CPython a small tuple built
        # from an iterator is not taken from the tuple free list but is put
        # on it when freed, so each such key would grow that list for the
        # life of the process (up to 2,000 tuples of each size).
        form = tuple([(coeff, tuple([pair.index(gen) for gen in word])) for coeff, word in terms])
        seen = pictures.setdefault(form, {})
        case_rows = (case_lists[pair[0]], case_lists[pair[1]])
        case_of_a, case_of_b = case_rows[0].__getitem__, case_rows[1].__getitem__
        partner_rows = (basis.partners[pair[0]], basis.partners[pair[1]])
        whole = None  # the words on the whole table, built if a block is damaged
        ok = [None] * n
        witness = None
        for c in range(n):
            (k,) = ModuleVector.basis_vector(shape, c).coords
            if ok[k] is None:
                block = _block(k, partner_rows)
                if block is None:
                    whole = whole or _words(form, case_rows, partner_rows, rule)
                    ok[k] = _vanishes(whole, {k: 1})
                else:
                    members, join, cycle = block
                    cases_a = bytes(map(case_of_a, members))
                    picture = (join, cycle, cases_a, bytes(map(case_of_b, members)))
                    if picture not in seen:
                        seen[picture] = _block_verdicts(form, rule, *picture)
                    for m, verdict in zip(members, seen[picture]):
                        ok[m] = verdict
            if not ok[k]:
                witness = c
                break
        report.append(RelationCheck(name, witness is None, witness))
    return report


class WeylBlock(namedtuple("WeylBlock", "k s t orbit_size stabilizer_order")):
    """One W-orbit of the basis; (k, s, t) is its type."""

    __slots__ = ()


def q1_action_is_permutation(shape: Shape) -> bool:
    """At q = 1 every generator acts as the vertex-relabelling permutation.

    Read off the two rows ``Basis`` stores for each generator, where
    k' = ``partners[gen][k]`` is the partner of orbit k and
    ``cases[gen][k]`` its case (0 for case I).  At q = 1 the three cases
    give T_i xi_k = q xi_k = xi_k (case I), (q-1) xi_k + q xi_k' = xi_k'
    (case II) and xi_k' (case III).  So T_i maps xi_k to xi_k' for every
    k exactly when case I has k' = k, which is checked first.  The map
    k -> k' is also checked to be an involution, so it is a bijection of
    the basis and T_i at q = 1 is a permutation of order at most 2, as
    for a transposition.

    Both facts are proved in ``Basis``'s docstring, and no library code
    calls this; ``tests/test_hecke.py`` asserts it on every shape with
    p+q <= 7 and checks that it returns False on a damaged table.
    """
    basis = Basis(shape)
    for gen, partners in basis.partners.items():
        for idx, (case, jdx) in enumerate(zip(basis.cases[gen], partners)):
            if not case and jdx != idx:
                return False
            if partners[jdx] != idx:
                return False
    return True


def weyl_decompose(shape: Shape) -> list:
    """Decompose the q = 1 permutation representation of W = S_p x S_q.

    One ``WeylBlock(k, s, t, n, p! q! // n)`` per admissible triple, with
    n = ``triple_count`` of the triple, in the lex order of
    ``admissible_triples``, which is the blocks' sorted order.  The basis
    splits into one W-orbit per type (k, s, t), so the representation is
    the direct sum of one Ind_H^W 1 per type, for the stabilizer
    H = (diagonal S_k) x S_s x S_s' x S_t x S_t', where s' = p-k-s and
    t' = q-k-t.  No orbit is enumerated or walked, because of these facts:

    * At q = 1 the representation is the relabelling action ``weyl_act``.
      With k' the partner of orbit k in ``Basis.partners``, the three
      cases give xi_k (case I), (q-1) xi_k + q xi_k' = xi_k' (case II) and
      xi_k' (case III).  The partner is k exactly in case I and the
      partner map is an involution (``Basis``'s docstring), so T_i at
      q = 1 is the permutation k -> k'.  Each partner row is ``weyl_act``
      of the adjacent transposition (i, i+1) on the generator's side: the
      reflected arrays swap entries i and i+1 and rename the partners
      i <-> i+1 (``tests/test_hecke.py::test_action_table_matches_reference``
      checks it for p+q <= 7).  The adjacent transpositions generate
      S_p x S_q, and ``weyl_act`` is a group action
      (``tests/test_core.py::TestWeylAct::test_action_law``), so the
      W-orbits of the basis are the orbits of ``weyl_act``.
    * ``weyl_act`` keeps the type: it sends an edge (i, j) to the edge
      (w1(i), w2(j)), a mark to a mark and a free vertex to a free vertex.
    * W acts transitively on the graphs of one type.  Let g and g' have
      the type (k, s, t), with the edges (i_m, j_m) and (i'_m, j'_m) for
      m = 1..k, the + marks M and M', the + free vertices F and F', the
      - marks N and N' and the - free vertices G and G'.  Let w1 send
      i_m to i'_m for each m, M onto M' and F onto F', each in increasing
      order; and w2 send j_m to j'_m, N onto N' and G onto G'.  The ends
      i_m, M and F partition 1..p into parts of sizes k, s and s', and so
      do their primed counterparts, so w1 is a permutation; so is w2, with
      the sizes k, t and t'.  Then weyl_act((w1, w2), g) has the edges
      (i'_m, j'_m), the marks M' and N' and the free vertices F' and G':
      it is g'.
    * The types are the admissible triples, and each has ``triple_count``
      members (the proof of the order by type in
      ``core.enumerate_graphs``'s docstring).

    So each type is one W-orbit of n = ``triple_count`` members, and
    orbit-stabilizer gives |Stab(g)| = p! q! / n = k! s! s'! t! t'!, the
    order of H: the (w1, w2) that permute the edges among themselves by
    one permutation of 1..k and each of M, F, N and G within itself.
    ``tests/reference.py``'s ``reference_weyl_blocks`` walks the partner
    rows orbit by orbit and checks each orbit's size; the tests compare
    the two block by block on every shape with p+q <= 8.
    """
    group_order = math.factorial(shape.p) * math.factorial(shape.q)
    blocks = []
    for triple in admissible_triples(shape):
        n = triple_count(shape, triple)
        blocks.append(WeylBlock(*triple, n, group_order // n))
    return blocks

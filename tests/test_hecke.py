import itertools
import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doubleflag import (
    GeneratorCase,
    Graph,
    ModuleVector,
    OperatorMatrix,
    Shape,
    apply_generator,
    classify,
    enumerate_graphs,
    make_graph,
    operator_matrix,
    verify_relations,
    weyl_act,
    weyl_decompose,
)
from doubleflag import hecke
from doubleflag.core import vertex_degree
from doubleflag.hecke import _CASES, Basis, RelationCheck, _image_terms, generators
from doubleflag.polynomial import ONE, Q, ZERO, IntPoly
from reference import (
    reference_action,
    reference_operator_entries,
    reference_reflected,
    reference_relation_checks,
    reference_weyl_blocks,
)

S222 = Shape(2, 2, 2)
CROSS = make_graph(S222, [(1, 2), (2, 1)])
NONCROSS = make_graph(S222, [(1, 1), (2, 2)])
BOTH_MARKED = make_graph(S222, marked_plus=[1, 2])


def add(u, v):
    """u + v, coordinate by coordinate (test-only; the library never adds
    two vectors)."""
    if u.shape != v.shape:
        raise ValueError("shape mismatch")
    out = dict(u.coords)
    for k, c in v.coords.items():
        out[k] = out.get(k, ZERO) + c
    return ModuleVector(u.shape, out)


def scale(v, c):
    """c * v for a polynomial or integer c (test-only)."""
    c = IntPoly.coerce(c)
    return ModuleVector(v.shape, {k: c * x for k, x in v.coords.items()})


def idx(shape, g):
    return Basis(shape).index[g]


def reference_classify(g, side, i):
    """The three-case rule read off a Graph, as classify did before the
    partner arrays."""
    d, d2 = g.degree(side, i), g.degree(side, i + 1)
    if d == d2 and d in (0, 2):
        return GeneratorCase.CASE_I
    if d < d2:
        return GeneratorCase.CASE_II
    if d > d2:
        return GeneratorCase.CASE_III
    # Both are edge endpoints; compare the opposite endpoints.
    if side == "+":
        ends = {a: b for a, b in g.edges}
    else:
        ends = {b: a for a, b in g.edges}
    crossing = ends[i] > ends[i + 1]
    return GeneratorCase.CASE_II if crossing else GeneratorCase.CASE_III


def reference_case(a, i):
    """The three-case rule on a partner array, read through the degrees of
    both vertices as the rule is stated."""
    d, d2 = vertex_degree(a[i]), vertex_degree(a[i + 1])
    if d == d2 != 1:
        return GeneratorCase.CASE_I
    if d < d2:
        return GeneratorCase.CASE_II
    if d > d2:
        return GeneratorCase.CASE_III
    # Two edge ends: the edges cross when their partners are out of order.
    return GeneratorCase.CASE_II if a[i] > a[i + 1] else GeneratorCase.CASE_III


def reference_reflect(g, side, i):
    """The graph s_i . g, by weyl_act of the adjacent transposition (i, i+1)."""
    w = [list(range(1, g.shape.p + 1)), list(range(1, g.shape.q + 1))]
    t = w["+-".index(side)]
    t[i - 1], t[i] = t[i], t[i - 1]
    return weyl_act((tuple(w[0]), tuple(w[1])), g)


class TestClassify:
    def test_case_i_marked(self):
        assert classify(BOTH_MARKED, "+", 1) is GeneratorCase.CASE_I

    def test_case_i_free(self):
        g = make_graph(S222, marked_minus=[1, 2])
        assert classify(g, "+", 1) is GeneratorCase.CASE_I

    def test_case_ii_crossing(self):
        assert classify(CROSS, "+", 1) is GeneratorCase.CASE_II

    def test_case_iii_noncrossing(self):
        assert classify(NONCROSS, "+", 1) is GeneratorCase.CASE_III

    def test_degree_ascent_descent(self):
        g = make_graph(Shape(2, 1, 1), marked_plus=[2])
        assert classify(g, "+", 1) is GeneratorCase.CASE_II
        assert classify(reference_reflect(g, "+", 1), "+", 1) is GeneratorCase.CASE_III

    def test_minus_side_mirror(self):
        # edges (1,1),(2,2): on the minus side sigma(1)=1 < sigma(2)=2, no crossing
        assert classify(NONCROSS, "-", 1) is GeneratorCase.CASE_III
        assert classify(CROSS, "-", 1) is GeneratorCase.CASE_II

    def test_case_duality(self):
        for shape in [S222, Shape(3, 2, 2), Shape(2, 3, 3)]:
            for g in enumerate_graphs(shape):
                for side, i in generators(shape):
                    case = reference_classify(g, side, i)
                    dual = reference_classify(reference_reflect(g, side, i), side, i)
                    if case is GeneratorCase.CASE_I:
                        assert dual is GeneratorCase.CASE_I
                    elif case is GeneratorCase.CASE_II:
                        assert dual is GeneratorCase.CASE_III
                    else:
                        assert dual is GeneratorCase.CASE_II

    def test_case_matches_degree_rule(self):
        # Every pair (x, y) of entries at i, i+1 that a valid array can
        # hold: each of -1, 0 and partners 1..6, but never one partner twice.
        entries = range(-1, 7)
        pairs = [(x, y) for x in entries for y in entries if not x == y > 0]
        assert len(pairs) == 8 * 8 - 6
        for x, y in pairs:
            a = (0, x, y)
            assert _CASES[hecke._case(a, 1)] is reference_case(a, 1), (x, y)

    def test_bad_index(self):
        with pytest.raises(ValueError):
            classify(CROSS, "+", 2)
        with pytest.raises(ValueError):
            classify(CROSS, "x", 1)


class TestApplyGenerator:
    def test_case_i_scales_by_q(self):
        v = ModuleVector.basis_vector(S222, idx(S222, BOTH_MARKED))
        assert apply_generator("+", 1, v) == scale(v, Q)

    def test_case_ii(self):
        v = ModuleVector.basis_vector(S222, idx(S222, CROSS))
        out = apply_generator("+", 1, v)
        assert out.coords == {idx(S222, CROSS): Q - 1, idx(S222, NONCROSS): Q}

    def test_case_iii(self):
        v = ModuleVector.basis_vector(S222, idx(S222, NONCROSS))
        out = apply_generator("+", 1, v)
        assert out.coords == {idx(S222, CROSS): ONE}

    @pytest.mark.parametrize("side,i", [("+", 2), ("+", 0), ("x", 1)])
    def test_bad_generator(self, side, i):
        for v in (ModuleVector(S222), ModuleVector.basis_vector(S222, 0)):
            with pytest.raises(ValueError):
                apply_generator(side, i, v)

    def test_bad_orbit_index(self):
        for orbit in (-1, len(Basis(S222))):
            with pytest.raises(ValueError):
                apply_generator("+", 1, ModuleVector(S222, {orbit: 1}))

    def test_linearity(self):
        a = scale(ModuleVector.basis_vector(S222, idx(S222, CROSS)), Q + 1)
        b = scale(ModuleVector.basis_vector(S222, idx(S222, BOTH_MARKED)), 2)
        lhs = apply_generator("+", 1, add(a, b))
        rhs = add(apply_generator("+", 1, a), apply_generator("+", 1, b))
        assert lhs == rhs


class TestModuleVectorRecord:
    def test_zero_coordinates_dropped(self):
        # _make, and so _replace, normalise as the constructor does
        assert ModuleVector(S222).coords == {}
        assert ModuleVector(S222, {0: ZERO, 1: 2}).coords == {1: IntPoly((2,))}
        v = ModuleVector.basis_vector(S222, 0)
        assert v._replace(coords={0: ZERO, 3: Q}).coords == {3: Q}
        assert ModuleVector._make((S222, {2: 0})).coords == {}

    def test_unhashable_and_compared_as_vectors(self):
        v = ModuleVector.basis_vector(S222, 0)
        with pytest.raises(TypeError):
            hash(v)
        assert v == ModuleVector(S222, {0: 1})
        assert not v != ModuleVector(S222, {0: 1})
        assert v != ModuleVector(S222, {1: 1})
        assert v != ModuleVector(Shape(2, 2, 1), {0: 1})
        # a plain tuple with the same fields is not a vector
        assert v != (S222, {0: ONE})
        assert not v == (S222, {0: ONE})


# The three case indices _image_terms takes, each test id the member's name.
CASE_IDS = [str(member) for member in _CASES]


def reference_apply_generator(side, i, v):
    """The three-case rule evaluated per basis vector on Graphs, as
    apply_generator did before the per-shape table."""
    basis = Basis(v.shape)
    out = ModuleVector(v.shape)
    for k, coeff in v.coords.items():
        g = basis.graphs[k]
        case = reference_classify(g, side, i)
        if case is GeneratorCase.CASE_I:
            term = ModuleVector(v.shape, {k: Q})
        else:
            j = basis.index[reference_reflect(g, side, i)]
            if case is GeneratorCase.CASE_II:
                term = ModuleVector(v.shape, {k: Q - 1, j: Q})
            else:
                term = ModuleVector(v.shape, {j: ONE})
        out = add(out, scale(term, coeff))
    return out


@st.composite
def shape_and_vector(draw):
    p = draw(st.integers(1, 5))
    q = draw(st.integers(1, 6 - p))
    shape = Shape(p, q, draw(st.integers(0, p + q)))
    n = len(Basis(shape))
    coeffs = st.lists(st.integers(-3, 3), max_size=3).map(lambda c: IntPoly(tuple(c)))
    coords = draw(st.dictionaries(st.integers(0, n - 1), coeffs, max_size=6))
    return ModuleVector(shape, coords)


@settings(max_examples=60, deadline=None)
@given(shape_and_vector())
def test_table_action_matches_three_case_rule(v):
    for side, i in generators(v.shape):
        assert apply_generator(side, i, v) == reference_apply_generator(side, i, v)


def small_shapes(max_n):
    return [
        Shape(p, n - p, r) for n in range(2, max_n + 1) for p in range(1, n) for r in range(n + 1)
    ]


def test_action_table_matches_reference():
    # Every partner is weyl_act of the adjacent transposition, the premise
    # by which weyl_decompose's docstring reads the q = 1 action as
    # weyl_act; the Basis docstring proves the other partner-row facts.
    # The case row holds each case's index into _CASES, the member the
    # public classify gives.
    shapes = small_shapes(7)
    assert len(shapes) == 133
    for shape in shapes:
        basis = Basis(shape)
        for side, i in generators(shape):
            cases, partners = basis.cases[(side, i)], basis.partners[(side, i)]
            assert type(cases) is bytes and type(partners) is tuple, (shape, side, i)
            expected_cases = bytes(
                _CASES.index(reference_classify(g, side, i)) for g in basis.graphs
            )
            expected_partners = tuple(
                basis.index[reference_reflect(g, side, i)] for g in basis.graphs
            )
            assert cases == expected_cases, (shape, side, i)
            assert partners == expected_partners, (shape, side, i)
            for k, g in enumerate(basis.graphs):
                assert _CASES[cases[k]] is classify(g, side, i), (shape, side, i, k)


def test_partner_is_self_exactly_in_case_i():
    # The Basis docstring's proof: cases II and III always move the orbit.
    # operator_matrix assigns each column's entries without accumulating,
    # and the relation bound needs no |2q-1| term, because of this.
    pairs = 0
    for shape in small_shapes(7):
        basis = Basis(shape)
        for gen, cases in basis.cases.items():
            for k, (case, partner) in enumerate(zip(cases, basis.partners[gen])):
                assert (_CASES[case] is GeneratorCase.CASE_I) == (partner == k), (shape, k)
                pairs += 1
    assert pairs == 23116


def test_partner_has_the_same_type():
    # The Basis docstring's proof that every partner map keeps the type
    # (k, s, t): no mark is made or unmade.
    pairs = 0
    for shape in small_shapes(7):
        basis = Basis(shape)
        types = [g.triple() for g in basis.graphs]
        for partners in basis.partners.values():
            for k, partner in enumerate(partners):
                assert types[partner] == types[k], (shape, k)
                pairs += 1
    assert pairs == 23116


def dual_graph(g):
    """The r <-> n-r dual of g, of shape (p, q, n-r): entry i of a side of
    size m moves to position m+1-i, and a free vertex (0) becomes marked
    (-1), a marked one free, and partner j becomes m'+1-j, where m' is the
    other side's size."""
    p, q, r = g.shape

    def flip(a, m, m2):
        out = [0] * (m + 1)
        for i in range(1, m + 1):
            x = a[i]
            out[m + 1 - i] = -1 if x == 0 else 0 if x < 0 else m2 + 1 - x
        return tuple(out)

    return Graph(Shape(p, q, p + q - r), flip(g.plus, p, q), flip(g.minus, q, p))


def swapped_graph(g):
    """g with its sides exchanged, of shape (q, p, r)."""
    p, q, r = g.shape
    return Graph(Shape(q, p, r), g.minus, g.plus)


def symmetry_failures(shape, image, mirror):
    """The action table of ``shape`` under a map of orbits: ``image(g)`` is
    the mapped orbit and ``mirror(side, i)`` the mapped generator.  Returns
    the (shape, generator, orbit) of every (generator, orbit) pair whose
    (case, mapped partner) differs from the case and partner of the mapped
    generator at the mapped orbit, and the number of pairs checked."""
    basis = Basis(shape)
    mapped = [image(g) for g in basis.graphs]
    other = Basis(mapped[0].shape)
    index = [other.index[h] for h in mapped]
    assert sorted(index) == list(range(len(other))), shape  # a bijection
    failures, pairs = [], 0
    for (side, i), cases in basis.cases.items():
        mirrored = mirror(side, i)
        other_cases, other_partners = other.cases[mirrored], other.partners[mirrored]
        for k, (case, partner) in enumerate(zip(cases, basis.partners[(side, i)])):
            pairs += 1
            j = index[k]
            if (other_cases[j], other_partners[j]) != (case, index[partner]):
                failures.append((shape, f"{side}{i}", basis.graphs[k]))
    return failures, pairs


def test_action_table_commutes_with_r_duality():
    # ROADMAP item 5: generator (side, i) at g has the case of (side, m-i)
    # at the dual of g, m the side's size, and partners map to partners.
    failures, pairs = [], 0
    for shape in small_shapes(7):
        size = {"+": shape.p, "-": shape.q}
        found, checked = symmetry_failures(
            shape, dual_graph, lambda side, i: (side, size[side] - i)
        )
        failures += found
        pairs += checked
    assert failures == []
    assert pairs == 23116


def test_action_table_commutes_with_side_swap():
    # ROADMAP item 5: (p, q, r) -> (q, p, r) with the partner arrays and
    # the sides exchanged gives the same action table.
    failures, pairs = [], 0
    for shape in small_shapes(7):
        found, checked = symmetry_failures(
            shape, swapped_graph, lambda side, i: ("-" if side == "+" else "+", i)
        )
        failures += found
        pairs += checked
    assert failures == []
    assert pairs == 23116


def test_q1_action_is_permutation():
    # No library code runs this check: the Basis docstring proves both
    # halves (the partner is the orbit itself exactly in case I, and each
    # partner map is an involution), and this confirms them.
    shapes = small_shapes(7)
    assert len(shapes) == 133
    for shape in shapes:
        assert hecke.q1_action_is_permutation(shape), shape


def _move_case_i_partner(cases, partners):
    """Case I at orbit k, but the partner moved to the next orbit."""
    k = next(k for k, case in enumerate(cases) if _CASES[case] is GeneratorCase.CASE_I)
    partners[k] = (k + 1) % len(partners)


def _break_involution(cases, partners):
    """Two case II/III pairs (a, b) and (c, d), with a sent to c instead of b."""
    moved = [k for k, case in enumerate(cases) if _CASES[case] is not GeneratorCase.CASE_I]
    a = moved[0]
    c = next(k for k in moved if k not in (a, partners[a]))
    partners[a] = c


def damaged_rows(basis, gen, damage):
    """Copies of ``basis.cases`` and ``basis.partners`` with generator
    gen's two rows damaged by ``damage(cases, partners)``, which edits
    them as a list each; every row is stored as ``Basis`` stores it."""
    cases, partners = dict(basis.cases), dict(basis.partners)
    rows = list(cases[gen]), list(partners[gen])
    damage(*rows)
    cases[gen], partners[gen] = bytes(rows[0]), tuple(rows[1])
    return cases, partners


@pytest.mark.parametrize("damage", [_move_case_i_partner, _break_involution])
def test_q1_action_refuses_damaged_table(monkeypatch, damage):
    # Either damage leaves some T_i at q = 1 no permutation of order <= 2.
    shape = Shape(3, 2, 2)
    real = Basis(shape)
    assert hecke.q1_action_is_permutation(shape)
    cases, partners = damaged_rows(real, ("+", 1), damage)
    assert partners != real.partners
    damaged = mock.Mock(cases=cases, partners=partners)
    monkeypatch.setattr(hecke, "Basis", lambda _shape: damaged)
    assert not hecke.q1_action_is_permutation(shape)


def full_scan_reflected(arrays, s, i):
    """_reflected as it was first written: the other array is scanned
    whole for the labels i and i+1."""
    own = arrays[s][:i] + (arrays[s][i + 1], arrays[s][i]) + arrays[s][i + 2 :]
    other = tuple(i + 1 if x == i else i if x == i + 1 else x for x in arrays[1 - s])
    return (own, other) if s == 0 else (other, own)


def test_reflected_matches_full_scan():
    # The Basis docstring's key step, on keys written from its definition:
    # keys are injective, key + delta is the key of the reflected arrays
    # as the full scan writes them, and the table's partner is the orbit
    # with that key.  Case I has delta 0 and no lookup, so this also checks
    # that the lookup would have found k there.
    checked = 0
    for shape in small_shapes(7):
        basis = Basis(shape)
        base = max(shape.p, shape.q) + 2

        def key(arrays):
            return sum((e + 1) * base**pos for pos, e in enumerate((*arrays[0], *arrays[1])))

        arrays = [(g.plus, g.minus) for g in basis.graphs]
        by_key = {key(a): k for k, a in enumerate(arrays)}
        assert len(by_key) == len(arrays), shape
        for side, i in generators(shape):
            s = "+-".index(side)
            own, other = (0, shape.p + 1) if s == 0 else (shape.p + 1, 0)
            for k, a in enumerate(arrays):
                reflected = full_scan_reflected(a, s, i)
                assert reference_reflected(a, s, i) == reflected, (shape, side, i, k)
                x, y = a[s][i], a[s][i + 1]
                delta = (y - x) * (base ** (own + i) - base ** (own + i + 1))
                delta += (x > 0) * base ** (other + x) - (y > 0) * base ** (other + y)
                assert key(a) + delta == key(reflected), (shape, side, i, k)
                assert basis.partners[(side, i)][k] == by_key[key(reflected)], (shape, k)
                checked += 1
    assert checked == 23116


@pytest.mark.parametrize(
    "shapes",
    [small_shapes(7), [Shape(4, 4, 4), Shape(5, 3, 4), Shape(5, 4, 5)]],
    ids=["p_plus_q_le_7", "closure_and_545"],
)
def test_action_table_matches_reflected_reference(shapes):
    # The key-based rows against those built by hashing reflected partner
    # arrays, on every generator and orbit.
    for shape in shapes:
        basis = Basis(shape)
        cases, partners = reference_action(shape)
        assert basis.cases == cases, shape
        assert basis.partners == partners, shape


def test_basis_builds_no_graph(monkeypatch):
    shape = Shape(5, 3, 4)
    enumerate_graphs(shape)

    def no_graph(cls, *args):
        pytest.fail("a Graph was built")

    monkeypatch.setattr(Graph, "__new__", no_graph)
    basis = Basis.__wrapped__(shape)
    assert set(basis.cases) == set(basis.partners) == set(generators(shape))
    blocks = weyl_decompose(shape)
    assert sum(blk.orbit_size for blk in blocks) == len(basis)


class TestOperatorMatrix:
    def test_entries_alphabet(self):
        allowed = {ZERO, ONE, Q, Q - 1}
        for side, i in generators(S222):
            op = operator_matrix(S222, side, i)
            assert {e for row in op.entries for e in row} <= allowed

    def test_column_sparsity(self):
        for shape in [S222, Shape(3, 2, 2)]:
            for side, i in generators(shape):
                op = operator_matrix(shape, side, i)
                n = len(op.entries)
                for c in range(n):
                    assert sum(1 for r in range(n) if op.entries[r][c]) <= 2

    def test_q1_column_sums(self):
        op = operator_matrix(S222, "+", 1)
        spec = op.specialize(1)
        n = len(spec)
        for c in range(n):
            assert sum(spec[r][c] for r in range(n)) == 1

    def test_trivial_shape(self):
        op = operator_matrix(Shape(2, 2, 0), "+", 1)
        assert op.entries == ((Q,),)

    def test_no_generators(self):
        with pytest.raises(ValueError):
            operator_matrix(Shape(1, 1, 1), "+", 1)

    def test_entries_match_reference_dense_builder(self):
        # The sparse rows read as dense rows are the matrix the dense
        # builder wrote, and ``==`` with it holds from either side.
        gens = [(shape, gen) for shape in small_shapes(7) for gen in generators(shape)]
        gens += [(shape, gen) for shape in [Shape(4, 4, 4), Shape(5, 3, 4)] for gen in generators(shape)]
        gens.append((Shape(5, 4, 5), ("+", 1)))
        for shape, (side, i) in gens:
            entries = operator_matrix(shape, side, i).entries
            expected = reference_operator_entries(shape, side, i)
            assert tuple(entries) == expected, (shape, side, i)
            assert entries == expected and expected == entries, (shape, side, i)
        assert len(gens) == 503

    def test_entries_sequence_protocol(self):
        op = operator_matrix(S222, "+", 1)
        entries, dense = op.entries, reference_operator_entries(S222, "+", 1)
        n = len(dense)
        assert not isinstance(entries, tuple)
        assert len(entries) == n == len(Basis(S222))
        assert entries[0] == dense[0] and entries[-1] == dense[-1] == entries[n - 1]
        assert entries[-n] == dense[0]
        assert all(type(row) is tuple and len(row) == n for row in entries)
        assert entries[1:4] == dense[1:4] and entries[::-1] == dense[::-1]
        for r in (n, -n - 1):
            with pytest.raises(IndexError):
                entries[r]
        assert list(entries) == list(dense)
        # == and != with the dense tuple of tuples from either side
        assert entries == dense and dense == entries
        assert not (entries != dense) and not (dense != entries)
        other = operator_matrix(S222, "+", 1).entries
        assert entries == other and entries is not other
        changed = dense[:-1] + ((Q * Q,) + dense[-1][1:],)
        assert entries != changed and changed != entries
        assert entries != dense[:-1] and entries != list(dense)
        assert entries != operator_matrix(S222, "-", 1).entries
        # the hash is the dense tuple's, so OperatorMatrix hashes too
        assert hash(entries) == hash(dense) == hash(other)
        assert hash(op) == hash(op._replace(entries=dense))
        assert op == op._replace(entries=dense) and {op: 1}[operator_matrix(S222, "+", 1)] == 1
        replaced = op._replace(index=1, entries=dense)
        assert type(replaced.entries) is tuple and replaced == op
        assert op._replace(side="-").entries is entries
        assert OperatorMatrix._fields == ("shape", "side", "index", "entries")
        assert op.specialize(1) == tuple(tuple(e(1) for e in row) for row in dense)
        assert op.specialize(64) == tuple(tuple(e(64) for e in row) for row in dense)

    def test_entries_terms_are_the_nonzeros_in_column_order(self):
        for shape in small_shapes(5):
            for side, i in generators(shape):
                entries = operator_matrix(shape, side, i).entries
                for row, terms in zip(entries, entries.terms):
                    assert terms == tuple((c, e) for c, e in enumerate(row) if e), shape
                    assert 1 <= len(terms) <= 2

    def test_columns_match_apply_generator(self):
        # Column c is the image of basis vector c, every other entry ZERO:
        # a matrix filled transposed fails on every non-symmetric column.
        columns = 0
        for shape in small_shapes(6):
            n = len(Basis(shape))
            for side, i in generators(shape):
                op = operator_matrix(shape, side, i)
                assert len(op.entries) == n and all(len(row) == n for row in op.entries)
                for c in range(n):
                    image = apply_generator(side, i, ModuleVector.basis_vector(shape, c)).coords
                    expected = tuple(image.get(k, ZERO) for k in range(n))
                    assert tuple(row[c] for row in op.entries) == expected, (shape, side, i, c)
                    columns += 1
        assert columns == 5356


S322 = Shape(3, 2, 2)


@pytest.mark.parametrize(
    "call",
    [
        lambda i: classify(enumerate_graphs(S322)[0], "+", i),
        lambda i: apply_generator("+", i, ModuleVector.basis_vector(S322, 0)),
        lambda i: operator_matrix(S322, "+", i),
    ],
    ids=["classify", "apply_generator", "operator_matrix"],
)
def test_non_integer_index_rejected(call):
    # 1 <= 1.5 <= 2 would pass the range check; the index is coerced as
    # Shape coerces sizes, so the error names the index, not a lookup
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        call(1.5)


class TestRelations:
    @pytest.mark.parametrize("shape", [S222, Shape(3, 2, 2), Shape(2, 2, 0)])
    def test_all_pass(self, shape):
        report = verify_relations(shape)
        assert report, "expected at least one relation"
        assert all(rc.ok for rc in report)

    def test_braid_present_for_3_2(self):
        names = [rc.name for rc in verify_relations(Shape(3, 2, 2))]
        assert any(name.startswith("braid") for name in names)
        assert any(name.startswith("commute") for name in names)

    def test_wrong_case_ii_coefficient_fails(self, monkeypatch):
        monkeypatch.setattr(hecke, "_image_terms", case_ii_partner_one)
        failed = [rc.name for rc in verify_relations(S222) if not rc.ok]
        assert "quadratic +1" in failed


def case_ii_partner_one(idx, case, jdx, at=hecke._SYMBOLIC):
    """_image_terms with the case II partner coefficient 1 in place of q,
    both read from ``at`` = (q, q - 1, 1)."""
    if _CASES[case] is GeneratorCase.CASE_II:
        _, q_minus_one, one = at
        return ((idx, q_minus_one), (jdx, one))
    return _image_terms(idx, case, jdx, at)


def case_ii_orbits_swapped(idx, case, jdx, at=hecke._SYMBOLIC):
    """_image_terms with the two case II orbits swapped: (q-1) xi' + q xi,
    both coefficients read from ``at`` = (q, q - 1, 1)."""
    if _CASES[case] is GeneratorCase.CASE_II:
        q, q_minus_one, _ = at
        return ((jdx, q_minus_one), (idx, q))
    return _image_terms(idx, case, jdx, at)


def reference_verify_relations(shape):
    """verify_relations as IntPoly identities, before the integer
    evaluation."""

    def compose(ops, vec):
        for side, i in reversed(ops):
            vec = apply_generator(side, i, vec)
        return vec

    gens = generators(shape)
    n = len(Basis(shape))
    report = []

    for side, i in gens:
        witness = None
        for c in range(n):
            v = ModuleVector.basis_vector(shape, c)
            tv = apply_generator(side, i, v)
            ttv = apply_generator(side, i, tv)
            residue = add(add(ttv, scale(tv, 1 - Q)), scale(v, -Q))
            if residue.coords:
                witness = c
                break
        report.append(RelationCheck(f"quadratic {side}{i}", witness is None, witness))

    for (s1, i1), (s2, i2) in itertools.combinations(gens, 2):
        adjacent = s1 == s2 and abs(i1 - i2) == 1
        witness = None
        for c in range(n):
            v = ModuleVector.basis_vector(shape, c)
            if adjacent:
                lhs = compose([(s1, i1), (s2, i2), (s1, i1)], v)
                rhs = compose([(s2, i2), (s1, i1), (s2, i2)], v)
                name = f"braid {s1}{i1},{s2}{i2}"
            else:
                lhs = compose([(s1, i1), (s2, i2)], v)
                rhs = compose([(s2, i2), (s1, i1)], v)
                name = f"commute {s1}{i1},{s2}{i2}"
            if lhs != rhs:
                witness = c
                break
        report.append(RelationCheck(name, witness is None, witness))

    return report


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(small_shapes(6)),
    st.sampled_from([_image_terms, case_ii_partner_one, case_ii_orbits_swapped]),
)
def test_relations_match_polynomial_reference(shape, image_terms):
    # With a mutated rule both checks must also agree on which relations
    # fail and on their witnesses.  Swapping the case II orbits keeps every
    # coefficient, so verify_relations must take the orbits of its integer
    # table from _image_terms too, not from a layout of its own.
    with mock.patch.object(hecke, "_image_terms", image_terms):
        assert verify_relations(shape) == reference_verify_relations(shape)


def four_point_verify_relations(shape):
    """verify_relations as it was before the single point: every relation
    evaluated with plain integers at q = 0, 1, 2, 3 (residue coordinates
    have degree <= 3), coefficients re-derived through _image_terms."""

    def vanishes(terms, basis, v):
        for x in (0, 1, 2, 3):
            start = v.specialize(x)
            residue = {}
            for coeff, word in terms:
                vec = start
                for gen in reversed(word):
                    out = {}
                    for idx, y in vec.items():
                        case, jdx = basis.cases[gen][idx], basis.partners[gen][idx]
                        for k, c in hecke._image_terms(idx, case, jdx):
                            out[k] = out.get(k, 0) + c(x) * y
                    vec = out
                for k, y in vec.items():
                    residue[k] = residue.get(k, 0) + coeff(x) * y
            if any(residue.values()):
                return False
        return True

    basis = Basis(shape)
    report = []
    for name, terms in hecke._relations(shape):
        witness = next(
            (
                c
                for c in range(len(basis))
                if not vanishes(terms, basis, ModuleVector.basis_vector(shape, c))
            ),
            None,
        )
        report.append(RelationCheck(name, witness is None, witness))
    return report


@pytest.mark.parametrize("mutate", [False, True])
def test_relations_match_four_point_reference(mutate):
    image_terms = case_ii_partner_one if mutate else _image_terms
    shapes = small_shapes(6)
    assert len(shapes) == 85
    failed = 0
    with mock.patch.object(hecke, "_image_terms", image_terms):
        for shape in shapes:
            report = verify_relations(shape)
            assert report == four_point_verify_relations(shape), shape
            failed += sum(not rc.ok for rc in report)
    assert (failed > 0) == mutate


@pytest.mark.parametrize(
    "rule",
    [_image_terms, case_ii_partner_one, case_ii_orbits_swapped],
    ids=["rule", "case_ii_partner_one", "case_ii_orbits_swapped"],
)
def test_block_verdicts_match_orbit_by_orbit_reference(rule):
    # The verdicts decided once per block picture against every relation
    # applied to every orbit on the whole table, with the real rule and
    # with both mutants, which must fail the same relations at the same
    # witnesses.
    shapes = small_shapes(7) + [Shape(4, 4, 4), Shape(5, 3, 4), Shape(5, 4, 5)]
    assert len(shapes) == 136
    failed = 0
    with mock.patch.object(hecke, "_image_terms", rule):
        for shape in shapes:
            report = verify_relations(shape)
            assert report == reference_relation_checks(shape), shape
            failed += sum(not rc.ok for rc in report)
    assert (failed > 0) == (rule is not _image_terms)


def test_no_verdict_goes_stale_across_rules():
    # The block verdicts live for the process.  With the cache warm, the
    # real rule, each mutant and the real rule again must each report what
    # the orbit-by-orbit check reports: a cache keyed by the picture alone,
    # or a table decided once, would serve a mutant the real rule's verdicts.
    shapes = [S222, Shape(3, 3, 3), Shape(4, 4, 4)]
    rules = [_image_terms, case_ii_partner_one, case_ii_orbits_swapped, _image_terms]
    for rule in rules:
        failed = 0
        with mock.patch.object(hecke, "_image_terms", rule):
            for shape in shapes:
                report = verify_relations(shape)
                assert report == reference_relation_checks(shape), (rule.__name__, shape)
                failed += sum(not rc.ok for rc in report)
        assert (failed > 0) == (rule is not _image_terms), rule.__name__


def test_reference_shapes_decide_19_pictures():
    # From a cleared cache the real rule decides 19 (form, picture) keys on
    # the reference shapes, and every other block reads one of them: the
    # bound _block_verdicts' docstring states for what it holds.
    shapes = small_shapes(7) + [Shape(4, 4, 4), Shape(5, 3, 4), Shape(5, 4, 5)]
    hecke._block_verdicts.cache_clear()
    for shape in shapes:
        assert all(rc.ok for rc in verify_relations(shape)), shape
    info = hecke._block_verdicts.cache_info()
    assert (info.misses, info.currsize) == (19, 19)
    assert info.hits > 0


def _case_ii_to_iii(cases, partners):
    """Case III at the first case II orbit, its partner kept."""
    k = next(k for k, case in enumerate(cases) if _CASES[case] is GeneratorCase.CASE_II)
    cases[k] = _CASES.index(GeneratorCase.CASE_III)


@pytest.mark.parametrize("shape", [S222, Shape(3, 3, 3)])
@pytest.mark.parametrize("damage", [_case_ii_to_iii, _move_case_i_partner, _break_involution])
def test_damaged_block_keeps_its_own_verdict(monkeypatch, shape, damage):
    # One entry of the +1 row is damaged.  A case changed from II to III
    # gives its block another picture, so its verdict is not the one of
    # the sound blocks that had its old picture; a moved partner breaks
    # the involution, and the orbits whose walk meets it are checked on
    # the whole table.  Either way the block check must report what the
    # orbit-by-orbit check reports.  A moved case I partner is not read
    # by the rule, so every relation still holds.
    basis = Basis(shape)
    cases, partners = damaged_rows(basis, ("+", 1), damage)
    assert (cases, partners) != (basis.cases, basis.partners)
    monkeypatch.setitem(basis.cases, ("+", 1), cases[("+", 1)])
    monkeypatch.setitem(basis.partners, ("+", 1), partners[("+", 1)])
    report = verify_relations(shape)
    assert report == reference_relation_checks(shape)
    failed = [rc.name for rc in report if not rc.ok]
    if damage is _move_case_i_partner:
        assert failed == []
    else:
        assert "quadratic +1" in failed
        assert all("+1" in name.split(" ")[1].split(",") for name in failed), failed


@pytest.mark.parametrize("at", [hecke._SYMBOLIC, (64, 63, 1), (5, 4, 1)], ids=["q", "64", "5"])
@pytest.mark.parametrize("case", range(len(_CASES)), ids=CASE_IDS)
def test_image_terms_commute_with_relabelling(case, at):
    # verify_relations decides a block on a table over the positions
    # 0..size-1.  That equals the residue on the whole table only if the
    # rule reads its orbit indices as labels: relabelling the arguments
    # relabels the terms, and changes nothing else.
    sigma = [5, 2, 7, 0, 3, 6, 1, 4]
    for idx, jdx in itertools.product(range(len(sigma)), repeat=2):
        terms = _image_terms(idx, case, jdx, at)
        assert _image_terms(sigma[idx], case, sigma[jdx], at) == tuple(
            (sigma[k], c) for k, c in terms
        ), (idx, jdx)
    # The map the rule's signature uses: its terms on the labels 0 (the
    # orbit) and 1 (its partner), read as j and j's partner, are the terms
    # at j.  Case I's partner is j itself, so the map need not be one to
    # one; every pair is checked in every case.
    signature = _image_terms(0, case, 1, at)
    for j, partner in itertools.product(range(len(sigma)), repeat=2):
        assert _image_terms(j, case, partner, at) == tuple(
            ((j, partner)[label], c) for label, c in signature
        ), (j, partner)


def l1(poly):
    return sum(abs(c) for c in poly.coeffs)


@pytest.mark.parametrize("case", range(len(_CASES)), ids=CASE_IDS)
@pytest.mark.parametrize("partner", [3, 5])
def test_single_point_premise_image_terms(case, partner):
    # The exactness proof in verify_relations needs every column of T_i to
    # have summed coefficient l1 norm <= 3.  The partner is the orbit itself
    # (3 here) only in case I, as ``Basis`` proves; the bound holds for
    # either partner in every case.
    terms = _image_terms(3, case, partner)
    assert sum(l1(c) for _, c in terms) <= 3
    assert all(c.degree <= 1 for _, c in terms)


# q = 1 is the Weyl group's point, 3 and 5 are small fields, 64 is _Q0, and
# 99991 is the largest prime within the oracle's enumeration budget.
RULE_VALUES = [1, 3, 5, 64, 99991]


@pytest.mark.parametrize("value", RULE_VALUES)
@pytest.mark.parametrize("case", range(len(_CASES)), ids=CASE_IDS)
@pytest.mark.parametrize("partner", [3, 5])
def test_image_terms_at_values_match_polynomials(value, case, partner):
    # verify_relations and certify_theorem pass the values (q, q - 1, 1) at
    # one q; the terms must be the polynomial terms evaluated there.
    terms = _image_terms(3, case, partner, (value, value - 1, 1))
    assert terms == tuple((k, c(value)) for k, c in _image_terms(3, case, partner))
    assert all(type(c) is int for _, c in terms)


@pytest.mark.parametrize("value", RULE_VALUES)
def test_relations_at_values_match_polynomials(value):
    shapes = small_shapes(6)
    assert len(shapes) == 85
    for shape in shapes:
        relations = hecke._relations(shape, (value, value - 1, 1))
        evaluated = [
            (name, tuple((c(value), word) for c, word in terms))
            for name, terms in hecke._relations(shape)
        ]
        assert relations == evaluated, shape
        assert all(type(c) is int for _, terms in relations for c, _ in terms), shape


def test_single_point_premise_relations():
    assert hecke._Q0 > 2 * 3**3
    for shape in [Shape(3, 3, 2), Shape(4, 2, 3)]:
        for name, terms in hecke._relations(shape):
            assert all(l1(c) <= 2 and len(word) <= 3 for c, word in terms), name
            # The bound on each residue coordinate's l1 norm, directly.
            assert sum(l1(c) * 3 ** len(word) for c, word in terms) < hecke._Q0, name


def counted_basis_vectors(monkeypatch, shape):
    """verify_relations' report and the (shape, index) of every basis
    vector it built, in order."""
    calls = []
    original = ModuleVector.basis_vector

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(ModuleVector, "basis_vector", staticmethod(counted))
    return verify_relations(shape), calls


@pytest.mark.parametrize("shape", [Shape(3, 3, 2), S222])
def test_one_basis_vector_per_relation_and_orbit(monkeypatch, shape):
    # The benchmark counts these calls as its relation checks: 690 on
    # (3,3,2), 10 relations x 69 orbits, in bench/golden.json.  A relation
    # that holds builds one vector per orbit, in orbit order, however its
    # blocks share their verdicts.
    report, calls = counted_basis_vectors(monkeypatch, shape)
    n = len(Basis(shape))
    assert all(rc.ok for rc in report)
    assert calls == [(shape, c) for _ in report for c in range(n)]
    if shape == Shape(3, 3, 2):
        assert len(calls) == 690


def test_failing_relation_builds_vectors_up_to_its_witness(monkeypatch):
    # A relation that fails stops at its witness: witness + 1 vectors.
    monkeypatch.setattr(hecke, "_image_terms", case_ii_partner_one)
    report, calls = counted_basis_vectors(monkeypatch, S222)
    n = len(Basis(S222))
    assert any(not rc.ok for rc in report)
    assert calls == [(S222, c) for rc in report for c in range(n if rc.ok else rc.witness + 1)]


def relation_residue(terms, v):
    """The sum of c(q) * word(v) over the terms, as an IntPoly vector."""
    total = ModuleVector(v.shape)
    for coeff, word in terms:
        vec = v
        for side, i in reversed(word):
            vec = apply_generator(side, i, vec)
        total = add(total, scale(vec, coeff))
    return total


@pytest.mark.parametrize("shape", [S222, Shape(3, 2, 2)])
def test_witness_is_first_orbit_with_nonzero_residue(monkeypatch, shape):
    monkeypatch.setattr(hecke, "_image_terms", case_ii_partner_one)
    terms = dict(hecke._relations(shape))
    failed = [rc for rc in verify_relations(shape) if not rc.ok]
    assert failed
    for rc in failed:
        residues = [
            relation_residue(terms[rc.name], ModuleVector.basis_vector(shape, c))
            for c in range(rc.witness + 1)
        ]
        assert residues[-1].coords, rc
        assert not any(r.coords for r in residues[:-1]), rc


def weyl_mismatches(decompose):
    """The shapes on which ``decompose`` and the reference walk over the
    partner rows give different blocks: every shape with p+q <= 7, and
    (4,4,4), (5,3,4) and (5,4,5), the sets the other table tests use."""
    shapes = small_shapes(7) + [Shape(4, 4, 4), Shape(5, 3, 4), Shape(5, 4, 5)]
    assert len(shapes) == 136
    return [shape for shape in shapes if decompose(shape) != reference_weyl_blocks(shape)]


def _drop_one_type(shape):
    """weyl_decompose without its first block."""
    return weyl_decompose(shape)[1:]


def _stabilizer_off_by_one(shape):
    """weyl_decompose with each stabilizer order one too large."""
    return [
        blk._replace(stabilizer_order=blk.stabilizer_order + 1) for blk in weyl_decompose(shape)
    ]


class TestWeylDecompose:
    def test_matches_reference_walk(self):
        # The blocks read off the types equal those of the walk, which
        # checks each orbit's size against its type's triple_count.
        assert weyl_mismatches(weyl_decompose) == []

    @pytest.mark.parametrize("mutant", [_drop_one_type, _stabilizer_off_by_one])
    def test_mutant_fails_reference_walk(self, mutant):
        assert len(weyl_mismatches(mutant)) == 136

    def test_2_2_2_blocks(self):
        blocks = weyl_decompose(S222)
        sizes = {blk[:3]: blk.orbit_size for blk in blocks}
        assert sizes == {
            (0, 0, 2): 1,
            (0, 1, 1): 4,
            (0, 2, 0): 1,
            (1, 0, 1): 4,
            (1, 1, 0): 4,
            (2, 0, 0): 2,
        }
        assert sum(sizes.values()) == 16

    def test_stabilizer_orbit_product(self):
        for blk in weyl_decompose(Shape(3, 2, 3)):
            assert blk.orbit_size * blk.stabilizer_order == math.factorial(3) * math.factorial(2)

    def test_stabilizer_order_matches_brute_force(self):
        # Test-only reference: count the stabilizer of one member of each
        # orbit over the whole group S_p x S_q, every shape with p+q <= 6.
        for p in range(1, 6):
            for q in range(1, 7 - p):
                group = list(
                    itertools.product(
                        itertools.permutations(range(1, p + 1)),
                        itertools.permutations(range(1, q + 1)),
                    )
                )
                for r in range(p + q + 1):
                    shape = Shape(p, q, r)
                    member = {g.triple(): g for g in enumerate_graphs(shape)}
                    for blk in weyl_decompose(shape):
                        g = member[blk[:3]]
                        stab = sum(1 for w in group if weyl_act(w, g) == g)
                        assert blk.stabilizer_order == stab, (shape, blk[:3])

    def test_orbit_size_mismatch_raises(self, monkeypatch):
        # Without generator +1 the reference walk over (3,2,2) cannot move
        # vertex 1+, so some W-orbit comes out smaller than its type's
        # triple_count: the equality test below would catch a partner
        # table that no longer generates W.
        shape = Shape(3, 2, 2)
        real = Basis(shape)

        class Damaged:
            graphs = real.graphs
            cases = {gen: row for gen, row in real.cases.items() if gen != ("+", 1)}
            partners = {gen: row for gen, row in real.partners.items() if gen != ("+", 1)}

            def __len__(self):
                return len(self.graphs)

        monkeypatch.setattr(hecke, "Basis", lambda _shape: Damaged())
        with pytest.raises(AssertionError, match=r"orbit size mismatch for type \(\d, \d, \d\)"):
            reference_weyl_blocks(shape)

    def test_trivial_shape(self):
        blocks = weyl_decompose(Shape(3, 2, 0))
        assert len(blocks) == 1
        assert blocks[0].orbit_size == 1

    def test_total_is_orbit_count(self):
        from doubleflag import count_orbits

        shape = Shape(5, 3, 4)
        assert sum(blk.orbit_size for blk in weyl_decompose(shape)) == count_orbits(shape)

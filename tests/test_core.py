import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doubleflag import (
    Graph,
    Invariants,
    PartialPermutationPair,
    RankMatrix,
    Shape,
    admissible_triples,
    count_orbits,
    enumerate_graphs,
    graph_from_matrix,
    invariants,
    make_graph,
    matrix_from_graph,
    rank_matrix,
    weyl_act,
)
from doubleflag import core
from doubleflag.core import crossings
from doubleflag.polynomial import Q
from reference import reference_rref

SHAPE_534 = Shape(5, 3, 4)
S222 = Shape(2, 2, 2)

# (p+q) x r matrix with columns e2+e3', e4+e1', e5, e2' (primes = minus side)
MATRIX_534 = (
    (0, 0, 0, 0),
    (1, 0, 0, 0),
    (0, 0, 0, 0),
    (0, 1, 0, 0),
    (0, 0, 1, 0),
    (0, 1, 0, 0),
    (0, 0, 0, 1),
    (1, 0, 0, 0),
)

GRAPH_534 = make_graph(SHAPE_534, [(2, 3), (4, 1)], [5], [2])


def permuted_columns(matrix, perm):
    return tuple(tuple(row[perm[c]] for c in range(len(perm))) for row in matrix)


class TestShape:
    def test_valid(self):
        assert Shape(2, 3, 5).n == 5

    @pytest.mark.parametrize("p,q,r", [(0, 1, 0), (1, 0, 0), (1, 1, 3), (1, 1, -1)])
    def test_invalid(self, p, q, r):
        # _make, and so _replace, go through the same checks
        with pytest.raises(ValueError):
            Shape(p, q, r)
        with pytest.raises(ValueError):
            Shape._make((p, q, r))
        with pytest.raises(ValueError):
            Shape(2, 2, 2)._replace(p=p, q=q, r=r)

    def test_replace_validates(self):
        with pytest.raises(ValueError):
            Shape(2, 2, 2)._replace(p=0)

    @pytest.mark.parametrize("p,q,r", [(2.5, 1, 1), (2, 2, 1.0), (2, "2", 1)])
    def test_non_integer_sizes(self, p, q, r):
        # refused at construction, not deep inside enumerate_graphs
        with pytest.raises(TypeError):
            Shape(p, q, r)
        with pytest.raises(TypeError):
            Shape._make((p, q, r))
        with pytest.raises(TypeError):
            Shape(2, 2, 2)._replace(p=p, q=q, r=r)

    def test_stores_plain_ints(self):
        class Two:
            def __index__(self):
                return 2

        shape = Shape(Two(), 2, Two())
        assert shape == (2, 2, 2)
        assert all(type(x) is int for x in shape)


class TestGraphValidation:
    # The second input of each of the next two tests gets past Graph's own
    # checks if make_graph skips its check: the later edge or the mark
    # overwrites an entry, which leaves another, valid graph.
    def test_shared_vertex_rejected(self):
        for edges in (
            [(1, 1), (1, 2)],
            [(1, 1), (1, 2), (2, 1)],  # unchecked: the crossing graph
        ):
            with pytest.raises(ValueError):
                make_graph(Shape(2, 2, 2), edges)

    def test_marked_endpoint_rejected(self):
        for shape, edges, marked_minus in (
            (Shape(2, 2, 2), [(1, 1)], []),
            (Shape(2, 2, 3), [(1, 1), (2, 2)], [1]),  # unchecked: 1+ and 1- marked
        ):
            with pytest.raises(ValueError):
                make_graph(shape, edges, marked_plus=[1], marked_minus=marked_minus)

    def test_wrong_rank_rejected(self):
        with pytest.raises(ValueError):
            make_graph(Shape(2, 2, 2), [(1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            make_graph(Shape(2, 2, 1), [(3, 1)])

    @pytest.mark.parametrize(
        "marked_plus, marked_minus",
        [([0], []), ([6], []), ([], [0]), ([], [4])],
    )
    def test_marked_vertex_out_of_range_rejected(self, marked_plus, marked_minus):
        # without the check, label 0 would write the padding entry and
        # label p+1 or q+1 would write past the array
        with pytest.raises(ValueError, match=r"marked vertex \d out of range"):
            make_graph(Shape(5, 3, 1), [], marked_plus, marked_minus)

    @pytest.mark.parametrize(
        "side, i, message",
        [
            ("x", 1, "side must be '\\+' or '-', got 'x'"),
            ("", 1, "side must be"),
            ("+", 0, "vertex 0\\+ out of range"),
            ("+", 6, "vertex 6\\+ out of range"),
            ("-", 4, "vertex 4- out of range"),
            ("-", -1, "vertex -1- out of range"),
        ],
    )
    def test_degree_refuses_bad_vertex(self, side, i, message):
        # entry 0 is padding and a negative index would read from the end,
        # so both are refused, not read as a free vertex
        with pytest.raises(ValueError, match=message):
            GRAPH_534.degree(side, i)

    def test_arrays_of_paper_example(self):
        assert GRAPH_534.plus == (0, 0, 3, 0, 1, -1)
        assert GRAPH_534.minus == (0, 4, -1, 2)

    # Raw partner arrays for Shape(2, 2, 2).  Each rejected pair before the
    # r cases has #edges + #marks = 2, so the r check alone passes it.
    @pytest.mark.parametrize(
        "plus,minus",
        [((0, 2, 1), (0, 2, 1)), ((0, -1, 0), (0, 0, -1)), ((0, 1, -1), (0, 1, 0))],
    )
    def test_raw_arrays_accepted(self, plus, minus):
        g = Graph(S222, plus, minus)
        assert g == make_graph(S222, g.edges, g.marked_plus, g.marked_minus)

    @pytest.mark.parametrize(
        "plus,minus",
        [
            ((1, 1, 0), (0, 1, 0)),  # nonzero padding on the + side
            ((0, 1, 0), (-1, 1, 0)),  # nonzero padding on the - side
            ((0, 1, -1), (0, 0, 0)),  # partner listed on the + side only
            ((0, -1, -1), (0, 1, 0)),  # partner listed on the - side only
            ((0, 1, -1), (0, 2, 0)),  # the sides name different partners
            ((0, 3, -1), (0, 0, 0)),  # + entry past q
            ((0, -2, 0), (0, 0, -1)),  # entry below -1
            ((0, -1, 0), (0, 0, 0)),  # r = 1, not 2
            ((0, -1, -1), (0, -1, 0)),  # r = 3, not 2
            ((0, -1, -1), (0, 0)),  # - array too short
        ],
    )
    def test_raw_arrays_rejected(self, plus, minus):
        with pytest.raises(ValueError):
            Graph(S222, plus, minus)
        with pytest.raises(ValueError):
            Graph._make((S222, plus, minus))
        with pytest.raises(ValueError):
            make_graph(S222, [(1, 1), (2, 2)])._replace(plus=plus, minus=minus)

    def test_raw_arrays_rejected_under_optimize(self):
        # ``python -O`` strips asserts; every check of ``Graph`` must still
        # raise on each input of test_raw_arrays_rejected.
        (mark,) = [
            m for m in self.test_raw_arrays_rejected.pytestmark if m.name == "parametrize"
        ]
        inputs = mark.args[1]
        script = (
            "from doubleflag import Graph, Shape\n"
            "print(__debug__)\n"
            f"for plus, minus in {inputs!r}:\n"
            "    try:\n"
            "        Graph(Shape(2, 2, 2), plus, minus)\n"
            "    except ValueError:\n"
            "        print('raised')\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n" + "raised\n" * len(inputs)

    def test_replace_validates(self):
        g = make_graph(S222, [(1, 1), (2, 2)])
        assert g._replace(plus=(0, 2, 1), minus=(0, 2, 1)) == make_graph(
            S222, [(1, 2), (2, 1)]
        )
        with pytest.raises(ValueError, match="disagree"):
            g._replace(minus=(0, 2, 1))

    def test_list_arrays_rejected(self):
        # a list would pass every check but leave the graph unhashable
        with pytest.raises(TypeError):
            Graph(S222, [0, 2, 1], (0, 2, 1))


class TestRecords:
    """The record types are immutable named tuples, hashed and compared as
    their field tuples, as the frozen dataclasses they replace were."""

    def test_hash_is_field_tuple_hash(self):
        # the old dataclass hash, so set and dict orders cannot drift
        shape = Shape(3, 2, 2)
        assert hash(shape) == hash((3, 2, 2))
        for g in enumerate_graphs(shape):
            assert hash(g) == hash((g.shape, g.plus, g.minus))

    def test_repr(self):
        assert repr(Shape(3, 2, 2)) == "Shape(p=3, q=2, r=2)"
        assert repr(make_graph(S222, [(1, 2)], [2])) == (
            "Graph(shape=Shape(p=2, q=2, r=2), plus=(0, 2, -1), minus=(0, 0, 1))"
        )
        assert repr(Q - 1) == "IntPoly(coeffs=(-1, 1))"

    def test_equal_to_field_tuple(self):
        assert Shape(2, 2, 2) == (2, 2, 2)
        assert Q == ((0, 1),)

    def test_rank_matrix_indexes_its_field(self):
        # a named tuple of one field: indexing, len and iteration agree
        rm = rank_matrix(GRAPH_534)
        assert rm[0] is rm.entries
        assert tuple(rm) == (rm.entries,)
        assert len(rm) == 1

    @pytest.mark.parametrize("field", ["p", "plus", "coeffs", "dim", "unknown"])
    def test_immutable(self, field):
        for record in (Shape(2, 2, 2), GRAPH_534, Q, invariants(GRAPH_534)):
            with pytest.raises(AttributeError):
                setattr(record, field, 0)


class TestGraphFromMatrix:
    def test_paper_example(self):
        m = PartialPermutationPair(SHAPE_534, MATRIX_534)
        assert graph_from_matrix(m) == GRAPH_534

    def test_smallest_marked_case(self):
        m = PartialPermutationPair(Shape(1, 1, 1), ((1,), (0,)))
        g = graph_from_matrix(m)
        assert g == make_graph(Shape(1, 1, 1), marked_plus=[1])

    def test_column_permutation_invariance(self):
        for perm in itertools.permutations(range(4)):
            m = PartialPermutationPair(SHAPE_534, permuted_columns(MATRIX_534, perm))
            assert graph_from_matrix(m) == GRAPH_534

    def test_bad_matrix_rejected(self):
        bad = tuple(tuple(row) for row in [[1, 1], [0, 0], [0, 1], [1, 0]])
        with pytest.raises(ValueError):
            PartialPermutationPair(Shape(2, 2, 2), bad)
        with pytest.raises(ValueError):
            PartialPermutationPair._make((Shape(2, 2, 2), bad))
        with pytest.raises(ValueError):
            matrix_from_graph(make_graph(S222, [(1, 1), (2, 2)]))._replace(matrix=bad)

    @pytest.mark.parametrize(
        "matrix, message",
        [
            (((1, 0), (0, 1), (0, 0)), "matrix must be 4 x 2"),
            (((1, 0), (0, 1), (0, 0), (0,)), "matrix must be 4 x 2"),
            (((1, 0, 0), (0, 1, 0), (0, 0, 0), (0, 0, 1)), "matrix must be 4 x 2"),
            (((2, 0), (0, 1), (0, 0), (0, 0)), "entries must be 0 or 1"),
            (((1, 0), (0, -1), (0, 0), (0, 1)), "entries must be 0 or 1"),
        ],
    )
    def test_malformed_matrix_rejected(self, matrix, message):
        with pytest.raises(ValueError, match=message):
            PartialPermutationPair(S222, matrix)

    def test_accepted_matrices_have_full_rank(self):
        # rank mod 101 <= rank over Q <= r, so rank r mod 101 proves full rank
        accepted = 0
        for p, q in [(1, 1), (1, 2), (2, 1), (1, 3), (2, 2), (3, 1)]:
            for r in range(min(p + q, 3) + 1):
                shape = Shape(p, q, r)
                for bits in itertools.product((0, 1), repeat=(p + q) * r):
                    m = tuple(tuple(bits[k * r : (k + 1) * r]) for k in range(p + q))
                    try:
                        PartialPermutationPair(shape, m)
                    except ValueError:
                        continue
                    accepted += 1
                    assert reference_rref(m, 101)[1] == r
        assert accepted


class TestMatrixFromGraph:
    def test_round_trip_paper_example(self):
        m = matrix_from_graph(GRAPH_534)
        assert graph_from_matrix(m) == GRAPH_534
        # canonical representative is a column permutation of the original
        cols = lambda mat: sorted(tuple(row[c] for row in mat) for c in range(4))
        assert cols(m.matrix) == cols(MATRIX_534)

    def test_empty_graph(self):
        g = make_graph(Shape(2, 3, 0))
        m = matrix_from_graph(g)
        assert m.matrix == ((),) * 5

    def test_single_edge(self):
        g = make_graph(Shape(1, 1, 1), [(1, 1)])
        assert matrix_from_graph(g).matrix == ((1,), (1,))


class TestEnumerate:
    def test_2_2_2(self):
        assert len(enumerate_graphs(Shape(2, 2, 2))) == 16

    def test_1_1_2(self):
        graphs = enumerate_graphs(Shape(1, 1, 2))
        assert len(graphs) == 1
        assert graphs[0] == make_graph(Shape(1, 1, 2), marked_plus=[1], marked_minus=[1])

    def test_r_zero(self):
        graphs = enumerate_graphs(Shape(3, 2, 0))
        assert len(graphs) == 1
        assert graphs[0] == make_graph(Shape(3, 2, 0))

    def test_no_duplicates(self):
        graphs = enumerate_graphs(Shape(3, 3, 3))
        assert len(set(graphs)) == len(graphs)

    def test_count_matches_formula(self):
        for p in range(1, 5):
            for q in range(1, 5):
                for r in range(0, p + q + 1):
                    shape = Shape(p, q, r)
                    assert len(enumerate_graphs(shape)) == count_orbits(shape)

    def test_pinned_count_534(self):
        # frozen from exhaustive enumeration, cross-checked with the formula
        assert count_orbits(SHAPE_534) == 850
        assert len(enumerate_graphs(SHAPE_534)) == 850


class TestInvariants:
    def test_paper_example(self):
        inv = invariants(GRAPH_534)
        assert (inv.a_plus, inv.a_minus, inv.b, inv.c) == (7, 1, 2, 1)
        assert inv.dim == 25

    def test_crossing_pair(self):
        s = Shape(2, 2, 2)
        crossing = make_graph(s, [(1, 2), (2, 1)])
        noncrossing = make_graph(s, [(1, 1), (2, 2)])
        ic = invariants(crossing)
        assert (ic.a_plus, ic.a_minus, ic.b, ic.c, ic.dim) == (0, 0, 2, 1, 6)
        inc = invariants(noncrossing)
        assert (inc.a_plus, inc.a_minus, inc.b, inc.c, inc.dim) == (0, 0, 2, 0, 5)

    def test_dimension_bounds(self):
        for shape in [Shape(2, 2, 2), Shape(3, 2, 3), Shape(2, 3, 1)]:
            base = shape.p * (shape.p - 1) // 2 + shape.q * (shape.q - 1) // 2
            ambient = base + shape.r * (shape.n - shape.r)
            for g in enumerate_graphs(shape):
                assert base <= invariants(g).dim <= ambient


class TestRankMatrix:
    def test_paper_example(self):
        assert rank_matrix(GRAPH_534).entries == (
            (0, 0, 1, 1),
            (0, 0, 1, 1),
            (0, 0, 1, 2),
            (0, 0, 1, 2),
            (0, 1, 2, 3),
            (1, 2, 3, 4),
        )

    def test_empty_graph(self):
        g = make_graph(Shape(2, 2, 0))
        assert all(x == 0 for row in rank_matrix(g).entries for x in row)

    def test_single_step(self):
        g = make_graph(Shape(1, 1, 1), [(1, 1)])
        assert rank_matrix(g).entries == ((0, 0), (0, 1))

    def test_injective_on_orbits(self):
        for shape in [Shape(2, 2, 2), Shape(3, 2, 2), Shape(2, 3, 4)]:
            mats = [rank_matrix(g).entries for g in enumerate_graphs(shape)]
            assert len(set(mats)) == len(mats)


def identity_perm(size):
    return tuple(range(1, size + 1))


def transposition(size, i):
    """The adjacent transposition (i, i+1) of 1..size in one-line notation."""
    w = list(range(1, size + 1))
    w[i - 1], w[i] = w[i], w[i - 1]
    return tuple(w)


class TestWeylAct:
    def test_identity(self):
        w = (identity_perm(5), identity_perm(3))
        assert weyl_act(w, GRAPH_534) == GRAPH_534

    def test_swap_edges(self):
        s = Shape(2, 2, 2)
        g = make_graph(s, [(1, 1), (2, 2)])
        w = (transposition(2, 1), identity_perm(2))
        assert weyl_act(w, g) == make_graph(s, [(2, 1), (1, 2)])

    def test_swap_mark(self):
        s = Shape(2, 1, 1)
        g = make_graph(s, marked_plus=[1])
        w = (transposition(2, 1), identity_perm(1))
        assert weyl_act(w, g) == make_graph(s, marked_plus=[2])

    def test_action_law(self):
        def compose(u, v):  # (u o v)(i) = u(v(i)), one-line notation
            return tuple(u[v[i] - 1] for i in range(len(u)))

        rng = random.Random(7)
        s = Shape(3, 3, 3)
        graphs = enumerate_graphs(s)
        for _ in range(20):
            g = rng.choice(graphs)
            u = (tuple(rng.sample(range(1, 4), 3)), tuple(rng.sample(range(1, 4), 3)))
            v = (tuple(rng.sample(range(1, 4), 3)), tuple(rng.sample(range(1, 4), 3)))
            uv = (compose(u[0], v[0]), compose(u[1], v[1]))
            assert weyl_act(uv, g) == weyl_act(u, weyl_act(v, g))

    def test_preserves_triple(self):
        s = Shape(3, 2, 3)
        for g in enumerate_graphs(s):
            w = ((2, 3, 1), (2, 1))
            assert weyl_act(w, g).triple() == g.triple()

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            weyl_act(((1,), (1, 2)), make_graph(Shape(2, 2, 0)))


@st.composite
def shape_and_graph(draw):
    p = draw(st.integers(1, 4))
    q = draw(st.integers(1, 4))
    r = draw(st.integers(0, p + q))
    shape = Shape(p, q, r)
    graphs = enumerate_graphs(shape)
    return shape, graphs[draw(st.integers(0, len(graphs) - 1))]


@settings(max_examples=60, deadline=None)
@given(shape_and_graph(), st.randoms(use_true_random=False))
def test_round_trip_and_column_invariance(sg, rnd):
    shape, g = sg
    m = matrix_from_graph(g)
    assert graph_from_matrix(m) == g
    perm = list(range(shape.r))
    rnd.shuffle(perm)
    shuffled = PartialPermutationPair(shape, permuted_columns(m.matrix, perm))
    assert graph_from_matrix(shuffled) == g


def assert_rank_profile(g):
    """The properties that ``rank_matrix``'s docstring proves: corners 0
    and r, row and column steps 0/1, and supermodularity."""
    e = rank_matrix(g).entries
    p, q = g.shape.p, g.shape.q
    assert len(e) == p + 1 and all(len(row) == q + 1 for row in e), g
    assert e[0][0] == 0, g
    assert e[p][q] == g.shape.r, g
    for i in range(p + 1):
        for j in range(q + 1):
            if i:
                assert e[i][j] - e[i - 1][j] in (0, 1), (g, i, j)
            if j:
                assert e[i][j] - e[i][j - 1] in (0, 1), (g, i, j)
            if i and j:
                assert e[i][j] + e[i - 1][j - 1] >= e[i - 1][j] + e[i][j - 1], (g, i, j)


@settings(max_examples=60, deadline=None)
@given(shape_and_graph())
def test_rank_matrix_invariants(sg):
    assert_rank_profile(sg[1])


def test_json_round_trip():
    for g in enumerate_graphs(Shape(2, 3, 3)):
        assert Graph.from_json(g.to_json()) == g


@pytest.mark.parametrize(
    "field, label",
    [("edges", [[1.9, 1]]), ("edges", [[1, "1"]]), ("marked_plus", [1.0]), ("marked_minus", ["1"])],
)
def test_from_json_refuses_non_integer_labels(field, label):
    # int() would truncate 1.9 to 1 and parse "1"; labels are coerced as
    # Shape coerces sizes
    data = {"p": 2, "q": 2, "r": 1, "edges": [], "marked_plus": [], "marked_minus": []}
    data[field] = label
    with pytest.raises(TypeError):
        Graph.from_json(data)


# Test-only references: the edge-set versions of the per-vertex questions,
# as core answered them before a Graph was stored as its partner arrays.


def reference_degree(g, side, i):
    marked, ends = (g.marked_plus, 0) if side == "+" else (g.marked_minus, 1)
    if i in marked:
        return 2
    return 1 if any(e[ends] == i for e in g.edges) else 0


def reference_crossings(g):
    es = sorted(g.edges)
    return sum(
        1 for a in range(len(es)) for b in range(a + 1, len(es)) if es[a][1] > es[b][1]
    )


def reference_invariants(g):
    p, q = g.shape.p, g.shape.q
    dplus = [reference_degree(g, "+", i) for i in range(1, p + 1)]
    dminus = [reference_degree(g, "-", j) for j in range(1, q + 1)]
    a_plus = sum(1 for i in range(p) for j in range(i + 1, p) if dplus[i] < dplus[j])
    a_minus = sum(1 for i in range(q) for j in range(i + 1, q) if dminus[i] < dminus[j])
    b = len(g.edges)
    c = reference_crossings(g)
    dim = p * (p - 1) // 2 + q * (q - 1) // 2 + a_plus + a_minus + b * (b + 1) // 2 + c
    return Invariants(a_plus, a_minus, b, c, dim)


def reference_rank_matrix(g):
    rows = []
    for i in range(g.shape.p + 1):
        row = []
        for j in range(g.shape.q + 1):
            v = sum(1 for a, b in g.edges if a <= i and b <= j)
            v += sum(1 for a in g.marked_plus if a <= i)
            v += sum(1 for b in g.marked_minus if b <= j)
            row.append(v)
        rows.append(tuple(row))
    return RankMatrix(tuple(rows))


def reference_enumerate_graphs(shape):
    """Enumeration through ``make_graph`` on edge and mark sets, in the same
    loop order as ``enumerate_graphs``."""
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


def reference_weyl_act(w, g):
    w1, w2 = w
    return make_graph(
        g.shape,
        ((w1[i - 1], w2[j - 1]) for i, j in g.edges),
        (w1[i - 1] for i in g.marked_plus),
        (w2[j - 1] for j in g.marked_minus),
    )


def reference_partners(g):
    """The partner arrays built from the edge sets."""
    to_minus = dict(g.edges)
    to_plus = {j: i for i, j in g.edges}
    return (
        tuple(-1 if i in g.marked_plus else to_minus.get(i, 0) for i in range(g.shape.p + 1)),
        tuple(-1 if j in g.marked_minus else to_plus.get(j, 0) for j in range(g.shape.q + 1)),
    )


SMALL_SHAPES = [
    Shape(p, n - p, r) for n in range(2, 8) for p in range(1, n) for r in range(n + 1)
]


def small_orbits():
    return [g for shape in SMALL_SHAPES for g in enumerate_graphs(shape)]


def test_small_shapes_cover_every_orbit():
    assert len(SMALL_SHAPES) == 133
    assert len(small_orbits()) == sum(count_orbits(shape) for shape in SMALL_SHAPES) == 5037


def test_arrays_match_edge_sets():
    for g in small_orbits():
        assert (g.plus, g.minus) == reference_partners(g), g
        assert g.triple() == (len(g.edges), len(g.marked_plus), len(g.marked_minus)), g
        for side, size in (("+", g.shape.p), ("-", g.shape.q)):
            for i in range(1, size + 1):
                assert g.degree(side, i) == reference_degree(g, side, i), (g, side, i)


def test_record_ints_flatten_record_lists():
    # The text writers fill their per-type templates with these ints, and
    # record_lists cuts its lists from them.  The reference is the sorted
    # frozenset views, which read the partner arrays on their own.
    for g in small_orbits():
        edges = sorted(g.edges)
        marked_minus, marked_plus = sorted(g.marked_minus), sorted(g.marked_plus)
        flat = (*itertools.chain.from_iterable(edges), *marked_minus, *marked_plus)
        assert g.record_ints() == flat, g
        assert type(g.record_ints()) is tuple, g
        assert g.record_lists() == ([list(e) for e in edges], marked_minus, marked_plus), g


def test_invariants_match_reference():
    for g in small_orbits():
        assert crossings(g) == reference_crossings(g), g
        assert invariants(g) == reference_invariants(g), g


def test_rank_matrix_matches_reference():
    for g in small_orbits():
        assert rank_matrix(g) == reference_rank_matrix(g), g


def test_rank_matrix_and_invariants_are_ints():
    # The reference tests compare with ==, and True == 1: a bool entry would
    # pass them, yet print as ``true`` in the CLI's JSON.
    for g in small_orbits():
        assert all(type(x) is int for row in rank_matrix(g).entries for x in row), g
        assert all(type(x) is int for x in invariants(g)), g


def test_rank_matrix_is_a_rank_profile():
    for g in small_orbits():
        assert_rank_profile(g)


def test_enumeration_matches_reference(monkeypatch):
    expected = {shape: reference_enumerate_graphs(shape) for shape in SMALL_SHAPES}

    def fail(*args):
        raise AssertionError("enumerate_graphs called make_graph")

    monkeypatch.setattr(core, "make_graph", fail)
    for shape in SMALL_SHAPES:
        assert enumerate_graphs.__wrapped__(shape) == expected[shape], shape


def test_enumeration_checks_every_orbit(monkeypatch):
    # enumerate_graphs builds every orbit through Graph, so each of its
    # checks runs once per orbit.
    new = Graph.__new__
    calls = 0

    def counting_new(cls, *args):
        nonlocal calls
        calls += 1
        return new(cls, *args)

    monkeypatch.setattr(Graph, "__new__", counting_new)
    shapes = [shape for shape in SMALL_SHAPES if shape.n <= 6]
    assert len(shapes) == 85
    for shape in shapes:
        calls = 0
        graphs = enumerate_graphs.__wrapped__(shape)
        assert calls == len(graphs) == count_orbits(shape), shape


def test_weyl_act_matches_reference():
    rng = random.Random(11)
    for g in small_orbits():
        p, q = g.shape.p, g.shape.q
        w = (tuple(rng.sample(range(1, p + 1), p)), tuple(rng.sample(range(1, q + 1), q)))
        assert weyl_act(w, g) == reference_weyl_act(w, g), (g, w)

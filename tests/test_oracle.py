import functools
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from doubleflag import (
    Shape,
    certify_theorem,
    classify_orbits,
    convolution_action,
    count_orbits,
    enumerate_graphs,
    enumerate_grassmannian,
    gaussian_binomial,
    make_graph,
    matrix_from_graph,
    rank_matrix,
    rank_profile,
)
from doubleflag import hecke, oracle
from doubleflag.hecke import Basis, ModuleVector, apply_generator, generators
from doubleflag.oracle import (
    ENUMERATION_BUDGET,
    CertificationRecord,
    CertificationReport,
    classification_ok,
    expected_orbit_size,
    graph_subspace,
)
from reference import reference_rref

S222 = Shape(2, 2, 2)


class TestFieldValidation:
    def test_char_two_rejected(self):
        with pytest.raises(ValueError):
            enumerate_grassmannian(S222, 2)

    def test_composite_rejected(self):
        with pytest.raises(ValueError):
            enumerate_grassmannian(S222, 9)

    @pytest.mark.parametrize("classified", [False, True], ids=["fresh", "classified"])
    def test_float_field_size_refused_in_every_cache_state(self, classified):
        # 3.0 == 3 and hash(3.0) == hash(3), so a float that reached a cache
        # would be served the F_3 entry instead of being refused.
        oracle.classify_orbits.cache_clear()
        oracle._span_table.cache_clear()
        w = enumerate_grassmannian(S222, 3)[0]
        if classified:
            classify_orbits(S222, 3)
        with pytest.raises(TypeError):
            certify_theorem(S222, [3.0])
        with pytest.raises(TypeError):
            convolution_action(S222, 3.0, "+", 1, Basis(S222).graphs[0])
        with pytest.raises(TypeError):
            rank_profile(w, S222, 3.0)
        with pytest.raises(TypeError):
            enumerate_grassmannian(S222, 3.0)
        with pytest.raises(TypeError):
            classify_orbits(S222, 3.0)

    def test_index_field_size_classified_as_int(self):
        class Three:
            def __index__(self):
                return 3

        cls = classify_orbits(S222, Three())
        assert type(cls.field_size) is int
        assert cls == classify_orbits(S222, 3)

    def test_bool_field_size_refused_after_int_classification(self):
        # True == 1 and hash(True) == hash(1); the typed cache keys a bool
        # apart from an int, so it reaches the field check.
        classify_orbits(S222, 3)
        with pytest.raises(ValueError):
            classify_orbits(S222, True)

    def test_cache_clear_reaches_the_classification_cache(self):
        cls = classify_orbits(S222, 3)
        assert classify_orbits(S222, 3) is cls
        classify_orbits.cache_clear()
        assert classify_orbits(S222, 3) is not cls


def _product_gaussian_binomial(n, r, q):
    """Test-only copy of the product formula prod (q^(n-i) - 1) / (q^(i+1) - 1)."""
    num = den = 1
    for i in range(r):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    assert num % den == 0
    return num // den


class TestGrassmannian:
    def test_counts(self):
        assert gaussian_binomial(4, 2, 3) == 130
        assert gaussian_binomial(4, 2, 5) == 806

    def test_gaussian_binomial_at_q_one_is_binomial(self):
        for n in range(12):
            for r in range(-1, n + 2):
                assert gaussian_binomial(n, r, 1) == (math.comb(n, r) if r >= 0 else 0)

    def test_gaussian_binomial_matches_product_formula(self):
        for q in (0, 2, 3, 5, 11):
            for n in range(12):
                for r in range(n + 1):
                    assert gaussian_binomial(n, r, q) == _product_gaussian_binomial(n, r, q)
        assert gaussian_binomial(4, 2, -1) == 2
        assert len(enumerate_grassmannian(S222, 3)) == 130
        assert len(enumerate_grassmannian(S222, 5)) == 806

    def test_projective_line(self):
        pts = enumerate_grassmannian(Shape(1, 1, 1), 3)
        assert len(pts) == 4
        assert len(set(pts)) == 4

    def test_rref_canonical(self):
        pts = enumerate_grassmannian(S222, 3)
        for w in pts:
            canon, rank = reference_rref(w, 3)
            assert canon == w
            assert rank == 2

    def test_budget(self):
        with pytest.raises(ValueError):
            enumerate_grassmannian(Shape(6, 6, 6), 7)

    def test_point_count_checked_under_optimize(self):
        # The count check must survive ``python -O``, which strips asserts.
        script = (
            "from doubleflag import Shape, oracle\n"
            "exact = oracle.gaussian_binomial\n"
            "oracle.gaussian_binomial = lambda n, r, q: exact(n, r, q) + 1\n"
            "try:\n"
            "    oracle.enumerate_grassmannian(Shape(1, 1, 1), 3)\n"
            "except AssertionError:\n"
            "    print('raised')\n"
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
        assert proc.stdout == "raised\n"


def _pivots(w):
    return tuple(row.index(1) for row in w)


def _drop_first(points):
    return points[1:]


def _drop_last(points):
    return points[:-1]


def _append_copy(points):
    return [*points, points[0]]


def _swap_at_cell_boundary(points):
    """Swap the last point of the first pivot cell and the first of the next."""
    i = next(i for i in range(1, len(points)) if _pivots(points[i]) != _pivots(points[0]))
    points = list(points)
    points[i - 1], points[i] = points[i], points[i - 1]
    return points


def _swap_far_apart(points):
    """Swap the second point, in the first pivot cell, and the last one."""
    points = list(points)
    assert _pivots(points[1]) != _pivots(points[-1])
    points[1], points[-1] = points[-1], points[1]
    return points


class TestCellAlignment:
    # (3,2,2) has cells with several + and several - combinations, so the
    # mixed-radix re-indexing runs as well as the one-sided cells.
    @pytest.mark.parametrize(
        "damage",
        [_drop_first, _drop_last, _append_copy, _swap_at_cell_boundary, _swap_far_apart],
    )
    def test_misaligned_points_raise(self, monkeypatch, damage):
        exact = oracle.enumerate_grassmannian
        monkeypatch.setattr(
            oracle, "enumerate_grassmannian", lambda shape, field: damage(exact(shape, field))
        )
        classify_orbits.cache_clear()
        try:
            with pytest.raises(AssertionError):
                classify_orbits(Shape(3, 2, 2), 3)
        finally:
            classify_orbits.cache_clear()

    @pytest.mark.parametrize(
        "name, damage, message",
        [
            ("enumerate_graphs", lambda f: lambda s: f(s)[:-1], "unmatched rank profile"),
            ("enumerate_graphs", lambda f: lambda s: (*f(s), f(s)[0]), "received no Grassmannian"),
            ("rank_profile", lambda f: lambda w, s, F: (), "unmatched rank profile"),
        ],
        ids=["orbit_dropped", "orbit_repeated", "profile_damaged"],
    )
    def test_unmatched_orbits_raise(self, monkeypatch, name, damage, message):
        # Dropping an orbit leaves its points' profile unmatched; repeating
        # one maps its profile to the copy and leaves the first one empty.
        monkeypatch.setattr(oracle, name, damage(getattr(oracle, name)))
        classify_orbits.cache_clear()
        try:
            with pytest.raises(AssertionError, match=message):
                classify_orbits(Shape(3, 2, 2), 3)
        finally:
            classify_orbits.cache_clear()

    def test_alignment_checked_under_optimize(self):
        # The alignment check must survive ``python -O``, which strips asserts.
        script = (
            "from doubleflag import Shape, oracle\n"
            "exact = oracle.enumerate_grassmannian\n"
            "def swap(points):\n"
            "    points = list(points)\n"
            "    points[1], points[-1] = points[-1], points[1]\n"
            "    return points\n"
            "for damage in (lambda points: points[:-1], swap):\n"
            "    oracle.enumerate_grassmannian = lambda s, f: damage(exact(s, f))\n"
            "    oracle.classify_orbits.cache_clear()\n"
            "    try:\n"
            "        oracle.classify_orbits(Shape(3, 2, 2), 3)\n"
            "    except AssertionError:\n"
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
        assert proc.stdout == "raised\nraised\n"


class TestRankProfile:
    def test_paper_base_point(self):
        shape = Shape(5, 3, 4)
        g = make_graph(shape, [(2, 3), (4, 1)], [5], [2])
        w = graph_subspace(g)
        assert rank_profile(w, shape, 3) == rank_matrix(g).entries
        # r = 0: no rows, and the zero space's profile is all zeros
        g = make_graph(Shape(2, 3, 0))
        w = graph_subspace(g)
        assert w == ()
        assert rank_profile(w, g.shape, 3) == rank_matrix(g).entries

    def test_base_point_is_rref_of_its_columns(self):
        # graph_subspace sorts the columns instead of eliminating; over
        # every field that is the form Gauss-Jordan elimination gives, r = 0
        # included.
        orbits = [
            g
            for n in range(2, 7)
            for p in range(1, n)
            for r in range(n + 1)
            for g in enumerate_graphs(Shape(p, n - p, r))
        ]
        assert len(orbits) == 1485
        for g in orbits:
            columns = tuple(zip(*matrix_from_graph(g).matrix))
            for field in (3, 5):
                assert graph_subspace(g) == reference_rref(columns, field)[0], (g, field)

    def test_flag_member(self):
        # W spanned by the first r "+" basis vectors
        shape = Shape(3, 2, 2)
        w = ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0))
        prof = rank_profile(w, shape, 3)
        for i in range(4):
            for j in range(3):
                assert prof[i][j] == min(i, 2)

    def test_every_point_classified(self):
        profiles = {rank_matrix(g).entries for g in Basis(S222).graphs}
        for w in enumerate_grassmannian(S222, 3):
            assert rank_profile(w, S222, 3) in profiles

    @pytest.mark.parametrize(
        "w, field",
        [
            (((1, 0, 0, 0), (1, 0, 0, 0)), 3),  # rank 1, not r = 2
            (((1, 0, 0, 0), (4, 0, 0, 0)), 3),  # rank 2 over Z, 1 mod 3
            (((1, 0, 0), (0, 1, 0)), 3),  # 3 columns, not n = 4
            (((1, 0, 0, 0, 0), (0, 1, 0, 0, 0)), 3),  # 5 columns
            (((1, 0, 0, 0),), 3),  # 1 row, not r = 2
            (((1, 0, 0, 0), (0, 1, 0, 0)), 1),
            (((1, 0, 0, 0), (0, 1, 0, 0)), 2),
            (((1, 0, 0, 0), (0, 1, 0, 0)), 4),
        ],
    )
    def test_bad_input_rejected(self, w, field):
        with pytest.raises(ValueError):
            rank_profile(w, S222, field)


def _reference_rank_profile(w, shape, field_size):
    """Test-only copy of the per-(i, j) rank profile: one elimination for
    every complementary coordinate set."""
    p, q, r = shape.p, shape.q, shape.r
    rows = []
    for i in range(p + 1):
        row = []
        for j in range(q + 1):
            comp = list(range(i, p)) + list(range(p + j, p + q))
            if not comp or r == 0:
                row.append(r)
                continue
            restricted = [[v[c] for c in comp] for v in w]
            row.append(r - reference_rref(restricted, field_size)[1])
        rows.append(tuple(row))
    return tuple(rows)


def _reference_transform(w, shape, side, i, c, field_size):
    """Test-only copy of the dense transform: build the n x n matrix of
    s_i u(c)^{-1} and multiply every basis row by it."""
    n = shape.n
    a = i - 1 if side == "+" else shape.p + i - 1
    g = [[1 if x == y else 0 for y in range(n)] for x in range(n)]
    g[a][a + 1] = (-c) % field_size  # u(c)^{-1} = u(-c)
    g[a], g[a + 1] = g[a + 1], g[a]  # left-multiply by s_i
    if not w:
        return ()
    rows = [
        [sum(row[k] * g[x][k] for k in range(n)) % field_size for x in range(n)]
        for row in w
    ]
    return reference_rref(rows, field_size)[0]


def _reference_canonical_transform(w, a, c, p):
    """Test-only copy of the transform by a full elimination: the
    two-coordinate row operation, then ``reference_rref``."""
    rows = []
    for row in w:
        row = list(row)
        row[a], row[a + 1] = row[a + 1], (row[a] - c * row[a + 1]) % p
        rows.append(row)
    return reference_rref(rows, p)[0]


def _transform_case(w, a, c):
    """The input class of (w, a, c) for ``oracle._image``: which of
    columns a and b = a+1 are pivot columns of w, so which rows it puts
    back; with both, whether c is 0, that is whether the second row put
    back has a -c to clear; with a only, the a-row's entry x at b, which
    becomes its new a-entry: 0 puts the row back at b, 1 at a unscaled,
    and > 1 at a scaled by 1/x.
    ``test_transform_matches_elimination_exhaustively`` must reach all
    seven classes."""
    pivots = {row.index(1): k for k, row in enumerate(w)}
    if a in pivots and a + 1 in pivots:
        return "both, c = 0" if c == 0 else "both, c != 0"
    if a in pivots:
        x = w[pivots[a]][a + 1]
        return f"a only, new entry at a {x if x < 2 else '> 1'}"
    return "b only" if a + 1 in pivots else "neither"


@st.composite
def shape_field_point(draw):
    """A shape with p+q <= 7, a field and the RREF of a random full-rank
    r x n matrix over it."""
    p = draw(st.integers(1, 6))
    q = draw(st.integers(1, 7 - p))
    shape = Shape(p, q, draw(st.integers(0, p + q)))
    field = draw(st.sampled_from((3, 5, 7)))
    entries = st.integers(0, field - 1)
    mat = draw(
        st.lists(
            st.lists(entries, min_size=shape.n, max_size=shape.n),
            min_size=shape.r,
            max_size=shape.r,
        )
    )
    w, rank = reference_rref(mat, field)
    assume(rank == shape.r)
    return shape, field, w


@st.composite
def integer_matrix(draw):
    """A field size and an r x n integer matrix, r = 0 allowed, with
    entries outside range(p), zero rows, rows that are multiples of p and
    rows that are combinations of others (so rank-deficient input)."""
    p = draw(st.sampled_from((3, 5, 7, 101)))
    ncols = draw(st.integers(0, 8))
    row = st.lists(st.integers(-3 * p, 3 * p), min_size=ncols, max_size=ncols)
    base = draw(st.lists(row, max_size=5))
    coeffs = st.lists(st.integers(-p, p), min_size=len(base), max_size=len(base))
    rows = base + [
        [sum(c * v[k] for c, v in zip(combo, base)) for k in range(ncols)]
        for combo in draw(st.lists(coeffs, max_size=3))
    ]
    rows += [[0] * ncols] * draw(st.integers(0, 2))
    rows += [[p * x for x in v] for v in draw(st.lists(row, max_size=2))]
    return draw(st.permutations(rows)), p


def _reference_enumerate_grassmannian(shape, field_size):
    """Test-only copy of the nested-loop enumeration: one matrix built per
    point, with the free entries in (row, col) order, the last fastest."""
    n, r = shape.n, shape.r
    out = []
    for pivots in itertools.combinations(range(n), r):
        free = [
            (row, col)
            for row in range(r)
            for col in range(pivots[row] + 1, n)
            if col not in pivots
        ]
        for values in itertools.product(range(field_size), repeat=len(free)):
            mat = [[0] * n for _ in range(r)]
            for row, piv in enumerate(pivots):
                mat[row][piv] = 1
            for (row, col), v in zip(free, values):
                mat[row][col] = v
            out.append(tuple(tuple(row) for row in mat))
    return out


def _reference_classify_orbits(shape, field_size):
    """Test-only copy of the per-point classification: the full rank
    profile of every point, matched to the orbits' rank matrices.  Returns
    (sizes, orbit_of, points) as ``classify_orbits`` builds them.
    ``rank_profile`` itself is compared with per-entry elimination below."""
    graphs = Basis(shape).graphs
    profile_to_index = {rank_matrix(g).entries: k for k, g in enumerate(graphs)}
    buckets = [[] for _ in graphs]
    orbit_of = {}
    for w in _reference_enumerate_grassmannian(shape, field_size):
        k = profile_to_index[rank_profile(w, shape, field_size)]
        buckets[k].append(w)
        orbit_of[w] = k
    return (
        tuple(map(len, buckets)),
        orbit_of,
        tuple(map(tuple, buckets)),
    )


def _walk_keys(shape, field_size):
    """The distinct walk keys of the shape's points: the span ids met
    walking the + columns p..1 and the - columns q..1 from the zero span."""
    table = oracle._span_table(shape.r, field_size)
    keys = set()
    for w in enumerate_grassmannian(shape, field_size):
        cols = list(zip(*w)) or [()] * shape.n
        key = []
        for walk in (cols[shape.p - 1 :: -1], cols[: shape.p - 1 : -1]):
            key.extend(_walk(table.step, 0, walk))
        keys.add(tuple(key))
    return keys


SMALL_JOBS = [
    (Shape(p, q, r), 3) for p in range(1, 5) for q in range(1, 6 - p) for r in range(p + q + 1)
] + [(S222, 5), (S222, 7)]


# Over F_5 and F_7: every shape with p+q <= 4, and two near 20k points.
WIDE_FIELD_JOBS = [
    (Shape(p, q, r), field)
    for field in (5, 7)
    for p in range(1, 4)
    for q in range(1, 5 - p)
    for r in range(p + q + 1)
] + [(Shape(3, 2, 2), 5), (Shape(2, 3, 2), 5)]

# Cells with one fixed side: with p = 1 every cell has one + combination,
# with q = 1 one - combination, and r = 0 or r = n has one point.
ONE_SIDED_JOBS = [
    (Shape(1, 2, 1), 31),
    (Shape(1, 2, 2), 31),
    (Shape(2, 1, 1), 31),
    (Shape(2, 1, 2), 31),
    (Shape(1, 3, 2), 7),
    (Shape(3, 1, 2), 7),
    (Shape(1, 1, 1), 101),
    (Shape(3, 3, 0), 7),
    (Shape(3, 3, 6), 7),
    (Shape(2, 4, 0), 11),
    (Shape(2, 4, 6), 11),
]


# One-sided cells over F_101, where a side's free columns hold 101 or
# 101^2 vectors.
ONE_SIDED_F101_JOBS = [
    (Shape(1, 2, 1), 101),
    (Shape(1, 2, 2), 101),
    (Shape(2, 1, 1), 101),
    (Shape(2, 1, 2), 101),
]


def _walk(step, s, cols):
    """The span ids met stepping from span ``s`` by each column in turn."""
    return list(itertools.accumulate(cols, step, initial=s))[1:]


def _count_inserts(monkeypatch):
    """Patch ``oracle._insert`` to record the basis of each call; returns
    the list of recorded bases."""
    calls = []
    insert = oracle._insert

    def counted(basis, v, p):
        calls.append(basis)
        return insert(basis, v, p)

    monkeypatch.setattr(oracle, "_insert", counted)
    return calls


def _reference_walks(side, step):
    """Test-only copy of the per-combination walk: every combination of
    the side's rows' halves, in product order over the rows, walked from
    the zero span through its columns last to first.  Returns {its columns
    in walk order: the span ids met}."""
    halves = [list(itertools.product(*entries)) for entries in side]
    flipped = [[h[::-1] for h in row] for row in halves]
    out = {}
    for comb in itertools.product(*flipped):
        columns = tuple(zip(*comb))
        out[columns] = tuple(_walk(step, 0, columns))
    return out


def _cell_tries(jobs):
    """For each job, its span table's step and a trie that has walked every
    side of every cell, shared as ``classify_orbits`` shares it; yields
    (shape, field, step, trie, [(side, its walk ints)])."""
    for shape, field in jobs:
        step = oracle._span_table(shape.r, field).step
        trie = oracle._WalkTrie(step)
        sides = [
            (side, trie.walks(side))
            for rows in oracle._cells(shape, field)
            for side in (zip(*rows) if rows else ((), ()))
        ]
        yield shape, field, step, trie, sides


def _assert_classification_matches_reference(shape, field):
    cls = classify_orbits(shape, field)
    sizes, orbit_of, points = _reference_classify_orbits(shape, field)
    assert cls.graphs == Basis(shape).graphs
    assert (cls.sizes, cls.points) == (sizes, points), (shape, field)
    assert list(cls.orbit_of.items()) == list(orbit_of.items()), (shape, field)


class TestDifferential:
    def test_enumeration_matches_nested_loops(self):
        for shape, field in SMALL_JOBS:
            assert enumerate_grassmannian(shape, field) == (
                _reference_enumerate_grassmannian(shape, field)
            ), (shape, field)

    def test_classification_matches_per_point_profiles(self):
        for shape, field in SMALL_JOBS:
            _assert_classification_matches_reference(shape, field)

    @pytest.mark.parametrize(
        "jobs", [WIDE_FIELD_JOBS, ONE_SIDED_JOBS], ids=["wide-fields", "one-sided"]
    )
    def test_classification_matches_on_more_jobs(self, jobs):
        for shape, field in jobs:
            _assert_classification_matches_reference(shape, field)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 4), st.data())
    def test_classification_matches_on_random_jobs(self, p, q, data):
        shape = Shape(p, q, data.draw(st.integers(0, p + q)))
        field = data.draw(st.sampled_from((3, 5, 7, 11, 13)))
        assume(gaussian_binomial(shape.n, shape.r, field) <= 2000)
        _assert_classification_matches_reference(shape, field)

    @pytest.mark.parametrize(
        "jobs",
        [WIDE_FIELD_JOBS, ONE_SIDED_JOBS, ONE_SIDED_F101_JOBS],
        ids=["wide-fields", "one-sided", "one-sided-f101"],
    )
    def test_column_walks_match_per_combination_walks(self, jobs):
        # Over every side of every cell of a shape, sharing one trie as
        # classify_orbits does: two combinations get one walk int exactly
        # when their span-id tuples are equal.  The ints come in product
        # order over the side's columns, last column first.
        for shape, field, step, _, sides in _cell_tries(jobs):
            pairs = set()
            for side, ints in sides:
                reference = _reference_walks(side, step)
                columns = [itertools.product(*col) for col in reversed(list(zip(*side)))]
                combs = list(itertools.product(*columns))
                assert len(ints) == len(combs) == len(reference), (shape, field)
                pairs.update(zip(ints, map(reference.__getitem__, combs)))
            assert len(pairs) == len({u for u, _ in pairs}) == len({t for _, t in pairs}), (
                shape,
                field,
            )

    @pytest.mark.parametrize(
        "jobs", [WIDE_FIELD_JOBS, ONE_SIDED_F101_JOBS], ids=["wide-fields", "one-sided-f101"]
    )
    def test_trie_paths_walk_to_their_nodes(self, jobs):
        # classify_orbits builds a new key's representative from the paths
        # of its two walk ints, so stepping a node's path from the zero span
        # must meet exactly the span ids of the node's prefix.
        nodes = 0
        for shape, field, step, trie, _ in _cell_tries(jobs):
            prefix = [()]
            for (parent, t), node in trie.nodes.items():
                assert node == len(prefix), (shape, field)
                prefix.append(prefix[parent] + (t,))
            assert len(trie.paths) == len(trie.spans) == len(prefix), (shape, field)
            for node, path in enumerate(trie.paths):
                assert tuple(_walk(step, 0, path)) == prefix[node], (shape, field, node)
            nodes += len(prefix)
        assert nodes > 10 * len(jobs)

    def test_one_rank_profile_per_walk_key(self, monkeypatch):
        calls = []
        profile = oracle.rank_profile

        def counted(w, shape, field_size):
            calls.append(w)
            return profile(w, shape, field_size)

        monkeypatch.setattr(oracle, "rank_profile", counted)
        oracle.classify_orbits.cache_clear()
        shape = Shape(3, 2, 2)
        cls = classify_orbits(shape, 3)
        oracle.classify_orbits.cache_clear()
        keys = _walk_keys(shape, 3)
        assert len(calls) == len(set(calls)) == len(keys)
        assert len(keys) * 10 < len(cls.orbit_of) == 1210

    @settings(max_examples=200, deadline=None)
    @given(shape_field_point())
    def test_rank_profile_matches_per_entry_elimination(self, case):
        shape, field, w = case
        assert rank_profile(w, shape, field) == _reference_rank_profile(
            w, shape, field
        )

    @settings(max_examples=100, deadline=None)
    @given(shape_field_point())
    def test_transform_matches_dense_product(self, case):
        shape, field, w = case
        for side, i in generators(shape):
            a = i - 1 if side == "+" else shape.p + i - 1
            for c in range(field):
                assert oracle._image(w, a, c, field) == _reference_transform(
                    w, shape, side, i, c, field
                )

    def test_transform_matches_elimination_exhaustively(self):
        jobs = [
            (Shape(p, q, r), 3)
            for p in range(1, 5)
            for q in range(1, 6 - p)
            for r in range(p + q + 1)
        ]
        cases = set()
        for shape, field in jobs + [(S222, 5)]:
            for w in enumerate_grassmannian(shape, field):
                for a in range(shape.n - 1):
                    for c in range(field):
                        got = oracle._image(w, a, c, field)
                        want = _reference_canonical_transform(w, a, c, field)
                        assert got == want, (shape, field, w, a, c)
                        cases.add(_transform_case(w, a, c))
        assert cases == {
            "neither",
            "b only",
            "a only, new entry at a 0",
            "a only, new entry at a 1",
            "a only, new entry at a > 1",
            "both, c = 0",
            "both, c != 0",
        }

    def test_certification_transforms_every_sample(self, monkeypatch):
        # The count bench/golden.json records for verify (2,2,2) over F_11.
        # The counting must look _transform up at each call: the cache inside
        # _transform leaves the count as it is, but a cache wrapped around
        # it, or a batched transform, would change it.
        calls = []
        transform = oracle._transform

        def counted(*args):
            calls.append(1)
            return transform(*args)

        monkeypatch.setattr(oracle, "_transform", counted)
        assert certify_theorem(S222, [11]).ok
        assert len(calls) == 14784

    def test_rank_profile_matches_per_entry_elimination_exhaustively(self):
        jobs = [
            (Shape(p, q, r), 3)
            for p in range(1, 5)
            for q in range(1, 6 - p)
            for r in range(p + q + 1)
        ]
        for shape, field in jobs + [(S222, 5), (S222, 7)]:
            for w in enumerate_grassmannian(shape, field):
                assert rank_profile(w, shape, field) == _reference_rank_profile(
                    w, shape, field
                ), (shape, field, w)

    def test_rank_profile_reduces_mod_p(self):
        # Entries shifted by -p or +p, so some are negative and some past p.
        for w in enumerate_grassmannian(S222, 3):
            shifted = tuple(
                tuple(x + 3 * (1 if (j + k) % 2 else -1) for k, x in enumerate(row))
                for j, row in enumerate(w)
            )
            assert rank_profile(shifted, S222, 3) == rank_profile(w, S222, 3)

    def test_rank_profile_eliminations_per_point(self, monkeypatch):
        # rank_profile eliminates only to fill its span table: one _insert
        # call per step it fills, and none once the table holds every step.
        calls = _count_inserts(monkeypatch)
        oracle._span_table.cache_clear()
        shape = Shape(3, 2, 2)
        points = enumerate_grassmannian(shape, 3)
        for w in points:
            rank_profile(w, shape, 3)
        table = oracle._span_table(shape.r, 3)
        assert table.steps[0]
        assert 0 < len(calls) == sum(map(len, table.steps)) < len(points)
        calls.clear()
        for w in points:
            rank_profile(w, shape, 3)
        assert calls == []

    def test_classification_eliminations_per_step(self, monkeypatch):
        # A cold classification eliminates only to fill its span table: one
        # _insert call per step it fills, and none when classified again.
        calls = _count_inserts(monkeypatch)
        oracle._span_table.cache_clear()
        oracle.classify_orbits.cache_clear()
        shape = Shape(3, 2, 2)
        classify_orbits(shape, 5)
        table = oracle._span_table(shape.r, 5)
        assert table.steps[0]
        assert 0 < len(calls) == sum(map(len, table.steps))
        calls.clear()
        oracle.classify_orbits.cache_clear()
        classify_orbits(shape, 5)
        assert calls == []

    def test_walk_meets_the_span_of_each_prefix(self, monkeypatch):
        # Each id a walk meets stands for the span of its start and the
        # columns added so far, checked by Gauss-Jordan; a repeated walk
        # takes only filled steps, so it eliminates nothing.
        oracle._span_table.cache_clear()
        shape = Shape(3, 2, 2)
        table = oracle._span_table(shape.r, 3)
        walks = []

        def check(s, cols):
            ids = _walk(table.step, s, cols)
            assert len(ids) == len(cols)
            for k, t in enumerate(ids):
                rows, rank = reference_rref(table.bases[s] + tuple(cols[: k + 1]), 3)
                assert table.bases[t] == rows[:rank], (s, cols, k)
            walks.append((s, cols, ids))
            return ids

        for w in enumerate_grassmannian(shape, 3):
            cols = list(zip(*w))
            for u in [0, *check(0, cols[shape.p - 1 :: -1])]:
                check(u, cols[: shape.p - 1 : -1])
        calls = _count_inserts(monkeypatch)
        for s, cols, ids in walks:
            assert _walk(table.step, s, cols) == ids
        assert calls == []
        assert len(walks) == 1210 * 5

    @pytest.mark.parametrize("field_size", [3, 5, 7])
    def test_step_from_zero_span_matches_rref(self, monkeypatch, field_size):
        # A step from the zero span is one _insert call on the empty basis,
        # which only scales v to a leading 1; it must meet the span
        # Gauss-Jordan gives on every vector of F^r, r <= 3, also with
        # entries shifted by -F or +F.
        calls = _count_inserts(monkeypatch)
        entries = range(-field_size, 2 * field_size)
        for r in range(4):
            calls.clear()
            table = oracle._SpanTable(field_size)
            vectors = list(itertools.product(entries, repeat=r))
            spans = [table.step(0, v) for v in vectors]
            assert calls == [()] * len(vectors)
            assert len(calls) == sum(map(len, table.steps))
            for v, t in zip(vectors, spans):
                rows, rank = reference_rref((v,), field_size)
                assert table.bases[t] == rows[:rank], v
                assert (t == 0) == (rank == 0), v
            # one span per line through the origin, plus the zero span
            assert len(table.bases) == 1 + (field_size**r - 1) // (field_size - 1)

    @pytest.mark.parametrize("field_size", [3, 5])
    def test_every_step_matches_gauss_jordan(self, field_size):
        # Close a table under stepping by every vector of F^r, r <= 3, each
        # also with its entries shifted by +F, -F, +F, ... and by -F, +F,
        # ...: every step of every span must be the nonzero Gauss-Jordan
        # rows of the span's basis and v.
        for r in range(4):
            vectors = [
                tuple(x + sign * (-1) ** k * field_size for k, x in enumerate(v))
                for v in itertools.product(range(field_size), repeat=r)
                for sign in (0, 1, -1)
            ]
            table = oracle._SpanTable(field_size)
            # the iterator also meets the spans appended while it runs
            for s, basis in enumerate(table.bases):
                for v in vectors:
                    rows, rank = reference_rref(basis + (v,), field_size)
                    assert table.bases[table.step(s, v)] == rows[:rank], (s, v)
            # every subspace of F^r is met once, and stepped by every vector
            assert len(table.bases) == len(table.ids) == sum(
                gaussian_binomial(r, k, field_size) for k in range(r + 1)
            )
            assert sum(map(len, table.steps)) == len(table.bases) * len(set(vectors))

    @settings(max_examples=300, deadline=None)
    @given(integer_matrix())
    def test_rref_matches_gauss_jordan(self, case):
        # Folding _insert over the rows from the zero span gives the nonzero
        # rows of the Gauss-Jordan form, in the same order.
        rows, p = case
        ref_rows, ref_rank = reference_rref(rows, p)
        basis = functools.reduce(lambda b, v: oracle._insert(b, v, p), rows, ())
        assert basis == ref_rows[:ref_rank]


class TestClassifyOrbits:
    def test_2_2_2(self):
        cls = classify_orbits(S222, 3)
        assert len(cls.sizes) == 16
        assert sum(cls.sizes) == 130

    def test_1_1_1_by_hand(self):
        cls = classify_orbits(Shape(1, 1, 1), 3)
        by_graph = dict(zip(cls.graphs, cls.sizes))
        assert by_graph[make_graph(Shape(1, 1, 1), marked_plus=[1])] == 1
        assert by_graph[make_graph(Shape(1, 1, 1), marked_minus=[1])] == 1
        assert by_graph[make_graph(Shape(1, 1, 1), [(1, 1)])] == 2

    def test_r_zero(self):
        cls = classify_orbits(Shape(2, 2, 0), 3)
        assert cls.sizes == (1,)

    def test_max_dim_orbit_is_largest(self):
        from doubleflag import invariants

        for field in (3, 5):
            cls = classify_orbits(S222, field)
            dims = [invariants(g).dim for g in cls.graphs]
            top = dims.index(max(dims))
            assert cls.sizes[top] == max(cls.sizes)


    def test_orbit_sizes_match_closed_form(self):
        # Every orbit of every shape with p, q <= 3 over F_3 and F_5 within
        # the enumeration budget: 924 (orbit, field) pairs.
        pairs = 0
        for field in (3, 5):
            for p in range(1, 4):
                for q in range(1, 4):
                    for r in range(p + q + 1):
                        if gaussian_binomial(p + q, r, field) > ENUMERATION_BUDGET:
                            continue
                        cls = classify_orbits(Shape(p, q, r), field)
                        assert classification_ok(cls), (p, q, r, field)
                        pairs += len(cls.graphs)
        assert pairs == 924

    def test_orbit_size_by_hand(self):
        # (1,1|1) over F_q: the marked orbits are points, the edge orbit is
        # the q - 1 lines spanned by e_1 + c e_2 with c != 0.
        one = Shape(1, 1, 1)
        assert expected_orbit_size(make_graph(one, marked_plus=[1]), 7) == 1
        assert expected_orbit_size(make_graph(one, [(1, 1)]), 7) == 6

    def test_wrong_orbit_size_fails(self):
        cls = classify_orbits(S222, 3)
        assert classification_ok(cls)
        sizes = (cls.sizes[0] + 1,) + cls.sizes[1:]
        assert not classification_ok(cls._replace(sizes=sizes))


NONCROSSING_222 = make_graph(S222, [(1, 1), (2, 2)])


class TestConvolution:
    def test_case_ii_counts(self):
        g = make_graph(S222, [(1, 2), (2, 1)])
        out = convolution_action(S222, 3, "+", 1, g)
        basis = Basis(S222)
        noncross = make_graph(S222, [(1, 1), (2, 2)])
        assert out.specialize(0) == {
            basis.index[g]: 2,
            basis.index[noncross]: 3,
        }

    def test_case_i_counts(self):
        g = make_graph(S222, marked_plus=[1, 2])
        out = convolution_action(S222, 3, "+", 1, g)
        assert out.specialize(0) == {Basis(S222).index[g]: 3}

    def test_case_iii_counts(self):
        g = make_graph(S222, [(1, 1), (2, 2)])
        out = convolution_action(S222, 3, "+", 1, g)
        cross = make_graph(S222, [(1, 2), (2, 1)])
        assert out.specialize(0) == {Basis(S222).index[cross]: 1}

    @pytest.mark.parametrize(
        "side,i,g",
        [
            ("x", 1, NONCROSSING_222),  # no such side
            ("+", 2, NONCROSSING_222),  # index past p-1
            ("+", 0, NONCROSSING_222),  # index below 1
            ("-", 0, NONCROSSING_222),
            ("+", 1, make_graph(Shape(2, 2, 1), [(1, 1)])),  # orbit of another shape
        ],
    )
    def test_bad_input_rejected_before_counting(self, monkeypatch, side, i, g):
        def fail(*args):
            raise RuntimeError("classified points for a rejected input")

        monkeypatch.setattr(oracle, "classify_orbits", fail)
        with pytest.raises(ValueError):
            convolution_action(S222, 3, side, i, g)

    def test_non_integer_index_rejected_before_counting(self, monkeypatch):
        def fail(*args):
            raise RuntimeError("classified points for a rejected input")

        monkeypatch.setattr(oracle, "classify_orbits", fail)
        shape = Shape(3, 2, 2)
        with pytest.raises(TypeError):
            convolution_action(shape, 3, "+", 1.5, make_graph(shape, [(1, 1), (2, 2)]))


S211 = Shape(2, 1, 1)


def _damaged_image(damage, exact):
    """The image function ``exact`` with one damage, for (2,1,1) over F_3, whose
    orbits hold 1, 1, 3, 2 and 6 points.  From source orbit 0 under the
    generator at a = 0 only orbit 0 counts.  "image" doubles the image of
    orbit 2's first point at c = 1, which is then no RREF basis;
    "constancy" sends orbit 2's second point onto the source's point for
    every c; "mass" sends every point of orbit 3 there."""
    cls = classify_orbits(S211, 3)
    source_point = cls.points[0][0]

    def damaged(w, a, c, p):
        y = exact(w, a, c, p)
        if damage == "image" and (w, c) == (cls.points[2][0], 1):
            return tuple(tuple(2 * x % p for x in row) for row in y)
        if damage == "constancy" and w == cls.points[2][1]:
            return source_point
        if damage == "mass" and w in cls.points[3]:
            return source_point
        return y

    return damaged


def _damage_message(damage):
    if damage == "image":
        point = classify_orbits(S211, 3).points[2][0]
        return (
            f"image of point {point} under c = 1 (field 3, a = 0, source orbit 0)"
            " is not a classified point"
        )
    if damage == "constancy":
        return "convolution not constant on orbit 2"
    return "convolution mass balance failed"


DAMAGES = ["image", "constancy", "mass"]


class TestCountingChecks:
    def test_undamaged_counts(self):
        # The counts the damages change, and the doubled image is no
        # classified point.
        cls = classify_orbits(S211, 3)
        assert cls.sizes == (1, 1, 3, 2, 6)
        assert oracle._count_images(oracle._Samples(cls), 0, 0) == {0: 3}
        doubled = _damaged_image("image", oracle._image)(cls.points[2][0], 0, 1, 3)
        assert doubled not in cls.orbit_of

    @pytest.mark.parametrize("damage", DAMAGES)
    def test_damaged_transform_raises(self, monkeypatch, damage):
        monkeypatch.setattr(oracle, "_image", _damaged_image(damage, oracle._image))
        with pytest.raises(AssertionError) as info:
            certify_theorem(S211, [3])
        assert str(info.value) == _damage_message(damage)

    @pytest.mark.parametrize("damage", DAMAGES)
    def test_damage_caught_after_undamaged_run(self, monkeypatch, damage):
        # The undamaged run leaves every orbit of its pass in _transform's
        # cache.  The damaged run's samples are a new object, so none of
        # those entries can answer for it: every image is computed again.
        assert certify_theorem(S211, [3]).ok
        assert oracle._transform.cache_info().currsize > 0
        monkeypatch.setattr(oracle, "_image", _damaged_image(damage, oracle._image))
        with pytest.raises(AssertionError) as info:
            certify_theorem(S211, [3])
        assert str(info.value) == _damage_message(damage)

    def test_damage_checked_under_optimize(self):
        # Every check must survive ``python -O``, which strips asserts.
        script = (
            "from doubleflag import oracle\n"
            "from test_oracle import DAMAGES, S211, _damaged_image\n"
            "exact = oracle._image\n"
            "for damage in DAMAGES:\n"
            "    oracle._image = _damaged_image(damage, exact)\n"
            "    try:\n"
            "        oracle.certify_theorem(S211, [3])\n"
            "    except AssertionError as exc:\n"
            "        print(exc)\n"
        )
        root = Path(__file__).resolve().parents[1]
        path = os.pathsep.join([str(root / "src"), str(root / "tests")])
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [_damage_message(d) for d in DAMAGES]


def reference_certify_theorem(shape, field_sizes):
    """Test-only copy of the per-record certification: the symbolic side by
    ``apply_generator`` on a basis vector, the counted side by the public
    ``convolution_action``, read back at q = 0."""
    basis = Basis(shape)
    records = []
    for field_size in field_sizes:
        oracle.grassmannian_size(shape, field_size)
        for side, i in generators(shape):
            for idx, g in enumerate(basis.graphs):
                symbolic = apply_generator(side, i, ModuleVector.basis_vector(shape, idx))
                observed = convolution_action(shape, field_size, side, i, g)
                records.append(
                    CertificationRecord(
                        field_size,
                        side,
                        i,
                        idx,
                        hecke.classify(g, side, i).value,
                        {k: v(field_size) for k, v in symbolic.coords.items()},
                        {k: v(0) for k, v in observed.coords.items()},
                    )
                )
    return CertificationReport(shape, tuple(records))


def _differential_jobs():
    from test_acceptance import ORACLE_JOBS

    jobs = [(shape, field) for shape, fields in ORACLE_JOBS for field in fields]
    return jobs + [(Shape(3, 3, 2), 3), (Shape(4, 2, 2), 3)]


class TestCertification:
    @pytest.mark.parametrize(
        "shape, fields, message",
        [
            (Shape(2, 1, 1), [3, 3], "more than once"),
            # 31,110 + 89,030 = 120,140 points: each field fits the budget alone
            (Shape(2, 2, 2), [13, 17], "120140 points"),
        ],
        ids=["field_twice", "fields_over_budget_in_all"],
    )
    def test_field_list_refused_before_classification(self, monkeypatch, shape, fields, message):
        # The same list rule as the CLI's verify, in the library call.
        def not_reached(*args):
            pytest.fail("classify_orbits ran before the field list check")

        monkeypatch.setattr(oracle, "classify_orbits", not_reached)
        with pytest.raises(ValueError, match=message):
            certify_theorem(shape, fields)

    @pytest.mark.parametrize("shape,field", _differential_jobs(), ids=str)
    def test_records_match_per_record_reference(self, monkeypatch, shape, field):
        counts = {}
        count_images = oracle._count_images

        def recording(samples, a, source):
            counts[a, source] = count_images(samples, a, source)
            return counts[a, source]

        monkeypatch.setattr(oracle, "_count_images", recording)
        report = certify_theorem(shape, [field])
        monkeypatch.setattr(oracle, "_count_images", count_images)
        assert report.ok
        assert report.records == reference_certify_theorem(shape, [field]).records

        # The case II partner coefficient mutated where each side reads it:
        # the reference through hecke.apply_generator, certify_theorem
        # through oracle's import of _image_terms.  The mismatching records
        # must agree too.  Only the expected side changes, so both sides
        # reuse the counts taken above instead of counting again.
        from test_hecke import case_ii_partner_one

        monkeypatch.setattr(hecke, "_image_terms", case_ii_partner_one)
        monkeypatch.setattr(oracle, "_image_terms", case_ii_partner_one)
        monkeypatch.setattr(oracle, "_count_images", lambda samples, a, source: counts[a, source])
        report = certify_theorem(shape, [field])
        assert report.records == reference_certify_theorem(shape, [field]).records
        assert report.ok == all(rec.case != "II" for rec in report.records)

    @pytest.mark.parametrize(
        "shape,fields",
        [
            (Shape(2, 2, 2), (3, 5)),
            (Shape(2, 1, 1), (3, 5, 7)),
            (Shape(3, 2, 2), (3,)),
        ],
    )
    def test_zero_mismatches(self, shape, fields):
        report = certify_theorem(shape, fields)
        assert report.ok
        assert report.mismatches == []

    def test_report_json(self):
        report = certify_theorem(Shape(1, 2, 1), (3,))
        data = report.to_json()
        assert data["ok"] is True
        assert data["records"]
        rec = data["records"][0]
        assert set(rec) == {"field", "generator", "orbit", "case", "expected", "observed"}


def _working_set_bound():
    """The largest 3 * orbits * F over every shape with a generator and
    more than one orbit, and every field whose Grassmannian is within the
    enumeration budget, with the shapes and field that reach it."""
    best = (0, [])
    for n in range(3, 78):
        if gaussian_binomial(n, 1, 3) > ENUMERATION_BUDGET:
            break  # every Grassmannian with 0 < r < n is at least this big
        for p, r in itertools.product(range(1, n), range(1, n)):
            shape = Shape(p, n - p, r)
            orbits = count_orbits(shape)
            if orbits < 2 or not generators(shape):
                continue
            for field in range(3, ENUMERATION_BUDGET, 2):
                if gaussian_binomial(n, r, field) > ENUMERATION_BUDGET:
                    break
                if any(field % d == 0 for d in range(3, math.isqrt(field) + 1, 2)):
                    continue
                size = 3 * orbits * field
                if size > best[0]:
                    best = (size, [])
                if size == best[0]:
                    best[1].append((tuple(shape), field))
    return best


class TestImageMemo:
    def _recorded(self, monkeypatch):
        """Wrap oracle._transform after emptying its cache; return the
        cached function, {args: set of results} and the list of calls."""
        transform = oracle._transform
        transform.cache_clear()
        results = {}
        calls = []

        def recording(*args):
            orbit = transform(*args)
            results.setdefault(args, set()).add(orbit)
            calls.append(1)
            return orbit

        monkeypatch.setattr(oracle, "_transform", recording)
        return transform, results, calls

    @pytest.mark.parametrize("shape,field", [(Shape(3, 2, 2), 5), (Shape(3, 3, 2), 3)], ids=str)
    def test_certification_images_match_references(self, monkeypatch, shape, field):
        transform, results, calls = self._recorded(monkeypatch)
        assert certify_theorem(shape, [field]).ok
        info = transform.cache_info()
        # every call after the first for a key came from the cache
        assert len(calls) > 10 * len(results)
        assert (info.misses, info.hits) == (len(results), len(calls) - len(results))
        cls = classify_orbits(shape, field)
        (samples,) = {args[0] for args in results}
        assert samples.orbit_of is cls.orbit_of and samples.field_size == field
        for (_, i, a, c), orbits in results.items():
            w = samples.points[i]
            want = cls.orbit_of[_reference_canonical_transform(w, a, c, field)]
            assert orbits == {want}, (w, a, c)

    def test_key_holds_generator_and_field(self):
        # Samples of S222 over F_3 and F_5, and a second object built from
        # the same F_3 classification: each (i, c) is asked for under every
        # a, and no object's keys answer for another's.
        transform = oracle._transform
        transform.cache_clear()
        all_samples = [oracle._Samples(classify_orbits(S222, f)) for f in (3, 5, 3)]
        keys = 0
        for _ in range(2):
            for samples in all_samples:
                p = samples.field_size
                for i, c, a in itertools.product(
                    range(len(samples.points)), range(p), range(S222.n - 1)
                ):
                    want = _reference_canonical_transform(samples.points[i], a, c, p)
                    got = transform(samples, i, a, c)
                    assert got == samples.orbit_of[want], (p, i, a, c)
            keys = keys or transform.cache_info().misses
        assert keys == sum(len(s.points) * s.field_size for s in all_samples) * (S222.n - 1)
        assert transform.cache_info()[:2] == (keys, keys)

    def test_memo_never_exceeds_its_limit(self):
        # c runs past the field: the image depends on c mod F only, but each
        # c is its own key.
        transform = oracle._transform
        transform.cache_clear()
        limit = transform.cache_info().maxsize
        samples = oracle._Samples(classify_orbits(Shape(1, 1, 1), 3))
        for c in range(limit + 10):
            want = _reference_canonical_transform(samples.points[0], 0, c, 3)
            assert transform(samples, 0, 0, c) == samples.orbit_of[want]
        assert transform.cache_info().currsize == limit

    def test_failed_image_is_not_cached(self, monkeypatch):
        # A KeyError from an unclassified image is raised again on the next
        # call, not served from the cache.
        transform = oracle._transform
        transform.cache_clear()
        samples = oracle._Samples(classify_orbits(S211, 3))
        monkeypatch.setattr(oracle, "_image", _damaged_image("image", oracle._image))
        i = samples.ranges[2][0]
        for _ in range(2):
            with pytest.raises(KeyError):
                transform(samples, i, 0, 1)
        info = transform.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 2, 0)

    def test_working_set_of_a_pass(self, monkeypatch):
        # A pass asks each source for the same keys, one per sampled point
        # and c: sum_k min(3, |O_k|) * F of them, each computed once.
        shape, field = Shape(2, 1, 1), 31
        transform, results, calls = self._recorded(monkeypatch)
        assert certify_theorem(shape, [field]).ok
        sizes = classify_orbits(shape, field).sizes
        keys = sum(min(3, size) for size in sizes) * field
        assert transform.cache_info().misses == len(results) == keys
        assert len(calls) == len(sizes) * keys

    def test_largest_pass_computes_each_image_once(self):
        # (2,1,1) over F_313 has 5 orbits holding 11 sampled points, so its
        # one pass asks for 11 * 313 = 3,443 keys, 5 times over.  A cache
        # smaller than that evicts each key before its next use and misses
        # every call.
        transform = oracle._transform
        transform.cache_clear()
        assert certify_theorem(Shape(2, 1, 1), [313]).ok
        info = transform.cache_info()
        assert (info.misses, info.hits) == (3443, 4 * 3443)

    def test_limit_covers_every_admitted_pass(self):
        size, reached_by = _working_set_bound()
        assert size == 4695 < oracle._transform.cache_info().maxsize
        assert sorted(reached_by) == [
            ((1, 2, 1), 313),
            ((1, 2, 2), 313),
            ((2, 1, 1), 313),
            ((2, 1, 2), 313),
        ]

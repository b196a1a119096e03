import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doubleflag import (
    Shape,
    build_poset,
    closure_leq,
    enumerate_graphs,
    invariants,
    make_graph,
    rank_matrix,
    to_dot,
)
from doubleflag import cli
from doubleflag import poset as poset_module
from doubleflag.hecke import _CASES, Basis, GeneratorCase
from reference import reference_up_sets

S222 = Shape(2, 2, 2)


def test_reflexive():
    g = make_graph(S222, [(1, 1), (2, 2)])
    assert closure_leq(g, g)


def test_small_vs_dense():
    small = make_graph(S222, marked_plus=[1, 2])
    dense = make_graph(S222, [(1, 2), (2, 1)])
    assert closure_leq(small, dense)
    assert not closure_leq(dense, small)


def test_noncrossing_below_crossing():
    noncross = make_graph(S222, [(1, 1), (2, 2)])
    cross = make_graph(S222, [(1, 2), (2, 1)])
    assert closure_leq(noncross, cross)


def test_shape_mismatch():
    with pytest.raises(ValueError):
        closure_leq(make_graph(S222, marked_plus=[1, 2]), make_graph(Shape(2, 2, 0)))


def test_2_2_2_grading():
    poset = build_poset(S222)
    assert Counter(poset.dims) == {6: 1, 5: 3, 4: 5, 3: 4, 2: 3}
    assert poset.orbits[poset.top] == make_graph(S222, [(1, 2), (2, 1)])


def test_single_orbit():
    poset = build_poset(Shape(3, 2, 0))
    assert len(poset.orbits) == 1
    assert poset.covers == ()


def test_1_1_1():
    poset = build_poset(Shape(1, 1, 1))
    assert len(poset.orbits) == 3
    assert poset.orbits[poset.top] == make_graph(Shape(1, 1, 1), [(1, 1)])
    assert sorted(poset.dims) == [0, 0, 1]


def test_covers_are_transitive_reduction():
    poset = build_poset(S222)
    n = len(poset.orbits)
    strict = {(a, b) for a in range(n) for b in range(n) if a != b and poset.is_leq(a, b)}
    covers = set(poset.covers)
    assert covers <= strict
    for a, b in strict:
        mediated = any((a, c) in strict and (c, b) in strict for c in range(n))
        assert ((a, b) in covers) == (not mediated)


def test_graded_chains():
    # every maximal chain climbs one dimension per step by the cover property
    for shape in [S222, Shape(2, 1, 2), Shape(1, 2, 1), Shape(3, 1, 2)]:
        poset = build_poset(shape)
        for a, b in poset.covers:
            assert poset.dims[b] == poset.dims[a] + 1


def test_dot_output():
    dot = to_dot(build_poset(S222))
    assert dot.startswith("digraph")
    assert dot.endswith("}\n")
    assert dot.count("->") == len(build_poset(S222).covers)
    assert "rank=same" in dot


def reference_to_dot(poset):
    # Test-only reference: to_dot as it was written with json.dumps per
    # label and one scan of all dimensions per level.
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


def test_dot_matches_reference_on_small_shapes():
    # every shape with p+q <= 7, and the benchmark's closure shapes (4,4,4)
    # and (5,3,4): node labels byte for byte as json.dumps writes them, and
    # the same rank groups
    shapes = [Shape(p, n - p, r) for n in range(2, 8) for p in range(1, n) for r in range(n + 1)]
    assert len(shapes) == 133
    for shape in [*shapes, Shape(4, 4, 4), Shape(5, 3, 4)]:
        poset = build_poset(shape)
        assert to_dot(poset) == reference_to_dot(poset), shape


def test_second_maximal_orbit_raises():
    # An orbit whose up-set is only itself is maximal; one besides the
    # dense orbit must be refused, not answered with either.
    poset = build_poset(S222)
    leq = list(poset.leq)
    a = next(a for a in range(len(leq)) if a != poset.top)
    leq[a] = 1 << a
    with pytest.raises(AssertionError, match="expected a unique maximal orbit, found 2"):
        poset._replace(leq=tuple(leq)).top


def test_case_ii_and_iii_partners_are_covers():
    # The action table and the Hasse diagram agree: a case II partner is
    # covered by its orbit and a case III partner covers it, one dimension
    # apart.  Every shape with p+q <= 8.
    shapes = [Shape(p, n - p, r) for n in range(2, 9) for p in range(1, n) for r in range(n + 1)]
    assert len(shapes) == 196
    pairs = 0
    for shape in shapes:
        poset = build_poset(shape)
        covers, dims = set(poset.covers), poset.dims
        basis = Basis(shape)
        for gen, cases in basis.cases.items():
            for k, (index, j) in enumerate(zip(cases, basis.partners[gen])):
                case = _CASES[index]
                if case is GeneratorCase.CASE_I:
                    continue
                if case is GeneratorCase.CASE_II:
                    cover, step = (j, k), -1
                else:
                    cover, step = (k, j), 1
                witness = (shape, gen, k, case, dims[k], dims[j])
                assert cover in covers and dims[j] == dims[k] + step, witness
                pairs += 1
    assert pairs == 72548


def test_all_small_shapes_grade():
    for p in range(1, 4):
        for q in range(1, 4):
            for r in range(0, p + q + 1):
                build_poset(Shape(p, q, r))  # raises on any grading violation


@pytest.mark.parametrize("shape", [Shape(4, 4, 4), Shape(5, 3, 4), Shape(5, 4, 4)])
def test_closure_shapes_grade_with_unique_top(shape):
    poset = build_poset(shape)  # raises on a grading violation or several tops
    n = len(poset.orbits)
    for a, b in poset.covers:
        assert poset.dims[b] == poset.dims[a] + 1
    top = poset.top
    assert poset.dims[top] == max(poset.dims)
    # below a unique maximal orbit, every other orbit is covered by something
    assert {a for a, _ in poset.covers} == set(range(n)) - {top}


@pytest.mark.parametrize("shape", [Shape(4, 4, 4), Shape(5, 3, 4)])
def test_closure_shape_covers_match_reference(shape):
    poset = build_poset(shape)
    assert poset.covers == _reference_covers(poset.leq)


@pytest.mark.parametrize("delta", [1, -1])
def test_shifted_dimension_fails_grading(monkeypatch, capsys, delta):
    # Moving any one orbit of (2,2,2) up or down a dimension breaks the
    # grading at one of its covers.
    orbits = enumerate_graphs(S222)
    for target in orbits:
        def shifted(g, _target=target):
            inv = invariants(g)
            return inv._replace(dim=inv.dim + delta) if g == _target else inv

        monkeypatch.setattr(poset_module, "invariants", shifted)
        with pytest.raises(AssertionError):
            build_poset(S222)
        assert cli.main(["hasse", "--p", "2", "--q", "2", "--r", "2"]) == 1
        assert "verification failure" in capsys.readouterr().err


# Test-only copies of the pairwise dominance loop and the transitive
# reduction that build_poset used before its bitset rewrite.
def _reference_leq(shape):
    flat = [
        tuple(x for row in rank_matrix(g).entries for x in row)
        for g in enumerate_graphs(shape)
    ]
    n = len(flat)
    leq = []
    for a in range(n):
        mask = 0
        for b in range(n):
            if all(x >= y for x, y in zip(flat[a], flat[b])):
                mask |= 1 << b
        leq.append(mask)
    return tuple(leq)


def _reference_covers(leq):
    n = len(leq)
    above = [leq[a] & ~(1 << a) for a in range(n)]
    below = [0] * n
    for a in range(n):
        m = above[a]
        while m:
            b = (m & -m).bit_length() - 1
            below[b] |= 1 << a
            m &= m - 1
    covers = []
    for a in range(n):
        m = above[a]
        while m:
            b = (m & -m).bit_length() - 1
            if (above[a] & below[b]) == 0:
                covers.append((a, b))
            m &= m - 1
    return tuple(sorted(covers))


@pytest.mark.parametrize(
    "shapes",
    [
        [Shape(p, n - p, r) for n in range(2, 8) for p in range(1, n) for r in range(n + 1)],
        [Shape(4, 4, 4), Shape(5, 3, 4), Shape(5, 4, 5)],
    ],
    ids=["p_plus_q_le_7", "closure_and_545"],
)
def test_up_sets_match_threshold_reference(shapes):
    # The row masks against one threshold mask per matrix entry.
    for shape in shapes:
        assert build_poset(shape).leq == reference_up_sets(shape), shape


@st.composite
def shapes(draw, max_n=7):
    n = draw(st.integers(2, max_n))
    p = draw(st.integers(1, n - 1))
    return Shape(p, n - p, draw(st.integers(0, n)))


@settings(max_examples=60, deadline=None)
@given(shapes())
def test_bitset_poset_matches_pairwise_reference(shape):
    poset = build_poset(shape)
    leq = _reference_leq(shape)
    assert poset.leq == leq
    assert poset.covers == _reference_covers(leq)


@pytest.mark.parametrize(
    "a, b",
    [(0, 16), (0, 21), (16, 0), (-1, 0), (0, -1), (-17, -17)],
)
def test_is_leq_refuses_index_out_of_range(a, b):
    poset = build_poset(S222)  # 16 orbits
    with pytest.raises(IndexError):
        poset.is_leq(a, b)


@pytest.mark.parametrize("a, b", [(0.0, 1), (0, "1"), (None, 0)])
def test_is_leq_refuses_non_integer_index(a, b):
    with pytest.raises(TypeError):
        build_poset(S222).is_leq(a, b)


def test_is_leq_matches_closure_leq():
    for n in range(2, 6):
        for p in range(1, n):
            for r in range(n + 1):
                poset = build_poset(Shape(p, n - p, r))
                orbits = poset.orbits
                for a, ga in enumerate(orbits):
                    for b, gb in enumerate(orbits):
                        assert poset.is_leq(a, b) == closure_leq(ga, gb), (a, b)

"""Acceptance suite: one test per release criterion, each printing a
pass/fail line.  All checks are exact; every tolerance is an equality."""

import sys
import time
from collections import Counter

import pytest

from doubleflag import (
    Shape,
    admissible_triples,
    certify_theorem,
    classify_orbits,
    count_orbits,
    enumerate_graphs,
    gaussian_binomial,
    invariants,
    make_graph,
    rank_matrix,
    verify_relations,
    weyl_decompose,
)
from doubleflag.cli import ORBIT_BUDGET
from doubleflag.core import triple_count
from doubleflag.oracle import graph_subspace
from doubleflag.polynomial import ONE, Q, IntPoly
from doubleflag.poset import build_poset
from reference import reference_weyl_blocks

ORACLE_SHAPES = [
    Shape(1, 1, 1),
    Shape(2, 1, 1),
    Shape(2, 2, 1),
    Shape(2, 2, 2),
    Shape(3, 2, 2),
]
ORACLE_FIELDS = (3, 5)
# (3,3,3) over F_5 is over ENUMERATION_BUDGET, so this shape is checked
# over F_3 only (33,880 points).
ORACLE_JOBS = [(shape, ORACLE_FIELDS) for shape in ORACLE_SHAPES] + [
    (Shape(3, 3, 3), (3,))
]


def shapes_up_to(total):
    return [
        Shape(p, q, r)
        for p in range(1, total)
        for q in range(1, total + 1 - p)
        for r in range(0, p + q + 1)
    ]


def report(name, ok, started, budget):
    elapsed = time.time() - started
    print(f"[{'PASS' if ok else 'FAIL'}] {name} ({elapsed:.1f}s)", file=sys.stderr)
    assert ok, name
    assert elapsed < budget, f"{name} exceeded the {budget}s budget ({elapsed:.1f}s)"


def test_example_reproduction():
    started = time.time()
    shape = Shape(5, 3, 4)
    g = make_graph(shape, [(2, 3), (4, 1)], [5], [2])
    inv = invariants(g)
    ok = (inv.a_plus, inv.a_minus, inv.b, inv.c) == (7, 1, 2, 1)
    ok &= rank_matrix(g).entries == (
        (0, 0, 1, 1),
        (0, 0, 1, 1),
        (0, 0, 1, 2),
        (0, 0, 1, 2),
        (0, 1, 2, 3),
        (1, 2, 3, 4),
    )
    report("example reproduction (5,3,4)", ok, started, budget=1)


def test_orbit_count():
    # Per type, not only in total: weyl_decompose's proof that each type is
    # one W-orbit rests on enumerate_graphs yielding triple_count graphs of
    # every admissible type and of no other.  p+q <= 9 is the range where
    # the CLI admits every r.
    started = time.time()
    shapes = shapes_up_to(9)
    ok = len(shapes) == 276
    for shape in shapes:
        ok &= Counter(g.triple() for g in enumerate_graphs(shape)) == {
            t: triple_count(shape, t) for t in admissible_triples(shape)
        }
    ok &= count_orbits(Shape(2, 2, 2)) == 16
    report("orbit count formula vs enumeration per type, p+q<=9", ok, started, budget=30)


def _monomial(e):
    return IntPoly((0,) * e + (1,))


def _q_binomial_rows(n):
    """Rows 0..n of Gaussian binomials [m choose r]_q as polynomials, by
    q-Pascal: [m choose r] = [m-1 choose r-1] + q^r [m-1 choose r]."""
    rows = [[ONE]]
    for m in range(1, n + 1):
        prev = rows[-1]
        inner = [prev[r - 1] + _monomial(r) * prev[r] for r in range(1, m)]
        rows.append([ONE, *inner, ONE])
    return rows


def _orbit_sizes_sum_ok(shape, rows):
    # |O_g(F_q)| = (q-1)^b q^(dim - C(p,2) - C(q,2) - b) for every orbit, so
    # summed over a shape's orbits the formula counts the Grassmannian.  This
    # checks ``dim`` independently of the poset, whose covers are read off it.
    p, q, r = shape
    base = p * (p - 1) // 2 + q * (q - 1) // 2
    terms = Counter()
    for g in enumerate_graphs(shape):
        inv = invariants(g)
        terms[inv.b, inv.dim - base - inv.b] += 1
    total = IntPoly()
    for (b, e), count in terms.items():
        factor = ONE
        for _ in range(b):
            factor = factor * (Q - 1)
        total = total + count * factor * _monomial(e)
    return total == rows[p + q][r]


def test_orbit_sizes_sum_to_grassmannian_polynomial():
    started = time.time()
    rows = _q_binomial_rows(10)
    ok = True
    for shape in shapes_up_to(10):
        p, q, r = shape
        if p + q == 10 and p != 5:
            continue  # p, q <= 5, and every shape with p+q <= 9
        ok &= _orbit_sizes_sum_ok(shape, rows)
    report(
        "orbit sizes sum to [p+q choose r]_q, p,q<=5 and p+q<=9",
        ok,
        started,
        budget=30,
    )


def test_orbit_sizes_sum_to_grassmannian_polynomial_extreme_r():
    # The CLI admits every shape with 10 <= p+q <= 20 and r in {0, 1, n-1,
    # n}: at most n + pq orbits each, far under the orbit budget.
    started = time.time()
    rows = _q_binomial_rows(20)
    shapes = [
        Shape(p, n - p, r)
        for n in range(10, 21)
        for p in range(1, n)
        for r in (0, 1, n - 1, n)
    ]
    ok = len(shapes) == 616
    ok &= all(count_orbits(shape) <= ORBIT_BUDGET for shape in shapes)
    for shape in shapes:
        ok &= _orbit_sizes_sum_ok(shape, rows)
    report(
        "orbit sizes sum to [p+q choose r]_q, 10<=p+q<=20, r in {0,1,n-1,n}",
        ok,
        started,
        budget=10,
    )


def test_poset_grading():
    started = time.time()
    poset = build_poset(Shape(2, 2, 2))
    ok = Counter(poset.dims) == {6: 1, 5: 3, 4: 5, 3: 4, 2: 3}
    for shape in shapes_up_to(7):
        poset = build_poset(shape)  # raises on any grading violation
        ok &= all(poset.dims[b] == poset.dims[a] + 1 for a, b in poset.covers)
    report("poset grading and (2,2,2) histogram", ok, started, budget=60)


def test_hecke_relations():
    started = time.time()
    ok = True
    for shape in shapes_up_to(8):
        ok &= all(rc.ok for rc in verify_relations(shape))
    report("Hecke quadratic/braid/commutation relations, p+q<=8", ok, started, budget=300)


def test_oracle_certification():
    started = time.time()
    ok = True
    for shape, fields in ORACLE_JOBS:
        rep = certify_theorem(shape, fields)
        ok &= rep.ok
    report("oracle certification of the generator action", ok, started, budget=300)


def test_classification_totality():
    started = time.time()
    ok = True
    for shape, fields in ORACLE_JOBS:
        for field in fields:
            cls = classify_orbits(shape, field)  # raises on unmatched profiles
            ok &= len(cls.sizes) == len(enumerate_graphs(shape))
            ok &= sum(cls.sizes) == gaussian_binomial(shape.n, shape.r, field)
            # each graph's base point lies in its own orbit, which a profile
            # read against another flag (say, - columns reversed) breaks
            ok &= all(
                cls.orbit_of[graph_subspace(g)] == k
                for k, g in enumerate(cls.graphs)
            )
    report(
        "orbit classification totality, point counts and base points",
        ok,
        started,
        budget=120,
    )


def test_weyl_decomposition():
    started = time.time()
    ok = True
    for shape in shapes_up_to(8):
        # weyl_decompose reads one block per type off the closed forms; the
        # reference walks the partner rows, checks each orbit's size against
        # its type's triple_count and reads the stabilizer order off it by
        # orbit-stabilizer.  The two must agree block by block.
        blocks = weyl_decompose(shape)
        ok &= blocks == reference_weyl_blocks(shape)
        ok &= sum(blk.orbit_size for blk in blocks) == count_orbits(shape)
    report("Weyl decomposition at q=1, p+q<=8", ok, started, budget=60)

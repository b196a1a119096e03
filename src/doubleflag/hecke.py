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

The rule is evaluated once per shape: ``Basis(shape).action`` holds, for
every generator, the case and the reflected orbit's index at each orbit,
and every consumer of the action reads that table.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache

from .core import (
    Graph,
    Shape,
    admissible_triples,
    enumerate_graphs,
    identity_perm,
    transposition,
    triple_count,
    weyl_act,
)
from .polynomial import ONE, Q, ZERO, IntPoly


class GeneratorCase(enum.Enum):
    CASE_I = "I"
    CASE_II = "II"
    CASE_III = "III"


@lru_cache(maxsize=None)
class Basis:
    """Orbit basis in canonical enumeration order, with index lookup and the
    generator action table.

    ``action[(side, i)][k]`` is the pair ``(case, partner)`` of the
    generator at orbit k: its case and the index of the reflected orbit
    (k itself in case I).
    """

    def __init__(self, shape: Shape):
        self.shape = shape
        self.graphs = enumerate_graphs(shape)
        self.index = {g: i for i, g in enumerate(self.graphs)}
        self.action = {
            (side, i): tuple(
                (classify(g, side, i), self.index[reflect(g, side, i)])
                for g in self.graphs
            )
            for side, i in generators(shape)
        }

    def __len__(self):
        return len(self.graphs)


def generators(shape: Shape) -> list:
    """All simple reflections of S_p x S_q as (side, i) labels."""
    return [("+", i) for i in range(1, shape.p)] + [
        ("-", j) for j in range(1, shape.q)
    ]


def _check_generator(shape: Shape, side: str, i: int):
    bound = shape.p if side == "+" else shape.q if side == "-" else None
    if bound is None:
        raise ValueError(f"side must be '+' or '-', got {side!r}")
    if not 1 <= i <= bound - 1:
        raise ValueError(f"generator index {i} out of range on side {side}")


def reflect(g: Graph, side: str, i: int) -> Graph:
    """The graph s_i . g obtained by swapping vertices i, i+1 on one side."""
    _check_generator(g.shape, side, i)
    if side == "+":
        return weyl_act((transposition(g.shape.p, i), identity_perm(g.shape.q)), g)
    return weyl_act((identity_perm(g.shape.p), transposition(g.shape.q, i)), g)


def classify(g: Graph, side: str, i: int) -> GeneratorCase:
    """Which of the three cases the generator (side, i) is in at the orbit g."""
    _check_generator(g.shape, side, i)
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


@dataclass
class ModuleVector:
    """Finite IntPoly-linear combination of orbit basis vectors, keyed by
    the orbit's index in the enumeration order.  Zero coordinates are
    never stored."""

    shape: Shape
    coords: dict = field(default_factory=dict)

    def __post_init__(self):
        self.coords = {k: IntPoly.coerce(v) for k, v in self.coords.items() if IntPoly.coerce(v)}

    @staticmethod
    def basis_vector(shape: Shape, index: int) -> "ModuleVector":
        return ModuleVector(shape, {index: ONE})

    def __add__(self, other: "ModuleVector") -> "ModuleVector":
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        out = dict(self.coords)
        for k, v in other.coords.items():
            out[k] = out.get(k, ZERO) + v
        return ModuleVector(self.shape, out)

    def scale(self, c) -> "ModuleVector":
        c = IntPoly.coerce(c)
        return ModuleVector(self.shape, {k: c * v for k, v in self.coords.items()})

    def __eq__(self, other):
        return (
            isinstance(other, ModuleVector)
            and self.shape == other.shape
            and self.coords == other.coords
        )

    def is_zero(self) -> bool:
        return not self.coords

    def specialize(self, value: int) -> dict:
        """Evaluate every coordinate at an integer, dropping zeros."""
        out = {k: v(value) for k, v in self.coords.items()}
        return {k: v for k, v in out.items() if v}


_Q_MINUS_ONE = Q - 1


def _image_terms(idx: int, case: GeneratorCase, jdx: int) -> tuple:
    """T_i xi_idx as (orbit index, coefficient) pairs, where jdx is the
    reflected orbit: q xi, (q-1) xi + q xi' or xi' by the three cases."""
    if case is GeneratorCase.CASE_I:
        return ((idx, Q),)
    if case is GeneratorCase.CASE_II:
        return ((idx, _Q_MINUS_ONE), (jdx, Q))
    return ((jdx, ONE),)


def apply_generator(side: str, i: int, v: ModuleVector) -> ModuleVector:
    """T_i * v, extended linearly from the three-case rule on basis vectors."""
    _check_generator(v.shape, side, i)
    table = Basis(v.shape).action[(side, i)]
    out = {}
    for idx, coeff in v.coords.items():
        for k, c in _image_terms(idx, *table[idx]):
            out[k] = out.get(k, ZERO) + c * coeff
    return ModuleVector(v.shape, out)


@dataclass(frozen=True)
class OperatorMatrix:
    shape: Shape
    side: str
    index: int
    entries: tuple  # entries[row][col], IntPoly

    def specialize(self, value: int) -> tuple:
        return tuple(tuple(e(value) for e in row) for row in self.entries)


def operator_matrix(shape: Shape, side: str, i: int) -> OperatorMatrix:
    """Dense matrix of T_i over the orbit basis, columns = images of basis
    vectors."""
    _check_generator(shape, side, i)
    table = Basis(shape).action[(side, i)]
    n = len(table)
    nonzero = [{} for _ in range(n)]  # nonzero[row][col]
    for col, (case, jdx) in enumerate(table):
        for row, coeff in _image_terms(col, case, jdx):
            nonzero[row][col] = nonzero[row].get(col, ZERO) + coeff
    entries = []
    for terms in nonzero:
        row = [ZERO] * n
        for col, coeff in terms.items():
            row[col] = coeff
        entries.append(tuple(row))
    return OperatorMatrix(shape, side, i, tuple(entries))


@dataclass(frozen=True)
class RelationCheck:
    name: str
    ok: bool


def _compose(ops, vec):
    """Apply generators right-to-left; ops is a list of (side, i)."""
    for side, i in reversed(ops):
        vec = apply_generator(side, i, vec)
    return vec


def verify_relations(shape: Shape) -> list:
    """Check the defining Hecke relations as exact polynomial identities.

    Quadratic (T+1)(T-q) = 0 for every generator; commutation for distinct
    non-adjacent (or opposite-side) pairs; braid for adjacent same-side
    pairs.  Checked on every basis vector; failures are reported, not
    raised.
    """
    gens = generators(shape)
    n = len(Basis(shape))
    report = []

    for side, i in gens:
        ok = True
        for c in range(n):
            v = ModuleVector.basis_vector(shape, c)
            tv = apply_generator(side, i, v)
            ttv = apply_generator(side, i, tv)
            # (T+1)(T-q) v = T^2 v + (1-q) T v - q v
            residue = ttv + tv.scale(1 - Q) + v.scale(-Q)
            if not residue.is_zero():
                ok = False
                break
        report.append(RelationCheck(f"quadratic {side}{i}", ok))

    for (s1, i1), (s2, i2) in itertools.combinations(gens, 2):
        adjacent = s1 == s2 and abs(i1 - i2) == 1
        ok = True
        for c in range(n):
            v = ModuleVector.basis_vector(shape, c)
            if adjacent:
                lhs = _compose([(s1, i1), (s2, i2), (s1, i1)], v)
                rhs = _compose([(s2, i2), (s1, i1), (s2, i2)], v)
                name = f"braid {s1}{i1},{s2}{i2}"
            else:
                lhs = _compose([(s1, i1), (s2, i2)], v)
                rhs = _compose([(s2, i2), (s1, i1)], v)
                name = f"commute {s1}{i1},{s2}{i2}"
            if lhs != rhs:
                ok = False
                break
        report.append(RelationCheck(name, ok))

    return report


@dataclass(frozen=True)
class WeylBlock:
    triple: tuple  # (k, s, t)
    orbit_size: int
    stabilizer_order: int


def q1_action_is_permutation(shape: Shape) -> bool:
    """At q = 1 every generator acts as the vertex-relabelling permutation.

    Read off the action table, where k' is the partner of orbit k.  At
    q = 1 the three cases give T_i xi_k = q xi_k = xi_k (case I),
    (q-1) xi_k + q xi_k' = xi_k' (case II, also when k' = k) and xi_k'
    (case III).  So T_i maps xi_k to xi_k' for every k exactly when case I
    has k' = k, which is checked first.  The map k -> k' is also checked
    to be an involution, so it is a bijection of the basis and T_i at
    q = 1 is a permutation of order at most 2, as for a transposition.
    """
    for table in Basis(shape).action.values():
        for idx, (case, jdx) in enumerate(table):
            if case is GeneratorCase.CASE_I and jdx != idx:
                return False
            if table[jdx][1] != idx:
                return False
    return True


def weyl_decompose(shape: Shape) -> list:
    """Decompose the q = 1 permutation representation of W = S_p x S_q.

    The basis splits into one W-orbit per admissible (k, s, t), and each
    orbit is W / H for the stabilizer H = (diagonal S_k) x S_s x S_s' x
    S_t x S_t'.  Checked here: the q = 1 action is the permutation action,
    each orbit holds a single type, no two orbits share a type, the orbit
    sizes equal ``triple_count``, and the types are exactly the admissible
    triples.

    The stabilizer order needs no search of its own.  The walk follows the
    partner maps in ``Basis.action``, which ``reflect`` builds by
    ``weyl_act`` of each adjacent transposition; those generate W, so each
    walk visits exactly the orbit W.g.  ``weyl_act`` is a group action
    (``tests/test_core.py::TestWeylAct::test_action_law``), so
    orbit-stabilizer gives |Stab(g)| = p! q! / |W.g|.  With the size check
    |W.g| = ``triple_count`` = p! q! / (k! s! s'! t! t'!), the reported
    ``stabilizer_order`` is |H|.
    """
    if not q1_action_is_permutation(shape):
        raise AssertionError("q=1 specialization is not the permutation action")

    basis = Basis(shape)
    tables = basis.action.values()
    group_order = math.factorial(shape.p) * math.factorial(shape.q)
    seen = set()
    blocks = {}
    for start in range(len(basis)):
        if start in seen:
            continue
        orbit = {start}
        frontier = [start]
        while frontier:
            idx = frontier.pop()
            for table in tables:
                jdx = table[idx][1]
                if jdx not in orbit:
                    orbit.add(jdx)
                    frontier.append(jdx)
        seen |= orbit

        triples = {basis.graphs[idx].triple() for idx in orbit}
        if len(triples) != 1:
            raise AssertionError("a Weyl orbit mixes several (k,s,t) types")
        triple = triples.pop()
        if triple in blocks:
            raise AssertionError(f"two Weyl orbits share the type {triple}")
        if len(orbit) != triple_count(shape, triple):
            raise AssertionError(f"orbit size mismatch for type {triple}")
        blocks[triple] = WeylBlock(triple, len(orbit), group_order // len(orbit))

    if set(blocks) != set(admissible_triples(shape)):
        raise AssertionError("Weyl orbits do not match the admissible triples")
    return [blocks[t] for t in sorted(blocks)]

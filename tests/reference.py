"""Test-only reference implementations shared by the test modules."""

import math
from collections import Counter
from itertools import chain

from doubleflag import hecke
from doubleflag.core import enumerate_graphs, rank_matrix, triple_count, weyl_act
from doubleflag.hecke import Basis, ModuleVector, RelationCheck, WeylBlock, _case, generators
from doubleflag.polynomial import ZERO


def reference_rref(rows, p):
    """Gauss-Jordan elimination mod p, independent of ``oracle._insert``:
    at each pivot every other row is cleared, and an entry counts as
    nonzero by ``% p``.  Returns (rows, rank); the first ``rank`` rows are
    the reduced row echelon form of the span, with entries in range(p).
    A row that is 0 mod p from the start is left as given."""
    mat = [list(row) for row in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    rank = 0
    for col in range(ncols):
        pivot = next((k for k in range(rank, nrows) if mat[k][col] % p), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = pow(mat[rank][col], -1, p)
        mat[rank] = [x * inv % p for x in mat[rank]]
        for k in range(nrows):
            if k != rank and mat[k][col] % p:
                f = mat[k][col]
                mat[k] = [(a - f * b) % p for a, b in zip(mat[k], mat[rank])]
        rank += 1
    return tuple(tuple(row) for row in mat), rank


def reference_up_sets(shape):
    """``build_poset``'s up-sets as they were computed before the row
    masks: each rank matrix flattened to its (p+1)(q+1) entries, one
    threshold mask per (entry, value), and each orbit's up-set the AND of
    its (p+1)(q+1) masks.  Bit b of the a-th mask is set iff
    flat[b][e] <= flat[a][e] for every position e."""
    flat = [tuple(chain.from_iterable(rank_matrix(g).entries)) for g in enumerate_graphs(shape)]
    at_most = [[0] * (shape.r + 1) for _ in flat[0]]
    for b, fb in enumerate(flat):
        bit = 1 << b
        for masks, v in zip(at_most, fb):
            masks[v] |= bit
    for masks in at_most:
        for v in range(1, shape.r + 1):
            masks[v] |= masks[v - 1]
    out = []
    for fa in flat:
        mask = -1
        for masks, v in zip(at_most, fa):
            mask &= masks[v]
        out.append(mask)
    return tuple(out)


def reference_reflected(arrays, s, i):
    """Partner arrays of s_i . g on side s (0 for +, 1 for -), as copies:
    swap entries i, i+1 of that side's array and rename partners i <-> i+1
    in the other, rewriting only the two entries that hold those labels."""
    a = arrays[s]
    x, y = a[i], a[i + 1]
    own, other = list(a), list(arrays[1 - s])
    own[i], own[i + 1] = y, x
    if x > 0:
        other[x] = i + 1
    if y > 0:
        other[y] = i
    own, other = tuple(own), tuple(other)
    return (own, other) if s == 0 else (other, own)


def reference_action(shape):
    """``Basis.cases`` and ``Basis.partners`` as they were built before the
    orbit keys: each case II or III partner found by hashing
    ``reference_reflected``'s arrays.  Returns the two dicts of rows."""
    graphs = enumerate_graphs(shape)
    arrays = [(g.plus, g.minus) for g in graphs]
    by_arrays = {a: k for k, a in enumerate(arrays)}
    cases, partners = {}, {}
    for side, i in generators(shape):
        s = "+-".index(side)
        cases[(side, i)] = bytes(_case(a[s], i) for a in arrays)
        partners[(side, i)] = tuple(
            by_arrays[reference_reflected(a, s, i)] if case else k
            for k, (case, a) in enumerate(zip(cases[(side, i)], arrays))
        )
    return cases, partners


def reference_operator_entries(shape, side, i):
    """``operator_matrix``'s entries as they were built before the sparse
    rows: every column's terms from ``hecke._image_terms`` (read at call
    time) put into one dict per row, and then each of the n rows written
    out in full as a tuple of n entries, ``ZERO`` where the row has no
    term.  Returns the n x n tuple of tuples."""
    basis = Basis(shape)
    n = len(basis)
    nonzero = [{} for _ in range(n)]  # nonzero[row][col]
    for col, (case, jdx) in enumerate(zip(basis.cases[(side, i)], basis.partners[(side, i)])):
        for row, coeff in hecke._image_terms(col, case, jdx):
            nonzero[row][col] = coeff
    entries = []
    for terms in nonzero:
        row = [ZERO] * n
        for col, coeff in terms.items():
            row[col] = coeff
        entries.append(tuple(row))
    return tuple(entries)


def reference_relation_checks(shape):
    """``verify_relations`` as it was before the blocks: each relation's
    words applied by ``hecke._vanishes`` to every basis vector in turn,
    on column tables of the whole basis from ``hecke._image_terms`` at
    q = _Q0, stopping at the first orbit with a nonzero residue.  The
    hecke names are read at call time, so a patched rule or table reaches
    this check as it reaches ``verify_relations``."""
    q0 = hecke._Q0
    at = (q0, q0 - 1, 1)
    basis = Basis(shape)
    table = {
        gen: tuple(
            hecke._image_terms(idx, case, jdx, at)
            for idx, (case, jdx) in enumerate(zip(cases, basis.partners[gen]))
        )
        for gen, cases in basis.cases.items()
    }
    report = []
    for name, terms in hecke._relations(shape, at):
        words = tuple((coeff, tuple(table[gen] for gen in reversed(word))) for coeff, word in terms)
        witness = None
        for c in range(len(basis)):
            v = ModuleVector.basis_vector(shape, c)
            if not hecke._vanishes(words, {k: y(q0) for k, y in v.coords.items()}):
                witness = c
                break
        report.append(RelationCheck(name, witness is None, witness))
    return report


def reference_weyl_blocks(shape):
    """``weyl_decompose`` as it was before the blocks were read off the
    types: each W-orbit found by a walk over the partner rows of
    ``hecke.Basis`` (read at call time, so a patched table reaches it),
    and its size checked against ``triple_count`` of its first member's
    type, raising AssertionError on a mismatch.  The stabilizer order is
    p! q! over the orbit size, by orbit-stabilizer.  Returns the blocks in
    sorted order."""
    basis = hecke.Basis(shape)
    rows = basis.partners.values()
    group_order = math.factorial(shape.p) * math.factorial(shape.q)
    seen = set()
    blocks = []
    for start in range(len(basis)):
        if start in seen:
            continue
        orbit = {start}
        frontier = [start]
        while frontier:
            idx = frontier.pop()
            for partners in rows:
                jdx = partners[idx]
                if jdx not in orbit:
                    orbit.add(jdx)
                    frontier.append(jdx)
        seen |= orbit

        triple = basis.graphs[start].triple()
        if len(orbit) != triple_count(shape, triple):
            raise AssertionError(f"orbit size mismatch for type {triple}")
        blocks.append(WeylBlock(*triple, len(orbit), group_order // len(orbit)))
    return sorted(blocks)


def partitions(n, largest=None):
    """Every partition of n, each as a tuple of parts in non-increasing
    order, none larger than ``largest`` (default n)."""
    if n == 0:
        return [()]
    largest = n if largest is None else min(n, largest)
    return [(part, *rest) for part in range(largest, 0, -1) for rest in partitions(n - part, part)]


def centralizer_order(parts):
    """z = prod_i i^m_i m_i!, over the part sizes i with m_i parts: the
    order of the centralizer in S_n of a permutation of that cycle type."""
    z = 1
    for size in set(parts):
        m = parts.count(size)
        z *= size**m * math.factorial(m)
    return z


def class_size(parts):
    """The number of permutations of that cycle type: n! / z."""
    return math.factorial(sum(parts)) // centralizer_order(parts)


def permutation_of_type(parts):
    """A permutation of 1..n, in the one-line form ``weyl_act`` takes, with
    one cycle per part on consecutive labels."""
    w, start = [], 1
    for size in parts:
        w += [*range(start + 1, start + size), start]
        start += size
    return tuple(w)


def reference_stabilizer_class_count(shape, triple, lam, mu):
    """|H & cl(w)| for w of cycle type (lam, mu) in S_p x S_q, where H =
    (diagonal S_k) x S_s x S_s' x S_t x S_t' is the stabilizer of a graph
    of type (k, s, t), s' = p-k-s and t' = q-k-t.  An element (u, a, b, c,
    d) of H moves the k edge ends of each side by the same u, so its cycle
    type is u + a + b on the + side and u + c + d on the - side; count the
    elements by their five cycle types.  Reads the type alone: no graph,
    partner row or ``triple_count``."""
    k, s, t = triple
    lam, mu = sorted(lam), sorted(mu)
    total = 0
    for u in partitions(k):
        for a in partitions(s):
            for b in partitions(shape.p - k - s):
                if sorted(u + a + b) != lam:
                    continue
                for c in partitions(t):
                    for d in partitions(shape.q - k - t):
                        if sorted(u + c + d) == mu:
                            total += math.prod(map(class_size, (u, a, b, c, d)))
    return total


def reference_fixed_orbits(shape, w):
    """The number of orbits of each type that w = (w1, w2) fixes under
    ``weyl_act``, the q = 1 action, counted over the enumeration."""
    counts = Counter()
    for g in enumerate_graphs(shape):
        if weyl_act(w, g) == g:
            counts[g.triple()] += 1
    return counts


def weyl_character_mismatches(
    shape, blocks, fixed=reference_fixed_orbits, in_stabilizer=reference_stabilizer_class_count
):
    """The classes (lam, mu) of S_p x S_q at which ``blocks`` (as
    ``weyl_decompose`` returns them) disagree with the fixed orbits.  The
    character of Ind_H^W 1 at w is |C_W(w)| |H & cl(w)| / |H|, and the
    fixed orbits of a type under w count the character of its block, for
    |H| the block's stabilizer order.  A class matches when that holds for
    every block and no orbit of a type without a block is fixed.  At the
    identity the character is p! q! / |H|, the block's orbit count, so
    every ``triple_count`` that ``weyl_decompose`` reads is checked against
    the enumeration without this reference reading one."""
    types = {blk[:3]: blk.stabilizer_order for blk in blocks}
    mismatches = []
    for lam in partitions(shape.p):
        for mu in partitions(shape.q):
            observed = fixed(shape, (permutation_of_type(lam), permutation_of_type(mu)))
            centralizer = centralizer_order(lam) * centralizer_order(mu)
            ok = set(observed) <= set(types)
            for triple, order in types.items():
                h = in_stabilizer(shape, triple, lam, mu)
                ok &= observed[triple] * order == centralizer * h
            if not ok:
                mismatches.append((lam, mu))
    return mismatches

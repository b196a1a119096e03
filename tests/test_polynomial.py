import itertools

import pytest

from doubleflag.polynomial import ONE, Q, ZERO, IntPoly


def test_normalization():
    assert IntPoly((1, 0, 0)).coeffs == (1,)
    assert IntPoly((0, 0)).coeffs == ()
    assert not ZERO
    assert ONE


def test_ring_ops():
    assert Q + 1 == IntPoly((1, 1))
    assert Q - 1 == IntPoly((-1, 1))
    assert Q * Q == IntPoly((0, 0, 1))
    assert (Q - 1) * (Q + 1) == IntPoly((-1, 0, 1))
    assert 2 * Q == IntPoly((0, 2))
    assert Q - Q == ZERO
    assert -(Q - 1) == 1 - Q


def test_quadratic_identity():
    # (T+1)(T-q) vanishes at T = q
    t = Q
    assert (t + 1) * (t - Q) == ZERO


def test_evaluation():
    poly = IntPoly((-1, 2, 1))  # q^2 + 2q - 1
    assert poly(0) == -1
    assert poly(3) == 14


def test_str():
    assert str(ZERO) == "0"
    assert str(ONE) == "1"
    assert str(Q) == "q"
    assert str(Q - 1) == "q-1"
    assert str(IntPoly((3, -2, 1))) == "q^2-2*q+3"
    assert str(-Q) == "-q"


def _reference_str(poly):
    """Test-only copy of the earlier formatter: (sign, body) pairs first,
    then the first term's sign handled apart from the rest."""
    if not poly.coeffs:
        return "0"
    terms = []
    for e in range(len(poly.coeffs) - 1, -1, -1):
        c = poly.coeffs[e]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            var = "q" if e == 1 else f"q^{e}"
            body = var if mag == 1 else f"{mag}*{var}"
        terms.append((sign, body))
    first_sign, first_body = terms[0]
    out = (first_sign if first_sign == "-" else "") + first_body
    for sign, body in terms[1:]:
        out += sign + body
    return out


def test_str_matches_reference():
    # every coefficient tuple of length <= 4 with entries in -3..3
    coeff_tuples = [
        c for n in range(5) for c in itertools.product(range(-3, 4), repeat=n)
    ]
    assert len(coeff_tuples) == 2801
    for coeffs in coeff_tuples:
        poly = IntPoly(coeffs)
        assert str(poly) == _reference_str(poly), coeffs


def test_type_errors():
    with pytest.raises(TypeError):
        IntPoly((1.5,))


def test_iterator_coefficients_are_read_once():
    # the type check must not use up an iterator before it is normalized
    assert IntPoly(iter([1, 2])) == IntPoly((1, 2))
    assert IntPoly(c for c in (1, 2, 0)).coeffs == (1, 2)
    with pytest.raises(TypeError):
        IntPoly(iter([1, 1.5]))


def test_replace_and_make_normalize():
    assert IntPoly((1,))._replace(coeffs=(1, 0)) == IntPoly((1,))
    assert IntPoly._make([(0, 1, 0)]).coeffs == (0, 1)
    with pytest.raises(TypeError):
        ONE._replace(coeffs=(1.5,))


def test_hash_and_equality_follow_coefficients():
    # the CLI's CSV writer formats each distinct entry once, keyed by IntPoly
    assert hash(Q - 1) == hash(((-1, 1),))
    assert len({Q, Q + 0, IntPoly((0, 1, 0))}) == 1
    assert IntPoly((2,)) != 2

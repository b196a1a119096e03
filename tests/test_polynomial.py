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


def test_type_errors():
    with pytest.raises(TypeError):
        IntPoly((1.5,))


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

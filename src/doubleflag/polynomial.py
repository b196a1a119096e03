"""Exact integer polynomials in the Hecke parameter q."""

from __future__ import annotations

from collections import namedtuple


class IntPoly(namedtuple("IntPoly", "coeffs")):
    """Polynomial with integer coefficients, constant term first, no
    trailing zeros."""

    __slots__ = ()

    def __new__(cls, coeffs=()):
        coeffs = list(coeffs)
        if any(not isinstance(c, int) for c in coeffs):
            raise TypeError("coefficients must be integers")
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        return tuple.__new__(cls, (tuple(coeffs),))

    @classmethod
    def _make(cls, fields):
        """Build through the normalising constructor, as ``_replace`` does."""
        return cls(*fields)

    @staticmethod
    def const(c: int) -> "IntPoly":
        return IntPoly((c,))

    @staticmethod
    def coerce(x) -> "IntPoly":
        return x if isinstance(x, IntPoly) else IntPoly.const(x)

    def __bool__(self):
        return bool(self.coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __add__(self, other):
        other = IntPoly.coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + (0,) * (n - len(self.coeffs))
        b = other.coeffs + (0,) * (n - len(other.coeffs))
        return IntPoly(tuple(x + y for x, y in zip(a, b)))

    __radd__ = __add__

    def __neg__(self):
        return IntPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-IntPoly.coerce(other))

    def __rsub__(self, other):
        return IntPoly.coerce(other) + (-self)

    def __mul__(self, other):
        other = IntPoly.coerce(other)
        if not self or not other:
            return IntPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPoly(tuple(out))

    __rmul__ = __mul__

    def __call__(self, value: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def __str__(self):
        out = ""
        for e in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[e]
            if c == 0:
                continue
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                var = "q" if e == 1 else f"q^{e}"
                body = var if mag == 1 else f"{mag}*{var}"
            out += ("-" if c < 0 else "+" if out else "") + body
        return out or "0"


ZERO = IntPoly()
ONE = IntPoly.const(1)
Q = IntPoly((0, 1))

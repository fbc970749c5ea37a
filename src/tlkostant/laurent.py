"""Laurent polynomials in one variable q with integer coefficients.

Coefficients are plain Python ints, so arithmetic never overflows.  The
zero polynomial has no terms; zero coefficients are always dropped.
"""

from __future__ import annotations

from collections.abc import Iterable


class LaurentPoly:
    """An immutable Laurent polynomial, stored as {exponent: coefficient}.

    >>> d = LaurentPoly.delta()
    >>> d
    LaurentPoly('q + q^-1')
    >>> (d * d).evaluate_at_one()
    4
    """

    __slots__ = ("_coeffs", "_hash")

    def __init__(self, coeffs: dict[int, int] | None = None):
        clean = {}
        for e, c in (coeffs or {}).items():
            if not isinstance(e, int) or not isinstance(c, int):
                raise ValueError(f"bad term {e!r}: {c!r}, expected ints")
            if c:
                clean[e] = c
        object.__setattr__(self, "_coeffs", clean)
        object.__setattr__(self, "_hash", hash(tuple(sorted(clean.items()))))

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    @classmethod
    def zero(cls) -> LaurentPoly:
        return cls({})

    @classmethod
    def one(cls) -> LaurentPoly:
        return cls({0: 1})

    @classmethod
    def from_int(cls, c: int) -> LaurentPoly:
        return cls({0: c})

    @classmethod
    def monomial(cls, exponent: int, coefficient: int = 1) -> LaurentPoly:
        return cls({exponent: coefficient})

    @classmethod
    def delta(cls) -> LaurentPoly:
        """The loop parameter q + q^-1."""
        return cls({1: 1, -1: 1})

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]]) -> LaurentPoly:
        coeffs: dict[int, int] = {}
        for e, c in pairs:
            coeffs[e] = coeffs.get(e, 0) + c
        return cls(coeffs)

    def to_pairs(self) -> tuple[tuple[int, int], ...]:
        """Terms as (exponent, coefficient) pairs, sorted by exponent."""
        return tuple(sorted(self._coeffs.items()))

    def coefficient(self, exponent: int) -> int:
        return self._coeffs.get(exponent, 0)

    def is_zero(self) -> bool:
        return not self._coeffs

    def evaluate_at_one(self) -> int:
        return sum(self._coeffs.values())

    def __add__(self, other: LaurentPoly) -> LaurentPoly:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        coeffs = dict(self._coeffs)
        for e, c in other._coeffs.items():
            coeffs[e] = coeffs.get(e, 0) + c
        return LaurentPoly(coeffs)

    def __neg__(self) -> LaurentPoly:
        return LaurentPoly({e: -c for e, c in self._coeffs.items()})

    def __sub__(self, other: LaurentPoly) -> LaurentPoly:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: LaurentPoly) -> LaurentPoly:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        coeffs: dict[int, int] = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                e = e1 + e2
                coeffs[e] = coeffs.get(e, 0) + c1 * c2
        return LaurentPoly(coeffs)

    def __pow__(self, k: int) -> LaurentPoly:
        if not isinstance(k, int) or k < 0:
            raise ValueError(f"exponent must be a nonnegative int, got {k!r}")
        out = LaurentPoly.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return self._hash

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __repr__(self) -> str:
        if not self._coeffs:
            return "LaurentPoly('0')"
        bits = []
        for e, c in sorted(self._coeffs.items(), reverse=True):
            sign = "-" if c < 0 else ("+" if bits else "")
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                var = "q" if e == 1 else f"q^{e}"
                body = var if mag == 1 else f"{mag}*{var}"
            bits.append(f"{sign} {body}" if bits else f"{sign}{body}")
        return f"LaurentPoly('{' '.join(bits)}')"


if __name__ == "__main__":
    import doctest

    doctest.testmod()

"""Iwasawa-type invariants of integer polynomials at a fixed prime.

A characteristic element is represented by its exact integer coefficient
list c_0, c_1, ..., lowest degree first, together with the working prime.
For f = sum c_i T^i with not all c_i zero:

    mu(f)     = min over nonzero c_i of v_p(c_i)
    lambda(f) = least i with v_p(c_i) = mu(f)

which is the content exponent and the degree of the distinguished factor in
the p-adic Weierstrass factorization f = p^mu * (distinguished) * (unit).
Both are additive in products.  No floating point anywhere.
"""

from __future__ import annotations

from . import _Value
from .errors import InvalidPrime, ZeroPolynomial
from .primes import require_prime, valuation

__all__ = [
    "CharPoly", "iwasawa_invariants", "vanishing_order",
    "truncated_chi_valuation", "is_trivial_shape",
]


class CharPoly(_Value):
    """Integer polynomial with a working prime.  coeffs[i] is the T^i
    coefficient, a tuple of ints; trailing zeros are tolerated but the zero
    polynomial is rejected."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs):
        require_prime(p)
        cs = tuple(int(c) for c in coeffs)
        if not cs or all(c == 0 for c in cs):
            raise ZeroPolynomial("all coefficients vanish")
        _Value.__init__(self, p, cs)

    def __mul__(self, other: "CharPoly") -> "CharPoly":
        if self.p != other.p:
            raise InvalidPrime(f"cannot multiply polynomials at p={self.p} and p={other.p}")
        a, b = self.coeffs, other.coeffs
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return CharPoly(self.p, out)

    @property
    def degree(self) -> int:
        i = len(self.coeffs) - 1
        while self.coeffs[i] == 0:
            i -= 1
        return i


def iwasawa_invariants(f: CharPoly) -> tuple[int, int]:
    """(mu, lambda) of f at its prime."""
    vals = [valuation(c, f.p) if c != 0 else None for c in f.coeffs]
    mu = min(v for v in vals if v is not None)
    lam = next(i for i, v in enumerate(vals) if v == mu)
    return mu, lam


def vanishing_order(f: CharPoly) -> int:
    """Order of vanishing at T = 0: least i with c_i != 0."""
    return next(i for i, c in enumerate(f.coeffs) if c != 0)


def truncated_chi_valuation(f: CharPoly) -> int:
    """v_p of the leading Taylor coefficient at T = 0, i.e. v_p(c_r) for
    r the vanishing order.  This is the valuation the leading-term formula
    compares against an Euler characteristic."""
    return valuation(f.coeffs[vanishing_order(f)], f.p)


def is_trivial_shape(f: CharPoly, r_expected: int) -> bool:
    """Whether f is a unit times T^r_expected.

    Two formulations are evaluated:
      (a) mu(f) == 0 and lambda(f) == r_expected,
      (b) vanishing_order(f) == r_expected and v_p(c_r) == 0.
    (b) implies (a) unconditionally, and (a) implies (b) whenever the
    vanishing order agrees with r_expected; both implications are asserted.
    The two can differ only on inputs like p + T tested against r = 1,
    where (a) alone would wrongly report a trivial shape, so the returned
    value is the conjunction.
    """
    mu, lam = iwasawa_invariants(f)
    via_invariants = mu == 0 and lam == r_expected
    r = vanishing_order(f)
    via_leading = r == r_expected and truncated_chi_valuation(f) == 0
    if via_leading:
        assert via_invariants, f"leading-term form without mu=0, lambda=r on {f}"
    if via_invariants and r == r_expected:
        assert via_leading, f"mu=0, lambda=r without unit leading coefficient on {f}"
    return via_invariants and via_leading

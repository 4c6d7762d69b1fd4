"""The mod-p census of curves with a point of order p, and the closed-form
density bounds built on it.

The census (d_of_p, dp_table) comes from Hurwitz class numbers, not from
point counts.  By Deuring's theorem in the form of R. Schoof, "Nonsingular
plane cubic curves over finite fields", J. Combin. Theory A 46 (1987), for
p >= 5 and |t| < 2 sqrt(p), p not dividing t, the number of nonsingular
(a, b) in F_p^2 with trace t is

    (p - 1)/2 * H(4p - t^2),

where H is the Hurwitz class number (reduced forms weighted 1/2, 1/3 for
the forms of a(x^2 + y^2), a(x^2 + xy + y^2), 1 otherwise), and the number
of F_p-isomorphism classes is the unweighted count of those forms.  _census
reads all three modes off one O(p) walk over the forms of 1 - 4p for d_of_p,
dp_table, `bounds` and curves.dp_census; the tests check them against the
O(p^3) sweep over F_p^2 of the oracle dp_census_bruteforce (tests/oracles.py).

bound_dp3 = zeta(10) d(p) / p^2 and bound_dp2 are the paper's density
bounds for the anomalous and the Tamagawa-divisible loci.

This module needs only the standard library, primes and errors, so the
`dp` and `bounds` commands load neither the point-count rows nor the sweep.
"""

from __future__ import annotations

import math
from enum import Enum

from .errors import OutOfRange, TooLarge
from .primes import primes_up_to, require_prime

__all__ = ["DpMode", "d_of_p", "dp_table", "zeta10", "bound_dp2", "bound_dp3"]


class DpMode(str, Enum):
    """Normalizations for the mod-p census of curves carrying a point of
    order p.

    LiteralPairs      pairs (a, b) with disc0(a,b) != 0 mod p and p | N_p;
                      a point of order p exists iff p divides the group order.
    TraceOnePairs     pairs with N_p = p exactly (trace of Frobenius 1).
                      For p >= 7 Hasse forces the two sets to coincide; at
                      p = 5 the literal set also admits N = 10 (trace -4).
    TraceOneClasses   TraceOnePairs counted up to the F_p-isomorphism action
                      (a, b) ~ (u^4 a, u^6 b), u in F_p^*.

    _census evaluates all three from one walk over the reduced forms of
    discriminant 1 - 4p (Schoof 1987, see the module docstring):
    TraceOnePairs = (p-1)/2 * H(4p - 1), TraceOneClasses = the unweighted
    number of those forms, and LiteralPairs = TraceOnePairs plus, at p = 5
    alone, the (5-1)/2 * H(4) = 1 pair of trace -4.
    """

    LITERAL_PAIRS = "LiteralPairs"
    TRACE_ONE_PAIRS = "TraceOnePairs"
    TRACE_ONE_CLASSES = "TraceOneClasses"


_MODE_ALIASES = {"literal": DpMode.LITERAL_PAIRS, "trace-pairs": DpMode.TRACE_ONE_PAIRS,
                 "trace-classes": DpMode.TRACE_ONE_CLASSES}


def _coerce_mode(mode) -> DpMode:
    """mode as a DpMode: a DpMode, its value, or its CLI alias."""
    try:
        return DpMode(_MODE_ALIASES.get(mode, mode))
    except (TypeError, ValueError):
        raise OutOfRange(f"unknown census mode {mode!r}") from None


def _reduced_forms(D: int) -> tuple[int, int]:
    """(6 H(D), number of reduced forms) over the forms (a, b, c) with
    b^2 - 4ac = -D, primitive or not, for D > 0 with D = 0, 3 mod 4.

    Reduced means |b| <= a <= c, and b >= 0 when |b| = a or a = c; then
    3 b^2 <= D.  The weights of H are scaled by 6 to stay integral.
    """
    weighted = forms = 0
    b = D % 2
    while 3 * b * b <= D:
        n = (b * b + D) // 4  # = a c
        a = max(b, 1)
        while a * a <= n:
            if n % a == 0:
                c = n // a
                if b == 0:
                    weighted += 3 if a == c else 6  # a(x^2 + y^2) weighs 1/2
                    forms += 1
                elif a == b or a == c:
                    weighted += 2 if a == b == c else 6  # a(x^2 + xy + y^2): 1/3
                    forms += 1
                else:
                    weighted += 12  # (a, b, c) and (a, -b, c)
                    forms += 2
            a += 1
        b += 2
    return weighted, forms


# _census refuses primes past this, the sieve's cap too, so dp_table never
# meets it: its walk is linear in p, ~0.4 s at 9999991 for `dp` or `bounds`
# (fresh CLI, see README Caveats).
_CLASS_NUMBER_PRIME_CAP = 10 ** 7


def _require_class_number_prime(p: int) -> None:
    require_prime(p, 5)
    if p > _CLASS_NUMBER_PRIME_CAP:
        raise TooLarge(f"prime {p} exceeds the class-number cap {_CLASS_NUMBER_PRIME_CAP}")


def _census(p: int) -> dict:
    """The census at p in every mode, {"p": p, mode value: count, ...}."""
    _require_class_number_prime(p)
    weighted, forms = _reduced_forms(4 * p - 1)
    pairs, rem = divmod((p - 1) * weighted, 12)  # (p - 1)/2 * H(4p - 1)
    assert rem == 0, f"(p-1)/2 * H(4p - 1) not integral at p={p}"
    # t = -4 = 1 - p is the other literal trace at p = 5: (5 - 1)/2 * H(4) = 1
    return {"p": p, DpMode.LITERAL_PAIRS.value: pairs + 1 if p == 5 else pairs,
            DpMode.TRACE_ONE_PAIRS.value: pairs, DpMode.TRACE_ONE_CLASSES.value: forms}


def d_of_p(p: int, mode=DpMode.LITERAL_PAIRS) -> int:
    """Census count at p in the requested normalization, from class numbers;
    TooLarge past _CLASS_NUMBER_PRIME_CAP."""
    _require_class_number_prime(p)
    mode = _coerce_mode(mode)  # before the walk, as a bad prime is
    return _census(p)[mode.value]


def dp_table(p_max: int, p_min: int = 5) -> dict[int, dict]:
    """The census in all three modes for every prime p_min <= p < p_max,
    as {p: {"p": p, mode value: count, ...}} by ascending prime."""
    return {p: _census(p) for p in primes_up_to(p_max - 1) if p >= p_min}


def zeta10() -> float:
    # pi^10 / 93555; approximately 1.0009945751
    return math.pi ** 10 / 93555


def _over_power(n: int, d: int, l: int, k: int) -> float:
    """n / (d l^k) correctly rounded, for n >= 0, d >= 1 and l >= 2; 0.0,
    without building l^k, where bit lengths put it at most 2^-1075."""
    if n.bit_length() - d.bit_length() + 1 - k * (l.bit_length() - 1) <= -1075:
        return 0.0
    return n / (d * l ** k)


_DP2_TOL = 1e-8  # bound_dp2 sums the primes to 80 at p = 5, to 10 from p = 11 on


def bound_dp2(p: int) -> float:
    """Sum over primes l != p of (l-1)^2 / l^(p+2), certified below _DP2_TOL.

    The tail over primes > L is dominated by sum_{n > L} n^(-p)
    < L^(1-p)/(p-1), so L grows until that bound clears _DP2_TOL. Past
    p ~ 1073 every term rounds to 0.0, which _over_power sees from bit lengths.
    """
    require_prime(p, 5)
    L = 10
    while L ** (1 - p) / (p - 1) >= _DP2_TOL:
        L *= 2
    return sum(_over_power((l - 1) ** 2, 1, l, p + 2) for l in primes_up_to(L) if l != p)


def bound_dp3(p: int, d_value: int) -> float:
    """Density bound zeta(10) * d(p) / p^2 for the anomalous locus."""
    require_prime(p, 5)
    if d_value < 0:
        raise OutOfRange(f"census count {d_value} is negative")
    if d_value > p * p:
        raise OutOfRange(f"census count {d_value} exceeds the {p * p} pairs mod {p}")
    return zeta10() * d_value / (p * p)

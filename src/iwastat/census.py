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
of F_p-isomorphism classes is the unweighted count of those forms.  This is
O(p) per prime.  curves.dp_census assembles those counts with the pairs of
the anomalous residue table; the O(p^3) sweep over F_p^2 that the tests
check both against is the oracle dp_census_bruteforce in tests/oracles.py.

bound_dp3 = zeta(10) d(p) / p^2 and bound_dp2 are the paper's density
bounds for the anomalous and the Tamagawa-divisible loci.

This module needs only the standard library, primes and errors, so the
`dp` and `bounds` commands load neither the point-count rows nor the sweep.
"""

from __future__ import annotations

import math
from enum import Enum

from .errors import InvalidPrime, OutOfRange
from .primes import is_prime, primes_up_to

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

    d_of_p evaluates each mode from class numbers (Schoof 1987, see the
    module docstring): TraceOnePairs = (p-1)/2 * H(4p - 1), TraceOneClasses
    = the unweighted number of reduced forms of discriminant 1 - 4p, and
    LiteralPairs sums the pair count over every t = 1 mod p with t^2 < 4p,
    which adds t = -4 at p = 5.  curves.dp_census returns all three with the
    literal pairs; the brute-force oracle is dp_census_bruteforce in
    tests/oracles.py.
    """

    LITERAL_PAIRS = "LiteralPairs"
    TRACE_ONE_PAIRS = "TraceOnePairs"
    TRACE_ONE_CLASSES = "TraceOneClasses"


def _coerce_mode(mode) -> DpMode:
    if isinstance(mode, DpMode):
        return mode
    try:
        return DpMode(mode)
    except ValueError:
        pass
    alias = {
        "literal": DpMode.LITERAL_PAIRS,
        "trace-pairs": DpMode.TRACE_ONE_PAIRS,
        "trace-classes": DpMode.TRACE_ONE_CLASSES,
    }
    try:
        return alias[str(mode)]
    except KeyError:
        raise OutOfRange(f"unknown census mode {mode!r}") from None


def _require_census_prime(p: int) -> None:
    if p < 5 or not is_prime(p):
        raise InvalidPrime(f"{p} is not a prime >= 5")


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


def _trace_pair_count(p: int, t: int) -> int:
    """Number of nonsingular (a, b) in F_p^2 with trace t, for p >= 5 and
    t^2 < 4p not divisible by p: (p - 1)/2 * H(4p - t^2)."""
    weighted, _ = _reduced_forms(4 * p - t * t)
    pairs, rem = divmod((p - 1) * weighted, 12)
    assert rem == 0, f"(p-1)/2 * H(4p - t^2) not integral at p={p}, t={t}"
    return pairs


def d_of_p(p: int, mode=DpMode.LITERAL_PAIRS) -> int:
    """Census count at p in the requested normalization, from class numbers."""
    _require_census_prime(p)
    mode = _coerce_mode(mode)
    if mode is DpMode.TRACE_ONE_CLASSES:
        return _reduced_forms(4 * p - 1)[1]
    if mode is DpMode.TRACE_ONE_PAIRS:
        return _trace_pair_count(p, 1)
    # t = 1 mod p with t^2 < 4p: t = 1 always, t = 1 - p only at p = 5
    return sum(_trace_pair_count(p, t) for t in (1, 1 - p) if t * t < 4 * p)


def dp_table(p_max: int, p_min: int = 5) -> dict[int, dict]:
    """The census in all three modes for every prime p_min <= p < p_max,
    as {p: {"p": p, mode value: count, ...}} by ascending prime."""
    ps = [p for p in primes_up_to(p_max - 1) if p >= p_min]
    return {p: {"p": p, **{mode.value: d_of_p(p, mode) for mode in DpMode}} for p in ps}


def zeta10() -> float:
    # pi^10 / 93555; approximately 1.0009945751
    return math.pi ** 10 / 93555


def bound_dp2(p: int, tol: float = 1e-8) -> float:
    """Sum over primes l != p of (l-1)^2 / l^(p+2), certified below tol.

    The tail over primes > L is dominated by sum_{n > L} n^(-p)
    < L^(1-p)/(p-1), so L grows until that bound clears tol.
    """
    _require_census_prime(p)
    if not tol > 0:
        raise OutOfRange(f"tolerance {tol} is not positive")
    L = 10
    while L ** (1 - p) / (p - 1) >= tol:
        L *= 2
    return sum((l - 1) ** 2 / l ** (p + 2) for l in primes_up_to(L) if l != p)


def bound_dp3(p: int, d_value: int) -> float:
    """Density bound zeta(10) * d(p) / p^2 for the anomalous locus."""
    _require_census_prime(p)
    if d_value < 0:
        raise OutOfRange(f"census count {d_value} is negative")
    return zeta10() * d_value / (p * p)

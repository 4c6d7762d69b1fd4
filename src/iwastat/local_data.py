"""Kodaira symbols, Tamagawa numbers, bad-prime sets, and p-part products.

Conventions for y^2 = x^3 + Ax + B: c4 = -48A, c6 = -864B,
Delta = -16*(4A^3 + 27B^2), so valuations at l >= 5 agree with disc0
valuations. Tate's algorithm (Silverman, Advanced Topics in the Arithmetic
of Elliptic Curves, IV.9) classifies the fibre at every prime l, rescaling
by l whenever the model turns out to be non-minimal at l. It finds the
singular point of the reduction in closed form at l >= 5 (by search at
l in {2, 3}), and the roots of the quadratics of IV, I_n* and IV* and of
the cubic of the fibres past IV (I0*, I_n*, IV*, III*, II*) from
polynomial gcds over F_l, so no step searches F_l and each takes
O(log l) operations.

tamagawa_p_part never factors disc0. A prime p >= 5 divides c_l only for
split I_n with p | n <= v_l(Delta), so only l = 2 and the odd l with
l^5 | disc0 can add to tau_p; those come from trial division over the
primes up to the fifth root of the cofactor left, and a cofactor of 2^80
or more (where an l > 2^16 with l^5 | disc0 could hide) raises TooLarge.
bad_primes factors disc0; it is public, and a scan calls it only to word
the message of a GoodReductionAt.
"""

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Optional

from .curves import CurveQ, _p_part_certifiably_trivial, disc0_of
from .errors import (
    GoodReductionAt, InvalidPrime, OutOfRange, SingularCurve, TooLarge, UnknownLocalData,
)
from .primes import factorize, iroot, is_prime, legendre, primes_up_to, valuation

__all__ = [
    "KodairaSymbol",
    "KodairaData",
    "bad_primes",
    "kodaira_tamagawa",
    "local_reduction_raw",
    "tamagawa_p_part",
]


class KodairaSymbol(str, Enum):
    I0 = "I0"
    In = "In"
    II = "II"
    III = "III"
    IV = "IV"
    I0_STAR = "I0*"
    In_STAR = "In*"
    IV_STAR = "IV*"
    III_STAR = "III*"
    II_STAR = "II*"


@dataclass(frozen=True)
class KodairaData:
    prime: int
    symbol: KodairaSymbol
    n: int  # 0 except for In / In*
    tamagawa: int
    split: Optional[bool] = None  # multiplicative fibers only

    def __post_init__(self):
        sym = self.symbol
        if sym is KodairaSymbol.In:
            assert self.n >= 1
            expect = self.n if self.split else math.gcd(2, self.n)
            assert self.tamagawa == expect, (self, expect)
        else:
            assert self.split is None
            if sym is KodairaSymbol.In_STAR:
                assert self.n >= 1 and self.tamagawa in (2, 4)
            elif sym is KodairaSymbol.I0:
                assert self.n == 0 and self.tamagawa == 1
            else:
                assert self.n == 0 and 1 <= self.tamagawa <= 4

    @property
    def display(self) -> str:
        if self.symbol is KodairaSymbol.In:
            return f"I{self.n}"
        if self.symbol is KodairaSymbol.In_STAR:
            return f"I{self.n}*"
        return self.symbol.value


def bad_primes(curve) -> frozenset:
    """Primes dividing the discriminant -16*disc0 of the given model.

    2 is always present (the -16 factor); the rest come from exact
    factorization of disc0. A singular pair raises SingularCurve.
    """
    disc0 = curve.disc0 if isinstance(curve, CurveQ) else disc0_of(*curve)
    if disc0 == 0:
        raise SingularCurve(f"disc0 vanishes for {tuple(curve)}")
    return frozenset({2} | set(factorize(abs(disc0))))


def _is_bad_prime(l, disc0) -> bool:
    """Whether l is a prime of bad reduction of a model with this disc0:
    l = 2 (the -16 in Delta) or a prime dividing disc0. Needs no
    factorization of disc0."""
    return l == 2 or (l > 2 and disc0 % l == 0 and is_prime(l))


# ---------------------------------------------------------------------------
# Tate's algorithm, any prime l, any integral model


def _b_invariants(a1, a2, a3, a4, a6):
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    return b2, b4, b6, b8


def _discriminant(a1, a2, a3, a4, a6):
    b2, b4, b6, b8 = _b_invariants(a1, a2, a3, a4, a6)
    return -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6


def _shift(a, r, s, t):
    # (x, y) -> (x + r, y + s x + t); u = 1 throughout
    a1, a2, a3, a4, a6 = a
    n1 = a1 + 2 * s
    n2 = a2 - s * a1 + 3 * r - s * s
    n3 = a3 + r * a1 + 2 * t
    n4 = a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t
    n6 = a6 + r * a4 + r * r * a2 + r ** 3 - t * a3 - t * t - r * t * a1
    return (n1, n2, n3, n4, n6)


def _singular_point(a, l):
    """A singular point of the reduced curve mod l, as (x0, y0)."""
    a1, a2, a3, a4, a6 = a
    if l <= 3:
        for x in range(l):
            for y in range(l):
                on = (y * y + a1 * x * y + a3 * y - x ** 3 - a2 * x * x - a4 * x - a6) % l
                fy = (2 * y + a1 * x + a3) % l
                fx = (a1 * y - 3 * x * x - 2 * a2 * x - a4) % l
                if on == 0 and fy == 0 and fx == 0:
                    return x, y
        raise AssertionError(f"no singular point mod {l} for {a}")
    # l >= 5: complete the square; the singular x is the repeated root r of
    # g = x^3 + c2 x^2 + c1 x + c0 = (x - r)^2 (x - s), and comparing
    # coefficients gives c2^2 - 3 c1 = (r - s)^2 and 9 c0 - c1 c2 = 2 r (r - s)^2
    inv2 = pow(2, -1, l)
    b2, b4, b6, _ = _b_invariants(*a)
    c2, c1, c0 = b2 * inv2 * inv2 % l, b4 * inv2 % l, b6 * inv2 * inv2 % l
    d = (c2 * c2 - 3 * c1) % l
    x = (9 * c0 - c1 * c2) * pow(2 * d, -1, l) % l if d else -c2 * pow(3, -1, l) % l
    if (x ** 3 + c2 * x * x + c1 * x + c0) % l:
        raise AssertionError(f"no singular point mod {l} for {a}")
    return x, -(a1 * x + a3) * inv2 % l


def _trim(f, l):
    """f mod l without its zero leading coefficients (constant term first)."""
    f = [c % l for c in f]
    while f and f[-1] == 0:
        f.pop()
    return f


def _poly_rem(f, g, l):
    """f mod g over F_l; g is trimmed and nonzero."""
    f = _trim(f, l)
    inv = pow(g[-1], -1, l)
    while len(f) >= len(g):
        q, shift = f[-1] * inv % l, len(f) - len(g)
        for i, c in enumerate(g):
            f[shift + i] = (f[shift + i] - q * c) % l
        f = _trim(f, l)
    return f


def _poly_gcd(f, g, l):
    """The monic gcd of f and g over F_l, not both zero."""
    f, g = _trim(f, l), _trim(g, l)
    while g:
        f, g = g, _poly_rem(f, g, l)
    inv = pow(f[-1], -1, l)
    return [c * inv % l for c in f]


def _frobenius_mod(P, l):
    """T^l mod P over F_l, by square and multiply: O(log l) products mod P."""
    r = [1]
    for bit in bin(l)[2:]:
        sq = [0] * (2 * len(r) - 1)
        for i, a in enumerate(r):
            for j, b in enumerate(r):
                sq[i + j] += a * b
        r = _poly_rem([0] + sq if bit == "1" else sq, P, l)
    return r


def _repeated_root(P, l):
    """(r, m) for the repeated root r, of multiplicity m, of the monic
    quadratic or cubic P over F_l (constant term first, trimmed), or None
    when P is separable.

    A repeated factor of a quadratic or cubic over F_l is linear, so
    gcd(P, P') = (T - r)^k: its T^(k-1) coefficient is -k r, and where l | k
    (k = 2 at l = 2, or P' = 0 and k = 3 at l = 3) its constant term is
    (-r)^k = -r, since r^l = r.
    """
    g = _poly_gcd(P, [i * c for i, c in enumerate(P)][1:], l)
    k = len(g) - 1
    if k == 0:
        return None
    r = -g[0] % l if k % l == 0 else -g[k - 1] * pow(k, -1, l) % l
    return r, 3 if P == _trim([-r ** 3, 3 * r * r, -3 * r, 1], l) else 2


def _root_count(P, l):
    """The number of roots in F_l of the separable monic P: deg gcd(P,
    T^l - T), in O(log l) remainders mod P, with no search over F_l."""
    t = _frobenius_mod(P, l) + [0, 0]
    t[1] -= 1
    return len(_poly_gcd(P, t, l)) - 1


def local_reduction_raw(A, B, l):
    """Kodaira symbol and Tamagawa number at l for y^2 = x^3 + Ax + B.

    Runs Tate's algorithm on integer a-invariants, rescaling by l whenever
    the model is non-minimal at l, so the input pair need not be minimal.
    Returns KodairaData (symbol I0 with c = 1 if the curve turns out to
    have good reduction at l on the minimal model). A non-prime l raises
    InvalidPrime and a singular pair SingularCurve.
    """
    if not is_prime(l):
        raise InvalidPrime(f"l must be prime, got {l}")
    if disc0_of(A, B) == 0:
        raise SingularCurve(f"disc0 vanishes for ({A}, {B})")
    return _tate(A, B, l)


def _tate(A, B, l) -> KodairaData:
    """Tate's algorithm at the prime l for a nonsingular integral pair;
    the callers check both."""
    a = (0, 0, 0, A, B)
    for _ in range(64):
        disc = _discriminant(*a)
        assert disc != 0
        vD = valuation(disc, l)
        if vD == 0:
            return KodairaData(l, KodairaSymbol.I0, 0, 1)

        # move a singular point of the reduction to the origin
        x0, y0 = _singular_point(a, l)
        a = _shift(a, x0, 0, y0)
        a1, a2, a3, a4, a6 = a
        assert a3 % l == 0 and a4 % l == 0 and a6 % l == 0

        b2 = a1 * a1 + 4 * a2
        if b2 % l:
            # node: multiplicative, I_n with n = current v(Delta)
            if l == 2:
                split = a2 % 2 == 0  # T^2 + T + a2 has a root iff a2 even
            else:
                split = legendre(b2 % l, l) == 1
            c = vD if split else math.gcd(2, vD)
            return KodairaData(l, KodairaSymbol.In, vD, c, split)

        if a6 % l ** 2:
            return KodairaData(l, KodairaSymbol.II, 0, 1)
        b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
        if b8 % l ** 3:
            return KodairaData(l, KodairaSymbol.III, 0, 2)
        b6 = a3 * a3 + 4 * a6
        if b6 % l ** 3:
            Q = _trim([-(a6 // l ** 2), a3 // l, 1], l)
            assert _repeated_root(Q, l) is None, "IV requires a separable tangent quadratic"
            return KodairaData(l, KodairaSymbol.IV, 0, 1 + _root_count(Q, l))

        # normalize to v(a1) >= 1, v(a2) >= 1, v(a3) >= 2, v(a4) >= 2, v(a6) >= 3
        if l == 2:
            s = a2 % 2
            t = 2 * ((a3 // 2) % 2)
        else:
            s = -a1 * pow(2, -1, l) % l
            t = -a3 * pow(2, -1, l * l) % l ** 2
        a = _shift(a, 0, s, t)
        a1, a2, a3, a4, a6 = a
        if l == 2 and a6 % 8:
            # one more y-translation fixes a6 mod 8 without disturbing the rest
            a = _shift(a, 0, 0, 2)
            a1, a2, a3, a4, a6 = a
        assert a1 % l == 0 and a2 % l == 0
        assert a3 % l ** 2 == 0 and a4 % l ** 2 == 0 and a6 % l ** 3 == 0

        # cubic P(T) = T^3 + a_{2,1} T^2 + a_{4,2} T + a_{6,3} over F_l
        P = _trim([a6 // l ** 3, a4 // l ** 2, a2 // l, 1], l)
        repeated = _repeated_root(P, l)
        if repeated is None:
            # P separable: I0*
            return KodairaData(l, KodairaSymbol.I0_STAR, 0, 1 + _root_count(P, l))
        t0, m0 = repeated

        if m0 == 2:
            # double root: shift it to 0 and walk the I_n* ladder
            a = _shift(a, l * t0, 0, 0)
            a1, a2, a3, a4, a6 = a
            assert a2 // l % l != 0 and a4 % l ** 3 == 0 and a6 % l ** 4 == 0
            k = 1
            while True:
                # stage n = 2k - 1: quadratic in y
                Q = _trim([-(a6 // l ** (2 * k + 2)), a3 // l ** (k + 1), 1], l)
                repeated = _repeated_root(Q, l)
                if repeated is None:
                    return KodairaData(l, KodairaSymbol.In_STAR, 2 * k - 1, 2 + _root_count(Q, l))
                a = _shift(a, 0, 0, repeated[0] * l ** (k + 1))
                a1, a2, a3, a4, a6 = a
                assert a3 % l ** (k + 2) == 0 and a6 % l ** (2 * k + 3) == 0
                # stage n = 2k: quadratic in x, made monic
                inv = pow(a2 // l, -1, l)
                Q = _trim([a6 // l ** (2 * k + 3) * inv, a4 // l ** (k + 2) * inv, 1], l)
                repeated = _repeated_root(Q, l)
                if repeated is None:
                    return KodairaData(l, KodairaSymbol.In_STAR, 2 * k, 2 + _root_count(Q, l))
                a = _shift(a, repeated[0] * l ** (k + 1), 0, 0)
                a1, a2, a3, a4, a6 = a
                k += 1
                assert a4 % l ** (k + 2) == 0 and a6 % l ** (2 * k + 2) == 0

        # triple root: shift it to 0
        a = _shift(a, l * t0, 0, 0)
        a1, a2, a3, a4, a6 = a
        assert a2 % l ** 2 == 0 and a4 % l ** 3 == 0 and a6 % l ** 4 == 0
        Q = _trim([-(a6 // l ** 4), a3 // l ** 2, 1], l)
        repeated = _repeated_root(Q, l)
        if repeated is None:
            return KodairaData(l, KodairaSymbol.IV_STAR, 0, 1 + _root_count(Q, l))
        a = _shift(a, 0, 0, repeated[0] * l ** 2)
        a1, a2, a3, a4, a6 = a
        assert a3 % l ** 3 == 0 and a6 % l ** 5 == 0
        if a4 % l ** 4:
            return KodairaData(l, KodairaSymbol.III_STAR, 0, 2)
        if a6 % l ** 6:
            return KodairaData(l, KodairaSymbol.II_STAR, 0, 1)
        # non-minimal at l: rescale and start over
        a = (a1 // l, a2 // l ** 2, a3 // l ** 3, a4 // l ** 4, a6 // l ** 6)
    raise AssertionError(f"local algorithm did not terminate at l={l}")


def kodaira_tamagawa(curve, l, allow_23=False) -> KodairaData:
    """KodairaData of curve at a bad prime l, by Tate's algorithm.

    It runs at every l; at l >= 5 the minimal pair is l-minimal, so one
    round settles it. A good l >= 5 raises GoodReductionAt.
    l in {2, 3} runs it only when allow_23 is set; the default path
    expects callers to supply ingested Tamagawa overrides instead and
    raises UnknownLocalData. A non-prime l raises InvalidPrime.
    """
    if not isinstance(curve, CurveQ):
        curve = CurveQ(*curve)
    if not is_prime(l):
        raise InvalidPrime(f"l must be prime, got {l}")
    if l >= 5 and curve.disc0 % l:
        raise GoodReductionAt(f"curve has good reduction at {l}")
    if l < 5 and not allow_23:
        raise UnknownLocalData(
            f"local data at l={l} needs allow_23=True (full local algorithm) "
            "or an ingested Tamagawa override"
        )
    data = _tate(curve.A, curve.B, l)
    if l == 3 and curve.disc0 % 3 and data.symbol is not KodairaSymbol.I0:
        raise AssertionError("good reduction at 3 must come back as I0")
    return data


# The Tamagawa table finds the odd l with l^5 | disc0 by trial division
# over the primes up to the fifth root of the cofactor left, and refuses a
# cofactor of at least this many with TooLarge: below it every prime past
# its fifth root, 2^16, has l^5 above the cofactor and cannot hide there.
_COFACTOR_LIMIT = 1 << 80
_TRIAL_BITS = (_COFACTOR_LIMIT.bit_length() - 1) // 5


@lru_cache(maxsize=None)
def _odd_primes_below(bits):
    """The odd primes below 2^bits, sieved on first use, so a batch sieves
    only to the power of two above the largest bound it meets (scan-many
    to 2^7; the sieve to 2^16 costs ~5 ms). bits <= _TRIAL_BITS, so the
    cache holds at most 16 lists."""
    return primes_up_to(1 << bits)[1:]


def _high_valuations(disc0):
    """{l: v_l(Delta)} for l = 2 and every odd prime l with l^5 | disc0.

    v_2(Delta) = v_2(disc0) + 4, from the 16 in Delta; at odd l, v_l(Delta)
    = v_l(disc0). Raises TooLarge when the cofactor left by trial division
    to 2^_TRIAL_BITS is at least _COFACTOR_LIMIT.
    """
    n = abs(disc0)
    v2 = (n & -n).bit_length() - 1
    n >>= v2
    high = {2: v2 + 4}
    bound = iroot(n, 5)
    for l in _odd_primes_below(min(bound.bit_length(), _TRIAL_BITS)):
        if l > bound:
            break
        if n % l == 0:
            v = 0
            while n % l == 0:
                n //= l
                v += 1
            if v >= 5:
                high[l] = v
            bound = iroot(n, 5)
    if n >= _COFACTOR_LIMIT:
        raise TooLarge(f"disc0 = {disc0} leaves a cofactor of {n.bit_length()} bits "
                       f"after trial division to 2^{_TRIAL_BITS}; the Tamagawa "
                       f"table is proven for cofactors below 2^80")
    return high


@lru_cache(maxsize=256)
def _tamagawa_table(curve, overrides, allow_23):
    """(product of the override c_l, {p: ((l, computable), ...)}).

    c_l is known from the override items (a sorted tuple) at l = 2 and at
    each prime l | disc0; an override anywhere else is ignored. Every other
    bad l is listed, ascending, under each prime p >= 5 whose p-part of c_l
    the v_l(Delta) certificate cannot clear (all of them divide a fibre
    index, so p <= v_l(Delta)). That needs v_l(Delta) >= 5, so only l = 2
    and the odd l with l^5 | disc0 are looked at, found by trial division
    (_high_valuations, which raises TooLarge on a cofactor of 2^80 or more);
    disc0 is never factored. There Tate's algorithm may compute c_l
    (computable) at l >= 5 always and at l in {2, 3} when allow_23 is set.
    """
    disc0, given = curve.disc0, dict(overrides)
    product, blocked = 1, {}
    for l, v in _high_valuations(disc0).items():
        if l in given:
            continue
        for p in primes_up_to(v):
            if p >= 5 and not _p_part_certifiably_trivial(v, p):
                blocked.setdefault(p, []).append((l, l >= 5 or allow_23))
    for l, c in given.items():
        if _is_bad_prime(l, disc0):
            product *= c
    return product, {p: tuple(ls) for p, ls in blocked.items()}


@lru_cache(maxsize=1024)
def _tamagawa_number(curve, l):
    return _tate(curve.A, curve.B, l).tamagawa


def _p_parts(curve, overrides, allow_23):
    """p -> tau_p (p >= 5 prime) for one curve and override dict; the
    Tamagawa table is worked out once, at the first call.

    A bad l without an override adds to tau_p only at the p its v_l(Delta)
    certificate cannot clear; only there is c_l computed (each once, by
    Tate's algorithm), or UnknownLocalData raised where it may not be.
    """
    table = None

    def tau_p(p):
        nonlocal table
        if table is None:
            table = _tamagawa_table(curve, tuple(sorted(overrides.items())), allow_23)
        product, blocked = table
        for l, computable in blocked.get(p, ()):
            if not computable:
                raise UnknownLocalData(
                    f"cannot certify the {p}-part of c_{l}; supply an override "
                    f"or pass allow_23=True"
                )
            product *= _tamagawa_number(curve, l)
        return p ** valuation(product, p)

    return tau_p


def tamagawa_p_part(record_or_curve, p, overrides=None, allow_23=False) -> int:
    """tau_p: the product over bad primes l of p^{v_p(c_l)}, for p >= 5.

    Accepts a CurveQ or any record object carrying .curve and
    .tamagawa_overrides. Override values (dict l -> c_l) win over
    computation; they are the default source at l in {2, 3}. Without an
    override or allow_23 at those primes, a divisibility certificate on
    v_l(Delta) is tried before giving up with UnknownLocalData. Entries in
    overrides at good primes are ignored. p < 5 or a non-prime p raises
    InvalidPrime and an override below 1 raises OutOfRange.
    """
    if p < 5:
        raise InvalidPrime(f"tau_p is defined for p >= 5 here, got {p}")
    if not is_prime(p):
        raise InvalidPrime(f"tau_p needs a prime p, got {p}")
    curve = getattr(record_or_curve, "curve", record_or_curve)
    if not isinstance(curve, CurveQ):
        curve = CurveQ(*curve)
    if overrides is None:
        overrides = getattr(record_or_curve, "tamagawa_overrides", None) or {}
    for l, c in overrides.items():
        if c < 1:
            raise OutOfRange(f"Tamagawa override at {l} must be positive, got {c}")
    return _p_parts(curve, overrides, allow_23)(p)

"""Kodaira symbols, Tamagawa numbers, bad-prime sets, and p-part products.

Conventions for y^2 = x^3 + Ax + B: c4 = -48A, c6 = -864B,
Delta = -16*(4A^3 + 27B^2), so valuations at l >= 5 agree with disc0
valuations. For l >= 5 a globally minimal (A, B) pair is automatically
l-minimal and a closed (v_l(A), v_l(B), v_l(disc0)) table settles the
symbol; for l in {2, 3} (or non-minimal input) the full iterative local
algorithm below does the work, including rescaling by l when the model
turns out to be non-minimal at l.
"""

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Optional

from .curves import CurveQ
from .errors import GoodReductionAt, InvalidPrime, SingularCurve, UnknownLocalData
from .primes import factorize, legendre, sqrt_mod, valuation

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


# symbols with potentially multiplicative behavior; everything else is additive
_MULTIPLICATIVE = {KodairaSymbol.In}


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
    factorization of disc0.
    """
    disc0 = curve.disc0 if isinstance(curve, CurveQ) else 4 * curve[0] ** 3 + 27 * curve[1] ** 2
    return frozenset({2} | set(factorize(abs(disc0))))


# ---------------------------------------------------------------------------
# closed classification for l >= 5 on an l-minimal pair


def _split_In(A, B, l):
    # tangent slopes at the node are rational iff -c6 = 864B is a QR mod l
    return legendre(864 * B % l, l) == 1


def _kodaira_l_ge_5(A, B, l) -> KodairaData:
    disc0 = 4 * A ** 3 + 27 * B ** 2
    vD = valuation(disc0, l)
    if vD == 0:
        return KodairaData(l, KodairaSymbol.I0, 0, 1)
    if A % l:
        split = _split_In(A, B, l)
        c = vD if split else math.gcd(2, vD)
        return KodairaData(l, KodairaSymbol.In, vD, c, split)
    # additive: l | A and l | B
    vA = valuation(A, l) if A else 10 ** 9
    vB = valuation(B, l) if B else 10 ** 9
    assert vB >= 1 and not (vA >= 4 and vB >= 6), "pair not l-minimal"
    if vD == 2:
        return KodairaData(l, KodairaSymbol.II, 0, 1)
    if vD == 3:
        return KodairaData(l, KodairaSymbol.III, 0, 2)
    if vD == 4:
        c = 3 if legendre(B // l ** 2 % l, l) == 1 else 1
        return KodairaData(l, KodairaSymbol.IV, 0, c)
    if vD == 6:
        # c = 1 + number of rational roots of T^3 + (A/l^2) T + (B/l^3)
        a = A // l ** 2 % l
        b = B // l ** 3 % l
        nroots = sum(1 for t in range(l) if (t * t * t + a * t + b) % l == 0)
        assert nroots in (0, 1, 3)
        return KodairaData(l, KodairaSymbol.I0_STAR, 0, 1 + nroots)
    if vA == 2 and vB == 3:
        # In* with n = vD - 6; component count needs the iterative tail
        data = local_reduction_raw(A, B, l)
        assert data.symbol is KodairaSymbol.In_STAR and data.n == vD - 6, data
        return data
    if vD == 8:
        c = 3 if legendre(B // l ** 4 % l, l) == 1 else 1
        return KodairaData(l, KodairaSymbol.IV_STAR, 0, c)
    if vD == 9:
        return KodairaData(l, KodairaSymbol.III_STAR, 0, 2)
    assert vD == 10, (A, B, l, vD)
    return KodairaData(l, KodairaSymbol.II_STAR, 0, 1)


# ---------------------------------------------------------------------------
# full iterative local algorithm, any prime l, any integral model


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
    # odd l >= 5: complete the square, find the repeated root of the cubic
    inv2 = pow(2, -1, l)
    b2, b4, b6, _ = _b_invariants(*a)
    inv4 = pow(4, -1, l)
    c2 = b2 * inv4 % l
    c1 = b4 * inv2 % l
    c0 = b6 * inv4 % l
    # repeated root satisfies g = g' = 0 with g = x^3 + c2 x^2 + c1 x + c0
    inv3 = pow(3, -1, l)
    disc = (4 * c2 * c2 - 12 * c1) % l
    candidates = []
    if disc == 0:
        candidates.append(-2 * c2 * inv2 * inv3 % l)
    else:
        rt = sqrt_mod(disc, l)
        assert rt is not None, "derivative quadratic must split at a repeated root"
        inv6 = inv2 * inv3 % l
        candidates.extend([(-2 * c2 + rt) * inv6 % l, (-2 * c2 - rt) * inv6 % l])
    for x in candidates:
        if (x ** 3 + c2 * x * x + c1 * x + c0) % l == 0:
            y = -(a1 * x + a3) * inv2 % l
            return x, y
    raise AssertionError(f"no singular point mod {l} for {a}")


def _poly_roots_mod(coeffs, l):
    """Roots in F_l with multiplicities for sum(coeffs[i] * T^i).

    Returns a dict root -> multiplicity, by repeated synthetic division.
    Sound for splitting off every rational root; over a prime field any
    repeated factor of a cubic is linear, so multiplicities found this way
    settle separability questions for the callers here.
    """
    cs = [c % l for c in coeffs]
    while len(cs) > 1 and cs[-1] == 0:
        cs.pop()
    roots = {}
    for t in range(l):
        while len(cs) > 1:
            # evaluate and divide by (T - t) in one Horner pass
            q = []
            acc = 0
            for c in reversed(cs):
                acc = (acc * t + c) % l
                q.append(acc)
            if acc != 0:
                break
            q.pop()
            cs = [c % l for c in reversed(q)]
            roots[t] = roots.get(t, 0) + 1
    return roots


def _quad_distinct_rational(qa, qb, qc, l):
    """(distinct, rational, double_root) for qa X^2 + qb X + qc over F_l.

    rational means: distinct roots both lying in F_l. double_root is the
    repeated root when not distinct, else None. qa must be nonzero mod l.
    """
    qa, qb, qc = qa % l, qb % l, qc % l
    assert qa != 0
    if l == 2:
        # derivative is qb; inseparable iff qb = 0
        if qb == 0:
            return False, False, qc * qa % l  # X^2 = qc/qa, sqrt is identity on F_2
        # qa X^2 + qb X + qc = X^2 + X + qc (all odd coeffs act as 1)
        return True, qc == 0, None
    disc = (qb * qb - 4 * qa * qc) % l
    if disc == 0:
        return False, False, -qb * pow(2 * qa, -1, l) % l
    return True, legendre(disc, l) == 1, None


def local_reduction_raw(A, B, l, max_rounds=64):
    """Kodaira symbol and Tamagawa number at l for y^2 = x^3 + Ax + B.

    Runs the full iterative local algorithm on integer a-invariants,
    rescaling by l whenever the model is non-minimal at l, so the input
    pair need not be minimal. Returns KodairaData (symbol I0 with c = 1
    if the curve turns out to have good reduction at l on the minimal
    model).
    """
    if 4 * A**3 + 27 * B * B == 0:
        raise SingularCurve(f"disc0 vanishes for ({A}, {B})")
    a = (0, 0, 0, A, B)
    for _ in range(max_rounds):
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
            distinct, rational, _ = _quad_distinct_rational(1, a3 // l, -(a6 // l ** 2), l)
            assert distinct, "IV requires a separable tangent quadratic"
            return KodairaData(l, KodairaSymbol.IV, 0, 3 if rational else 1)

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
        roots = _poly_roots_mod([a6 // l ** 3, a4 // l ** 2, a2 // l, 1], l)
        mult = {r: m for r, m in roots.items() if m >= 2}
        if not mult:
            # any repeated factor of a cubic over F_l is linear, so no
            # repeated rational root means P is separable: I0*
            return KodairaData(l, KodairaSymbol.I0_STAR, 0, 1 + len(roots))
        assert len(mult) == 1, (a, l, roots)
        (t0, m0), = mult.items()

        if m0 == 2:
            # double root: shift it to 0 and walk the I_n* ladder
            a = _shift(a, l * t0, 0, 0)
            a1, a2, a3, a4, a6 = a
            assert a2 // l % l != 0 and a4 % l ** 3 == 0 and a6 % l ** 4 == 0
            k = 1
            while True:
                # stage n = 2k - 1: quadratic in y
                distinct, rational, y1 = _quad_distinct_rational(
                    1, a3 // l ** (k + 1), -(a6 // l ** (2 * k + 2)), l
                )
                if distinct:
                    n = 2 * k - 1
                    return KodairaData(l, KodairaSymbol.In_STAR, n, 4 if rational else 2)
                a = _shift(a, 0, 0, y1 * l ** (k + 1))
                a1, a2, a3, a4, a6 = a
                assert a3 % l ** (k + 2) == 0 and a6 % l ** (2 * k + 3) == 0
                # stage n = 2k: quadratic in x
                distinct, rational, x1 = _quad_distinct_rational(
                    a2 // l, a4 // l ** (k + 2), a6 // l ** (2 * k + 3), l
                )
                if distinct:
                    n = 2 * k
                    return KodairaData(l, KodairaSymbol.In_STAR, n, 4 if rational else 2)
                a = _shift(a, x1 * l ** (k + 1), 0, 0)
                a1, a2, a3, a4, a6 = a
                k += 1
                assert a4 % l ** (k + 2) == 0 and a6 % l ** (2 * k + 2) == 0

        # triple root: shift it to 0
        a = _shift(a, l * t0, 0, 0)
        a1, a2, a3, a4, a6 = a
        assert a2 % l ** 2 == 0 and a4 % l ** 3 == 0 and a6 % l ** 4 == 0
        distinct, rational, y1 = _quad_distinct_rational(1, a3 // l ** 2, -(a6 // l ** 4), l)
        if distinct:
            return KodairaData(l, KodairaSymbol.IV_STAR, 0, 3 if rational else 1)
        a = _shift(a, 0, 0, y1 * l ** 2)
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
    """KodairaData of curve at a bad prime l.

    l >= 5 goes through the closed valuation table (the minimal pair is
    l-minimal, so one pass settles it). l in {2, 3} runs the full local
    algorithm only when allow_23 is set; the default path expects callers
    to supply ingested Tamagawa overrides instead and raises
    UnknownLocalData.
    """
    if not isinstance(curve, CurveQ):
        curve = CurveQ(*curve)
    if l >= 5:
        if curve.disc0 % l:
            raise GoodReductionAt(f"curve has good reduction at {l}")
        return _kodaira_l_ge_5(curve.A, curve.B, l)
    if l not in (2, 3):
        raise ValueError(f"l must be prime, got {l}")
    if not allow_23:
        raise UnknownLocalData(
            f"local data at l={l} needs allow_23=True (full local algorithm) "
            "or an ingested Tamagawa override"
        )
    data = local_reduction_raw(curve.A, curve.B, l)
    if l == 3 and curve.disc0 % 3 and data.symbol is not KodairaSymbol.I0:
        raise AssertionError("good reduction at 3 must come back as I0")
    return data


def _p_part_certifiably_trivial(v_delta, p):
    # p >= 5 divides c_l only for split I_n with p | n, and n on the minimal
    # model is v_l(Delta) - 12k for some k >= 0. If no such candidate is a
    # positive multiple of p, the p-part is 1 regardless of the fine local type.
    return all(n % p for n in range(v_delta, 0, -12))


@lru_cache(maxsize=256)
def _tamagawa_table(curve, overrides, allow_23):
    """((l, c_l, v_l(Delta)), ...) over the bad primes l of curve, ascending.

    c_l comes from the override items (a sorted tuple), from the closed
    table at l >= 5, or from the full local algorithm at l in {2, 3} when
    allow_23 is set. Where none of these applies c_l is None and v_l(Delta)
    is given for the divisibility certificate; otherwise v_l(Delta) is None.
    A scan asks for every prime p, so this is worked out once per record.
    """
    given = dict(overrides)
    table = []
    for l in sorted(bad_primes(curve)):
        if l in given:
            table.append((l, given[l], None))
        elif l >= 5:
            table.append((l, kodaira_tamagawa(curve, l).tamagawa, None))
        elif allow_23:
            table.append((l, local_reduction_raw(curve.A, curve.B, l).tamagawa, None))
        else:
            table.append((l, None, valuation(curve.discriminant, l)))
    return tuple(table)


def tamagawa_p_part(record_or_curve, p, overrides=None, allow_23=False) -> int:
    """tau_p: the product over bad primes l of p^{v_p(c_l)}, for p >= 5.

    Accepts a CurveQ or any record object carrying .curve and
    .tamagawa_overrides. Override values (dict l -> c_l) win over
    computation; they are the default source at l in {2, 3}. Without an
    override or allow_23 at those primes, a divisibility certificate on
    v_l(Delta) is tried before giving up with UnknownLocalData. Entries in
    overrides at good primes are ignored. p < 5 raises InvalidPrime.
    """
    if p < 5:
        raise InvalidPrime(f"tau_p is defined for p >= 5 here, got {p}")
    curve = getattr(record_or_curve, "curve", record_or_curve)
    if not isinstance(curve, CurveQ):
        curve = CurveQ(*curve)
    if overrides is None:
        overrides = getattr(record_or_curve, "tamagawa_overrides", None) or {}
    return _p_part(_tamagawa_table(curve, tuple(sorted(overrides.items())), allow_23), p)


def _p_part(table, p) -> int:
    """tau_p read off a _tamagawa_table, for p >= 5."""
    tau = 1
    for l, c, v_delta in table:
        if c is not None:
            tau *= p ** valuation(c, p)
        elif not _p_part_certifiably_trivial(v_delta, p):
            raise UnknownLocalData(
                f"cannot certify the {p}-part of c_{l}; supply an override "
                f"or pass allow_23=True"
            )
    return tau

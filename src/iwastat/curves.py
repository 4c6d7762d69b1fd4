"""Short Weierstrass curves over Q and their reduction data at single primes.

A curve is an integral pair (A, B) for y^2 = x^3 + A x + B with
disc0 = 4A^3 + 27B^2 != 0, kept in reduced form: no prime q has q^4 | A
and q^6 | B simultaneously.  Invariant conventions used throughout:

    c4 = -48 A,   c6 = -864 B,   Delta = -16 disc0,
    height H = max(|A|^3, B^2).

frobenius_traces alone decides how an a_p is counted, at every prime of a
scan and at the one prime (p = 3 included) of count_points, trace_frobenius
and classify_reduction.  Up to _ROW_PRIME_BOUND it reads each a_p from the
point-count rows of its prime (_PointCountRows): the affine counts
N_p(a, b) - 1 = p + sum_x chi(x^3 + a x + b) of every b for a = 0, 1 and g,
g a primitive root, at most three rows, each one cyclic correlation done as
one big-integer product (the a = 0 row is constant p when p != 1 mod 3),
and the orbit map that sends (a, b) to one of them by the isomorphism
(a, b) ~ (u^4 a, u^6 b) and, where p = 1 mod 4, the quadratic twist by g.
The rows are built once per prime and shared by every curve and by the
anomalous residue table.  Past the bound it finds a_p by point orders in
the Hasse interval, on the curve or its twist (Shanks-Mestre baby steps and
giant steps, _trace_by_point_orders), in O(p^(1/4)) group operations.

The anomalous residue table (anomalous_residue_table) reads the same
rows, shared up to the bound and its own past it, to the census-prime cap
_CENSUS_PRIME_CAP.  dp_census lists its pairs beside the census counts of
d_of_p, which come from Hurwitz class numbers, not from point counts (see
the census module docstring); the O(p^3) sweep over F_p^2 that the tests
check both against is the oracle dp_census_bruteforce in tests/oracles.py.

CurveQ and LocalReduction are frozen value classes on the package's _Value
base, whose docstring states how they store, compare and copy their fields.
"""

from __future__ import annotations

import sys
from array import array
from enum import Enum
from functools import lru_cache
from math import gcd, isqrt

from . import _Value
from .errors import BadReductionAt, NonMinimalModel, SingularCurve, TooLarge
from .primes import (
    _TRIAL_LIMIT, _power_divisor_walk, factorize, iroot, legendre, primes_up_to, require_prime,
)

__all__ = [
    "CurveQ", "LocalReduction", "ReductionClass",
    "disc0_of", "count_points", "trace_frobenius", "frobenius_traces",
    "classify_reduction",
    "minimal_mask", "is_minimal_pair", "dp_census", "anomalous_residue_table",
]


def disc0_of(A: int, B: int) -> int:
    return 4 * A**3 + 27 * B**2


def _uncertified_primes(l: int, v: int) -> list[int]:
    # the primes p >= 5 for which v = v_l(disc0) cannot clear the p-part of
    # c_l: p divides c_l only for split I_n with p | n, and n on the minimal
    # model is v_l(Delta) - 12k, k >= 0, with v_l(Delta) = v + 4 at l = 2
    v += 4 if l == 2 else 0
    return [p for p in primes_up_to(v)[2:] if any(n % p == 0 for n in range(v, 0, -12))]


def minimal_mask(A: int, B, qs, ok=True):
    """ok with every B dropped that some q in qs makes non-minimal at A:
    q^4 | A and q^6 | B.

    B is an int or an int64 row and ok a bool or a bool row of the same
    shape; a row ok is updated in place. qs must hold every prime q with
    q^4 | A and q^6 | B for some B that ok still admits.
    """
    for q in qs:
        if A % q**4 == 0:
            ok &= B % q**6 != 0
    return ok


def is_minimal_pair(A: int, B: int) -> bool:
    """True unless some prime q has q^4 | A and q^6 | B.

    With B == 0 that is q^4 | A, with A == 0 it is q^6 | B, and otherwise it
    is q^12 | gcd(A^3, B^2) (v_q(A^3) = 3 v_q(A) and v_q(B^2) = 2 v_q(B)).
    That one (n, k) is decided by trial division to its first q^k (the walk
    of primes.power_divisors) while its bound, the (k+1)-th root of n, is at
    most primes._TRIAL_LIMIT: |A| below ~2^100 when B == 0, |B| below ~2^140
    when A == 0 and gcd(A^3, B^2) below ~2^260 otherwise. Past it the q are
    the prime factors of gcd(A, B) (factorize raises TooLarge past its
    proven range or its rho step cap).
    """
    if A == 0 and B == 0:
        return False
    if B == 0:
        n, k = abs(A), 4
    elif A == 0:
        n, k = abs(B), 6
    else:
        n, k = gcd(A**3, B**2), 12
    if iroot(n, k + 1) <= _TRIAL_LIMIT:
        return next(_power_divisor_walk(n, k), None) is None
    return minimal_mask(A, B, factorize(gcd(A, B)))


class CurveQ(_Value):
    """A reduced integral model y^2 = x^3 + A x + B.

    Construction rejects singular pairs (disc0 == 0) and non-reduced ones.
    height and disc0 are derived and fixed at construction; the values
    passed for them are ignored.
    """

    __slots__ = ("A", "B", "height", "disc0")

    def __init__(self, A: int, B: int, height: int = 0, disc0: int = 0):
        d = disc0_of(A, B)
        if d == 0:
            raise SingularCurve(f"4*{A}^3 + 27*{B}^2 = 0")
        if not is_minimal_pair(A, B):
            raise NonMinimalModel(f"({A}, {B}) admits a q^4/q^6 reduction")
        _Value.__init__(self, A, B, max(abs(A) ** 3, B**2), d)

    @property
    def c4(self) -> int:
        return -48 * self.A

    @property
    def c6(self) -> int:
        return -864 * self.B

    @property
    def discriminant(self) -> int:
        return -16 * self.disc0


def _as_curve(curve) -> CurveQ:
    """curve if it is a CurveQ, else the CurveQ of its pair (A, B)."""
    return curve if isinstance(curve, CurveQ) else CurveQ(*curve)


class ReductionClass(str, Enum):
    GOOD_ORDINARY = "GoodOrdinary"
    GOOD_SUPERSINGULAR = "GoodSupersingular"
    BAD = "Bad"


class LocalReduction(_Value):
    """Reduction data of a curve at one odd prime; n_points and a_p are None
    at bad primes."""

    __slots__ = ("prime", "reduction_class", "n_points", "a_p", "anomalous")

    def __init__(self, prime: int, reduction_class: ReductionClass, n_points: int | None,
                 a_p: int | None, anomalous: bool):
        _Value.__init__(self, prime, reduction_class, n_points, a_p, anomalous)

    @property
    def is_good(self) -> bool:
        return self.reduction_class is not ReductionClass.BAD


# frobenius_traces reads a_p from the point-count rows of primes up to this
# bound and by point orders past it; both are exact, the bound moves only
# time. On a 2-vCPU Xeon VM (Python 3.11.7) all rows of one prime took ~1.0
# ms to build at 601 (three products) and ~5.6 ms at 4001 (two), every
# prime's up to 600 ~0.05 s; then a curve's a_p is one lookup, while point
# orders took ~25-70 us a curve. So the rows pay off for a scan of more than
# ~35 records at 601, ~135 at 4001.
_ROW_PRIME_BOUND = 600


def _ec_add(P, Q, a: int, p: int):
    """P + Q on Y^2 = X^3 + a X + b over F_p in affine coordinates, with
    None for the point at infinity; b is implied by the points."""
    if P is None or Q is None:
        return Q if P is None else P
    (x1, y1), (x2, y2) = P, Q
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        lam = (3 * x1 * x1 + a) * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    return x3, (lam * (x1 - x3) - y1) % p


def _ec_mul(k: int, P, a: int, p: int):
    """k P for k >= 0 by double-and-add, from the top bit."""
    R = None
    for bit in bin(k)[2:]:
        R = _ec_add(R, R, a, p)
        if bit == "1":
            R = _ec_add(R, P, a, p)
    return R


def _orders_in(P, a: int, p: int, lo: int, hi: int) -> list[int]:
    """Every N in [lo, hi] with N P = O, ascending, for a point P != O of
    order above 2, by baby steps and giant steps.

    The baby steps map x(jP) to j for j = 1..m. The first j whose x is
    already there as x(kP) has jP = -kP, and the first with y(jP) = 0 has
    jP = -jP; then P has order exactly j + k (k = j in the second case) and
    the matches are its multiples. Without such a j the order is above 2m,
    so each window of 2m + 1 consecutive N, centred on c, holds at most one
    match N = c + e, seen as cP = -eP: cP = O, or x(cP) in the table and the
    sign of e read off y.
    """
    m = isqrt((hi - lo + 1) // 2) + 1
    baby = {}
    Q = P
    for j in range(1, m + 1):
        k, y = baby.setdefault(Q[0], (j, Q[1]))
        if k != j or not y:
            o = j + k
            return list(range(-(-lo // o) * o, hi + 1, o))
        last, Q = Q, _ec_add(Q, P, a, p)
    # centres c = i s, s = 2m + 1, from the first window that meets lo
    s = 2 * m + 1
    step = _ec_add(last, Q, a, p)  # s P
    i = -(-(lo - m) // s)
    G = _ec_mul(i, step, a, p)
    matches = []
    while i * s - m <= hi:
        c = i * s
        if G is None:
            n = c
        else:
            k, y = baby.get(G[0], (0, 0))
            n = c + (k if y != G[1] else -k) if k else 0
        if lo <= n <= hi:
            matches.append(n)
        G = _ec_add(G, step, a, p)
        i += 1
    return matches


def _trace_by_point_orders(A: int, B: int, p: int) -> int:
    """a_p of y^2 = x^3 + A x + B at a prime p > 229 by Shanks-Mestre.

    At p | disc0 it is that of the singular cubic (x - r)^2 (x + 2r), 0 at
    the cusp r = 0 and legendre(3r, p) = legendre(-2 A B, p) at the node.

    For x with d = f(x) != 0 the point (d x, d^2) lies on
    E_d : Y^2 = X^3 + A d^2 X + B d^3, which is E when d is a square and its
    quadratic twist otherwise, so #E_d = p + 1 - legendre(d, p) a_p. Each
    point's orders N in the Hasse interval [p + 1 - 2 sqrt p, p + 1 + 2 sqrt p]
    (_orders_in) leave the a_p = legendre(d, p) (p + 1 - N); a single one
    fixes a_p, and several are intersected with those of the points before.
    By Mestre's theorem (Cohen, A Course in Computational Algebraic Number
    Theory, GTM 138, ch. 7) E or its twist has a point with a single order in
    the interval once p > 229, and the x run over every point of both.
    """
    a, b = A % p, B % p
    if (4 * a * a * a + 27 * b * b) % p == 0:
        return legendre(-2 * a * b, p)
    w = isqrt(4 * p)
    lo, hi = p + 1 - w, p + 1 + w
    left = None
    for x in range(p):
        d = (x * x * x + a * x + b) % p
        if d:
            s, dd = legendre(d, p), d * d % p
            traces = {s * (p + 1 - n) for n in _orders_in((d * x % p, dd), a * dd % p, p, lo, hi)}
            left = traces if left is None else left & traces
            if len(left) == 1:
                return left.pop()
    raise AssertionError(f"no point fixes a_p at p={p}: Mestre's theorem needs p > 229")


def frobenius_traces(A: int, B: int, primes: tuple) -> list[int]:
    """a_p = p + 1 - #E(F_p) of y^2 = x^3 + A x + B at every p in primes.

    primes is a tuple of distinct primes >= 5, as a sieve gives them, or the
    one odd prime of count_points; their primality is not tested.  A and B
    may be any integers: they are reduced mod each p as Python ints.  Where
    p divides disc0 the value is that of the singular cubic (0 or +-1).  Up
    to _ROW_PRIME_BOUND an a_p is read from the point-count rows of its
    prime, and past it found by point orders (_trace_by_point_orders).
    """
    return [_trace_by_point_orders(A, B, p) if trace is None else trace(A, B)
            for p, trace in zip(primes, _row_traces(primes))]


@lru_cache(maxsize=16)
def _row_traces(primes: tuple) -> tuple:
    """The trace of the rows of each p in primes up to the bound, and None
    past it, looked up once per tuple, so that a scan reads each a_p with
    no cache lookup and holds no object per prime past the bound."""
    return tuple(_point_count_rows(p).trace if p <= _ROW_PRIME_BOUND else None
                 for p in primes)


def count_points(A: int, B: int, p: int) -> int:
    """#E(F_p) including the point at infinity, for an odd prime of good
    reduction.  Raises BadReductionAt when p divides disc0."""
    require_prime(p, 3)
    if disc0_of(A % p, B % p) % p == 0:
        raise BadReductionAt(f"p={p} divides disc0")
    return p + 1 - frobenius_traces(A, B, (p,))[0]


def trace_frobenius(A: int, B: int, p: int) -> int:
    return p + 1 - count_points(A, B, p)


def classify_reduction(curve: CurveQ | tuple[int, int], p: int,
                       allow_p3: bool = False) -> LocalReduction:
    """Reduction class of the curve at p.

    Default policy admits primes p >= 5 only.  p = 3 sits behind allow_p3:
    the divisibility definitions (p | a_p supersingular, p | N_p anomalous)
    still make sense there but several downstream statements do not, so the
    caller must opt in.  p = 2 is always rejected.
    """
    curve = _as_curve(curve)
    require_prime(p, 3 if allow_p3 else 5)
    if curve.disc0 % p == 0:
        return LocalReduction(p, ReductionClass.BAD, None, None, False)
    n = count_points(curve.A, curve.B, p)
    a_p = p + 1 - n
    # p >= 5 forces a_p = 0 on a multiple of p by Hasse, |a_p| <= 2 sqrt p < p
    assert a_p % p or a_p == 0 or p == 3
    cls = ReductionClass.GOOD_ORDINARY if a_p % p else ReductionClass.GOOD_SUPERSINGULAR
    return LocalReduction(p, cls, n, a_p, n % p == 0)


def _pack(values, fmt: str) -> int:
    """The int whose slot i, fmt's item width wide, holds values[i]."""
    slots = array(fmt, values)
    if sys.byteorder == "big":
        slots.byteswap()
    return int.from_bytes(slots, "little")


def _unpack(n: int, fmt: str, size: int) -> array:
    """The size slots of n < 2^(size * slot width), the inverse of _pack."""
    slots = array(fmt)
    slots.frombytes(n.to_bytes(size * slots.itemsize, "little"))
    if sys.byteorder == "big":
        slots.byteswap()
    return slots


def _character_poly(square: bytearray) -> tuple[str, int]:
    """(fmt, G) at p = len(square), from square[x] = 1 for the nonzero
    squares x mod p: G packs g[t] = 1 + chi(-t) for t in 0..p-1, one fmt
    slot per t. A slot of a product H * G with sum h = p, and the sum of two
    of its slots p apart, holds at most 2p, so 16-bit slots suffice while
    2p < 2^16 and 32-bit ones above."""
    p = len(square)
    fmt = "H" if 2 * p < 1 << 16 else "I"
    return fmt, _pack([1] + [2 * c for c in square[:0:-1]], fmt)


def _count_row(a: int, p: int, poly: tuple[str, int]) -> array:
    """row[b] = #{(x, y) in F_p^2 : y^2 = x^3 + a x + b} for b in 0..p-1,
    the affine point count; poly is _character_poly at p.

    With h[v] = #{x : x^3 + a x = v mod p}, the count at b is
    sum_v h[v] (1 + chi(v + b)), a cyclic correlation of h with
    g[t] = 1 + chi(-t). x -> -x negates x^3 + a x, so h[-v] = h[v] and the
    x up to (p - 1)/2 fill h. The correlation is one product H * G of packed
    ints (Kronecker substitution, see _character_poly), 2p - 1 slots, folded
    in half by adding its top p slots to its low p; slot -b mod p of the
    sum is the count at b.
    """
    fmt, G = poly
    h = [0] * p
    h[0] = 1
    for x in range(1, (p + 1) // 2):
        v = (x * x * x + a * x) % p
        h[v] += 1
        h[-v] += 1
    bits = 8 * p * array(fmt).itemsize
    product = _pack(h, fmt) * G
    slots = _unpack((product & ((1 << bits) - 1)) + (product >> bits), fmt, p)
    row = slots[:1] + slots[:0:-1]
    # every x meets every b once: sum_b row[b] = p^2
    assert sum(row) == p * p, f"point counts of row a={a} mod {p} do not sum to p^2"
    # Hasse, |p - row[b]| <= 2 sqrt(p); a singular b has |p - row[b]| <= 1
    assert (p - min(row)) ** 2 <= 4 * p and (max(row) - p) ** 2 <= 4 * p, \
        f"Hasse bound violated in row a={a} mod {p}"
    return row


def _primitive_root(p: int) -> int:
    qs = factorize(p - 1)
    g = 2
    while any(pow(g, (p - 1) // q, p) == 1 for q in qs):
        g += 1
    return g


# square[x] (1 for the nonzero squares, else 0) -> the row of a = x != 0
_COSET = bytes([2, 1]) + bytes(254)


class _PointCountRows:
    """The affine point count of every (a, b) mod p, read from at most
    three rows: those of a = reps[i] = 0, 1 and g, g a primitive root.

    (a, b) and (u^4 a, u^6 b) are isomorphic over F_p for u in F_p^*, and
    (c^2 a, c^3 b) is the quadratic twist of (a, b) by c, with the opposite
    a_p where c is not a square. Take a = g^k, k = 2m or 2m + 1, and u with
    u^2 = +-g^m a square, so u^4 = g^(2m):
      - p = 3 mod 4: -1 is not a square, so u^2 = (-1)^m g^m and (a, b) ~
        (g^(k - 2m), b u^-6), u^-6 = (-1)^m g^(-3m);
      - p = 1 mod 4: for m even u^2 = g^m is a square and (a, b) ~
        (g^(k - 2m), b g^(-3m)); for m odd (a, b) = (g^2 a', g^3 b') is the
        twist by g of (a', b g^-3) with a' = g^(k - 2), which is isomorphic
        to (g^(k - 2m), b g^(-3m)) as m - 1 is even.
    So the orbit map sends a to its row, coset[a] (0 for a = 0, 1 for the
    squares and 2 for the others), to scale[a] (1 at a = 0) and to sign[a]
    (-1 on a twist, else 1), and a_p(a, b) = sign[a] (p - row[b scale[a]
    mod p]) of that row: a twist negates a_p, and flips the split type of a
    node with it.

    Where p != 1 mod 3, x -> x^3 is a bijection of F_p, so y^2 = x^3 + b has
    p affine points for every b (the cusp at b = 0 too): the a = 0 row is
    constant p, with no correlation. Each other row is one _count_row, built
    on first use; the orbit map is built with the table. frobenius_traces
    and anomalous_residue_table both read these rows.
    """

    __slots__ = ("p", "reps", "coset", "scale", "sign", "rows", "_poly")

    def __init__(self, p: int):
        g = _primitive_root(p)
        square = bytearray(p)
        for x in range(1, p // 2 + 1):
            square[x * x % p] = 1
        coset = square.translate(_COSET)
        coset[0] = 0
        scale, sign = array("I", [1]) * p, array("b", [1]) * p
        twisted = p % 4 == 1
        # x = g^(2m), s = scale of x and x g, f = (-1)^m
        gg, step = g * g % p, pow(g, -3, p)
        x = s = f = 1
        for _ in range((p - 1) // 2):
            xg = x * g % p
            if twisted:
                sign[x] = sign[xg] = f
                scale[x] = scale[xg] = s
            else:
                scale[x] = scale[xg] = s if f == 1 else p - s
            x = x * gg % p
            s = s * step % p
            f = -f
        self.p, self.coset, self.scale, self.sign = p, coset, scale, sign
        self.reps = (0, 1, g)
        self.rows = [array("I", [p]) * p if p % 3 != 1 else None, None, None]
        self._poly = _character_poly(square)

    def row(self, i: int) -> array:
        """The counts of row i, the row of a = reps[i]."""
        row = self.rows[i]
        if row is None:
            row = self.rows[i] = _count_row(self.reps[i], self.p, self._poly)
        return row

    def trace(self, A: int, B: int) -> int:
        """a_p of y^2 = x^3 + A x + B; that of the singular cubic (0 or
        +-1) where p divides disc0."""
        p = self.p
        a = A % p
        row = self.rows[self.coset[a]] or self.row(self.coset[a])
        return self.sign[a] * (p - row[B % p * self.scale[a] % p])


# room for every prime up to _ROW_PRIME_BOUND, so that a scan builds the
# rows of each prime once
@lru_cache(maxsize=128)
def _point_count_rows(p: int) -> _PointCountRows:
    return _PointCountRows(p)


# anomalous_residue_table (so the report) and dp_census refuse primes past
# this: a row is a product of p slots, and the census lists ~p^1.5 pairs. At
# 49999 the report at X = 10^4 took ~0.6-0.9 s and dp_census ~1.4-2.0 s at a
# ~280 MB peak, at 100003 ~1.8 s and ~8.6 s at ~1.3 GB (2-vCPU Xeon VM).
_CENSUS_PRIME_CAP = 5 * 10 ** 4


def _require_census_prime(p: int, least: int) -> None:
    require_prime(p, least)
    if p > _CENSUS_PRIME_CAP:
        raise TooLarge(f"prime {p} exceeds the census cap {_CENSUS_PRIME_CAP}")


def anomalous_residue_table(p: int, rows=None) -> list[tuple[int, ...]]:
    """The anomalous residue pairs mod p, row by row: entry i is the sorted
    tuple of the b in 0..p-1 for which (a, b) with a = rows[i] is
    nonsingular mod p and its point count is divisible by p. rows are
    residues mod p, distinct; by default every residue, entry a for row a.
    Used by the height-box sweeps, which ask only for the rows A mod p their
    box meets.

    The rows come from the point-count rows of p (_PointCountRows): a = 0,
    1 and g, at most three rows in all and fewer where the asked rows meet
    fewer of their orbits, each one big-integer product in pure Python: up
    to _ROW_PRIME_BOUND the cached rows a scan reuses, past it rows of this
    call's own, and past _CENSUS_PRIME_CAP TooLarge before any is built. A
    row a with count(a, b) = count(a0, b s) has the anomalous b of its
    representative a0 times s^-1; on a twisted coset the count is
    2p - count(a0, b s), so there the representative's b with
    count = 1 (mod p) are kept, not those with count = p - 1.
    """
    _require_census_prime(p, 3)
    counts = _point_count_rows(p) if p <= _ROW_PRIME_BOUND else _PointCountRows(p)
    anomalous = {}  # (row index, sign) -> the sorted anomalous b of its representative
    out = []
    for a in (range(p) if rows is None else rows):
        key = i, sign = counts.coset[a], counts.sign[a]
        if key not in anomalous:
            row, a3x4 = counts.row(i), 4 * counts.reps[i] ** 3
            # p | #E(F_p) = count + 1, on the nonsingular b; a twist's count
            # is 2p - n, so p | 2p - n + 1 there
            want = p - 1 if sign == 1 else 1
            anomalous[key] = tuple(b for b, n in enumerate(row)
                                   if n % p == want and (a3x4 + 27 * b * b) % p)
        s = counts.scale[a]
        bs = anomalous[key]
        if s != 1:
            inv = pow(s, -1, p)
            bs = tuple(sorted(b * inv % p for b in bs))
        out.append(bs)
    return out


def dp_census(p: int) -> dict:
    """All three census counts at p, with the literal pairs listed.

    The counts are census._census's, from class numbers; the pairs are the
    rows of anomalous_residue_table, a ascending, then b. The tests check
    both against the O(p^3) sweep over F_p^2 of dp_census_bruteforce in
    tests/oracles.py. Past _CENSUS_PRIME_CAP, TooLarge before the census.

    Returns {"p": p, "LiteralPairs": n1, "TraceOnePairs": n2,
    "TraceOneClasses": n3, "literal_pairs": [(a, b), ...]}.
    """
    from .census import _census

    _require_census_prime(p, 5)
    census = _census(p)
    pairs = [(a, b) for a, row in enumerate(anomalous_residue_table(p)) for b in row]
    # the rows and the class numbers count the same literal pairs
    assert len(pairs) == census["LiteralPairs"], f"census mismatch at p={p}"
    return {**census, "literal_pairs": pairs}

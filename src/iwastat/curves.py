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
N_p(a, b) - 1 = p + sum_x chi(x^3 + a x + b) of every b for a = 0 and for
one representative a0 of each coset of the fourth powers, each row one
cyclic correlation done as one big-integer product, and the orbit map that
sends (a, b) to (a0, b u^-6) by the isomorphism (a, b) ~ (u^4 a, u^6 b).
The rows are built once per prime and shared by every curve and by the
anomalous residue table.  Past the bound it finds a_p by point orders in
the Hasse interval, on the curve or its twist (Shanks-Mestre baby steps and
giant steps, _trace_by_point_orders), in O(p^(1/4)) group operations.

The anomalous residue table (anomalous_residue_table) reads the same
rows.  dp_census lists its pairs beside the census counts of d_of_p, which
come from Hurwitz class numbers, not from point counts (see the census
module docstring); the O(p^3) sweep over F_p^2 that the tests check both
against is the oracle dp_census_bruteforce in tests/oracles.py.  DpMode,
d_of_p and dp_table are census's own objects, re-exported here.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from math import gcd, isqrt

from .census import DpMode, d_of_p, dp_table
from .errors import BadReductionAt, InvalidPrime, NonMinimalModel, SingularCurve
from .primes import factorize, is_prime, iroot, legendre, primes_up_to

__all__ = [
    "CurveQ", "LocalReduction", "ReductionClass", "DpMode",
    "disc0_of", "count_points", "trace_frobenius", "frobenius_traces",
    "classify_reduction",
    "minimal_mask", "is_minimal_pair", "d_of_p", "dp_census", "dp_table",
    "anomalous_residue_table",
]


def disc0_of(A: int, B: int) -> int:
    return 4 * A**3 + 27 * B**2


def _p_part_certifiably_trivial(v_delta: int, p: int) -> bool:
    # p >= 5 divides c_l only for split I_n with p | n, and n on the minimal
    # model is v_l(Delta) - 12k for some k >= 0. If no such candidate is a
    # positive multiple of p, the p-part is 1 regardless of the fine local type.
    return all(n % p for n in range(v_delta, 0, -12))


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


# is_minimal_pair sieves for the q while their bound is at most this (~4 ms
# on a 2-vCPU Xeon VM, Python 3.11). Past it the sieve's time and memory grow
# with the bound without limit, so the q come from factorize(gcd(A, B)), whose
# cost depends on the factors of the gcd instead.
_SIEVE_LIMIT = 1 << 16


# is_minimal_pair trial-divides a pair with a zero coefficient while the
# bound of _free_of_powers is at most this: |A| below ~2^100 when B == 0 and
# |B| below ~2^140 when A == 0, ~50 ms at the bound (2-vCPU Xeon VM, Python
# 3.11). Past it such a pair factors like any other.
_ZERO_TRIAL_LIMIT = 1 << 20


def _free_of_powers(n: int, k: int) -> bool:
    """True unless some prime q has q^k | n, for n >= 1.

    Trial division by 2 and the odd d up to the (k+1)-th root of what is
    left of n takes out every small prime (a composite d never divides: its
    primes are out by then). What is left then has fewer than k + 1 prime
    factors, each above that root, so a q^k past the root divides it only
    as the whole of it, which an exact k-th root shows.
    """
    bound = iroot(n, k + 1)
    d = 2
    while d <= bound:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            if e >= k:
                return False
            bound = iroot(n, k + 1)
        d += 1 if d == 2 else 2
    r = iroot(n, k)
    return r == 1 or r**k != n


def is_minimal_pair(A: int, B: int) -> bool:
    """True unless some prime q has q^4 | A and q^6 | B.

    With B == 0 that is q^4 | A, and with A == 0 it is q^6 | B: such a pair
    is decided by trial division (_free_of_powers) while its bound is at
    most _ZERO_TRIAL_LIMIT. Otherwise such a q divides gcd(A, B) and has
    q^12 | gcd(A^3, B^2), so the q tried are the primes up to the twelfth
    root of that gcd while the root is at most _SIEVE_LIMIT, and the prime
    factors of gcd(A, B) past it (factorize raises TooLarge past its proven
    range).
    """
    if A == 0 and B == 0:
        return False
    if A == 0 or B == 0:
        n, k = (abs(A), 4) if B == 0 else (abs(B), 6)
        if iroot(n, k + 1) <= _ZERO_TRIAL_LIMIT:
            return _free_of_powers(n, k)
    bound = iroot(gcd(A**3, B**2), 12)
    if bound <= _SIEVE_LIMIT:
        return minimal_mask(A, B, primes_up_to(bound))
    return minimal_mask(A, B, factorize(gcd(A, B)))


@dataclass(frozen=True)
class CurveQ:
    """A reduced integral model y^2 = x^3 + A x + B.

    Construction rejects singular pairs (disc0 == 0) and non-reduced ones.
    height and disc0 are derived and fixed at construction.
    """

    A: int
    B: int
    height: int = 0
    disc0: int = 0

    def __post_init__(self):
        d = disc0_of(self.A, self.B)
        if d == 0:
            raise SingularCurve(f"4*{self.A}^3 + 27*{self.B}^2 = 0")
        if not is_minimal_pair(self.A, self.B):
            raise NonMinimalModel(f"({self.A}, {self.B}) admits a q^4/q^6 reduction")
        object.__setattr__(self, "height", max(abs(self.A) ** 3, self.B**2))
        object.__setattr__(self, "disc0", d)

    @property
    def c4(self) -> int:
        return -48 * self.A

    @property
    def c6(self) -> int:
        return -864 * self.B

    @property
    def discriminant(self) -> int:
        return -16 * self.disc0


class ReductionClass(str, Enum):
    GOOD_ORDINARY = "GoodOrdinary"
    GOOD_SUPERSINGULAR = "GoodSupersingular"
    BAD = "Bad"


@dataclass(frozen=True)
class LocalReduction:
    """Reduction data of a curve at one odd prime."""

    prime: int
    reduction_class: ReductionClass
    n_points: int | None  # None at bad primes
    a_p: int | None
    anomalous: bool

    @property
    def is_good(self) -> bool:
        return self.reduction_class is not ReductionClass.BAD


def _require_odd_prime(p: int) -> None:
    if p < 3 or not is_prime(p):
        raise InvalidPrime(f"{p} is not an odd prime")


# frobenius_traces reads a_p from the point-count rows of primes up to this
# bound and by point orders past it; both are exact, the bound moves only
# time. On a 2-vCPU Xeon VM (Python 3.11.7) all rows of one prime took 3.3 ms
# to build at 601 and 36 ms at 4001 (every prime's up to 600, ~0.1 s), then
# a curve's a_p is one lookup; point orders took ~50-75 us a curve. So the
# rows pay off for a scan of more than ~60 records at 601, ~480 at 4001.
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
    return [_point_count_rows(p).trace(A, B) if p <= _ROW_PRIME_BOUND
            else _trace_by_point_orders(A, B, p) for p in primes]


def count_points(A: int, B: int, p: int) -> int:
    """#E(F_p) including the point at infinity, for an odd prime of good
    reduction.  Raises BadReductionAt when p divides disc0."""
    _require_odd_prime(p)
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
    if isinstance(curve, tuple):
        curve = CurveQ(*curve)
    if not is_prime(p) or p < 3 or (p == 3 and not allow_p3):
        raise InvalidPrime(f"p={p} not admitted (allow_p3={allow_p3})")
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


def _character_poly(p: int) -> tuple[str, int]:
    """(fmt, G): G packs g[t] = 1 + chi(-t) for t in 0..2p-1, the table
    mod p written twice, one fmt slot per t. A slot of a product H * G with
    sum h = p holds at most 2p, so 16-bit slots suffice while 2p < 2^16 and
    32-bit ones above."""
    fmt = "H" if 2 * p < 1 << 16 else "I"
    square = bytearray(p)
    for x in range(1, p // 2 + 1):
        square[x * x % p] = 1
    g = [1] + [2 * square[-t % p] for t in range(1, p)]
    return fmt, _pack(g + g, fmt)


def _count_row(a: int, p: int, poly: tuple[str, int]) -> array:
    """row[b] = #{(x, y) in F_p^2 : y^2 = x^3 + a x + b} for b in 0..p-1,
    the affine point count; poly is _character_poly(p).

    With h[v] = #{x : x^3 + a x = v mod p}, the count at b is
    sum_v h[v] (1 + chi(v + b)), a cyclic correlation of h with
    g[t] = 1 + chi(-t). Written as one product H * G of packed ints
    (Kronecker substitution, see _character_poly), its slot p + (-b mod p)
    is the count at b.
    """
    fmt, G = poly
    h = [0] * p
    for x in range(p):
        h[(x * x * x + a * x) % p] += 1
    slots = _unpack(_pack(h, fmt) * G, fmt, 3 * p)
    row = slots[p:p + 1] + slots[2 * p - 1:p:-1]
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


class _PointCountRows:
    """The affine point count of every (a, b) mod p, read from at most five
    rows.

    (a, b) and (u^4 a, u^6 b) are isomorphic over F_p for u in F_p^*, so
    with g a primitive root and a = u^4 g^r (r < gcd(4, p - 1)) the count
    at (a, b) is the count at (g^r, b u^-6). The orbit map sends a to its
    row, coset[a] (0 for a = 0, 1 + r for the coset of g^r), and to
    scale[a] = u^-6 (1 at a = 0), so count(a, b) = row[b scale[a] mod p]
    of that row and a_p(a, b) = p - count(a, b). Each row is one
    _count_row, built on first use; the orbit map is built with the table.
    frobenius_traces and anomalous_residue_table both read these rows.
    """

    __slots__ = ("p", "reps", "coset", "scale", "rows", "_poly")

    def __init__(self, p: int):
        d = gcd(4, p - 1)
        g = _primitive_root(p)
        reps = tuple(enumerate((pow(g, r, p) for r in range(d)), 1))
        coset, scale = bytearray(p), array("I", [1]) * p
        # u = g^t, t < (p - 1)/d, makes u^4 run over the fourth powers once
        g4, g6 = pow(g, 4, p), pow(g, -6, p)
        u4 = s = 1
        for _ in range((p - 1) // d):
            for i, a0 in reps:
                a = u4 * a0 % p
                coset[a] = i
                scale[a] = s
            u4 = u4 * g4 % p
            s = s * g6 % p
        self.p, self.coset, self.scale = p, coset, scale
        self.reps = (0,) + tuple(a0 for _, a0 in reps)
        self.rows = [None] * (d + 1)
        self._poly = None

    def row(self, i: int) -> array:
        """The counts of row i, the row of a = reps[i]."""
        row = self.rows[i]
        if row is None:
            if self._poly is None:
                self._poly = _character_poly(self.p)
            row = self.rows[i] = _count_row(self.reps[i], self.p, self._poly)
        return row

    def trace(self, A: int, B: int) -> int:
        """a_p of y^2 = x^3 + A x + B; that of the singular cubic (0 or
        +-1) where p divides disc0."""
        p = self.p
        a = A % p
        row = self.rows[self.coset[a]] or self.row(self.coset[a])
        return p - row[B % p * self.scale[a] % p]


# room for every prime up to _ROW_PRIME_BOUND, so that a scan builds the
# rows of each prime once
@lru_cache(maxsize=128)
def _point_count_rows(p: int) -> _PointCountRows:
    return _PointCountRows(p)


def anomalous_residue_table(p: int, rows=None) -> list[tuple[int, ...]]:
    """The anomalous residue pairs mod p, row by row: entry i is the sorted
    tuple of the b in 0..p-1 for which (a, b) with a = rows[i] is
    nonsingular mod p and its point count is divisible by p. rows are
    residues mod p, distinct; by default every residue, entry a for row a.
    Used by the height-box sweeps, which ask only for the rows A mod p their
    box meets.

    The rows come from the point-count rows of p (_PointCountRows): a = 0
    and one representative of each coset of the fourth powers in F_p^* that
    the asked rows meet, at most five rows in all, each one big-integer
    product in pure Python. A row a with count(a, b) = count(a0, b s) has
    the anomalous b of its representative a0 times s^-1.
    """
    _require_odd_prime(p)
    counts = _point_count_rows(p)
    anomalous = {}  # row index -> the sorted anomalous b of its representative
    out = []
    for a in (range(p) if rows is None else rows):
        i = counts.coset[a]
        if i not in anomalous:
            row, a3x4 = counts.row(i), 4 * counts.reps[i] ** 3
            # p | #E(F_p) = count + 1, on the nonsingular b
            anomalous[i] = tuple(b for b, n in enumerate(row)
                                 if n % p == p - 1 and (a3x4 + 27 * b * b) % p)
        s = counts.scale[a]
        bs = anomalous[i]
        if s != 1:
            inv = pow(s, -1, p)
            bs = tuple(sorted(b * inv % p for b in bs))
        out.append(bs)
    return out


def dp_census(p: int) -> dict:
    """All three census counts at p, with the literal pairs listed.

    The counts are d_of_p's, from class numbers; the pairs are the rows of
    anomalous_residue_table, a ascending, then b. The O(p^3) sweep over
    F_p^2 they are checked against is the test oracle dp_census_bruteforce
    in tests/oracles.py.

    Returns {"p": p, "LiteralPairs": n1, "TraceOnePairs": n2,
    "TraceOneClasses": n3, "literal_pairs": [(a, b), ...]}.
    """
    counts = {mode.value: d_of_p(p, mode) for mode in DpMode}
    pairs = [(a, b) for a, row in enumerate(anomalous_residue_table(p)) for b in row]
    # the rows and the class numbers count the same literal pairs
    assert len(pairs) == counts[DpMode.LITERAL_PAIRS.value], f"census mismatch at p={p}"
    return {"p": p, **counts, "literal_pairs": pairs}

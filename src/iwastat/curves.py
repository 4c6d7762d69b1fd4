"""Short Weierstrass curves over Q and their reduction data at single primes.

A curve is an integral pair (A, B) for y^2 = x^3 + A x + B with
disc0 = 4A^3 + 27B^2 != 0, kept in reduced form: no prime q has q^4 | A
and q^6 | B simultaneously.  Invariant conventions used throughout:

    c4 = -48 A,   c6 = -864 B,   Delta = -16 disc0,
    height H = max(|A|^3, B^2).

Point counts mod p use the quadratic-character sum

    N_p = 1 + sum_x (1 + chi(x^3 + A x + B)) = p + 1 + sum_x chi(f(x)),

O(p) per curve and prime; the primes handled here are desk scale.
frobenius_traces alone decides how an a_p is counted, at every prime of a
scan and at the one prime (p = 3 included) of count_points, trace_frobenius
and classify_reduction.  Up to _ROW_PRIME_BOUND it reads each a_p from the
point-count rows of its prime (_PointCountRows): the affine counts of every
b for a = 0 and for one representative a0 of each coset of the fourth
powers, each row one cyclic correlation done as one big-integer product, and
the orbit map that sends (a, b) to (a0, b u^-6) by the isomorphism (a, b) ~
(u^4 a, u^6 b).  The rows are built once per prime and shared by every curve
and by the anomalous residue table.  Past the bound it evaluates the sum
with numpy: a run of several primes in one pass over a layout of the run
(the x ranges, x^3 mod p and the chi tables, concatenated, in blocks of at
most 2^16 x values) that is built once and reused for every curve, and a
prime that fills a block alone by a plain sum over its x.

The mod-p census of curves with a point of order p (d_of_p, dp_table) comes
from Hurwitz class numbers, not from point counts.  By Deuring's theorem in
the form of R. Schoof, "Nonsingular plane cubic curves over finite fields",
J. Combin. Theory A 46 (1987), for p >= 5 and |t| < 2 sqrt(p), p not dividing
t, the number of nonsingular (a, b) in F_p^2 with trace t is

    (p - 1)/2 * H(4p - t^2),

where H is the Hurwitz class number (reduced forms weighted 1/2, 1/3 for
the forms of a(x^2 + y^2), a(x^2 + xy + y^2), 1 otherwise), and the number
of F_p-isomorphism classes is the unweighted count of those forms.  This is
O(p) per prime.  dp_census assembles those counts with the pairs of the
anomalous residue table; the O(p^3) sweep over F_p^2 that the tests check
both against is the oracle dp_census_bruteforce in tests/oracles.py.

The anomalous residue table (anomalous_residue_table) reads the same
rows.  numpy is imported inside the functions that build arrays, not at
module level, so a command that needs no array (the census, the bounds, the
height sweep, a scan or a single count up to _ROW_PRIME_BOUND) never loads it.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from math import gcd

from .errors import (
    BadReductionAt,
    InvalidPrime,
    NonMinimalModel,
    OutOfRange,
    SingularCurve,
)
from .primes import factorize, is_prime, iroot, primes_up_to

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


def is_minimal_pair(A: int, B: int) -> bool:
    """True unless some prime q has q^4 | A and q^6 | B.

    Such a q divides gcd(A, B) and has q^12 | gcd(A^3, B^2), so the q tried
    are the primes up to the twelfth root of that gcd while the root is at
    most _SIEVE_LIMIT, and the prime factors of gcd(A, B) past it (factorize
    raises TooLarge past its proven range). A == 0 is divisible by every
    q^4, so it demands a sixth-power-free B; symmetrically B == 0 demands a
    fourth-power-free A. There gcd(A, B) is the other coefficient, which is
    always factored.
    """
    if A == 0 and B == 0:
        return False
    bound = iroot(gcd(A**3, B**2), 12)
    if A and B and bound <= _SIEVE_LIMIT:
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


@lru_cache(maxsize=512)
def _chi_table(p: int) -> np.ndarray:
    """chi[t] in {-1, 0, +1} for t in 0..p-1."""
    import numpy as np
    tab = np.full(p, -1, dtype=np.int8)
    x = np.arange(p, dtype=np.int64)
    tab[(x * x) % p] = 1
    tab[0] = 0
    return tab


def _require_odd_prime(p: int) -> None:
    if p < 3 or not is_prime(p):
        raise InvalidPrime(f"{p} is not an odd prime")


def _affine_count(a: int, b: int, p: int) -> int:
    import numpy as np
    chi = _chi_table(p)
    x = np.arange(p, dtype=np.int64)
    f = (x * x % p * x + a * x + b) % p
    return p + int(chi[f].sum(dtype=np.int64))


# frobenius_traces reads a_p from the point-count rows, in pure Python, when
# no prime of the list is above this bound, and runs the numpy pass when one
# is. The rows pay their build once per prime, the numpy pass pays
# `import numpy` once per process and is ~10x faster per element. In fresh
# interpreters on a 2-vCPU Xeon VM (Python 3.11.7, numpy 2.4.6), building
# the orbit map and every coset row of each prime up to 601 took a median
# 80-106 ms against 87-108 ms for `import numpy` (two sets of nine
# interleaved runs); up to 641 it took 119 ms against 108 ms.
_ROW_PRIME_BOUND = 600


# elements per block of the batched character sum: a long prime list is cut
# into blocks of at most this many x values (a larger prime is a block of its
# own, summed without a layout), so memory stays bounded whatever the prime
_BLOCK_ELEMENTS = 1 << 16


@lru_cache(maxsize=16)
def _sum_block(primes: tuple) -> tuple:
    """A run of several primes laid out for the character sum: (sizes,
    starts, x, x3, mod, base, chi). sizes holds the primes and starts the
    first element of each prime's segment; x, x3 = x^3 mod p, mod = p and
    base = the segment start have one entry per x in 0..p-1 of each prime in
    turn; chi is the primes' chi tables concatenated, so chi_p(t) =
    chi[base + t]."""
    import numpy as np
    # x^3 mod p + a x + b < p^2 fits int32 up to p = 46340, which halves the
    # memory traffic of the per-curve pass
    dtype = np.int32 if max(primes) ** 2 < 2**31 else np.int64
    sizes = np.array(primes, dtype=dtype)
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1])).astype(dtype)
    base = np.repeat(starts, sizes)
    mod = np.repeat(sizes, sizes)
    x = np.arange(len(mod), dtype=dtype) - base
    x3 = x * x % mod * x % mod
    chi = np.concatenate([_chi_table(p) for p in primes])
    return sizes, starts, x, x3, mod, base, chi


@lru_cache(maxsize=16)
def _sum_blocks(primes: tuple, budget: int) -> tuple:
    """primes cut into consecutive runs of at most budget elements each."""
    runs, run, size = [], [], 0
    for p in primes:
        if run and size + p > budget:
            runs.append(tuple(run))
            run, size = [], 0
        run.append(p)
        size += p
    if run:
        runs.append(tuple(run))
    return tuple(runs)


def frobenius_traces(A: int, B: int, primes: tuple) -> list[int]:
    """a_p = p + 1 - #E(F_p) of y^2 = x^3 + A x + B at every p in primes.

    primes is a tuple of distinct primes >= 5, as a sieve gives them, or the
    one odd prime of count_points; their primality is not tested.  A and B
    may be any integers: they are reduced mod each p as Python ints.  Where
    p divides disc0 the value is that of the singular cubic (0 or +-1).  Up
    to _ROW_PRIME_BOUND every a_p is read from the point-count rows of its
    prime; past it each block of primes is one numpy pass.
    """
    if max(primes, default=0) <= _ROW_PRIME_BOUND:
        return [_point_count_rows(p).trace(A, B) for p in primes]
    import numpy as np
    traces = []
    for run in _sum_blocks(primes, _BLOCK_ELEMENTS):
        if len(run) == 1:
            # a cached layout of one prime would cost ~33 bytes per x
            sizes = np.array(run)
            ap = sizes - _affine_count(A % run[0], B % run[0], run[0])
        else:
            sizes, starts, x, x3, mod, base, chi = _sum_block(run)
            f = np.array([A % p for p in run], dtype=x.dtype).repeat(sizes)
            f *= x
            f += x3
            f += np.array([B % p for p in run], dtype=x.dtype).repeat(sizes)
            np.remainder(f, mod, out=f)
            f += base
            ap = -np.add.reduceat(chi.take(f), starts, dtype=np.int64)
        # Hasse, and p >= 5 leaves a_p = 0 as the only multiple of p
        assert np.all(ap * ap <= 4 * sizes), f"Hasse bound violated in {run}"
        assert not np.any((ap % sizes == 0) & (ap != 0)), f"a_p = 0 mod p != 0 in {run}"
        traces.extend(ap.tolist())
    return traces


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


# ---------------------------------------------------------------------------
# census of anomalous residue pairs mod p

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
    which adds t = -4 at p = 5.  dp_census returns all three with the
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

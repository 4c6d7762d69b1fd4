"""Short Weierstrass curves over Q and their reduction data at single primes.

A curve is an integral pair (A, B) for y^2 = x^3 + A x + B with
disc0 = 4A^3 + 27B^2 != 0, kept in reduced form: no prime q has q^4 | A
and q^6 | B simultaneously.  Invariant conventions used throughout:

    c4 = -48 A,   c6 = -864 B,   Delta = -16 disc0,
    height H = max(|A|^3, B^2).

Point counts mod p use the quadratic-character sum

    N_p = 1 + sum_x (1 + chi(x^3 + A x + B)) = p + 1 + sum_x chi(f(x)),

one chi table per prime, O(p) per curve.  No Schoof-style point counting;
the primes handled here are desk scale.  count_points evaluates the sum for
one curve at one prime and stays the single-curve API and test oracle;
frobenius_traces evaluates it for one curve at every prime of a scan in one
numpy pass.  The pass runs over a layout of the prime list (the x ranges,
x^3 mod p and the chi tables, concatenated, in blocks of at most 2^16 x
values) that is built once per prime list and reused for every curve.

The mod-p census of curves with a point of order p (d_of_p, dp_table) comes
from Hurwitz class numbers, not from point counts.  By Deuring's theorem in
the form of R. Schoof, "Nonsingular plane cubic curves over finite fields",
J. Combin. Theory A 46 (1987), for p >= 5 and |t| < 2 sqrt(p), p not dividing
t, the number of nonsingular (a, b) in F_p^2 with trace t is

    (p - 1)/2 * H(4p - t^2),

where H is the Hurwitz class number (reduced forms weighted 1/2, 1/3 for
the forms of a(x^2 + y^2), a(x^2 + xy + y^2), 1 otherwise), and the number
of F_p-isomorphism classes is the unweighted count of those forms.  This is
O(p) per prime.  dp_census, the O(p^3) sweep over F_p^2, is kept as the
brute-force oracle the tests check the formula against.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import (
    BadReductionAt,
    InvalidPrime,
    NonMinimalModel,
    SingularCurve,
)
from .primes import is_prime, iroot, isqrt, legendre, primes_up_to, valuation

__all__ = [
    "CurveQ", "LocalReduction", "ReductionClass", "DpMode",
    "legendre", "count_points", "trace_frobenius", "frobenius_traces",
    "classify_reduction",
    "is_minimal_pair", "d_of_p", "dp_census", "dp_table",
    "anomalous_residue_table",
]


def disc0_of(A: int, B: int) -> int:
    return 4 * A**3 + 27 * B**2


def is_minimal_pair(A: int, B: int) -> bool:
    """True unless some prime q has q^4 | A and q^6 | B.

    A == 0 is divisible by every q^4, so it demands a sixth-power-free B;
    symmetrically B == 0 demands a fourth-power-free A.
    """
    if A == 0 and B == 0:
        return False
    if A == 0:
        return all(B % q**6 != 0 for q in primes_up_to(iroot(abs(B), 6)))
    if B == 0:
        return all(A % q**4 != 0 for q in primes_up_to(iroot(abs(A), 4)))
    for q in primes_up_to(iroot(abs(A), 4)):
        if A % q**4 == 0 and B % q**6 == 0:
            return False
    return True


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
    tab = np.full(p, -1, dtype=np.int8)
    x = np.arange(p, dtype=np.int64)
    tab[(x * x) % p] = 1
    tab[0] = 0
    return tab


def _require_odd_prime(p: int) -> None:
    if p < 3 or not is_prime(p):
        raise InvalidPrime(f"{p} is not an odd prime")


def _affine_count(a: int, b: int, p: int) -> int:
    if p < 64:
        chi = _chi_table(p)
        return p + int(sum(int(chi[(x * x * x + a * x + b) % p]) for x in range(p)))
    chi = _chi_table(p)
    x = np.arange(p, dtype=np.int64)
    f = (x * x % p * x + a * x + b) % p
    return p + int(chi[f].sum(dtype=np.int64))


def count_points(A: int, B: int, p: int) -> int:
    """#E(F_p) including the point at infinity, for an odd prime of good
    reduction.  Raises BadReductionAt when p divides disc0."""
    _require_odd_prime(p)
    a, b = A % p, B % p
    if (4 * a * a * a + 27 * b * b) % p == 0:
        raise BadReductionAt(f"p={p} divides disc0")
    n = _affine_count(a, b, p) + 1
    t = p + 1 - n
    assert t * t <= 4 * p, f"Hasse bound violated: a_p={t} at p={p}"
    return n


def trace_frobenius(A: int, B: int, p: int) -> int:
    return p + 1 - count_points(A, B, p)


# elements per block of the batched character sum: a long prime list is cut
# into blocks of at most this many x values (a larger prime gets a block of
# its own), so memory stays bounded whatever the largest prime
_BLOCK_ELEMENTS = 1 << 16


@lru_cache(maxsize=16)
def _sum_block(primes: tuple) -> tuple:
    """A run of primes laid out for the character sum: (sizes, starts, x,
    x3, mod, base, chi). sizes holds the primes and starts the first element
    of each prime's segment; x, x3 = x^3 mod p, mod = p and base = the
    segment start have one entry per x in 0..p-1 of each prime in turn; chi
    is the primes' chi tables concatenated, so chi_p(t) = chi[base + t]."""
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

    primes is a tuple of distinct primes >= 5, as a sieve gives them; their
    primality is not tested.  A and B may be any integers: they are reduced
    mod each p as Python ints.  Where p divides disc0 the value is that of
    the singular cubic (0 or +-1).  One numpy pass per block of primes
    replaces a count_points call per prime.
    """
    traces = []
    for run in _sum_blocks(primes, _BLOCK_ELEMENTS):
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


def _is_anomalous(n_points: int, p: int) -> bool:
    return n_points % p == 0


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
    if a_p % p == 0:
        # p >= 5 forces a_p = 0 here by Hasse, |a_p| <= 2 sqrt p < p
        cls = ReductionClass.GOOD_SUPERSINGULAR
        if p >= 5:
            assert a_p == 0
    else:
        cls = ReductionClass.GOOD_ORDINARY
    return LocalReduction(p, cls, n, a_p, _is_anomalous(n, p))


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
    which adds t = -4 at p = 5.  dp_census computes all three by brute force
    and serves as the oracle.
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
        raise ValueError(f"unknown census mode {mode!r}") from None


def _affine_counts_row(a: int, p: int, xs, ys2) -> np.ndarray:
    """Affine point counts for all b at fixed a, via the histogram of
    b = y^2 - x^3 - a x over (x, y) in F_p^2."""
    fx = (xs * xs % p * xs + a * xs) % p
    b_of = (ys2[:, None] - fx[None, :]) % p
    return np.bincount(b_of.ravel(), minlength=p)


def dp_census(p: int) -> dict:
    """All three census counts at p in one O(p^3) sweep over F_p^2.

    The brute-force oracle for d_of_p and dp_table; no shipped path calls it.

    Returns {"p": p, "LiteralPairs": n1, "TraceOnePairs": n2,
    "TraceOneClasses": n3, "literal_pairs": [(a, b), ...]}.
    """
    _require_census_prime(p)
    xs = np.arange(p, dtype=np.int64)
    ys2 = (xs * xs) % p
    bs = np.arange(p, dtype=np.int64)
    literal = 0
    trace_one: list[tuple[int, int]] = []
    literal_pairs: list[tuple[int, int]] = []
    for a in range(p):
        n_row = _affine_counts_row(a, p, xs, ys2) + 1
        nonsing = (4 * a**3 + 27 * bs * bs) % p != 0
        lit_mask = (n_row % p == 0) & nonsing
        literal += int(lit_mask.sum())
        for b in np.flatnonzero(lit_mask):
            literal_pairs.append((a, int(b)))
        for b in np.flatnonzero((n_row == p) & nonsing):
            trace_one.append((a, int(b)))
    # orbit count under (a, b) -> (u^4 a, u^6 b)
    seen: set[tuple[int, int]] = set()
    classes = 0
    for (a, b) in trace_one:
        if (a, b) in seen:
            continue
        classes += 1
        for u in range(1, p):
            seen.add((pow(u, 4, p) * a % p, pow(u, 6, p) * b % p))
    assert literal >= len(trace_one) >= classes
    return {
        "p": p,
        DpMode.LITERAL_PAIRS.value: literal,
        DpMode.TRACE_ONE_PAIRS.value: len(trace_one),
        DpMode.TRACE_ONE_CLASSES.value: classes,
        "literal_pairs": literal_pairs,
    }


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


def anomalous_residue_table(p: int) -> np.ndarray:
    """p x p boolean table: entry [a, b] is True when (a, b) mod p is
    nonsingular and its point count is divisible by p.  Used by the
    height-box sweeps to test anomalicity by residue lookup.

    The point count is constant on the isomorphism orbits
    {(u^4 a, u^6 b) : u in F_p^*}, so one representative per orbit is
    counted and its verdict written to the whole orbit: about 2p point
    counts of O(p) each instead of p full O(p^2) rows.
    """
    _require_odd_prime(p)
    u = np.arange(1, p, dtype=np.int64)
    u2 = u * u % p
    u4 = u2 * u2 % p
    u6 = u4 * u2 % p
    seen = np.zeros((p, p), dtype=bool)
    tab = np.zeros((p, p), dtype=bool)
    for a in range(p):
        for b in np.flatnonzero(~seen[a]).tolist():
            if seen[a, b]:
                continue  # reached from an earlier pair of this row
            orbit = (u4 * a % p, u6 * b % p)
            seen[orbit] = True
            if (4 * a**3 + 27 * b * b) % p != 0 and (_affine_count(a, b, p) + 1) % p == 0:
                tab[orbit] = True
    return tab

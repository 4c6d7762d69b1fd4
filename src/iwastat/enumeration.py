"""Height-ordered curve enumeration and the counting/bound machinery.

The height-X box is |A| <= floor(X^(1/3)), |B| <= floor(X^(1/2)); a pair
belongs to the curve family when disc0 = 4A^3 + 27B^2 is nonzero and no
prime q has q^4 | A and q^6 | B. The sweep counts each row A by residue
classes of B and never walks the B of a row:

- the family is a Moebius sum over the squarefree d built from the q with
  q^4 | A of the multiples of d^6, less the singular points A = -3k^2,
  B = +-2k^3;
- good_at_p leaves out the 0-2 classes of B mod p with p | disc0, and e3
  adds up the anomalous classes of the row A mod p;
- the strict skips come from the classes of B mod 2^k and 3^k with
  l^k | disc0, the square roots of -4A^3/27 in Z_l, level by level until a
  class holds at most one B, whose valuation is then taken exactly;
- the e2 and I_p loci at a prime l >= 5 are the 0 or 2 classes of the
  Hensel-lifted square roots of -4A^3/27 mod l^p, and their few hits are
  tested one by one.

A row costs O(classes + hits) in time and memory. A worker count > 1
partitions the A-range and merges pure counts.

zeta10, bound_dp2 and bound_dp3, the closed-form bounds the report
carries, are defined in census and re-exported here as the same objects;
sadek_bounds, the congruence sandwich of the I_p count, stays beside the
sweep it brackets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from .census import DpMode, _require_census_prime, bound_dp2, bound_dp3, d_of_p, zeta10
from .curves import _p_part_certifiably_trivial, anomalous_residue_table, minimal_mask
from .errors import EqualPrimes, InvalidPrime, OutOfRange, TooLarge
from .parallel import capped_workers, default_workers, fan_out
from .primes import icbrt, iroot, is_prime, isqrt, legendre, primes_up_to, sqrt_mod, valuation

__all__ = [
    "DensityReport",
    "box_bounds",
    "total_weq",
    "zeta10",
    "brumer_estimate",
    "count_Ip",
    "sadek_bounds",
    "lifting_count",
    "bound_dp2",
    "bound_dp3",
    "empirical_densities",
]

# The class counts are exact in Python ints at any height; the cap bounds the
# run time. The e2 and I_p hits are tested one by one and grow like X^(5/6):
# the whole box at p = 5 holds ~2.7e5 of them at X = 10^10 and ~1e7 at 10^12
# (20-30 s on one core), so 10^15 would take hours.
_X_CAP = 10 ** 15

# A worker pool costs tens of ms to start, so the sweep fans out only when
# its serial work, estimated from the box and the mode, passes the pool's
# break-even. The estimate per row, timed in-process on a 2-vCPU Xeon VM
# (Python 3.11): ~8 us for the row's classes, ~3 us for each e2 or I_p
# locus prime l and ~50 us for the strict ladders, plus ~1.3 us for each
# locus hit tested one by one (about (2 bmax + 1) / l^p a row). There,
# serial against two workers at 23 points in six modes (`enumerate
# --prime 5` and 7, each with and without --strict, `--prime 13 --strict`
# and `ip-count --l 7 --p 5`), ordered by the estimate, the pool lost or
# tied below ~150 ms and won from there on but for two near-ties at ~160
# and ~180 ms (runs in BENCH_13.json).
_ROW_US, _LOCUS_US, _STRICT_US, _HIT_US = 8, 3, 50, 1.3
_MIN_PARALLEL_US = 150_000


def box_bounds(X: int) -> Tuple[int, int]:
    if X < 1:
        raise OutOfRange(f"height {X} is below 1")
    if X > _X_CAP:
        raise TooLarge(f"height {X} exceeds the cap {_X_CAP}")
    return icbrt(X), isqrt(X)


def total_weq(X: int) -> int:
    """Number of all integer pairs in the height-X box, no constraints."""
    amax, bmax = box_bounds(X)
    return (2 * amax + 1) * (2 * bmax + 1)


def brumer_estimate(X: int) -> float:
    """Leading-term estimate 4 X^(5/6) / zeta(10) for the family count."""
    return 4.0 * X ** (5.0 / 6.0) / zeta10()


# ---------------------------------------------------------------------------
# the family


def _minimality_primes(amax: int, bmax: int) -> List[int]:
    """Every prime q that can make a nonsingular pair of the box non-minimal:
    q^4 <= amax (A != 0) or q^6 <= bmax (A = 0)."""
    return primes_up_to(max(iroot(amax, 4), iroot(bmax, 6)))


# ---------------------------------------------------------------------------
# I_p loci and the congruence bounds


def _ip_candidates(p: int, maxdisc: int) -> List[int]:
    lim = int(maxdisc ** (1.0 / p)) + 2
    return [l for l in primes_up_to(lim) if l ** p <= maxdisc]


def count_Ip(l: int, p: int, X: int, workers: Optional[int] = None) -> int:
    """Exact count of family members with l coprime to A and B and
    v_l(disc0) = p exactly, for a prime l.  For l >= 5 this is the locus
    forcing fiber type I_p at l; at l in {2, 3} it is empty. p must be a
    prime >= 5."""
    _require_census_prime(p)
    if l == p:
        raise EqualPrimes("the locus is defined for l != p")
    counts = _sweep(X, p, ip_primes=[l], want_e2=False, want_e3=False, workers=workers)
    return counts.ip_counts[l]


def _primorial_cutoff(X: int):
    # greedy maximal primorial L_k = 2*3*...*l_k with L_k <= X^(1/12)
    if X < 4096:
        raise OutOfRange(f"height {X} is below 2^12, so not even L_1 = 2 fits")
    Lk, lk, used = 1, None, []
    for q in primes_up_to(64):
        if (Lk * q) ** 12 <= X:
            Lk *= q
            lk = q
            used.append(q)
        else:
            break
    return Lk, lk, used


def lifting_count(l: int, p: int) -> int:
    """Number of residue pairs (A, B) mod l^(p+1), both prime to l, with
    v_l(disc0) = p exactly.

    l^p (l-1)^2 for primes l >= 5. At l = 2, 3 the unit locus is empty at
    every exponent (B odd gives disc0 = 1 mod 2; 3 prime to A gives
    disc0 = A != 0 mod 3), so the count is 0 there, not the closed form.
    The brute-force count in tests/oracles.py is its oracle.
    """
    if l in (2, 3):
        return 0
    return l ** p * (l - 1) ** 2


def sadek_bounds(l: int, p: int, X: int) -> Tuple[float, float]:
    """Congruence-lattice sandwich for the I_p locus count at l.

    Evaluates the main term, lifting_count(l, p) residue classes scaled to
    the box, with both floor corrections; the lower bound may be negative
    and is returned as-is. At l = 2, 3 both bounds are 0. p must be a
    prime >= 5.
    """
    _require_census_prime(p)
    if l == p:
        raise EqualPrimes("the locus is defined for l != p")
    x3, x2 = box_bounds(X)
    Lk, lk, used = _primorial_cutoff(X)
    prod = 1
    for q in used:
        prod *= q ** 10 - 1
    C = 4 * lifting_count(l, p) * prod
    main = C * (x3 // (l ** (p + 1) * Lk ** 4)) * (x2 // (l ** (p + 1) * Lk ** 6))
    lower = main - C * X ** (5 / 6) / (9 * l ** (2 * p + 2) * Lk ** 10 * lk ** 9)
    upper = main + C * (
        X ** (1 / 3) / (3 * l ** (p + 1) * Lk ** 4 * lk ** 3)
        + X ** (1 / 2) / (5 * l ** (p + 1) * Lk ** 6 * lk ** 5)
    )
    return lower, upper


def _axis_class_count(M: int, a: int, p: int) -> int:
    # integers in [-M, M] congruent to a mod p
    a %= p
    return (M - a) // p + (M + a) // p + 1


# ---------------------------------------------------------------------------
# the sweep: each row counted by residue classes


@dataclass
class _SweepCounts:
    total: int = 0
    good_at_p: int = 0
    e2: int = 0
    e3: int = 0
    skipped: int = 0
    ip_counts: Dict[int, int] = field(default_factory=dict)

    def merge(self, other: "_SweepCounts") -> None:
        self.total += other.total
        self.good_at_p += other.good_at_p
        self.e2 += other.e2
        self.e3 += other.e3
        self.skipped += other.skipped
        for l, n in other.ip_counts.items():
            self.ip_counts[l] = self.ip_counts.get(l, 0) + n


def _strict_skip_table(l: int, p: int) -> Tuple[int, List[bool]]:
    """Strict-mode verdicts at l in {2, 3}, indexed by v = v_l(disc0).

    table[v] is True when the p-part of c_l cannot be certified trivial
    from v alone; the model Delta adds v_2(16) = 4 at l = 2. Every
    residue mod 12 has a multiple of p in [p, 12p], so every v >= 12p is
    uncertifiable and capping v at 12p is exact. Also returns minv, the
    least v >= 1 with a True verdict, where the strict walk starts;
    v_2(disc0) = 1 cannot occur (disc0 is odd when B is odd, 4 | disc0 when
    B is even), so at l = 2 the search starts at 2.
    """
    shift = 4 if l == 2 else 0
    table = [not _p_part_certifiably_trivial(v + shift, p) for v in range(12 * p + 1)]
    return table.index(True, 2 if l == 2 else 1), table


def _divisor_weights(qs: List[int]) -> List[Tuple[int, int]]:
    """(mu(d), d^6) for every squarefree d whose primes all lie in qs."""
    out = [(1, 1)]
    for q in qs:
        out += [(-mu, d6 * q ** 6) for mu, d6 in out]
    return out


def _crt(r1: int, m1: int, r2: int, m2: int) -> Optional[Tuple[int, int]]:
    """The class of the B with B = r1 mod m1 and B = r2 mod m2, as
    (residue, lcm(m1, m2)); None when the two classes do not meet."""
    g = math.gcd(m1, m2)
    if (r2 - r1) % g:
        return None
    m = m2 // g
    return r1 + m1 * ((r2 - r1) // g * pow(m1 // g, -1, m) % m), m1 * m


class _Row:
    """Counts over one row A of the box by residue classes.

    count(r, m) is the number of B in [-bmax, bmax] with B = r mod m for
    which (A, B) is in the family: a Moebius sum over the squarefree d built
    from the primes q with q^4 | A of the multiples of d^6 in the class (B = 0
    is a multiple of every d^6, so no d is dropped), less the singular points
    A = -3k^2, B = +-2k^3 that pass the minimality test.
    """

    def __init__(self, A: int, bmax: int, qs: List[int]):
        self.A, self.bmax = A, bmax
        self.qs = [q for q in qs if A % q ** 4 == 0]
        self.weights = _divisor_weights(self.qs)
        self.a3x4 = 4 * A ** 3
        self.singular = []
        k = isqrt(max(-A, 0) // 3)
        if 3 * k * k == -A:
            self.singular = [b for b in {2 * k ** 3, -2 * k ** 3}
                             if abs(b) <= bmax and minimal_mask(A, b, self.qs)]

    def count(self, r: int, m: int) -> int:
        n = _axis_class_count(self.bmax, r, m)
        for mu, d6 in self.weights[1:]:
            c = _crt(r, m, 0, d6)
            if c is not None:
                n += mu * _axis_class_count(self.bmax, *c)
        if self.singular:
            n -= sum(1 for b in self.singular if (b - r) % m == 0)
        return n

    def disc0(self, b: int) -> Optional[int]:
        """4A^3 + 27b^2 when (A, b) is in the family, else None."""
        d = self.a3x4 + 27 * b * b
        if d == 0 or self.qs and not minimal_mask(self.A, b, self.qs):
            return None
        return d


@lru_cache(maxsize=1024)
def _root_table(l: int) -> Tuple[Optional[int], ...]:
    """For each a mod a prime l >= 5, a square root of -4a^3/27 mod l, or
    None where it is a non-residue: one sqrt_mod per residue, not per row."""
    inv27 = pow(27, -1, l)
    return tuple(sqrt_mod(-4 * a ** 3 * inv27, l) for a in range(l))


def _hensel_sqrt(c: int, r: int, l: int, M: int) -> int:
    """The root of B^2 = c mod M = l^k lifted from the root r mod l, for an
    odd prime l and a unit c. Each Newton step doubles the precision of r
    and of y = 1 / (2r), so no step inverts anything."""
    m, y = l, pow(2 * r, -1, l)
    while m < M:
        m = min(m * m, M)
        r = (r - (r * r - c) * y) % m
        y = y * (2 - 2 * r * y) % m
    return r


@lru_cache(maxsize=1024)
def _locus_modulus(l: int, p: int) -> Tuple[int, int]:
    """l^p and -4/27 mod l^p."""
    M = l ** p
    return M, -4 * pow(27, -1, M) % M


def _power_locus(A: int, l: int, p: int, bmax: int) -> List[int]:
    """Every B in [-bmax, bmax] with l^p | 4A^3 + 27B^2, for a prime
    l >= 5 that does not divide A.

    The condition is B^2 = c mod l^p with c = -4A^3 / 27 a unit. c has 0
    or 2 square roots mod l, and each lifts to exactly one root mod l^p
    (Hensel: the derivative 2B is a unit), so the B fill 0 or 2 residue
    classes. The moduli stay Python ints, so no l^p overflows.
    """
    r = _root_table(l)[A % l]
    if r is None:
        return []
    M, k = _locus_modulus(l, p)
    r = _hensel_sqrt(k * A ** 3 % M, r, l, M)
    hits = []
    for s in (r, M - r):
        hits.extend(range(-bmax + (s + bmax) % M, bmax + 1, M))
    return hits


class _StrictLadder:
    """The strict-mode skip at one l in {2, 3}: B is skipped when
    v = v_l(disc0) >= minv and table[min(v, cap)] (see _strict_skip_table).

    For a row A the B with l^k | disc0 are the B with B^2 = C mod l^n:
    C = -4A^3/27 and n = k at l = 2; at l = 3, C = -4(A/3)^3 and n = k - 3
    when 3 | A (k <= 3 then admits every B), and no B at all when 3 does not
    divide A. Write C = l^v u with u a unit and m = n - v. While m <= 0 the
    solutions are the one class B = 0 mod l^ceil(n/2). Past that there are
    none when v is odd; else B = l^(v/2) B' with B'^2 = u mod l^m:
    - at l = 3, B' = +-rho mod 3^m for the square roots rho of u in Z_3,
      or no B' when u = 2 mod 3;
    - at l = 2, every odd B' when m = 1, or m = 2 and u = 1 mod 4;
      B' = +-rho mod 2^(m-1) when m >= 3 and u = 1 mod 8; else none.
    """

    def __init__(self, l: int, p: int, maxdisc: int, bmax: int):
        minv, table = _strict_skip_table(l, p)
        self.l, self.minv, self.table = l, minv, table
        self.cap = len(self.table) - 1
        self.vmax = 0  # no nonzero |disc0| <= maxdisc has l^(vmax + 1) | disc0
        while l ** (self.vmax + 1) <= maxdisc:
            self.vmax += 1
        self.bmax = bmax
        self.prec = (2 * bmax).bit_length() + 3  # digits of rho the walk reads

    def skips(self, v: int) -> bool:
        return v >= self.minv and self.table[min(v, self.cap)]

    def _square_roots(self, A: int):
        """(n offset, v, u, rho) for row A, or None when no k >= 4 is met at
        l = 3; v is None for C = 0 and rho is None when u is no square."""
        l = self.l
        if l == 3:
            if A % 3:
                return None
            C, off = -4 * (A // 3) ** 3, 3
        else:
            C, off = -4 * A ** 3, 0  # 27 is a 2-adic unit: fold it into u
        if C == 0:
            return off, None, 0, None
        v = valuation(C, l)
        M = l ** self.prec
        u = C // l ** v * (pow(27, -1, M) if l == 2 else 1) % M
        rho = None
        if l == 2 and u % 8 == 1:
            rho = 1
            for j in range(3, self.prec):  # rho^2 = u mod 2^j -> mod 2^(j+1)
                if (rho * rho - u) >> j & 1:
                    rho += 1 << (j - 1)
        elif l == 3 and u % 3 == 1:
            rho = _hensel_sqrt(u, 1, 3, M)
        return off, v, u, rho

    def _classes(self, roots, k: int) -> List[Tuple[int, int]]:
        """The classes (r, m) of the B with l^k | disc0 in the row."""
        l = self.l
        if roots is None:
            return []
        off, v, u, rho = roots
        n = k - off
        if n <= 0:
            return [(0, 1)]
        if v is None or n <= v:
            return [(0, l ** -(-n // 2))]
        if v % 2:
            return []
        h, m = v // 2, n - v
        if l == 2 and m <= 2:
            return [(1 << h, 2 << h)] if m == 1 or u % 4 == 1 else []
        if rho is None:
            return []
        M = l ** (n - h - (l == 2))
        return [(l ** h * rho % M, M), (-(l ** h) * rho % M, M)]

    def row(self, A: int, row: _Row):
        """The row's skipped set as shallow classes and listed points.

        Walks k = minv, minv + 1, ... until no class is left, k passes vmax,
        or every class is wider than the box (at most one B each): that k is
        kend. Returns (terms, kend, listed): sum c * count(r, m) over the
        terms (c, r, m) counts the family B with minv <= v < kend and
        skips(v), and listed holds the family B with v >= kend.
        """
        roots = self._square_roots(A)
        terms, prev, k = [], False, self.minv
        while True:
            classes = self._classes(roots, k) if k <= self.vmax else []
            stop = not classes or all(m > 2 * self.bmax for _, m in classes)
            cur = not stop and self.skips(k)
            if cur != prev:
                terms += [(cur - prev, r, m) for r, m in classes]
            if stop:
                break
            prev, k = cur, k + 1
        listed = []
        for r, m in classes:
            b = -self.bmax + (r + self.bmax) % m
            if b <= self.bmax and row.disc0(b) is not None:
                listed.append(b)
        return terms, k, listed


def _skipped_in_row(A: int, row: _Row, ladders: List[_StrictLadder]) -> int:
    """Family B of the row that strict mode skips at l = 2 or 3.

    |U2 u U3| = |U2| + |U3| - |U2 n U3| over the shallow classes (the 2- and
    3-classes meet by CRT), then each listed point's shallow verdict is
    swapped for the one read off its exact valuations.
    """
    walks = [ladder.row(A, row) for ladder in ladders]
    (terms2, _, _), (terms3, _, _) = walks
    n = sum(c * row.count(r, m) for c, r, m in terms2 + terms3)
    for c2, r2, m2 in terms2:
        for c3, r3, m3 in terms3:
            n -= c2 * c3 * row.count(*_crt(r2, m2, r3, m3))
    for b in {b for _, _, listed in walks for b in listed}:
        d = row.disc0(b)
        vs = [valuation(d, ladder.l) for ladder in ladders]
        shallow = any(v < kend and ladder.skips(v)
                      for ladder, (_, kend, _), v in zip(ladders, walks, vs))
        n += any(ladder.skips(v) for ladder, v in zip(ladders, vs)) - shallow
    return n


def _locus_primes(p, maxdisc, ip_primes, want_e2):
    """The primes whose l^p-locus the sweep solves: (e2 primes, I_p primes).

    Primes with l^p beyond the largest possible |disc0| can never hit the
    locus; at l = 2, 3 the unit locus is empty (B odd makes disc0 odd,
    3 prime to A makes disc0 = A mod 3), so only l >= 5 is solved.
    """
    e2_set = {l for l in _ip_candidates(p, maxdisc) if l >= 5} if want_e2 else set()
    ip_set = {l for l in ip_primes or [] if l >= 5 and l ** p <= maxdisc}
    return e2_set, ip_set


def _sweep_chunk(X, p, a_lo, a_hi, ip_primes, want_e2, want_e3, strict) -> _SweepCounts:
    """The family counts over the rows a_lo <= A < a_hi of the height-X box.

    Each row is counted by residue classes (see _Row), never B by B:
    total and good_at_p from the 0-2 classes of B mod p with p | disc0, e3
    from the anomalous classes of the row A mod p, the strict skips from the
    classes of B mod 2^k and 3^k (_StrictLadder), and the e2 and I_p loci
    from the Hensel-lifted classes of _power_locus, whose few hits are
    tested one by one.
    """
    amax, bmax = box_bounds(X)
    qs = _minimality_primes(amax, bmax)
    maxdisc = 4 * amax ** 3 + 27 * bmax ** 2
    e2_set, ip_set = _locus_primes(p, maxdisc, ip_primes, want_e2)
    locus_primes = sorted(e2_set | ip_set)
    anom = {}
    if want_e3:
        residues = sorted({A % p for A in range(a_lo, min(a_hi, a_lo + p))})
        anom = dict(zip(residues, anomalous_residue_table(p, residues)))
    ladders = [_StrictLadder(l, p, maxdisc, bmax) for l in (2, 3)] if strict else []
    p_roots = _root_table(p)

    out = _SweepCounts(ip_counts={l: 0 for l in sorted(ip_primes or [])})
    for A in range(a_lo, a_hi):
        row = _Row(A, bmax, qs)
        n_ok = row.count(0, 1)
        if n_ok == 0:
            continue
        out.total += n_ok
        a = A % p
        r = p_roots[a] if a else 0
        bad = [] if r is None else {r, -r % p}  # the B mod p with p | disc0
        out.good_at_p += n_ok - sum(row.count(b, p) for b in bad)
        if want_e3:
            out.e3 += sum(row.count(b, p) for b in anom[a])
        if strict:
            out.skipped += _skipped_in_row(A, row, ladders)

        e2_hits = set()
        for l in locus_primes:
            if A % l == 0:
                continue  # outside the I_p locus; l | disc0 is additive, c_l <= 4 < p
            for b in _power_locus(A, l, p, bmax):
                d = row.disc0(b)
                if d is None:
                    continue
                v = valuation(d, l)
                if v == p and l in ip_set:
                    out.ip_counts[l] += 1
                if (v % p == 0 and l in e2_set and legendre(864 * b, l) == 1
                        and not any(ladder.skips(valuation(d, ladder.l)) for ladder in ladders)):
                    e2_hits.add(b)
        out.e2 += len(e2_hits)
    return out


def _serial_cost_us(amax, bmax, p, locus, strict) -> float:
    """The sweep's estimated serial run time in us (see _MIN_PARALLEL_US)."""
    rows = 2 * amax + 1
    hits = rows * sum((2 * bmax + 1) / l ** p for l in locus)
    return rows * (_ROW_US + _LOCUS_US * len(locus) + _STRICT_US * strict) + _HIT_US * hits


def _sweep(X, p, ip_primes=None, want_e2=True, want_e3=True, strict=False,
           workers=None) -> _SweepCounts:
    amax, bmax = box_bounds(X)
    for l in ip_primes or []:
        if not is_prime(l):
            raise InvalidPrime(f"the I_p locus needs a prime l, got {l}")
    # one job per worker that can run at once
    workers = capped_workers(default_workers() if workers is None else workers)
    e2_set, ip_set = _locus_primes(p, 4 * amax ** 3 + 27 * bmax ** 2, ip_primes, want_e2)
    if workers <= 1 or _serial_cost_us(amax, bmax, p, e2_set | ip_set, strict) < _MIN_PARALLEL_US:
        return _sweep_chunk(X, p, -amax, amax + 1, ip_primes, want_e2, want_e3, strict)
    edges = [-amax + i * (2 * amax + 1) // workers for i in range(workers + 1)]
    jobs = [
        (X, p, edges[i], edges[i + 1], ip_primes, want_e2, want_e3, strict)
        for i in range(workers)
    ]
    merged = _SweepCounts(ip_counts={l: 0 for l in (ip_primes or [])})
    for part in fan_out(_sweep_chunk, jobs, workers):
        merged.merge(part)
    return merged


@dataclass(frozen=True)
class DensityReport:
    p: int
    X: int
    total: int
    total_weq: int
    good_at_p: int
    e2: int
    e3: int
    ip_counts: Dict[int, int]
    brumer_estimate: float
    bound_dp2: float
    bound_dp3: float
    d_literal: int
    skipped_uncertified: Optional[int] = None  # strict mode only


def empirical_densities(p: int, X: int, ip_primes: Optional[List[int]] = None,
                        strict: bool = False, workers: Optional[int] = None) -> DensityReport:
    """One sweep of the height-X box filling every report field.

    By default the Tamagawa-divisibility locus e2 is computed from the
    multiplicative classification at primes l >= 5 (additive types cannot
    contribute for p >= 5); strict mode additionally drops curves whose
    2,3-part cannot be certified trivial and reports how many were dropped.
    e3 counts good-at-p anomalous curves only: the defect is undefined at
    bad primes, and both denominators (total, good_at_p) are in the report.
    """
    _require_census_prime(p)
    amax, bmax = box_bounds(X)
    if ip_primes is None:
        maxdisc = 4 * amax ** 3 + 27 * bmax ** 2
        ip_primes = [l for l in _ip_candidates(p, maxdisc) if l >= 5 and l != p]
    counts = _sweep(X, p, ip_primes=ip_primes, strict=strict, workers=workers)
    d_lit = d_of_p(p, DpMode.LITERAL_PAIRS)
    return DensityReport(
        p=p,
        X=X,
        total=counts.total,
        total_weq=total_weq(X),
        good_at_p=counts.good_at_p,
        e2=counts.e2,
        e3=counts.e3,
        ip_counts=dict(sorted(counts.ip_counts.items())),
        brumer_estimate=brumer_estimate(X),
        bound_dp2=bound_dp2(p),
        bound_dp3=bound_dp3(p, d_lit),
        d_literal=d_lit,
        skipped_uncertified=counts.skipped if strict else None,
    )

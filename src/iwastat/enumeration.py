"""Height-ordered curve enumeration and the counting/bound machinery.

The height-X box is |A| <= floor(X^(1/3)), |B| <= floor(X^(1/2)); a pair
belongs to the curve family when disc0 = 4A^3 + 27B^2 is nonzero and no
prime q has q^4 | A and q^6 | B. Sweeps are vectorized one A-row at a time.
The e2 and I_p loci are not scanned row by row: for each row A and prime
l >= 5 the B with l^p | disc0 are the 0 or 2 residue classes of the
Hensel-lifted square roots of -4A^3/27 mod l^p, so those stages cost
O(hits). A full X = 10^8 report takes well under a second on one core; a
worker count > 1 partitions the A-range and merges pure counts. numpy is
imported by the functions that build arrays, so the closed-form bounds
(bound_dp2, bound_dp3, sadek_bounds) run without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from .curves import (
    DpMode,
    _require_census_prime,
    anomalous_residue_table,
    d_of_p,
    is_minimal_pair,
    minimal_mask,
)
from .errors import EqualPrimes, InvalidPrime, OutOfRange, TooLarge
from .local_data import _p_part_certifiably_trivial
from .parallel import default_workers, fan_out
from .primes import icbrt, iroot, is_prime, isqrt, legendre, primes_up_to, sqrt_mod, valuation

__all__ = [
    "DensityReport",
    "box_bounds",
    "total_weq",
    "zeta10",
    "brumer_estimate",
    "enumerate_curves",
    "iter_curves",
    "count_Ip",
    "sadek_bounds",
    "lifting_count",
    "lifting_count_bruteforce",
    "bound_dp2",
    "bound_dp3",
    "lattice_class_count",
    "lattice_density",
    "empirical_densities",
]

# 4|A|^3 + 27B^2 <= 31X must stay far inside int64 for the numpy sweeps
_X_CAP = 10 ** 15


def box_bounds(X: int) -> Tuple[int, int]:
    if X < 1:
        raise OutOfRange(f"height {X} is below 1")
    if X > _X_CAP:
        raise TooLarge(f"height {X} exceeds the int64-safe cap {_X_CAP}")
    return icbrt(X), isqrt(X)


def total_weq(X: int) -> int:
    """Number of all integer pairs in the height-X box, no constraints."""
    amax, bmax = box_bounds(X)
    return (2 * amax + 1) * (2 * bmax + 1)


def zeta10() -> float:
    # pi^10 / 93555; approximately 1.0009945751
    return math.pi ** 10 / 93555


def brumer_estimate(X: int) -> float:
    """Leading-term estimate 4 X^(5/6) / zeta(10) for the family count."""
    return 4.0 * X ** (5.0 / 6.0) / zeta10()


# ---------------------------------------------------------------------------
# exact enumeration


def _minimality_primes(amax: int, bmax: int) -> List[int]:
    """Every prime q that can make a nonsingular pair of the box non-minimal:
    q^4 <= amax (A != 0) or q^6 <= bmax (A = 0)."""
    return primes_up_to(max(iroot(amax, 4), iroot(bmax, 6)))


def iter_curves(X: int) -> Iterator[Tuple[int, int]]:
    """Every minimal nonsingular pair in the box, A ascending then B."""
    amax, bmax = box_bounds(X)
    for A in range(-amax, amax + 1):
        for B in range(-bmax, bmax + 1):
            if 4 * A ** 3 + 27 * B ** 2 != 0 and is_minimal_pair(A, B):
                yield A, B


def enumerate_curves(X: int, visitor: Optional[Callable[[int, int], None]] = None) -> int:
    """Count of the curve family up to height X; visits each pair in order.

    The visitor, when given, is called per pair; accumulation across
    parallel sweeps elsewhere assumes commutative-monoid state, but this
    entry point itself is strictly sequential and deterministic.
    """
    count = 0
    for A, B in iter_curves(X):
        if visitor is not None:
            visitor(A, B)
        count += 1
    return count


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
    lifting_count_bruteforce is the oracle.
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


def lifting_count_bruteforce(l: int, p: int, exclusion: str = "componentwise") -> int:
    """Count residue pairs (A, B) mod l^(p+1) with v_l(disc0) = p exactly.

    exclusion picks which pairs are admitted: "componentwise" keeps
    l coprime to A and to B (the literal locus definition); "pair" keeps
    everything except A = B = 0 mod l. The closed-form prediction for the
    count is l^p (l-1)^2, which brute force confirms for l >= 5 and
    refutes at l in {2, 3} (both conventions). The 2^32 guard on the
    number of pairs limits the check to l^(p+1) <= 2^16, so to small
    exponents: (5, 2), (7, 2), (5, 3), (7, 3) and (11, 2) all fit. At
    l = 2 and 3 the componentwise count is 0 at every exponent (B odd
    gives disc0 = 1 mod 2; 3 prime to A gives disc0 = A != 0 mod 3), and
    the pair count is 64, 8748 and 256 at (l, p) = (2, 5), (3, 5) and
    (2, 7), against the closed form's 32, 972 and 128. The componentwise
    count is the oracle for lifting_count.
    """
    import numpy as np
    if exclusion not in ("componentwise", "pair"):
        raise OutOfRange(f"exclusion must be 'componentwise' or 'pair', got {exclusion!r}")
    modulus = l ** (p + 1)
    if modulus * modulus > 2 ** 32:
        raise TooLarge(f"l^(2(p+1)) = {modulus * modulus} exceeds the 2^32 guard")
    B = np.arange(modulus, dtype=np.int64)
    B_ok_comp = (B % l) != 0
    Bsq27 = (27 * B * B) % modulus
    count = 0
    for A in range(modulus):
        a_unit = A % l != 0
        if exclusion == "componentwise":
            if not a_unit:
                continue
            keep = B_ok_comp
        else:
            keep = B_ok_comp | np.bool_(a_unit)  # broadcast: pair not (0,0) mod l
        disc = (4 * A ** 3 + Bsq27) % modulus
        count += int(np.count_nonzero(keep & (disc % l ** p == 0) & (disc % modulus != 0)))
    return count


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


def _axis_class_count(M: int, a: int, p: int) -> int:
    # integers in [-M, M] congruent to a mod p
    a %= p
    return (M - a) // p + (M + a) // p + 1


def lattice_class_count(kappa: Tuple[int, int], p: int, X: int) -> int:
    amax, bmax = box_bounds(X)
    return _axis_class_count(amax, kappa[0], p) * _axis_class_count(bmax, kappa[1], p)


def lattice_density(kappa: Tuple[int, int], p: int, X: int) -> float:
    """Fraction of the unconstrained box in one residue class mod p;
    tends to 1/p^2 as X grows."""
    return lattice_class_count(kappa, p, X) / total_weq(X)


# ---------------------------------------------------------------------------
# the one-pass empirical sweep


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


def _strict_skip_table(l: int, p: int) -> Tuple[int, np.ndarray]:
    """Strict-mode verdicts at l in {2, 3}, indexed by v = v_l(disc0).

    table[v] is True when the p-part of c_l cannot be certified trivial
    from v alone; the model Delta adds v_2(16) = 4 at l = 2. Every
    residue mod 12 has a multiple of p in [p, 12p], so every v >= 12p is
    uncertifiable and capping v at 12p is exact. Also returns the
    prefilter exponent, the least v >= 1 with a True verdict; v_2(disc0)
    = 1 cannot occur (disc0 is odd when B is odd, 4 | disc0 when B is
    even), so at l = 2 the search starts at 2 to keep the filter sparse.
    """
    import numpy as np
    shift = 4 if l == 2 else 0
    cap = 12 * p
    table = np.array([not _p_part_certifiably_trivial(v + shift, p) for v in range(cap + 1)])
    start = 2 if l == 2 else 1
    return start + int(np.argmax(table[start:])), table


def _capped_valuation(d: np.ndarray, l: int, cap: int) -> np.ndarray:
    """v_l of each nonzero entry of d, capped at cap."""
    import numpy as np
    v = np.zeros(len(d), dtype=np.int64)
    idx = np.arange(len(d))
    for _ in range(cap):
        keep = d % l == 0
        idx, d = idx[keep], d[keep] // l
        if idx.size == 0:
            break
        v[idx] += 1
    return v


def _power_locus(A: int, l: int, p: int, bmax: int) -> List[int]:
    """Every B in [-bmax, bmax] with l^p | 4A^3 + 27B^2, for a prime
    l >= 5 that does not divide A.

    The condition is B^2 = c mod l^p with c = -4A^3 / 27 a unit. c has 0
    or 2 square roots mod l, and each lifts to exactly one root mod l^p
    (Hensel: the derivative 2B is a unit), so the B fill 0 or 2 residue
    classes. The moduli stay Python ints, so no l^p overflows.
    """
    M = l ** p
    c = -4 * A ** 3 * pow(27, -1, M) % M
    r = sqrt_mod(c, l)
    if r is None:
        return []
    m = l
    while m < M:  # Newton steps double the precision
        m = min(m * m, M)
        r = (r - (r * r - c) * pow(2 * r, -1, m)) % m
    hits = []
    for s in (r, M - r):
        hits.extend(range(-bmax + (s + bmax) % M, bmax + 1, M))
    return hits


def _sweep_chunk(X, p, a_lo, a_hi, ip_primes, want_e2, want_e3, strict) -> _SweepCounts:
    import numpy as np
    amax, bmax = box_bounds(X)
    B = np.arange(-bmax, bmax + 1, dtype=np.int64)
    Bsq27 = 27 * B * B
    Bmodp = B % p
    qs = _minimality_primes(amax, bmax)
    maxdisc = 4 * amax ** 3 + 27 * bmax ** 2
    e2_set = {l for l in _ip_candidates(p, maxdisc) if l >= 5} if want_e2 else set()
    # primes with l^p beyond the largest possible |disc0| can never hit the
    # locus; at l = 2, 3 the unit locus is empty (B odd makes disc0 odd,
    # 3 prime to A makes disc0 = A mod 3), so only l >= 5 is solved
    ip_primes = set(ip_primes or [])
    ip_set = {l for l in ip_primes if l >= 5 and l ** p <= maxdisc}
    locus_primes = sorted(e2_set | ip_set)
    anom = anomalous_residue_table(p) if want_e3 else None
    strict_filters = []
    if strict:
        for l in (2, 3):
            minv, table = _strict_skip_table(l, p)
            if l ** minv <= maxdisc:  # else no disc0 in the box reaches it
                strict_filters.append((l, minv, table))

    out = _SweepCounts(ip_counts={l: 0 for l in sorted(ip_primes)})
    for A in range(a_lo, a_hi):
        disc = 4 * A ** 3 + Bsq27
        ok = minimal_mask(A, B, qs, disc != 0)
        n_ok = int(np.count_nonzero(ok))
        if n_ok == 0:
            continue
        out.total += n_ok
        good = ok & (disc % p != 0)
        out.good_at_p += int(np.count_nonzero(good))
        if want_e3:
            out.e3 += int(np.count_nonzero(good & anom[A % p][Bmodp]))

        skip_mask = None
        if strict:
            skip_mask = np.zeros(len(B), dtype=bool)
            for l, minv, table in strict_filters:
                hit = np.flatnonzero(ok & (disc % l ** minv == 0))
                v = minv + _capped_valuation(disc[hit] // l ** minv, l, len(table) - 1 - minv)
                skip_mask[hit[table[v]]] = True
            out.skipped += int(np.count_nonzero(skip_mask))

        e2_hits = set()
        for l in locus_primes:
            if A % l == 0:
                continue  # outside the I_p locus; l | disc0 is additive, c_l <= 4 < p
            for b in _power_locus(A, l, p, bmax):
                i = b + bmax
                if not ok[i]:
                    continue
                v = valuation(4 * A ** 3 + 27 * b * b, l)
                if v == p and l in ip_set:
                    out.ip_counts[l] += 1
                if (v % p == 0 and l in e2_set and legendre(864 * b, l) == 1
                        and not (strict and skip_mask[i])):
                    e2_hits.add(i)
        out.e2 += len(e2_hits)
    return out


def _sweep(X, p, ip_primes=None, want_e2=True, want_e3=True, strict=False,
           workers=None) -> _SweepCounts:
    import numpy as np
    amax, _ = box_bounds(X)
    for l in ip_primes or []:
        if not is_prime(l):
            raise InvalidPrime(f"the I_p locus needs a prime l, got {l}")
    if workers is None:
        workers = default_workers()
    if workers <= 1 or amax < 64:
        return _sweep_chunk(X, p, -amax, amax + 1, ip_primes, want_e2, want_e3, strict)
    edges = np.linspace(-amax, amax + 1, workers + 1).astype(int)
    jobs = [
        (X, p, int(edges[i]), int(edges[i + 1]), ip_primes, want_e2, want_e3, strict)
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

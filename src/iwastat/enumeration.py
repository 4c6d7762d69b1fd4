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
- the strict skips are the term classes of one walk over the classes of B
  mod l^j at l = 2 and 3: a class whose every B has the same v_l(disc0),
  or whose every possible v_l(disc0) gets the same verdict, is decided
  whole, the rest split into l subclasses, and a class with at most one B
  in the box takes that B's verdict; the 2- and 3-terms meet by CRT;
- the e2 and I_p loci at a prime l >= 5 with l^p at most the box's largest
  |disc0| (an exact iroot) are the 0 or 2 classes of the Hensel-lifted
  square roots of -4A^3/27 mod l^p, and their few hits are tested one by one.

A sweep builds every table its rows read once (_Box): per locus prime l
the roots mod l, l^p and -4/27 mod l^p, and for the density report alone
the tables at p. The box holds them, and no table outlives the sweep; the
module keeps no cache. A row costs O(classes + hits) in time and memory, and
count_Ip tests its I_p hits alone, at any prime p. The tallies are the keys
of one collections.Counter. A worker count n > 1, from --workers or
IWASTAT_THREADS, cuts the A-range into min(n, usable CPUs, rows) parts,
sweeps each in a forked child and adds up their Counters; one part is swept
in this process.

The closed-form bounds the report carries (zeta10, bound_dp2, bound_dp3)
are census's; sadek_bounds, the sandwich of the I_p count, and the report's
JSON writer stay here, so `enumerate` loads no scan I/O.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Tuple

from .census import DpMode, _over_power, bound_dp2, bound_dp3, d_of_p, zeta10
from .curves import _uncertified_primes, anomalous_residue_table, minimal_mask
from .errors import EqualPrimes, OutOfRange, TooLarge
from .parallel import fan_out, worker_count
from .primes import icbrt, iroot, isqrt, legendre, primes_up_to, require_prime, valuation

__all__ = [
    "DensityReport",
    "box_bounds",
    "total_weq",
    "brumer_estimate",
    "count_Ip",
    "sadek_bounds",
    "lifting_count",
    "empirical_densities",
    "density_report_dict",
    "write_density_report",
]

# The class counts are exact in Python ints at any height; the cap bounds the
# run time. The e2 and I_p hits are tested one by one and grow like X^(5/6):
# the whole box at p = 5 holds ~2.7e5 of them at X = 10^10 and ~1e7 at 10^12
# (20-30 s on one core), so 10^15 would take hours.
_X_CAP = 10 ** 15


def _require_height(X: int) -> None:
    if X < 1:
        raise OutOfRange(f"height {X} is below 1")
    if X > _X_CAP:
        raise TooLarge(f"height {X} exceeds the cap {_X_CAP}")


def box_bounds(X: int) -> Tuple[int, int]:
    _require_height(X)
    return icbrt(X), isqrt(X)


def total_weq(X: int) -> int:
    """Number of all integer pairs in the height-X box, no constraints."""
    amax, bmax = box_bounds(X)
    return (2 * amax + 1) * (2 * bmax + 1)


def brumer_estimate(X: int) -> float:
    """Leading-term estimate 4 X^(5/6) / zeta(10) for the family count."""
    _require_height(X)
    return 4.0 * X ** (5.0 / 6.0) / zeta10()


# ---------------------------------------------------------------------------
# I_p loci and the congruence bounds


def _require_locus(l: int, p: int) -> None:
    """The I_p locus at l is defined for a prime p >= 5 and a prime l != p."""
    require_prime(p, 5)
    require_prime(l)
    if l == p:
        raise EqualPrimes("the locus is defined for l != p")


def count_Ip(l: int, p: int, X: int, workers: Optional[int] = None) -> int:
    """Exact count of family members with l coprime to A and B and
    v_l(disc0) = p exactly, for a prime l != p.  For l >= 5 this is the
    locus forcing fiber type I_p at l; at l in {2, 3} it is empty. p must be
    a prime >= 5 (_sweep checks both)."""
    return _sweep(X, p, ip_primes=[l], densities=False, workers=workers)[l]


_SANDWICH_FLOOR = 2 ** 12  # the least X with L_1 = 2 <= X^(1/12), for sadek_bounds


def lifting_count(l: int, p: int) -> int:
    """Number of residue pairs (A, B) mod l^(p+1), both prime to l, with
    v_l(disc0) = p exactly.

    l^p (l-1)^2 for primes l >= 5. At l = 2, 3 the unit locus is empty at
    every exponent (B odd gives disc0 = 1 mod 2; 3 prime to A gives
    disc0 = A != 0 mod 3), so the count is 0 there, not the closed form.
    The brute-force count in tests/oracles.py is its oracle. l must be
    prime; p may be any exponent.
    """
    require_prime(l)
    if l in (2, 3):
        return 0
    return l ** p * (l - 1) ** 2


def sadek_bounds(l: int, p: int, X: int) -> Tuple[float, float]:
    """Congruence-lattice sandwich for the I_p locus count at l.

    Evaluates the main term, lifting_count(l, p) residue classes scaled to
    the box, with both floor corrections; the lower bound may be negative
    and is returned as-is, a term too small for a float as 0.0. At l = 2, 3
    both bounds are 0. p must be a prime >= 5 and l a prime other than p.
    """
    _require_locus(l, p)
    amax, bmax = box_bounds(X)
    if X < _SANDWICH_FLOOR:
        raise OutOfRange(f"height {X} is below 2^12, so not even L_1 = 2 fits")
    used = [2]  # the primes of the greedy maximal primorial L_k = 2*3*...*l_k <= X^(1/12)
    for q in primes_up_to(64)[1:]:
        if (math.prod(used) * q) ** 12 > X:
            break
        used.append(q)
    Lk, lk = math.prod(used), used[-1]
    C0 = 4 * lifting_count(l, 0) * math.prod(q ** 10 - 1 for q in used)  # C = C0 l^p
    x5, x3, x2 = X ** (5 / 6), X ** (1 / 3), X ** (1 / 2)
    if (p + 1) * (l.bit_length() - 1) < 512:  # else m^2 >= 2^1024 is past the float range
        C, m = C0 * l ** p, l ** (p + 1)
        main = C * (amax // (m * Lk ** 4)) * (bmax // (m * Lk ** 6))
        d5 = 9 * m * m * Lk ** 10 * lk ** 9
        d3, d2 = 3 * m * Lk ** 4 * lk ** 3, 5 * m * Lk ** 6 * lk ** 5
        try:
            return main - C * x5 / d5, main + C * (x3 / d3 + x2 / d2)
        except OverflowError:
            pass
    # m^2 is past the float range, so m > amax and main = 0: m <= amax would
    # keep d5 <= 9 X^(2/3 + 19/12) < 2^1024 at X <= 10^15. l^p cancels in each
    # term, formed exactly and rounded once; the lower one keeps l^(p+2).
    (n5, e5), (n3, e3), (n2, e2) = (x.as_integer_ratio() for x in (x5, x3, x2))
    d3, d2 = 3 * l * Lk ** 4 * lk ** 3, 5 * l * Lk ** 6 * lk ** 5
    return (0.0 - _over_power(C0 * n5, 9 * e5 * Lk ** 10 * lk ** 9, l, p + 2),
            C0 * (n3 * e2 * d2 + n2 * e3 * d3) / (e3 * d3 * e2 * d2))


def _axis_class_count(M: int, a: int, p: int) -> int:
    # integers in [-M, M] congruent to a mod p
    a %= p
    return (M - a) // p + (M + a) // p + 1


# ---------------------------------------------------------------------------
# the sweep: each row counted by residue classes


def _divisor_weights(qs: List[int], bmax: int) -> List[Tuple[int, int]]:
    """(mu(d), d^6) for every squarefree d with d^6 <= bmax whose primes all
    lie in qs."""
    out = [(1, 1)]
    for q in qs:
        out += [(-mu, d6 * q ** 6) for mu, d6 in out if d6 * q ** 6 <= bmax]
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
    from the primes q with q^4 | A of the multiples of d^6 in the class, less
    the singular points A = -3k^2, B = +-2k^3 that pass the minimality test.
    A d with d^6 > bmax has only B = 0 among its multiples in the box, and
    the mu(d) over all d sum to 0 when there is a q, so those d together
    weigh -(the sum of the other mu(d)) on the class of 0: zero_weight.
    """

    def __init__(self, A: int, bmax: int, qs: List[int]):
        self.A, self.bmax = A, bmax
        self.qs = [q for q in qs if A % q ** 4 == 0]
        self.weights = _divisor_weights(self.qs, bmax)
        self.zero_weight = -sum(mu for mu, _ in self.weights) if self.qs else 0
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
        if r % m == 0:
            n += self.zero_weight
        return n

    def disc0(self, b: int) -> Optional[int]:
        """4A^3 + 27b^2 when (A, b) is in the family, else None."""
        d = self.a3x4 + 27 * b * b
        if d == 0 or self.qs and not minimal_mask(self.A, b, self.qs):
            return None
        return d


def _root_table(l: int) -> Tuple[Optional[int], ...]:
    """For each a mod a prime l >= 5, a square root of -4a^3/27 mod l, or
    None where it is a non-residue. Every square mod l is x^2 for exactly
    one x in [0, l/2], so the roots are read off one table of those squares,
    built once per box (_Box), not once per row, and dropped with the box."""
    roots: List[Optional[int]] = [None] * l
    for x in range(l // 2 + 1):
        roots[x * x % l] = x
    inv27 = pow(27, -1, l)
    return tuple(roots[-4 * a ** 3 * inv27 % l] for a in range(l))


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


def _locus(l: int, p: int) -> Tuple[int, Tuple[Optional[int], ...], int, int]:
    """(l, _root_table(l), l^p, -4/27 mod l^p): what _power_locus reads."""
    M = l ** p
    return l, _root_table(l), M, -4 * pow(27, -1, M) % M


def _power_locus(A: int, locus, bmax: int) -> List[int]:
    """Every B in [-bmax, bmax] with l^p | 4A^3 + 27B^2, for the prime
    l >= 5 of locus = _locus(l, p), which must not divide A.

    The condition is B^2 = c mod l^p with c = -4A^3 / 27 a unit. c has 0
    or 2 square roots mod l, read off the root table, and each lifts to
    exactly one root mod l^p (Hensel: the derivative 2B is a unit), so the
    B fill 0 or 2 residue classes. The moduli stay Python ints, so no l^p
    overflows.
    """
    l, roots, M, k = locus
    r = roots[A % l]
    if r is None:
        return []
    r = _hensel_sqrt(k * A ** 3 % M, r, l, M)
    hits = []
    for s in (r, M - r):
        hits.extend(range(-bmax + (s + bmax) % M, bmax + 1, M))
    return hits


class _StrictLadder:
    """The strict-mode skip at one prime l in {2, 3}: B is skipped when p
    is among the primes v = v_l(disc0) cannot clear from c_l
    (curves._uncertified_primes), skip[v]. v_2(disc0) = 1 cannot occur
    (disc0 is odd when B is odd, 4 | disc0 when B is even), so at l = 2
    nothing below v = 2 is skipped; at l = 3 nothing at v = 0.

    row() walks the classes B = r mod m = l^j of a row. With f(B) = 4A^3 +
    27B^2, f(r + mt) - f(r) = 54 r m t + 27 m^2 t^2, so v_l(f) is w = v_l(f(r))
    on the whole class when w < bound = min(v_l(54 r) + j, v_l(27) + 2j), and
    at least bound on it otherwise. As v_l(r) < j for 0 < r < m, the bound is
    v_l(27) + 2j at r = 0 and v_l(54 r) + j elsewhere, so a subclass's bound
    is its class's plus 1, but plus 2 for 0 and 1 + v_l(2) for the others
    below r = 0. No nonzero |disc0| <= maxdisc has l^(vmax + 1) | disc0, so
    past vmax only a singular B is left. A class wider than the box holds at
    most one B, and its verdict is that B's own.
    """

    def __init__(self, l: int, p: int, maxdisc: int, bmax: int):
        self.l = l
        self.vmax = 0
        while l ** (self.vmax + 1) <= maxdisc:
            self.vmax += 1
        self.bmax = bmax
        self.pows = [l ** k for k in range(self.vmax + 2)]
        self.logs = {q: k for k, q in enumerate(self.pows)}
        # skip[w] on a class where v = w; verdicts[b] where v >= b: True when
        # every v in [b, vmax] skips, False when none does, else None
        start = 2 if l == 2 else 1
        self.skip = [v >= start and p in _uncertified_primes(l, v) for v in range(self.vmax + 1)]
        self.verdicts = [t[0] if len(set(t)) == 1 else None
                         for t in (self.skip[b:] for b in range(self.vmax + 1))] + [False]

    def skips(self, d: int) -> bool:
        """Whether strict mode skips a nonzero disc0 d of the box."""
        return self.skip[self.logs[math.gcd(d, self.pows[self.vmax])]]

    def row(self, a3x4: int) -> List[Tuple[int, int]]:
        """The term classes (r, m) of the row with 4A^3 = a3x4: strict mode
        skips every family B of each, and no other B of the row."""
        l, last, bmax = self.l, self.vmax + 1, self.bmax
        pows, logs, skip, verdicts = self.pows, self.logs, self.skip, self.verdicts
        terms = []
        todo = [(0, 1, valuation(27, l))]  # (r, m, bound)
        while todo:
            r, m, bound = todo.pop()
            b = bound if bound < last else last
            w = logs[math.gcd(a3x4 + 27 * r * r, pows[b])]  # min(v_l(f(r)), b)
            verdict = skip[w] if w < b else verdicts[b]
            if verdict is None and m > 2 * bmax:
                x = -bmax + (r + bmax) % m  # the class's one B in the box, if any
                d = a3x4 + 27 * x * x
                verdict = x <= bmax and d != 0 and self.skips(d)
            if verdict is not None:
                if verdict:
                    terms.append((r, m))
            elif r:
                todo += [(r + i * m, m * l, bound + 1) for i in range(l)]
            else:
                todo += [(i * m, m * l, bound + (1 + (l == 2) if i else 2)) for i in range(l)]
        return terms


def _skipped_in_row(row: _Row, ladders: List[_StrictLadder]) -> int:
    """Family B of the row that strict mode skips at l = 2 or 3:
    |U2 u U3| = |U2| + |U3| - |U2 n U3| over the term classes, where the 2-
    and 3-classes meet by CRT."""
    terms2, terms3 = (ladder.row(row.a3x4) for ladder in ladders)
    n = sum(row.count(r, m) for r, m in terms2 + terms3)
    for r2, m2 in terms2:
        for r3, m3 in terms3:
            n -= row.count(*_crt(r2, m2, r3, m3))
    return n


_TALLIES = ("total", "good_at_p", "e2", "e3", "skipped")


class _Box:
    """Every table the rows of the height-X box at p read, built once per
    sweep, inherited by forked workers and dropped with the sweep: qs, the
    primes that can make a pair non-minimal (q^4 <= amax, or q^6 <= bmax at
    A = 0); per locus prime l, an l >= 5 with l^p <= maxdisc by an exact
    iroot (the unit locus at l = 2, 3 is empty), (_locus(l, p), whether l
    counts toward e2, whether toward I_p); and for the report (densities)
    alone the tables at p: _root_table(p), the anomalous classes of each
    residue A mod p of the rows, and the strict ladders. In the report every
    locus prime counts toward e2. ip_primes may be any list, None for every
    locus prime but p; with the five counts they are the Counter keys.
    """

    def __init__(self, X, p, ip_primes, densities, strict):
        self.amax, self.bmax = amax, bmax = box_bounds(X)
        maxdisc = 4 * amax ** 3 + 27 * bmax ** 2
        self.p, self.densities = p, densities
        self.qs = primes_up_to(max(iroot(amax, 4), iroot(bmax, 6)))
        reach = [l for l in primes_up_to(iroot(maxdisc, p)) if l >= 5]
        if ip_primes is None:
            ip_primes = [l for l in reach if l != p]
        self.tallies = (*_TALLIES, *ip_primes)
        self.loci = [(_locus(l, p), densities, l in ip_primes) for l in reach
                     if densities or l in ip_primes]
        self.anom, self.p_roots, self.ladders = {}, (), []
        if densities:
            residues = sorted({A % p for A in range(-amax, min(amax + 1, p - amax))})
            self.anom = dict(zip(residues, anomalous_residue_table(p, residues)))
            self.p_roots = _root_table(p)
            self.ladders = [_StrictLadder(l, p, maxdisc, bmax) for l in (2, 3)] if strict else []


def _sweep_chunk(box: _Box, a_lo: int, a_hi: int) -> Counter:
    """The tallies over the rows a_lo <= A < a_hi of the box, all from 0,
    each row counted by residue classes (_Row) as the module docstring
    lists. total, good_at_p, e2, e3 and skipped are counted only when
    densities is set; without it a row costs its I_p hits.
    """
    p, bmax, ladders = box.p, box.bmax, box.ladders
    out = Counter(dict.fromkeys(box.tallies, 0))
    for A in range(a_lo, a_hi):
        row = _Row(A, bmax, box.qs)
        if box.densities:
            n_ok = row.count(0, 1)
            out["total"] += n_ok
            a = A % p
            r = box.p_roots[a] if a else 0
            bad = [] if r is None else {r, -r % p}  # the B mod p with p | disc0
            out["good_at_p"] += n_ok - sum(row.count(b, p) for b in bad)
            out["e3"] += sum(row.count(b, p) for b in box.anom[a])
            if ladders:
                out["skipped"] += _skipped_in_row(row, ladders)

        e2_hits = set()
        for locus, e2, ip in box.loci:
            l = locus[0]
            if A % l == 0:
                continue  # outside the I_p locus; l | disc0 is additive, c_l <= 4 < p
            for b in _power_locus(A, locus, bmax):
                d = row.disc0(b)
                if d is None:
                    continue
                v = valuation(d, l)
                if ip and v == p:
                    out[l] += 1
                if (e2 and v % p == 0 and legendre(864 * b, l) == 1
                        and not any(ladder.skips(d) for ladder in ladders)):
                    e2_hits.add(b)
        out["e2"] += len(e2_hits)
    return out


def _sweep(X, p, ip_primes=None, densities=True, strict=False, workers=None) -> Counter:
    for l in ip_primes or []:
        _require_locus(l, p)
    box = _Box(X, p, ip_primes, densities, strict)
    # one job per worker that can run at once, and no more jobs than rows
    rows = 2 * box.amax + 1
    parts = min(worker_count(workers), rows)
    edges = [-box.amax + i * rows // parts for i in range(parts + 1)]
    counts = Counter()
    for part in fan_out(_sweep_chunk, [(box, lo, hi) for lo, hi in zip(edges, edges[1:])], parts):
        counts.update(part)
    return counts


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


def density_report_dict(report: DensityReport) -> dict:
    d = asdict(report)
    if d.get("skipped_uncertified") is None:
        d.pop("skipped_uncertified", None)
    d["ip_counts"] = {str(l): n for l, n in sorted(report.ip_counts.items())}
    return d


def write_density_report(report: DensityReport, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(density_report_dict(report), fh, indent=2, sort_keys=True)
        fh.write("\n")


def empirical_densities(p: int, X: int, ip_primes: Optional[List[int]] = None,
                        strict: bool = False, workers: Optional[int] = None) -> DensityReport:
    """One sweep of the height-X box filling every report field.

    By default the Tamagawa-divisibility locus e2 is computed from the
    multiplicative classification at primes l >= 5 (additive types cannot
    contribute for p >= 5); strict mode additionally drops curves whose
    2,3-part cannot be certified trivial and reports how many were dropped.
    e3 counts good-at-p anomalous curves only: the defect is undefined at
    bad primes, and both denominators (total, good_at_p) are in the report.
    Each of ip_primes must be a prime other than p, as for count_Ip; by
    default they are every l >= 5 but p whose l^p the box can reach (_Box).
    """
    require_prime(p, 5)
    _require_height(X)  # before _sweep checks ip_primes
    counts = _sweep(X, p, ip_primes=ip_primes, strict=strict, workers=workers)
    d_lit = d_of_p(p, DpMode.LITERAL_PAIRS)
    return DensityReport(
        p=p,
        X=X,
        total=counts["total"],
        total_weq=total_weq(X),
        good_at_p=counts["good_at_p"],
        e2=counts["e2"],
        e3=counts["e3"],
        ip_counts={l: counts[l] for l in sorted(counts.keys() - _TALLIES)},
        brumer_estimate=brumer_estimate(X),
        bound_dp2=bound_dp2(p),
        bound_dp3=bound_dp3(p, d_lit),
        d_literal=d_lit,
        skipped_uncertified=counts["skipped"] if strict else None,
    )

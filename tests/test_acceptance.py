"""Acceptance gate: ten numbered criteria, one visible PASS/FAIL line each.

Each criterion prints its verdict to the unbuffered terminal stream before
asserting, so the line survives capture whatever the pytest flags are.
A FAIL line plus a failing assert is the honest outcome when the target
value is not what the implementation finds; nothing here is loosened to
force a green run.
"""

import json
import math
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from iwastat.census import DpMode, d_of_p, dp_table
from iwastat.charpoly import (
    CharPoly,
    is_trivial_shape,
    iwasawa_invariants,
    truncated_chi_valuation,
    vanishing_order,
)
from iwastat.curves import classify_reduction, trace_frobenius
from iwastat.enumeration import (
    bound_dp2,
    count_Ip,
    empirical_densities,
    sadek_bounds,
    zeta10,
)
from iwastat.prime_scan import Conclusion, CurveRecord, scan_primes
from oracles import enumerate_curves, lifting_count_bruteforce

HEIGHT_BIG = 10**8
REPORT_PATH = Path(__file__).resolve().parent.parent / "dp_discrepancy_report.json"

_big_reports = {}


def big_report(p):
    if p not in _big_reports:
        _big_reports[p] = empirical_densities(p, HEIGHT_BIG)
    return _big_reports[p]


def verdict(n, ok, detail):
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, file=sys.__stderr__, flush=True)
    return ok


def test_criterion_01_order_p_census_table(tmp_path):
    t0 = time.monotonic()
    table_small = dp_table(200)
    small_elapsed = time.monotonic() - t0
    table = dict(table_small)
    table.update(dp_table(500, p_min=200))
    target = {5: 1, 7: 1, 61: 1}
    matched = []
    for mode in DpMode:
        nonzero = {p: row[mode.value] for p, row in table.items() if row[mode.value]}
        if nonzero == target:
            matched.append(mode.value)
    if matched:
        ok = True
        detail = f"mode {matched[0]} reproduces {target} with 0 elsewhere"
    else:
        # fallback deliverable: per-prime counts in all modes, checked entry
        # by entry against the checked-in report, which is only read here
        report = {
            str(p): {mode.value: table[p][mode.value] for mode in DpMode}
            for p in sorted(table)
        }
        fresh = tmp_path / REPORT_PATH.name
        fresh.write_text(json.dumps(report, indent=2) + "\n")
        reference = json.loads(REPORT_PATH.read_text())
        differ = [
            (p, report.get(p), reference.get(p))
            for p in sorted(set(report) | set(reference), key=int)
            if report.get(p) != reference.get(p)
        ]
        counts = {p: table[p][DpMode.TRACE_ONE_CLASSES.value] for p in (5, 7, 61, 11)}
        ok = (
            not differ
            and len(report) == 93
            and all(len(v) == 3 for v in report.values())
        )
        detail = (
            "no mode matches {5:1, 7:1, 61:1}: every mode is nonzero at every "
            f"prime in [5, 500) (closest mode TraceOneClasses gives {counts}); "
            f"discrepancy report with all 93 primes x 3 modes "
            f"{'matches' if not differ else 'differs from'} {REPORT_PATH.name}"
            + (f" at (p, computed, checked-in) {differ[:5]}" if differ else "")
            + f"; fresh copy written to {fresh}"
        )
    assert small_elapsed < 60, f"p < 200 census took {small_elapsed:.1f}s"
    assert verdict(1, ok, detail)


def unit_locus_count(l, p):
    # independent count of pairs (A, B) mod l^(p+1), both prime to l, with
    # v_l(4A^3 + 27B^2) = p exactly: a plain double loop over residues
    modulus = l ** (p + 1)
    units = [x for x in range(modulus) if x % l]
    b_terms = [27 * b * b for b in units]
    count = 0
    for a in units:
        a_term = 4 * a**3
        count += sum(
            1 for t in b_terms if (a_term + t) % l**p == 0 and (a_term + t) % modulus
        )
    return count


def test_criterion_02_lifting_counts():
    # The closed form l^p (l-1)^2 behind sadek_bounds holds for l >= 5. At
    # l = 2, 3 the unit locus is empty at every exponent: B odd gives
    # disc0 = 27B^2 = 1 mod 2, and 3 prime to A gives disc0 = 4A^3 = A != 0
    # mod 3. The l = 2, 3 expectations come from that residue argument and
    # from a separate double loop, never from the function under test.
    closed = [(5, 2), (7, 2), (5, 3), (7, 3), (11, 2)]
    small = [(2, 5), (3, 5), (2, 7)]
    t0 = time.monotonic()
    got = {(l, p): lifting_count_bruteforce(l, p) for (l, p) in closed + small}
    elapsed = time.monotonic() - t0
    want_closed = {(l, p): l**p * (l - 1) ** 2 for (l, p) in closed}
    got_closed = {k: got[k] for k in closed}
    got_small = {k: got[k] for k in small}
    unit_roots = {
        l: [(a, b) for a in range(1, l) for b in range(1, l) if (4 * a**3 + 27 * b * b) % l == 0]
        for l in (2, 3)
    }
    want_small = {(l, p): unit_locus_count(l, p) for (l, p) in small}
    paper_small = {(l, p): l**p * (l - 1) ** 2 for (l, p) in small}
    ok = (
        got_closed == want_closed
        and unit_roots == {2: [], 3: []}
        and got_small == want_small
        and elapsed < 10
    )
    assert verdict(
        2,
        ok,
        f"l >= 5: brute force {got_closed} vs closed form {want_closed}; "
        f"l = 2, 3: brute force {got_small} vs independent count {want_small} "
        f"(unit pairs mod l with l | disc0: {unit_roots}), while the paper's "
        f"closed form gives {paper_small}, which does not hold there; "
        f"{elapsed:.1f}s",
    )


def test_criterion_03_family_size_asymptotic():
    t0 = time.monotonic()
    total = big_report(5).total
    elapsed = time.monotonic() - t0
    ratio = total * zeta10() / (4 * HEIGHT_BIG ** (5 / 6))
    n100 = enumerate_curves(100)
    n1 = enumerate_curves(1)
    ok = abs(ratio - 1) < 0.02 and n100 == 186 and n1 == 8 and elapsed < 300
    assert verdict(
        3,
        ok,
        f"count(1e8) = {total}, normalized ratio = {ratio:.7f} (|delta| < 0.02), "
        f"count(100) = {n100}, count(1) = {n1}, sweep {elapsed:.1f}s",
    )


def test_criterion_04_bound_dp2():
    val = bound_dp2(5)
    # independent summation: trial division primes, exact rationals,
    # tail over n > 3000 is below 3000^-4 / 4 < 1e-13, certified < 1e-8
    indep = float(
        sum(
            Fraction((l - 1) ** 2, l**7)
            for l in range(2, 3000)
            if l != 5 and all(l % q for q in range(2, int(l**0.5) + 1))
        )
    )
    tail = 3000 ** (-4) / 4
    decreasing = [bound_dp2(p) for p in (5, 7, 11, 13)]
    ok = (
        abs(val - 0.0096937) < 1e-5
        and abs(val - indep) < 1e-5
        and tail < 1e-8
        and decreasing == sorted(decreasing, reverse=True)
        and len(set(decreasing)) == 4
    )
    assert verdict(
        4,
        ok,
        f"bound_dp2(5) = {val:.10f}, independent sum {indep:.10f}, "
        f"certified tail < {tail:.1e}, strictly decreasing over p in 5..13",
    )


def test_criterion_05_sadek_sandwich():
    checks = []
    for l in (2, 3):
        for X in (10**6, HEIGHT_BIG):
            n = count_Ip(l, 5, X)
            lo, hi = sadek_bounds(l, 5, X)
            checks.append((l, X, lo, n, hi, lo <= n <= hi))
    ok = all(c[-1] for c in checks)
    shown = "; ".join(f"l={l} X=1e{int(math.log10(X))}: {lo:.3g} <= {n} <= {hi:.3g}"
                      for l, X, lo, n, hi, _ in checks)
    assert verdict(5, ok, shown)


def test_criterion_06_weierstrass_preparation():
    rng = random.Random(2024)
    t0 = time.monotonic()
    ok = True
    for _ in range(1000):
        p = rng.choice([5, 7, 11])
        m = rng.randrange(0, 4)
        deg = rng.randrange(0, 6)
        h = [p * rng.randrange(-(p**2), p**2 + 1) for _ in range(deg)] + [1]
        u = [rng.randrange(-(p**3), p**3 + 1) for _ in range(rng.randrange(1, 5))]
        u[0] = rng.randrange(1, p) + p * rng.randrange(-(p**2), p**2)
        f = CharPoly(p, [p**m]) * CharPoly(p, h) * CharPoly(p, u)
        if iwasawa_invariants(f) != (m, deg):
            ok = False
            break
    for _ in range(1000):
        p = rng.choice([5, 7, 11])
        f = CharPoly(p, [rng.randrange(-(p**4), p**4 + 1) for _ in range(rng.randrange(1, 8))] or [1])
        g = CharPoly(p, [rng.randrange(-(p**4), p**4 + 1) for _ in range(rng.randrange(1, 8))] or [1])
        try:
            mf, lf = iwasawa_invariants(f)
            mg, lg = iwasawa_invariants(g)
        except Exception:
            continue
        if iwasawa_invariants(f * g) != (mf + mg, lf + lg):
            ok = False
            break
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 5
    assert verdict(
        6,
        ok,
        f"1000 prepared products recover (mu, lambda) exactly and 1000 random "
        f"products are additive, {elapsed:.2f}s",
    )


def test_criterion_07_trivial_shape_equivalence():
    rng = random.Random(777)
    ok = True
    for _ in range(1000):
        p = rng.choice([5, 7])
        r_shift = rng.randrange(0, 4)
        body = [rng.randrange(-(p**3), p**3 + 1) for _ in range(rng.randrange(1, 6))]
        if not any(body):
            body[0] = 1
        f = CharPoly(p, [0] * r_shift + body)
        r = rng.randrange(0, len(f.coeffs) + 1)
        lhs = is_trivial_shape(f, r)
        rhs = vanishing_order(f) == r and truncated_chi_valuation(f) == 0
        if lhs != rhs:
            ok = False
            break
    assert verdict(
        7, ok, "is_trivial_shape agrees with (vanishing order = r and unit "
        "leading coefficient) on 1000 generated polynomials, exact"
    )


def test_criterion_08_rank_zero_scan():
    record = CurveRecord(curve=(-1, 0), rank=0, sha_order=1, torsion_order=4)
    results = [r for r in scan_primes(record, 100) if r.conclusion is not Conclusion.BAD_PRIME]
    conclusive = all(
        r.conclusion in (Conclusion.SELMER_TRIVIAL, Conclusion.SIGNED_SELMER_TRIVIAL)
        for r in results
    )
    anomalous = [r.p for r in results if r.in_sigma]
    traces_even = all(trace_frobenius(-1, 0, r.p) % 2 == 0 for r in results)
    ok = conclusive and not anomalous and traces_even
    assert verdict(
        8,
        ok,
        f"{len(results)} good primes in [5, 100] all SelmerTrivial or "
        f"SignedSelmerTrivial, anomalous set {anomalous} empty, full 2-torsion "
        "keeps every trace even",
    )


def test_criterion_09_good_reduction_proportion():
    rows = []
    ok = True
    for p in (5, 7, 11):
        r = big_report(p)
        ratio = r.good_at_p / r.total
        delta = abs(ratio - (1 - 1 / p))
        ok = ok and delta < 0.01
        rows.append(f"p={p}: {ratio:.6f} vs {1 - 1/p:.6f} (delta {delta:.1e})")
    assert verdict(9, ok, "; ".join(rows))


def test_criterion_10_anomalous_density_bound():
    r = big_report(5)
    frac = r.e3 / r.total
    rhs = zeta10() * d_of_p(5, DpMode.LITERAL_PAIRS) / 25 + 0.02
    ok = frac <= rhs
    assert verdict(
        10, ok, f"anomalous fraction {frac:.7f} <= {rhs:.7f} at p = 5, X = 1e8"
    )

import random
import statistics
import timeit
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iwastat import curves, primes
from iwastat.curves import (
    CurveQ,
    ReductionClass,
    anomalous_residue_table,
    classify_reduction,
    count_points,
    disc0_of,
    dp_census,
    frobenius_traces,
    is_minimal_pair,
    trace_frobenius,
)
from iwastat.census import DpMode, _reduced_forms, d_of_p, dp_table
from iwastat.curves import _orders_in, _trace_by_point_orders
from iwastat.enumeration import empirical_densities
from iwastat.errors import (
    BadReductionAt,
    InvalidPrime,
    NonMinimalModel,
    OutOfRange,
    SingularCurve,
    TooLarge,
)
from iwastat.primes import factorize, prime_range, primes_up_to
from oracles import (
    anomalous_bool_table,
    dp_census_bruteforce,
    iter_curves,
    refuse_factorize,
    trace_by_legendre,
)

CENSUS_PRIMES = [p for p in primes_up_to(99) if p >= 5]


def brute_count(a, b, p):
    # independent oracle: direct point enumeration, no character sums
    n = 1  # infinity
    for x in range(p):
        rhs = (x * x * x + a * x + b) % p
        for y in range(p):
            if y * y % p == rhs:
                n += 1
    return n


def test_count_points_known_values():
    assert count_points(0, 1, 5) == 6
    assert count_points(1, 0, 5) == 4
    assert count_points(-1, 0, 5) == 8
    assert count_points(3, 0, 5) == 10
    assert trace_frobenius(0, 1, 5) == 0
    assert trace_frobenius(1, 0, 5) == 2
    assert trace_frobenius(-1, 0, 5) == -2


def test_count_points_exhaustive_small_fields():
    for p in (3, 5, 7, 11, 13):
        for a in range(p):
            for b in range(p):
                if (4 * a**3 + 27 * b * b) % p == 0:
                    continue
                assert count_points(a, b, p) == brute_count(a, b, p)


def test_count_points_rejects_bad_prime():
    with pytest.raises(InvalidPrime):
        count_points(-1, 0, 2)
    with pytest.raises(BadReductionAt):
        count_points(0, 0, 7)
    with pytest.raises(BadReductionAt):
        count_points(-3, 2, 5)  # disc0 = -108 + 108 = 0 mod 5 (singular over Q too)


def test_hasse_bound_random():
    rng = random.Random(17)
    for _ in range(400):
        p = rng.choice([5, 7, 11, 13, 17, 19, 101, 211])
        a = rng.randrange(p)
        b = rng.randrange(p)
        if (4 * a**3 + 27 * b * b) % p == 0:
            continue
        t = p + 1 - count_points(a, b, p)
        assert t * t <= 4 * p


def test_quadratic_twist_flips_trace():
    # twist by d multiplies the trace by the residue symbol of d
    from iwastat.primes import legendre

    rng = random.Random(29)
    for _ in range(200):
        p = rng.choice([5, 7, 11, 13, 17])
        a = rng.randrange(p)
        b = rng.randrange(p)
        if (4 * a**3 + 27 * b * b) % p == 0:
            continue
        d = rng.randrange(1, p)
        t = trace_frobenius(a, b, p)
        tw = trace_frobenius(d * d % p * a % p, pow(d, 3, p) * b % p, p)
        assert tw == legendre(d, p) * t


def test_curveq_validation():
    c = CurveQ(-1, 0)
    assert c.disc0 == -4
    assert disc0_of(-1, 0) == -4
    with pytest.raises(SingularCurve):
        CurveQ(0, 0)
    with pytest.raises(SingularCurve):
        CurveQ(-3, 2)
    # q^4 | A and q^6 | B is a non-minimal model
    with pytest.raises(NonMinimalModel):
        CurveQ(16, 64)
    assert is_minimal_pair(-1, 0)
    assert not is_minimal_pair(16, 64)
    # zero coordinate is divisible by every q^6, so the other one decides
    assert not is_minimal_pair(16, 0) and not is_minimal_pair(0, 64)
    assert is_minimal_pair(8, 0) and is_minimal_pair(0, 32)


def test_minimal_pair_trial_divides_only_to_the_gcd_bound(monkeypatch):
    # only q with q^12 | gcd(A^3, B^2) can break minimality; with B = 1 the
    # gcd is 1, so a huge A is decided with no division at all
    refuse_factorize(monkeypatch)
    calls = []
    real = curves._power_divisor_walk

    def recording(n, k):
        calls.append((n, k))
        return real(n, k)

    monkeypatch.setattr(curves, "_power_divisor_walk", recording)
    c = CurveQ(10**28 + 1, 1)
    assert c.height == (10**28 + 1) ** 3
    assert calls == [(1, 12)]
    # a shared 97^4 / 97^6 is still found: 97 is past the 13th root of the
    # gcd 97^12, and what is left is 97^12 exactly
    assert not is_minimal_pair(97**4 * 10**10, 97**6 * 7)
    assert calls[-1] == (97**12, 12)


def test_a_non_minimal_pair_is_refused_at_its_first_q_power():
    # 2^4 | 16 P with B = 0 decides the pair at d = 2; trial division on to
    # the fifth root of P, the prime after 2^80, took ~2 ms a call, and
    # stopping at the first q^k takes ~5 us
    P = next(n for n in range(2**80 + 1, 2**81) if primes.is_prime(n))
    assert not is_minimal_pair(16 * P, 0) and is_minimal_pair(8 * P, 0)
    per_call = [t / 20 for t in timeit.repeat(lambda: is_minimal_pair(16 * P, 0),
                                               number=20, repeat=51)]
    assert statistics.median(per_call) < 1e-4, statistics.median(per_call)


def test_minimal_pair_with_a_zero_coefficient_trial_divides_below_the_limit(monkeypatch):
    # with B = 0 only q^4 | A matters and with A = 0 only q^6 | B: trial
    # division to |A|^(1/5) or |B|^(1/7), then an exact root of what is left,
    # decides such a pair without factorize while that bound is at most
    # primes._TRIAL_LIMIT; past it the pair factors
    factored = []

    def recording_factorize(n):
        factored.append(n)
        return factorize(n)

    monkeypatch.setattr(curves, "factorize", recording_factorize)
    n = 10**28 + 1  # 73 * 137 * 7841 * 127522001020150503761
    assert CurveQ(0, n).height == n**2
    with pytest.raises(NonMinimalModel):
        CurveQ(0, -(73**6) * 137)
    assert CurveQ(n, 0).height == n**3  # bound 398107
    with pytest.raises(NonMinimalModel):
        CurveQ(0, -(73**6) * n)  # |B| ~ 2^130
    # q past the trial bound: what is left is q^4 or q^6 exactly
    q = 524287  # 2^19 - 1, a prime
    with pytest.raises(NonMinimalModel):
        CurveQ(7 * q**4, 0)
    with pytest.raises(NonMinimalModel):
        CurveQ(0, -5 * q**6)
    assert CurveQ(7 * q**3, 0).height == (7 * q**3) ** 3
    assert CurveQ(0, 5 * q**5).height == (5 * q**5) ** 2
    limit = primes._TRIAL_LIMIT
    with pytest.raises(NonMinimalModel):
        CurveQ(limit**5, 0)
    assert factored == []
    with pytest.raises(NonMinimalModel):
        CurveQ((limit + 1) ** 5, 0)
    with pytest.raises(NonMinimalModel):
        CurveQ(7841**4 * n, 0)
    assert factored == [(limit + 1) ** 5, 7841**4 * n]


def test_zero_coefficient_pairs_with_two_large_factors_never_factor(monkeypatch):
    # factoring the products by Pollard rho took ~0.9 s and ~0.06 s; trial
    # division runs to 5314 and to 6128 instead
    refuse_factorize(monkeypatch)
    p1, p2 = 9895604650003, 12094627905571  # 44-bit primes
    assert CurveQ(0, p1 * p2).disc0 == 27 * (p1 * p2) ** 2
    q1, q2 = 2684354591, 3221225473  # q1 q2 < 2^64
    assert CurveQ(q1 * q2, 0).disc0 == 4 * (q1 * q2) ** 3
    with pytest.raises(NonMinimalModel):
        CurveQ(0, 3**6 * p1)
    with pytest.raises(NonMinimalModel):
        CurveQ(5**4 * q1, 0)


def test_a_zero_coefficient_pair_past_2_to_the_64_is_quick(monkeypatch):
    # A a product of two 40-bit primes took 0.61 s of Pollard rho with B = 0,
    # and of two 44-bit primes 3.26 s; trial division to |A|^(1/5) takes
    # ~6 ms and ~15 ms (2-vCPU Xeon VM), best of 3 under 50 ms here
    import time

    refuse_factorize(monkeypatch)
    pairs = [(1000000000039 * 1000700000021, 0), (9895604650003 * 12094627905571, 0),
             (0, 9895604650003 * 12094627905571)]
    for A, B in pairs:
        times = []
        for _ in range(3):
            t = time.perf_counter()
            assert is_minimal_pair(A, B)
            times.append(time.perf_counter() - t)
        assert min(times) < 0.05, (A, B, times)


def test_minimal_pair_factors_the_gcd_when_its_bound_is_large(monkeypatch):
    # the 13th root of gcd(A^3, B^2) is the trial bound: (10^28, 10^42)
    # would trial-divide to ~2.9e6, and a shared prime P to P^(10/13) or
    # more, both past primes._TRIAL_LIMIT; the q come from the prime factors
    # of gcd(A, B) instead
    factored = []

    def recording_factorize(n):
        factored.append(n)
        return factorize(n)

    monkeypatch.setattr(curves, "factorize", recording_factorize)
    with pytest.raises(NonMinimalModel):
        CurveQ(10**28, 10**42)
    P = 1000000007
    assert CurveQ(P**4, 7 * P**5).height == P**12
    assert not is_minimal_pair(P**4, 7 * P**6)
    assert is_minimal_pair(2**4 * 3 * P**3, 2**5 * 5 * P**6)
    assert not is_minimal_pair(2**4 * 3 * P**3, 2**6 * 5 * P**5)
    assert factored == [10**28, P**4, P**4, 2**4 * P**3, 2**4 * P**3]


def test_classify_reduction_cases():
    r = classify_reduction((0, 1), 5)
    assert r.reduction_class is ReductionClass.GOOD_SUPERSINGULAR
    assert r.n_points == 6 and r.a_p == 0 and not r.anomalous
    r = classify_reduction((1, 0), 5)
    assert r.reduction_class is ReductionClass.GOOD_ORDINARY
    assert r.a_p == 2 and not r.anomalous
    r = classify_reduction((3, 0), 5)
    assert r.reduction_class is ReductionClass.GOOD_ORDINARY
    assert r.n_points == 10 and r.anomalous
    r = classify_reduction((-1, 0), 2 + 3)  # bad at 5? disc0 = -4, good
    assert r.is_good
    r = classify_reduction(CurveQ(1, 5), 7)  # disc0 = 679 = 7 * 97
    assert r.reduction_class is ReductionClass.BAD
    assert r.n_points is None and r.a_p is None
    # any (A, B) pair is a curve, a list too; [-1, 0] once raised AttributeError
    assert classify_reduction([-1, 0], 5) == classify_reduction((-1, 0), 5)
    assert classify_reduction([-1, 0], 5).a_p == -2


def test_classify_reduction_prime_policy():
    with pytest.raises(InvalidPrime):
        classify_reduction((-1, 0), 3)
    with pytest.raises(InvalidPrime):
        classify_reduction((-1, 0), 2, allow_p3=True)
    with pytest.raises(InvalidPrime):
        classify_reduction((-1, 0), 9)
    r = classify_reduction((-1, 0), 3, allow_p3=True)
    assert r.is_good


def test_dp_census_frozen_values():
    c5 = dp_census(5)
    assert c5[DpMode.LITERAL_PAIRS.value] == 3
    assert c5[DpMode.TRACE_ONE_PAIRS.value] == 2
    assert c5[DpMode.TRACE_ONE_CLASSES.value] == 1
    c7 = dp_census(7)
    assert c7[DpMode.LITERAL_PAIRS.value] == 4
    assert c7[DpMode.TRACE_ONE_PAIRS.value] == 4
    assert c7[DpMode.TRACE_ONE_CLASSES.value] == 2
    assert dp_census(61)[DpMode.TRACE_ONE_CLASSES.value] == 5


def test_dp_census_literal_pairs_verified():
    # every reported pair really is nonsingular with p | #E
    for p in (5, 7, 11):
        c = dp_census(p)
        pairs = c["literal_pairs"]
        assert len(pairs) == c[DpMode.LITERAL_PAIRS.value]
        for a, b in pairs:
            assert (4 * a**3 + 27 * b * b) % p != 0
            assert brute_count(a, b, p) % p == 0
        n_one = sum(1 for a, b in pairs if brute_count(a, b, p) == p)
        assert n_one == c[DpMode.TRACE_ONE_PAIRS.value]


def test_dp_census_mode_ordering():
    for p in (5, 7, 13, 31):
        c = dp_census(p)
        assert (
            c[DpMode.LITERAL_PAIRS.value]
            >= c[DpMode.TRACE_ONE_PAIRS.value]
            >= c[DpMode.TRACE_ONE_CLASSES.value]
        )


def test_d_of_p_mode_aliases():
    assert d_of_p(5) == 3
    assert d_of_p(5, DpMode.LITERAL_PAIRS) == 3
    assert d_of_p(5, "literal") == 3
    assert d_of_p(5, "trace-pairs") == 2
    assert d_of_p(5, "trace-classes") == 1
    with pytest.raises(ValueError):
        d_of_p(5, "nope")
    with pytest.raises(InvalidPrime):
        d_of_p(3)


def test_dp_table_matches_census():
    t = dp_table(20)
    assert sorted(t) == [5, 7, 11, 13, 17, 19]
    for p, row in t.items():
        c = dp_census_bruteforce(p)
        for mode in DpMode:
            assert row[mode.value] == c[mode.value]


def test_anomalous_residue_table():
    for p in (5, 7):
        rows = anomalous_residue_table(p)
        assert len(rows) == p
        tab = anomalous_bool_table(rows, p)
        for a in range(p):
            for b in range(p):
                if (4 * a**3 + 27 * b * b) % p == 0:
                    assert not tab[a, b]
                else:
                    assert tab[a, b] == (brute_count(a, b, p) % p == 0)


def row_histogram_table(p):
    # brute-force oracle: a full row of point counts for every a, from the
    # histogram of b = y^2 - x^3 - a x over all (x, y) in F_p^2
    xs = np.arange(p, dtype=np.int64)
    bs = np.arange(p, dtype=np.int64)
    tab = np.zeros((p, p), dtype=bool)
    for a in range(p):
        b_of = (xs[:, None] ** 2 - xs[None, :] ** 3 - a * xs[None, :]) % p
        n_row = np.bincount(b_of.ravel(), minlength=p) + 1
        tab[a] = (n_row % p == 0) & ((4 * a**3 + 27 * bs * bs) % p != 0)
    return tab


def test_anomalous_residue_table_matches_row_histogram():
    for p in [3] + CENSUS_PRIMES:
        rows = anomalous_residue_table(p)
        assert len(rows) == p
        assert np.array_equal(anomalous_bool_table(rows, p), row_histogram_table(p)), p


def row_histogram(a, p):
    # the same histogram for one row, 256 x at a time, so that p near 3000
    # needs no p x p array
    xs = np.arange(p, dtype=np.int64)
    fx = (xs ** 3 + a * xs) % p
    n_row = np.ones(p, dtype=np.int64)  # the point at infinity
    for lo in range(0, p, 256):
        b_of = (xs[:, None] ** 2 - fx[None, lo:lo + 256]) % p
        n_row += np.bincount(b_of.ravel(), minlength=p)
    return (n_row % p == 0) & ((4 * a**3 + 27 * xs * xs) % p != 0)


_ODD_PRIMES = [p for p in primes_up_to(2999) if p >= 3]


@st.composite
def prime_and_rows(draw):
    # p = 1 mod 4 has four cosets of the fourth powers in F_p^*, p = 3 mod 4
    # two; up to six rows, so two nonzero rows often share a coset
    r = draw(st.sampled_from([1, 3]))
    p = draw(st.sampled_from([q for q in _ODD_PRIMES if q % 4 == r]))
    rows = draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=6, unique=True))
    return p, rows


@settings(max_examples=40, deadline=None)
@given(prime_and_rows())
def test_anomalous_rows_match_row_histograms(case):
    p, rows = case
    tab = anomalous_bool_table(anomalous_residue_table(p, rows), p)
    assert np.array_equal(tab, np.array([row_histogram(a, p) for a in rows])), (p, rows)


@pytest.mark.parametrize("p", [5, 7, 11, 499])
def test_anomalous_rows_match_the_full_table(p):
    full = anomalous_bool_table(anomalous_residue_table(p), p)
    sample = random.Random(p).sample(range(p), min(p, 7))
    for rows in ([0], [p - 1, 1], sample, sorted({a % p for a in range(-100, 101)})):
        part = anomalous_residue_table(p, rows)
        assert len(part) == len(rows)
        assert np.array_equal(anomalous_bool_table(part, p), full[rows]), (p, rows)


def test_anomalous_rows_of_a_small_box_stay_small():
    # the height-100 box meets 9 rows; the full table would be p x p bytes
    p = 4999
    rows = sorted({a % p for a in range(-4, 5)})
    tracemalloc.start()
    try:
        tab = anomalous_residue_table(p, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(tab) == 9
    anomalous_bool_table(tab, p)  # each row sorted inside [0, p)
    assert peak < p * p, peak


def test_anomalous_rows_of_a_small_box_correlate_at_most_three_rows(monkeypatch):
    # the 9 rows of the height-100 box at p = 4999 meet a = 0 and both
    # cosets of the squares; a = 0, 1 and g are computed, the rest mapped
    calls = []
    row = curves._count_row

    def counting(a, p, poly):
        calls.append(a)
        return row(a, p, poly)

    monkeypatch.setattr(curves, "_count_row", counting)
    curves._point_count_rows.cache_clear()
    p = 4999
    e3 = empirical_densities(p, 100).e3
    assert 1 <= len(calls) <= 3, calls
    assert e3 == sum(1 for A, B in iter_curves(100)
                     if disc0_of(A, B) % p and (p + 1 - trace_by_legendre(A, B, p)) % p == 0)


def test_hurwitz_class_numbers_known():
    # 6 H(D) and the number of reduced forms, against the classical table
    # H(3) = 1/3, H(4) = 1/2, H(7) = H(8) = H(11) = 1, H(12) = 4/3, H(15) = 2,
    # H(16) = 3/2, H(19) = 1, H(20) = 2, H(23) = 3, H(24) = 2
    want = {3: (2, 1), 4: (3, 1), 7: (6, 1), 8: (6, 1), 11: (6, 1), 12: (8, 2),
            15: (12, 2), 16: (9, 2), 19: (6, 1), 20: (12, 2), 23: (18, 3), 24: (12, 2)}
    assert {D: _reduced_forms(D) for D in want} == want


def test_class_number_census_matches_bruteforce():
    for p in CENSUS_PRIMES:
        c = dp_census_bruteforce(p)
        for mode in DpMode:
            assert d_of_p(p, mode) == c[mode.value], (p, mode)
        assert dp_census(p) == c, p


def test_census_does_not_run_the_oracle(monkeypatch):
    import iwastat.curves as curves

    def oracle_called(p):
        raise AssertionError("d_of_p and dp_table must not go through dp_census")

    monkeypatch.setattr(curves, "dp_census", oracle_called)
    assert d_of_p(5) == 3
    t = dp_table(50)
    assert [t[p][DpMode.TRACE_ONE_CLASSES.value] for p in (5, 7, 11, 43)] == [1, 2, 1, 5]


def test_every_census_reader_walks_the_forms_once_per_prime(monkeypatch):
    # every mode is read off the reduced forms of discriminant 1 - 4p, so
    # bounds, dp_census and dp_table walk them once per prime, and d_of_p
    # refuses an unknown mode before it walks
    import iwastat.census as census
    from iwastat import cli

    walked = []
    real = census._reduced_forms

    def counting(D):
        walked.append(D)
        return real(D)

    monkeypatch.setattr(census, "_reduced_forms", counting)
    for p in (5, 7, 457):
        for call in (lambda p: cli.main(["bounds", "--prime", str(p)]), dp_census, d_of_p):
            walked.clear()
            call(p)
            assert walked == [4 * p - 1], (p, call)
    walked.clear()
    table = dp_table(500)
    assert walked == [4 * p - 1 for p in table]
    walked.clear()
    with pytest.raises(OutOfRange):
        d_of_p(7, "nope")
    assert walked == []


def test_the_census_tables_refuse_a_prime_past_the_cap(monkeypatch):
    import iwastat.census as census

    def census_called(*args):
        raise AssertionError("dp_census must refuse the prime before the census runs")

    monkeypatch.setattr(census, "_census", census_called)
    cap = curves._CENSUS_PRIME_CAP
    past = next(n for n in range(cap + 1, 2 * cap) if primes.is_prime(n))
    for p in (past, 10**12 + 39):
        for call in (anomalous_residue_table, dp_census, lambda p: empirical_densities(p, 10**4)):
            with pytest.raises(TooLarge, match=f"^prime {p} exceeds the census cap {cap}$"):
                call(p)
    below = max(primes_up_to(cap))
    assert len(anomalous_residue_table(below, [0])) == 1


SCAN_PRIMES = tuple(p for p in primes_up_to(200) if p >= 5)
COEFF = st.one_of(st.integers(-10**4, 10**4), st.integers(-2**80, 2**80),
                  st.sampled_from([2**63, -2**63 - 1, 3 * 2**64 + 1]))


@settings(max_examples=60, deadline=None)
@given(A=COEFF, B=COEFF, lo=st.integers(0, len(SCAN_PRIMES) - 1))
def test_frobenius_traces_match_count_points(A, B, lo):
    # the primes are within the row bound, singular cubics included
    primes = SCAN_PRIMES[lo:]
    traces = frobenius_traces(A, B, primes)
    assert len(traces) == len(primes)
    for p, a_p in zip(primes, traces):
        assert a_p == trace_by_legendre(A, B, p), (A, B, p)
        if (4 * A**3 + 27 * B**2) % p == 0:
            assert abs(a_p) <= 1


ROW_PRIMES = tuple(p for p in primes_up_to(curves._ROW_PRIME_BOUND) if p >= 5)


@st.composite
def pair_at_prime(draw):
    # a prime up to the row bound and a pair that is often 0 mod p in A or
    # B, or singular mod p (A = -3k^2, B = 2k^3 mod p makes p | disc0)
    p = draw(st.sampled_from(ROW_PRIMES))
    k = draw(st.integers(0, p - 1))
    A, B = draw(st.one_of(
        st.tuples(st.integers(-2**70, 2**70), st.integers(-2**70, 2**70)),
        st.tuples(st.just(0), st.integers(0, p - 1)),
        st.tuples(st.integers(0, p - 1), st.just(0)),
        st.just((-3 * k * k, 2 * k ** 3)),
    ))
    m = draw(st.integers(-3, 3))
    return p, A + m * p, B - m * p


@settings(max_examples=400, deadline=None)
@given(pair_at_prime())
def test_point_count_rows_match_count_points(case):
    p, A, B = case
    # the singular cubic too, where p | disc0
    assert frobenius_traces(A, B, (p,))[0] == trace_by_legendre(A, B, p), (A, B, p)


def test_point_count_rows_of_a_scan_stay_cached():
    # a scan to the bound meets every prime up to it; none may be evicted
    assert curves._point_count_rows.cache_info().maxsize >= len(ROW_PRIMES)


def test_point_count_rows_cover_every_pair_at_small_primes(monkeypatch):
    # every prime below 50 meets every class of p mod 12, and the singular
    # pairs of the twisted cosets where p = 1 mod 4
    calls = []
    row = curves._count_row
    monkeypatch.setattr(curves, "_count_row",
                        lambda a, p, poly: calls.append((p, a)) or row(a, p, poly))
    for p in primes_up_to(49)[1:]:
        rows = curves._PointCountRows(p)
        for a in range(p):
            for b in range(p):
                assert rows.trace(a, b) == trace_by_legendre(a, b, p), (a, b, p)
        # a = 1 and a = g, and a = 0 where p = 1 mod 3; elsewhere x -> x^3 is
        # a bijection, so the a = 0 row is p for every b and is not correlated
        correlated = sorted(a for q, a in calls if q == p)
        assert correlated == ([0] if p % 3 == 1 else []) + sorted(rows.reps[1:]), (p, correlated)
        assert len(correlated) == (3 if p % 3 == 1 else 2)
        if p % 3 == 2:
            assert list(rows.rows[0]) == [p] * p


ORDER_PRIMES = tuple(p for p in ROW_PRIMES if p > 229)


@settings(max_examples=60, deadline=None)
@given(A=COEFF, B=COEFF, lo=st.integers(0, len(ORDER_PRIMES) - 8))
def test_point_orders_match_the_rows_where_both_apply(A, B, lo):
    # Mestre's theorem lets point orders count any p > 229; frobenius_traces
    # leaves them the primes past the row bound only
    primes = ORDER_PRIMES[lo:lo + 8]
    assert [_trace_by_point_orders(A, B, p) for p in primes] == frobenius_traces(A, B, primes)


PAST_ROWS = tuple(prime_range(curves._ROW_PRIME_BOUND + 1, 20001))
COEFF80 = st.integers(-2**80, 2**80)


@st.composite
def pair_past_the_rows(draw):
    # (kind, p, A, B): a pair at a prime in (600, 20000]; "j=0" is A = 0 at
    # p = 2 mod 3 and "j=1728" B = 0 at p = 3 mod 4, both supersingular
    # there; "singular" is A = -3k^2, B = 2k^3, which makes p | disc0; each
    # shifted by p
    kind = draw(st.sampled_from(("any", "j=0", "j=1728", "singular")))
    p = draw(st.sampled_from(PAST_ROWS).filter(
        lambda p: {"j=0": p % 3 == 2, "j=1728": p % 4 == 3}.get(kind, True)))
    k = draw(st.integers(0, p - 1))
    A, B = {
        "any": (draw(COEFF80), draw(COEFF80)),
        "j=0": (0, draw(COEFF80)),
        "j=1728": (draw(COEFF80), 0),
        "singular": (-3 * k * k, 2 * k ** 3),
    }[kind]
    m = draw(st.integers(-3, 3))
    return kind, p, A + m * p, B - m * p


@settings(max_examples=150, deadline=None)
@given(pair_past_the_rows())
def test_point_orders_match_the_legendre_sum(case):
    kind, p, A, B = case
    a_p = frobenius_traces(A, B, (p,))[0]
    assert a_p == trace_by_legendre(A, B, p), case
    if kind in ("j=0", "j=1728"):
        assert a_p == 0, case
    if kind == "singular":
        assert abs(a_p) <= 1, case
        with pytest.raises(BadReductionAt):
            count_points(A, B, p)


def test_frobenius_traces_across_the_row_bound():
    assert frobenius_traces(1, 1, ()) == []
    # 599 reads the rows and 601 counts by point orders, in one call; the
    # last two pairs are singular cubics at every prime
    for A, B in ((2**70 + 3, -5), (-1, 1), (0, 0), (-3, 2)):
        want = [trace_by_legendre(A, B, p) for p in (599, 601)]
        assert frobenius_traces(A, B, (599, 601)) == want, (A, B)


def test_the_a_p_dispatch_holds_nothing_per_prime_past_the_row_bound(monkeypatch):
    # a scan to 2e5 has ~18,000 primes past the bound; their a_p is counted
    # by point orders when asked, and the dispatch frobenius_traces caches
    # per tuple of primes may keep a pointer for each of them, not a closure
    # (~230 bytes each)
    monkeypatch.setattr(curves, "_trace_by_point_orders", lambda A, B, p: p % 3)
    primes = tuple(prime_range(curves._ROW_PRIME_BOUND + 1, 2 * 10 ** 5))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert frobenius_traces(-7, 11, primes) == [p % 3 for p in primes]
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held <= 16 * len(primes), (held, len(primes))


def test_a_curve_whose_own_points_leave_a_p_open_is_fixed_by_its_twist():
    # y^2 = x^3 + 1 at 601 has 576 points, (Z/24)^2: every point of the
    # curve has order dividing 24, which has four multiples in the Hasse
    # interval [553, 649]. The twist has 628 = 4 * 157 points and fixes a_p.
    p = 601
    left = set(range(-49, 50))
    for x in range(p):
        d = (x ** 3 + 1) % p
        if d and pow(d, (p - 1) // 2, p) == 1:
            ns = _orders_in((d * x % p, d * d % p), 0, p, 553, 649)
            left &= {p + 1 - n for n in ns}
    assert sorted(left) == [-46, -22, 2, 26]
    assert trace_frobenius(0, 1, p) == 26 == trace_by_legendre(0, 1, p)


# a_p at p = 1000003 by trace_by_legendre, frozen: it takes ~2.5 s a curve
# there. (0, 1) sits at the edge of the Hasse interval, a_p = floor(2 sqrt p);
# 1000003 = 3 mod 4 makes (1, 0) supersingular; the last pair is singular,
# (-3 k^2, 2 k^3) with k = 5 shifted by p.
FROZEN_AT_A_MILLION = ((-7, 11, 191), (0, 1, 2000), (1, 0, 0), (2**70 + 3, -5, 990),
                       (1000003 - 75, 250 - 1000003, 1))


def test_point_orders_at_a_million():
    p = 1000003
    for A, B, a_p in FROZEN_AT_A_MILLION:
        assert frobenius_traces(A, B, (p,)) == [a_p], (A, B)


def test_point_orders_raise_below_mestres_bound_and_never_answer_wrong():
    # Mestre's theorem needs p > 229; below it E and its twist can both
    # lack a point with a single order in the Hasse interval, and then the
    # loop over x runs out and raises rather than guess
    raised = 0
    for p in (5, 7, 11, 13, 17, 19, 23, 29):
        for A in range(p):
            for B in range(p):
                try:
                    a_p = _trace_by_point_orders(A, B, p)
                except AssertionError:
                    raised += 1
                    continue
                assert a_p == trace_by_legendre(A, B, p), (A, B, p)
    assert raised
    # at 31 y^2 = x^3 + 1 has (Z/6)^2, its twist 28 points of exponent 14:
    # no single point has one order in [21, 43], but the a_p each side
    # leaves, {8, 2, -4, -10} and {-4, 10}, meet in one
    assert _trace_by_point_orders(0, 1, 31) == -4 == trace_by_legendre(0, 1, 31)


@pytest.mark.parametrize("A, B", [(-7, 11), (0, 1), (1, 0)])
def test_single_prime_counts_match_the_legendre_sum(A, B):
    # below the row bound, across it and one run past it, p = 3 and 5 included
    for p in primes_up_to(700)[1:]:
        if disc0_of(A, B) % p == 0:
            assert classify_reduction((A, B), p, allow_p3=True).reduction_class is ReductionClass.BAD
            continue
        a_p = trace_by_legendre(A, B, p)
        assert trace_frobenius(A, B, p) == a_p, (A, B, p)
        assert count_points(A, B, p) == p + 1 - a_p, (A, B, p)
        r = classify_reduction((A, B), p, allow_p3=True)
        assert (r.a_p, r.n_points, r.anomalous) == (a_p, p + 1 - a_p, (p + 1 - a_p) % p == 0)
        assert r.reduction_class is (ReductionClass.GOOD_ORDINARY if a_p % p
                                     else ReductionClass.GOOD_SUPERSINGULAR)


@pytest.mark.parametrize("p", [3, 599, 601, 65537])
def test_counts_at_the_edges_of_each_engine(p):
    # p = 3 and 599 read the rows, 601 and 65537 count by point orders;
    # A or B = 0 mod p, and singular cubics at every prime
    for A, B in ((-7, 11), (p, 2), (3, -p), (2**70 + 3, -5)):
        if disc0_of(A, B) % p:
            assert count_points(A, B, p) == p + 1 - trace_by_legendre(A, B, p), (A, B)
    # (-3 k^2, 2 k^3) is singular over Q; k = 5, shifted by p
    for A, B in ((0, 0), (-3, 2), (p - 75, 250 - p)):
        assert frobenius_traces(A, B, (p,)) == [trace_by_legendre(A, B, p)], (A, B)
        with pytest.raises(BadReductionAt):
            count_points(A, B, p)


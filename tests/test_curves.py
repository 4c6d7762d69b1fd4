import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iwastat import curves
from iwastat.curves import (
    CurveQ,
    DpMode,
    ReductionClass,
    anomalous_residue_table,
    classify_reduction,
    count_points,
    d_of_p,
    disc0_of,
    dp_census,
    dp_table,
    frobenius_traces,
    is_minimal_pair,
    trace_frobenius,
)
from iwastat.curves import _affine_count, _reduced_forms, _sum_blocks
from iwastat.errors import (
    BadReductionAt,
    InvalidPrime,
    NonMinimalModel,
    SingularCurve,
)
from iwastat.primes import primes_up_to

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
    for p in (5, 7, 11, 13):
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
        c = dp_census(p)
        for mode in DpMode:
            assert row[mode.value] == c[mode.value]


def test_anomalous_residue_table():
    for p in (5, 7):
        tab = anomalous_residue_table(p)
        assert tab.shape == (p, p) and tab.dtype == np.bool_
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
        assert np.array_equal(anomalous_residue_table(p), row_histogram_table(p)), p


def test_hurwitz_class_numbers_known():
    # 6 H(D) and the number of reduced forms, against the classical table
    # H(3) = 1/3, H(4) = 1/2, H(7) = H(8) = H(11) = 1, H(12) = 4/3, H(15) = 2,
    # H(16) = 3/2, H(19) = 1, H(20) = 2, H(23) = 3, H(24) = 2
    want = {3: (2, 1), 4: (3, 1), 7: (6, 1), 8: (6, 1), 11: (6, 1), 12: (8, 2),
            15: (12, 2), 16: (9, 2), 19: (6, 1), 20: (12, 2), 23: (18, 3), 24: (12, 2)}
    assert {D: _reduced_forms(D) for D in want} == want


def test_class_number_census_matches_bruteforce():
    for p in CENSUS_PRIMES:
        c = dp_census(p)
        for mode in DpMode:
            assert d_of_p(p, mode) == c[mode.value], (p, mode)


def test_census_does_not_run_the_oracle(monkeypatch):
    import iwastat.curves as curves

    def oracle_called(p):
        raise AssertionError("dp_census is a test oracle only")

    monkeypatch.setattr(curves, "dp_census", oracle_called)
    assert d_of_p(5) == 3
    t = dp_table(50)
    assert [t[p][DpMode.TRACE_ONE_CLASSES.value] for p in (5, 7, 11, 43)] == [1, 2, 1, 5]


SCAN_PRIMES = tuple(p for p in primes_up_to(200) if p >= 5)
COEFF = st.one_of(st.integers(-10**4, 10**4), st.integers(-2**80, 2**80),
                  st.sampled_from([2**63, -2**63 - 1, 3 * 2**64 + 1]))


@settings(max_examples=60, deadline=None)
@given(A=COEFF, B=COEFF,
       lo=st.integers(0, len(SCAN_PRIMES) - 1), budget=st.sampled_from([60, 97, 250, 1 << 16]))
def test_frobenius_traces_match_count_points(A, B, lo, budget):
    # small budgets cut the prime list into blocks, a prime above the
    # budget (61.. at 60, 101.. at 97) standing alone
    primes = SCAN_PRIMES[lo:]
    old = curves._BLOCK_ELEMENTS
    curves._BLOCK_ELEMENTS = budget
    try:
        traces = frobenius_traces(A, B, primes)
    finally:
        curves._BLOCK_ELEMENTS = old
    assert len(traces) == len(primes)
    for p, a_p in zip(primes, traces):
        if (4 * A**3 + 27 * B**2) % p:
            assert a_p == trace_frobenius(A, B, p), (A, B, p)
        else:
            assert a_p == p - _affine_count(A % p, B % p, p) and abs(a_p) <= 1


def test_frobenius_traces_blocks():
    assert _sum_blocks((5, 7, 11, 13, 67, 71, 73), 60) == ((5, 7, 11, 13), (67,), (71,), (73,))
    assert _sum_blocks((5, 7, 11), 23) == ((5, 7, 11),)
    assert _sum_blocks((), 60) == ()
    assert frobenius_traces(1, 1, ()) == []
    # above 46340 the pass switches from int32 to int64 arithmetic
    big = (46337, 46349)
    for A, B in ((2**70 + 3, -5), (-1, 1)):
        assert frobenius_traces(A, B, big) == [trace_frobenius(A, B, p) for p in big]

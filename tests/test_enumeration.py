import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iwastat import enumeration, parallel
from iwastat.curves import d_of_p, disc0_of, is_minimal_pair, minimal_mask
from iwastat.enumeration import (
    DensityReport,
    bound_dp2,
    bound_dp3,
    box_bounds,
    brumer_estimate,
    count_Ip,
    empirical_densities,
    lifting_count,
    sadek_bounds,
    total_weq,
    zeta10,
)
from iwastat.errors import EqualPrimes, InvalidPrime, OutOfRange, TooLarge
from iwastat.local_data import kodaira_tamagawa
from iwastat.primes import iroot, primes_up_to, valuation
from oracles import (
    enumerate_curves,
    iter_curves,
    lattice_class_count,
    lattice_density,
    lifting_count_bruteforce,
    trace_by_legendre,
)


def brute_family(X):
    # independent re-derivation of the height box and the membership rules
    amax = round(X ** (1 / 3))
    while (amax + 1) ** 3 <= X:
        amax += 1
    while amax**3 > X:
        amax -= 1
    bmax = math.isqrt(X)
    out = []
    for A in range(-amax, amax + 1):
        for B in range(-bmax, bmax + 1):
            if 4 * A**3 + 27 * B * B != 0 and brute_minimal(A, B):
                out.append((A, B))
    return out


def brute_minimal(A, B):
    # every integer q >= 2, prime or not, up to the bound either coefficient allows
    q = 2
    while q**4 <= max(abs(A), 1) or q**6 <= max(abs(B), 1):
        if A % q**4 == 0 and B % q**6 == 0:
            return False
        q += 1
    return True


# A = 0 and multiples of 2^4, 3^4, 5^4; B windows around 0 and multiples of
# 2^6 and 3^6, where the q^4/q^6 test bites
MASK_A = st.one_of(
    st.just(0),
    st.builds(lambda k, q: k * q, st.integers(-2000, 2000), st.sampled_from([16, 81, 625])),
    st.integers(-10**6, 10**6),
)
MASK_B_CENTRE = st.one_of(
    st.just(0),
    st.builds(lambda k, q: k * q, st.integers(-10**4, 10**4), st.sampled_from([64, 729])),
    st.integers(-10**7, 10**7),
)


@settings(max_examples=150, deadline=None)
@given(A=MASK_A, centre=MASK_B_CENTRE, half=st.integers(0, 100))
def test_minimal_mask_matches_brute_force(A, centre, half):
    B = np.arange(centre - half, centre + half + 1, dtype=np.int64)
    bmax = int(np.abs(B).max())
    qs = primes_up_to(max(iroot(abs(A), 4), iroot(bmax, 6)))
    disc = 4 * A**3 + 27 * B * B
    mask = minimal_mask(A, B, qs, disc != 0)
    want = [4 * A**3 + 27 * b * b != 0 and brute_minimal(A, b) for b in B.tolist()]
    assert mask.tolist() == want
    for b in (B.tolist()[0], centre):
        if 4 * A**3 + 27 * b * b != 0:
            assert minimal_mask(A, b, qs) == brute_minimal(A, b)
            assert is_minimal_pair(A, b) == brute_minimal(A, b)


# |A| far above any height box, so is_minimal_pair's sieve bound comes from
# gcd(A^3, B^2), not from |A| alone; shared q^4 / q^6 factors make pairs that
# are not minimal
LARGE_PAIR = st.one_of(
    st.tuples(st.integers(-10**15, 10**15), st.one_of(st.just(0), st.integers(-10**18, 10**18))),
    st.builds(lambda q, k, m: (k * q**4, m * q**6),
              st.sampled_from([2, 3, 5, 43, 97, 101]),
              st.integers(-10**6, 10**6), st.integers(-10**6, 10**6)),
)


@settings(max_examples=100, deadline=None)
@given(pair=LARGE_PAIR)
def test_is_minimal_pair_matches_brute_force_at_large_A(pair):
    A, B = pair
    if 4 * A**3 + 27 * B * B != 0:
        assert is_minimal_pair(A, B) == brute_minimal(A, B)


def test_is_minimal_pair_with_a_zero_coefficient_matches_brute_force():
    ks = [k for k in range(-12, 13) if k] + [10**9 + 7, -(2**31 - 1)]
    for q in range(2, 102):
        for k in ks:
            for A, B in ((q**4 * k, 0), (0, q**6 * k)):
                assert is_minimal_pair(A, B) == brute_minimal(A, B), (A, B)


def test_box_bounds():
    assert box_bounds(1) == (1, 1)
    assert box_bounds(100) == (4, 10)
    assert box_bounds(10**6) == (100, 1000)
    with pytest.raises(TooLarge):
        box_bounds(10**15 + 1)


def test_family_counts_small_oracle():
    assert enumerate_curves(1) == len(brute_family(1)) == 8
    assert enumerate_curves(100) == len(brute_family(100)) == 186
    assert set(iter_curves(100)) == set(brute_family(100))
    assert total_weq(100) == 9 * 21 == 189
    assert total_weq(1) == 9


def test_enumerate_visitor_sees_every_curve():
    seen = []
    n = enumerate_curves(50, visitor=lambda a, b: seen.append((a, b)))
    assert n == len(seen) == len(set(seen))
    assert set(seen) == set(brute_family(50))


def test_frozen_counts_at_height_1e6():
    r = empirical_densities(5, 10**6)
    assert r.total == 401782
    assert r.good_at_p == 321418
    assert r.e2 == 51
    assert r.e3 == 48002
    assert r.ip_counts[7] == 16
    assert r.ip_counts[19] == 2
    assert all(v == 0 for l, v in r.ip_counts.items() if l not in (7, 19))
    assert r.skipped_uncertified is None
    assert r.d_literal == 3


def test_strict_mode_drops_uncertified():
    r = empirical_densities(5, 10**6, strict=True)
    assert r.e2 == 48
    assert r.skipped_uncertified == 26674
    assert r.total == 401782  # strictness only affects the bad-fiber census


@pytest.mark.parametrize("strict", [False, True])
def test_workers_agree_with_serial(monkeypatch, strict):
    # a box this small is swept serially whatever the worker count; the
    # threshold at 0 sends it through the pool, on the two CPUs pinned here
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    fanned = []
    real = enumeration.fan_out

    def recording(fn, jobs, workers):
        fanned.append((len(jobs), workers))
        return real(fn, jobs, workers)

    monkeypatch.setattr(enumeration, "fan_out", recording)
    a = empirical_densities(5, 10**5, strict=strict)
    assert a == empirical_densities(5, 10**5, strict=strict, workers=2) and not fanned
    monkeypatch.setattr(enumeration, "_MIN_PARALLEL_US", 0)
    assert a == empirical_densities(5, 10**5, strict=strict, workers=2)
    assert count_Ip(7, 5, 10**8, workers=2) == count_Ip(7, 5, 10**8)
    assert fanned == [(2, 2), (2, 2)]


def _fans_out(p, X, strict=False, ip_primes=None):
    amax, bmax = box_bounds(X)
    maxdisc = 4 * amax**3 + 27 * bmax**2
    if ip_primes is None:  # the enumerate command: e2 and every I_p prime
        ip_primes, want_e2 = [], True
    else:  # the ip-count command
        want_e2 = False
    locus = set().union(*enumeration._locus_primes(p, maxdisc, ip_primes, want_e2))
    cost = enumeration._serial_cost_us(amax, bmax, p, locus, strict)
    return cost >= enumeration._MIN_PARALLEL_US


def test_pool_threshold_matches_the_timed_crossovers():
    # serial against two workers, each mode was timed on both sides of its
    # break-even; the estimate must put every side where it was measured
    assert not _fans_out(5, 3 * 10**8) and _fans_out(5, 4 * 10**8)
    assert not _fans_out(7, 2 * 10**9) and _fans_out(7, 2 * 10**10)
    assert not _fans_out(5, 10**8, strict=True) and _fans_out(5, 4 * 10**8, strict=True)
    assert not _fans_out(7, 7 * 10**8, strict=True) and _fans_out(7, 10**9, strict=True)
    assert not _fans_out(13, 15 * 10**8, strict=True)
    assert not _fans_out(5, 10**10, ip_primes=[7]) and _fans_out(5, 3 * 10**10, ip_primes=[7])


def test_counts_cross_checked_against_local_theory():
    # rebuild every census column at X = 10^4 from per-curve local data
    X = 10**4
    family = brute_family(X)
    good = e3 = e2 = ip7 = 0
    for A, B in family:
        d0 = disc0_of(A, B)
        if d0 % 5:
            good += 1
            if (6 - trace_by_legendre(A, B, 5)) % 5 == 0:  # 5 | #E(F_5)
                e3 += 1
        hit = False
        for l in set(
            l for l in primes_up_to(310) if l >= 5 and d0 % l == 0
        ):
            k = kodaira_tamagawa((A, B), l)
            if k.split and k.n % 5 == 0:
                hit = True
            if l == 7 and A % 7 and B % 7 and valuation(d0, 7) == 5:
                ip7 += 1
        if hit:
            e2 += 1
    r = empirical_densities(5, X, ip_primes=[7])
    assert r.total == len(family)
    assert r.good_at_p == good
    assert r.e3 == e3
    assert r.e2 == e2
    assert r.ip_counts[7] == ip7


def test_count_Ip_values_and_guards():
    assert count_Ip(7, 5, 10**6) == 16
    assert count_Ip(11, 5, 10**6) == 0
    with pytest.raises(EqualPrimes):
        count_Ip(5, 5, 10**6)


@pytest.mark.parametrize("p", [0, 1, 4, 9])
def test_ip_locus_needs_a_prime_exponent(p):
    with pytest.raises(InvalidPrime):
        count_Ip(7, p, 5000)
    with pytest.raises(InvalidPrime):
        sadek_bounds(7, p, 10**6)


def test_sadek_sandwich_frozen():
    lo, hi = sadek_bounds(7, 5, 10**6)
    assert lo == pytest.approx(-0.0037908746017967514, rel=1e-12)
    assert hi == pytest.approx(7535.491071428571, rel=1e-12)
    assert lo <= 16 <= hi
    with pytest.raises(OutOfRange):
        sadek_bounds(7, 5, 1000)  # box too small for the primorial cutoff


def test_lifting_counts():
    # the unit-locus count matches the closed form once l is large enough
    # for the discriminant gradient to stay nonzero on units
    assert lifting_count_bruteforce(5, 2) == 400 == 5**2 * 4**2
    assert lifting_count_bruteforce(7, 2) == 1764 == 7**2 * 6**2
    # at l = 2 and 3 the unit locus is empty: 2 coprime to B forces an odd
    # discriminant and 3 coprime to A forces v_3 = 0
    assert lifting_count_bruteforce(2, 5) == 0
    assert lifting_count_bruteforce(3, 5) == 0
    assert lifting_count_bruteforce(2, 7) == 0
    # dropping the componentwise rule picks up pairs on the boundary
    assert lifting_count_bruteforce(2, 5, exclusion="pair") == 64
    assert lifting_count_bruteforce(3, 5, exclusion="pair") == 8748
    assert lifting_count_bruteforce(2, 7, exclusion="pair") == 256
    with pytest.raises(TooLarge):
        lifting_count_bruteforce(7, 7)


def test_lifting_count_matches_bruteforce():
    # every (l, exponent) the 2^32 guard admits with l^(p+1) <= 2^12; the
    # guard reaches l^(p+1) <= 2^16, but the brute force costs l^(2(p+1))
    checked = []
    for l in primes_up_to(4096):
        p = 1
        while l ** (p + 1) <= 2**12:
            assert lifting_count(l, p) == lifting_count_bruteforce(l, p), (l, p)
            checked.append((l, p))
            p += 1
    assert {(2, 11), (3, 6), (5, 4), (7, 3), (13, 2), (61, 1)} <= set(checked)
    assert lifting_count(2, 5) == lifting_count(3, 5) == 0
    assert lifting_count(5, 2) == 400 and lifting_count(7, 2) == 1764


def test_sadek_bounds_empty_locus_at_2_and_3():
    # the unit locus at l = 2, 3 is empty, so the sandwich must hold 0
    for l in (2, 3):
        lo, hi = sadek_bounds(l, 5, 10**15)
        assert lo <= 0 <= hi
        assert count_Ip(l, 5, 10**6) == 0
        lo, hi = sadek_bounds(l, 5, 10**6)
        assert lo <= 0 <= hi


def test_input_errors_are_typed():
    with pytest.raises(OutOfRange):
        box_bounds(0)
    with pytest.raises(OutOfRange):
        empirical_densities(5, 0)
    for p in (2, 3, 9):
        with pytest.raises(InvalidPrime):
            bound_dp2(p)
        with pytest.raises(InvalidPrime):
            bound_dp3(p, 1)
        with pytest.raises(InvalidPrime):
            empirical_densities(p, 10**5)
    with pytest.raises(OutOfRange):
        bound_dp2(5, tol=0)
    with pytest.raises(OutOfRange):
        bound_dp3(5, -1)


def test_unknown_choices_are_typed():
    with pytest.raises(OutOfRange, match="^unknown census mode 'nope'$"):
        d_of_p(5, "nope")
    with pytest.raises(OutOfRange, match="^exclusion must be"):
        lifting_count_bruteforce(5, 2, exclusion="neither")


def test_zeta10_value():
    assert zeta10() == pytest.approx(math.pi**10 / 93555, rel=1e-15)
    s = sum(Fraction(1, n**10) for n in range(1, 200))
    assert zeta10() == pytest.approx(float(s), abs=1e-15)


def test_brumer_estimate_formula():
    for X in (100, 10**6):
        assert brumer_estimate(X) == pytest.approx(4 * X ** (5 / 6) / zeta10(), rel=1e-12)
    # the estimate tracks the true count already at moderate heights
    assert abs(enumerate_curves(10**6) / brumer_estimate(10**6) - 1) < 0.01


def test_bound_dp2_against_independent_sum():
    # same series, separately coded: sum (l-1)^2 / l^(p+2) over primes l != p
    def indep(p, limit=2000):
        tot = Fraction(0)
        for l in range(2, limit):
            if l != p and all(l % q for q in range(2, int(l**0.5) + 1)):
                tot += Fraction((l - 1) ** 2, l ** (p + 2))
        return float(tot)

    assert bound_dp2(5) == pytest.approx(0.009693875536248306, rel=1e-12)
    assert bound_dp2(5) == pytest.approx(indep(5), abs=1e-7)
    assert bound_dp2(7) == pytest.approx(indep(7), abs=1e-9)
    vals = [bound_dp2(p) for p in (5, 7, 11, 13)]
    assert vals == sorted(vals, reverse=True) and len(set(vals)) == 4


def test_bound_dp3_closed_form():
    assert bound_dp3(5, 1) == pytest.approx(zeta10() / 25, rel=1e-12)
    assert bound_dp3(5, 3) == pytest.approx(3 * zeta10() / 25, rel=1e-12)
    assert bound_dp3(7, 1) == pytest.approx(zeta10() / 49, rel=1e-12)


def test_lattice_counts():
    assert lattice_class_count((3, 2), 5, 100) == 8
    assert lattice_density((3, 2), 5, 100) == pytest.approx(8 / 189)
    # residue classes partition the box
    for X in (100, 3000):
        tot = sum(
            lattice_class_count((ka, kb), 5, X) for ka in range(5) for kb in range(5)
        )
        assert tot == total_weq(X)
    # explicit check against a brute count
    amax, bmax = box_bounds(100)
    brute = sum(
        1
        for A in range(-amax, amax + 1)
        for B in range(-bmax, bmax + 1)
        if A % 5 == 3 and B % 5 == 2
    )
    assert brute == 8


def test_density_report_shape():
    r = empirical_densities(5, 100)
    assert isinstance(r, DensityReport)
    assert r.p == 5 and r.X == 100
    assert r.total_weq == 189
    assert r.brumer_estimate == pytest.approx(brumer_estimate(100))
    assert r.bound_dp2 == pytest.approx(bound_dp2(5))
    assert r.bound_dp3 == pytest.approx(bound_dp3(5, r.d_literal))
    with pytest.raises(Exception):
        r.total = 1  # frozen

"""The height sweep against the row-scan oracle.

row_scan_chunk is the sweep as it was before the e2 and I_p loci were
solved by Hensel lifting: it tests disc % l^k over whole rows and walks
each hit with its own valuation loop, and it derives the minimality primes,
the locus primes and the strict-mode ladder from their definitions, not
from the sweep's _Box. It must agree with _sweep_chunk on every count.
Both give a Counter with every tally and I_p prime as a key, compared as
dicts, since Counter equality would let a missing key pass for a zero tally.
"""

import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iwastat import cli, parallel
from iwastat.curves import anomalous_residue_table, minimal_mask
from iwastat.enumeration import (
    _Box,
    _locus,
    _power_locus,
    _StrictLadder,
    _sweep_chunk,
    box_bounds,
    count_Ip,
    empirical_densities,
)
from iwastat.errors import InvalidPrime, InvalidSetting
from iwastat.parallel import worker_count
from iwastat.primes import isqrt, legendre, primes_up_to
from oracles import anomalous_bool_table


def uncertified_min_valuation(l, p):
    shift = 4 if l == 2 else 0
    for v in range(2 if l == 2 else 1, 200):
        if any(n % p == 0 for n in range(v + shift, 0, -12)):
            return v
    raise AssertionError("unreachable for p <= 199")


def minimality_primes(amax, bmax):
    # the primes q that can make a nonsingular pair non-minimal: q^4 | A != 0
    # or q^6 | B with A = 0
    return [q for q in primes_up_to(amax + bmax) if q ** 4 <= amax or q ** 6 <= bmax]


def locus_candidates(p, maxdisc):
    # the primes l whose p-th power some |disc0| of the box can reach; 10^4
    # is past every such l up to the height cap
    assert (10 ** 4) ** p > maxdisc
    return [l for l in primes_up_to(10 ** 4) if l ** p <= maxdisc]


def row_scan_chunk(X, p, a_lo, a_hi, ip_primes, densities, strict):
    amax, bmax = box_bounds(X)
    B = np.arange(-bmax, bmax + 1, dtype=np.int64)
    Bsq27 = 27 * B * B
    Bmodp = B % p
    qs = minimality_primes(amax, bmax)
    maxdisc = 4 * amax ** 3 + 27 * bmax ** 2
    e2_cands = [l for l in locus_candidates(p, maxdisc) if l >= 5] if densities else []
    ip_set = sorted(l for l in set(ip_primes or []) if l ** p <= maxdisc)
    ip_zero = sorted(set(ip_primes or []) - set(ip_set))
    anom = anomalous_bool_table(anomalous_residue_table(p), p) if densities else None
    strict2 = uncertified_min_valuation(2, p) if strict else None
    strict3 = uncertified_min_valuation(3, p) if strict else None

    tallies = ("total", "good_at_p", "e2", "e3", "skipped", *ip_set, *ip_zero)
    out = Counter(dict.fromkeys(tallies, 0))
    for A in range(a_lo, a_hi):
        disc = 4 * A ** 3 + Bsq27
        ok = minimal_mask(A, B, qs, disc != 0)
        n_ok = int(np.count_nonzero(ok))
        if n_ok == 0:
            continue
        if densities:
            out["total"] += n_ok
            good = ok & (disc % p != 0)
            out["good_at_p"] += int(np.count_nonzero(good))
            out["e3"] += int(np.count_nonzero(good & anom[A % p][Bmodp]))

        skip_mask = None
        if strict and densities:
            skip_mask = np.zeros(len(B), dtype=bool)
            for l, minv in ((2, strict2), (3, strict3)):
                hit = ok & (disc % l ** minv == 0)
                for i in np.flatnonzero(hit):
                    d = int(disc[i])
                    v = 0
                    while d % l == 0:
                        d //= l
                        v += 1
                    shift = 4 if l == 2 else 0
                    if any(n % p == 0 for n in range(v + shift, 0, -12)):
                        skip_mask[i] = True
            out["skipped"] += int(np.count_nonzero(skip_mask))

        if densities:
            e2_mask = np.zeros(len(B), dtype=bool)
            for l in e2_cands:
                if A % l == 0:
                    continue
                hit = ok & (disc % l ** p == 0)
                for i in np.flatnonzero(hit):
                    d = int(disc[i])
                    n = 0
                    while d % l == 0:
                        d //= l
                        n += 1
                    if n % p == 0 and legendre(864 * int(B[i]) % l, l) == 1:
                        e2_mask[i] = True
            if strict:
                e2_mask &= ~skip_mask
            out["e2"] += int(np.count_nonzero(e2_mask))

        for l in ip_set:
            if A % l == 0:
                continue
            m = ok & ((B % l) != 0) & (disc % l ** p == 0) & (disc % l ** (p + 1) != 0)
            out[l] += int(np.count_nonzero(m))
    return out


def ip_primes_for(p, X):
    # the default list of empirical_densities, plus l = 2, 3 (empty unit
    # locus), l = p and a prime whose p-th power no disc0 in the box reaches
    amax, bmax = box_bounds(X)
    maxdisc = 4 * amax ** 3 + 27 * bmax ** 2
    cands = locus_candidates(p, maxdisc)
    beyond = next(l for l in primes_up_to(10 ** 4) if l ** p > maxdisc)
    return sorted(set(cands) | {2, 3, p, beyond})


@pytest.mark.parametrize("X", [1, 4096, 10 ** 5, 10 ** 6])
@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_full_boxes_match_row_scan(X, p):
    amax, _ = box_bounds(X)
    ip = ip_primes_for(p, X)
    for strict in (False, True):
        args = (X, p, -amax, amax + 1, ip, True, strict)
        got = _sweep_chunk(_Box(X, p, ip, True, strict), -amax, amax + 1)
        assert dict(got) == dict(row_scan_chunk(*args)), (X, p, strict)


# seeded 20-row slices of the 10^8 box; between them they hold I_p hits
# at l = 7, 11 and 13, e2 hits and strict skips
_SLICE_SEEDS = (0, 1)


def test_row_slices_of_the_1e8_box_match_row_scan():
    X, p = 10 ** 8, 5
    amax, _ = box_bounds(X)
    ip = ip_primes_for(p, X)
    seen = Counter()
    for seed in _SLICE_SEEDS:
        a_lo = random.Random(seed).randrange(-amax, amax + 1 - 20)
        for strict in (False, True):
            args = (X, p, a_lo, a_lo + 20, ip, True, strict)
            want = row_scan_chunk(*args)
            box = _Box(X, p, ip, True, strict)
            assert dict(_sweep_chunk(box, a_lo, a_lo + 20)) == dict(want), (seed, strict)
            if strict:
                seen.update(want)
    assert all(seen[l] > 0 for l in (7, 11, 13)), seen
    assert seen["e2"] > 0 and seen["skipped"] > 0


_IP_POOL = primes_up_to(100)


@st.composite
def sweep_args(draw):
    # a random box of height <= 10^6 with a random row slice, or a slice of
    # at most 8 rows of the 10^8 box; random stages and I_p primes
    p = draw(st.sampled_from([5, 7, 11, 13]))
    X = draw(st.one_of(st.integers(min_value=1, max_value=10 ** 6), st.just(10 ** 8)))
    amax, _ = box_bounds(X)
    rows = draw(st.integers(min_value=1, max_value=8 if X == 10 ** 8 else 2 * amax + 1))
    a_lo = draw(st.integers(min_value=-amax, max_value=amax + 1 - rows))
    ip = draw(st.lists(st.sampled_from(_IP_POOL + [p]), max_size=6, unique=True))
    return X, p, a_lo, a_lo + rows, ip, draw(st.booleans()), draw(st.booleans())


@settings(max_examples=80, deadline=None)
@given(sweep_args())
def test_random_boxes_match_row_scan(args):
    X, p, a_lo, a_hi, ip, densities, strict = args
    box = _Box(X, p, ip, densities, strict)
    assert dict(_sweep_chunk(box, a_lo, a_hi)) == dict(row_scan_chunk(*args))


@pytest.mark.parametrize("strict", [False, True])
def test_one_row_of_the_1e13_box_stays_small(strict):
    # a row scan holds int64 rows of 2 bmax + 1 = 6.3e6 entries (~290 MB
    # at peak); the class counts hold the row's hits only
    X, p = 10 ** 13, 5
    amax, bmax = box_bounds(X)
    maxdisc = 4 * amax ** 3 + 27 * bmax ** 2
    ip = [l for l in locus_candidates(p, maxdisc) if l != p]
    a = 2 ** 12 * 3  # A = 3 mod 5 holds anomalous classes; 2^4 | A drops B with 2^6 | B
    # 395284 is the row scan's skip count for this row (too big to rerun here)
    tracemalloc.start()
    try:
        out = _sweep_chunk(_Box(X, p, ip, True, strict), a, a + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out["total"] > 0 and out["e3"] > 0 and out["e2"] > 0
    assert out["skipped"] == (395284 if strict else 0)
    assert peak < 16 * 2 ** 20, peak


# Rows past the row scan's reach (seconds a row at 10^12, ~500 MB of int64
# rows at 10^15), frozen from the sweep that found the strict skips
# from the square roots of -4A^3/27 in Z_2 and Z_3; the 10^10 and 10^12
# rows also match row_scan_chunk. Each entry is X, p, a_lo, a_hi, (total,
# good_at_p, e2, e3, skipped) with every stage on and strict mode, and the
# nonzero I_p counts over ip_primes_for(p, X). They hold A = 0,
# multiples of 3^6, rows A = -3k^2 with singular points (-48, -2028, -9747,
# -99372) and four-row slices at random positions.
_FROZEN_ROWS = (
    (10 ** 10, 5, 0, 1, (196594, 157284, 0, 0, 53450), {}),
    (10 ** 10, 7, 729, 730, (199726, 142660, 0, 0, 14816), {}),
    (10 ** 10, 13, -2028, -2027, (199999, 184616, 0, 0, 10), {}),
    (10 ** 10, 5, 1001, 1005, (800004, 640004, 127, 120001, 12500), {5: 208, 7: 42, 11: 2, 19: 2}),
    (10 ** 12, 5, -48, -47, (1968750, 1181250, 99, 0, 399276), {5: 1008, 7: 204, 11: 24, 13: 8}),
    (10 ** 12, 7, 5832, 5833, (1997258, 1426614, 2, 0, 177042), {5: 40, 7: 4}),
    (10 ** 12, 13, 0, 1, (1965908, 1814680, 0, 0, 5402), {}),
    (10 ** 12, 5, -9747, -9746, (1999999, 1200001, 806, 1200001, 576508),
     {5: 1024, 7: 204, 11: 22, 13: 8}),
    (10 ** 12, 7, -5598, -5594, (8000004, 6857148, 34, 571428, 570618), {5: 82, 7: 8}),
    (10 ** 15, 5, 0, 1, (62167384, 49737090, 0, 0, 16902742), {}),
    (10 ** 15, 5, 93312, 93313, (62171940, 37303166, 2572, 0, 16903982),
     {5: 31832, 7: 6344, 11: 702, 29: 6, 31: 4, 53: 2}),
    (10 ** 15, 7, -99372, -99371, (63245551, 54210474, 1279, 9035079, 1118106), {5: 1296, 11: 6}),
    (10 ** 15, 13, -48, -47, (62257342, 52679288, 0, 0, 1404), {}),
    (10 ** 15, 13, -85176, -85172, (252982212, 228656997, 0, 19460168, 0), {}),
    (10 ** 15, 7, -37620, -37616, (252982212, 225876975, 1025, 27105237, 16068168),
     {5: 2592, 7: 130, 11: 6, 13: 4}),
)


@pytest.mark.parametrize("X, p, a_lo, a_hi, counts, ip_counts", _FROZEN_ROWS)
def test_frozen_rows_of_the_large_boxes(X, p, a_lo, a_hi, counts, ip_counts):
    ip = ip_primes_for(p, X)
    out = _sweep_chunk(_Box(X, p, ip, True, True), a_lo, a_hi)
    assert tuple(out[k] for k in ("total", "good_at_p", "e2", "e3", "skipped")) == counts
    assert {l: out[l] for l in ip if out[l]} == ip_counts


def test_power_locus_past_int64():
    # l^(p+1) > 2^63 at the largest box the cap allows for p = 5: the
    # solver must work in Python ints and still find exactly the locus
    l, p = 1451, 5
    bmax = isqrt(3 * 10 ** 14)
    M = l ** p
    assert M * l > 2 ** 63
    windows = [range(-bmax, -bmax + 400), range(-200, 201), range(bmax - 400, bmax + 1)]
    # a row with a hit: solve 4A^3 = -27 B0^2 mod l^p for A (cubing is a
    # bijection on units mod l^p because 3 does not divide l^4 (l - 1))
    B0 = bmax - 7
    phi = l ** (p - 1) * (l - 1)
    A0 = pow(-27 * B0 * B0 * pow(4, -1, M) % M, pow(3, -1, phi), M)
    for A in [A0] + list(range(1, 60)):
        hits = _power_locus(A, _locus(l, p), bmax)
        assert len(set(hits)) == len(hits)
        for b in hits:
            assert -bmax <= b <= bmax
            assert (4 * A ** 3 + 27 * b * b) % M == 0
        hit_set = set(hits)
        for w in windows:
            for b in w:
                assert ((4 * A ** 3 + 27 * b * b) % M == 0) == (b in hit_set), (A, b)
    assert B0 in _power_locus(A0, _locus(l, p), bmax)


@pytest.mark.parametrize("l, p", [(5, 2), (7, 3), (11, 2), (13, 3), (5, 7)])
def test_power_locus_matches_a_full_row(l, p):
    bmax = 3 * l ** p + 17
    B = np.arange(-bmax, bmax + 1, dtype=np.int64)
    for A in range(-40, 41):
        if A % l == 0:
            continue
        want = B[(4 * A ** 3 + 27 * B * B) % l ** p == 0].tolist()
        assert sorted(_power_locus(A, _locus(l, p), bmax)) == want, (l, p, A)


@pytest.mark.parametrize("X", [4096, 10 ** 8, 10 ** 15])
def test_strict_table_is_the_certifiability_ladder(X):
    amax, bmax = box_bounds(X)
    maxdisc = 4 * amax ** 3 + 27 * bmax ** 2
    for p in primes_up_to(199):
        if p < 5:
            continue
        for l in (2, 3):
            shift = 4 if l == 2 else 0
            vmax = max(v for v in range(200) if l ** v <= maxdisc)
            want = [v >= (2 if l == 2 else 1) and any(n % p == 0 for n in range(v + shift, 0, -12))
                    for v in range(vmax + 1)]
            ladder = _StrictLadder(l, p, maxdisc, bmax)
            assert ladder.skip == want, (l, p)
            assert [ladder.skips(-7 * l ** v) for v in range(vmax + 1)] == want, (l, p)
            if True in want:
                assert want.index(True) == uncertified_min_valuation(l, p), (l, p)


@pytest.mark.parametrize("p", [41, 67])
def test_strict_sweep_at_large_p(p):
    # 2^minv and 3^minv exceed int64 here; no disc0 in the box reaches
    # them, so nothing is skipped
    X = 10 ** 5
    r = empirical_densities(p, X, ip_primes=[], strict=True)
    assert r.skipped_uncertified == 0
    assert r.e2 == empirical_densities(p, X, ip_primes=[]).e2


def test_ip_primes_must_be_prime():
    for l in (1, 4, 9, 0, -7):
        with pytest.raises(InvalidPrime):
            count_Ip(l, 5, 10 ** 4)
    with pytest.raises(InvalidPrime):
        empirical_densities(5, 10 ** 4, ip_primes=[7, 15])
    assert cli.main(["ip-count", "--l", "4", "--p", "5", "--height", "10000"]) == 1


def test_worker_count_reads_the_environment(monkeypatch, capsys):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 4)
    monkeypatch.delenv("IWASTAT_THREADS", raising=False)
    assert worker_count() == 1
    monkeypatch.setenv("IWASTAT_THREADS", "")
    assert worker_count() == 1
    monkeypatch.setenv("IWASTAT_THREADS", "3")
    assert worker_count() == 3
    monkeypatch.setenv("IWASTAT_THREADS", "two")
    with pytest.raises(InvalidSetting, match=r"^invalid literal for int\(\) with base 10: 'two'$"):
        worker_count()
    # a count given leaves the setting unread; it is capped at the CPUs and
    # at least 1
    assert worker_count(3) == 3 and worker_count(9) == 4
    assert worker_count(0) == worker_count(-3) == 1
    assert cli.main(["enumerate", "--height", "100", "--prime", "5"]) == 1
    assert "error:" in capsys.readouterr().err

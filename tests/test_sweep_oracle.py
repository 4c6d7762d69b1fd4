"""The height sweep against the row-scan oracle.

row_scan_chunk is the sweep as it was before the e2 and I_p loci were
solved by Hensel lifting: it tests disc % l^k over whole rows and walks
each hit with its own valuation loop, and it re-derives the strict-mode
ladder inline. It must agree with _sweep_chunk on every count.
"""

import random

import numpy as np
import pytest

from iwastat import cli
from iwastat.curves import anomalous_residue_table
from iwastat.enumeration import (
    _capped_valuation,
    _ip_candidates,
    _minimality_primes,
    _power_locus,
    _row_ok_mask,
    _strict_skip_table,
    _sweep_chunk,
    _SweepCounts,
    box_bounds,
    count_Ip,
    empirical_densities,
)
from iwastat.errors import InvalidPrime, InvalidSetting
from iwastat.parallel import default_workers
from iwastat.primes import isqrt, legendre, primes_up_to


def uncertified_min_valuation(l, p):
    shift = 4 if l == 2 else 0
    for v in range(2 if l == 2 else 1, 200):
        if any(n % p == 0 for n in range(v + shift, 0, -12)):
            return v
    raise AssertionError("unreachable for p <= 199")


def row_scan_chunk(X, p, a_lo, a_hi, ip_primes, want_e2, want_e3, strict):
    amax, bmax = box_bounds(X)
    B = np.arange(-bmax, bmax + 1, dtype=np.int64)
    Bsq27 = 27 * B * B
    Bmodp = B % p
    q4, q6 = _minimality_primes(amax, bmax)
    maxdisc = 4 * amax ** 3 + 27 * bmax ** 2
    e2_cands = [l for l in _ip_candidates(p, maxdisc) if l >= 5] if want_e2 else []
    ip_set = sorted(l for l in set(ip_primes or []) if l ** p <= maxdisc)
    ip_zero = sorted(set(ip_primes or []) - set(ip_set))
    anom = anomalous_residue_table(p) if want_e3 else None
    strict2 = uncertified_min_valuation(2, p) if strict else None
    strict3 = uncertified_min_valuation(3, p) if strict else None

    out = _SweepCounts(ip_counts={l: 0 for l in ip_set + ip_zero})
    for A in range(a_lo, a_hi):
        disc = 4 * A ** 3 + Bsq27
        ok = _row_ok_mask(A, B, disc, q4, q6)
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
            out.skipped += int(np.count_nonzero(skip_mask))

        if want_e2:
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
            out.e2 += int(np.count_nonzero(e2_mask))

        for l in ip_set:
            if A % l == 0:
                continue
            m = ok & ((B % l) != 0) & (disc % l ** p == 0) & (disc % l ** (p + 1) != 0)
            out.ip_counts[l] += int(np.count_nonzero(m))
    return out


def ip_primes_for(p, X):
    # the default list of empirical_densities, plus l = 2, 3 (empty unit
    # locus), l = p and a prime whose p-th power no disc0 in the box reaches
    amax, bmax = box_bounds(X)
    maxdisc = 4 * amax ** 3 + 27 * bmax ** 2
    cands = _ip_candidates(p, maxdisc)
    beyond = next(l for l in primes_up_to(10 ** 4) if l ** p > maxdisc)
    return sorted(set(cands) | {2, 3, p, beyond})


@pytest.mark.parametrize("X", [1, 4096, 10 ** 5, 10 ** 6])
@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_full_boxes_match_row_scan(X, p):
    amax, _ = box_bounds(X)
    ip = ip_primes_for(p, X)
    for strict in (False, True):
        args = (X, p, -amax, amax + 1, ip, True, True, strict)
        assert _sweep_chunk(*args) == row_scan_chunk(*args), (X, p, strict)


# seeded 20-row slices of the 10^8 box; between them they hold I_p hits
# at l = 7, 11 and 13, e2 hits and strict skips
_SLICE_SEEDS = (0, 1)


def test_row_slices_of_the_1e8_box_match_row_scan():
    X, p = 10 ** 8, 5
    amax, _ = box_bounds(X)
    ip = ip_primes_for(p, X)
    seen = _SweepCounts(ip_counts={l: 0 for l in ip})
    for seed in _SLICE_SEEDS:
        a_lo = random.Random(seed).randrange(-amax, amax + 1 - 20)
        for strict in (False, True):
            args = (X, p, a_lo, a_lo + 20, ip, True, True, strict)
            want = row_scan_chunk(*args)
            assert _sweep_chunk(*args) == want, (seed, strict)
            if strict:
                seen.merge(want)
    assert all(seen.ip_counts[l] > 0 for l in (7, 11, 13)), seen.ip_counts
    assert seen.e2 > 0 and seen.skipped > 0


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
        hits = _power_locus(A, l, p, bmax)
        assert len(set(hits)) == len(hits)
        for b in hits:
            assert -bmax <= b <= bmax
            assert (4 * A ** 3 + 27 * b * b) % M == 0
        hit_set = set(hits)
        for w in windows:
            for b in w:
                assert ((4 * A ** 3 + 27 * b * b) % M == 0) == (b in hit_set), (A, b)
    assert B0 in _power_locus(A0, l, p, bmax)


@pytest.mark.parametrize("l, p", [(5, 2), (7, 3), (11, 2), (13, 3), (5, 7)])
def test_power_locus_matches_a_full_row(l, p):
    bmax = 3 * l ** p + 17
    B = np.arange(-bmax, bmax + 1, dtype=np.int64)
    for A in range(-40, 41):
        if A % l == 0:
            continue
        want = B[(4 * A ** 3 + 27 * B * B) % l ** p == 0].tolist()
        assert sorted(_power_locus(A, l, p, bmax)) == want, (l, p, A)


def test_strict_table_is_the_certifiability_ladder():
    for p in primes_up_to(199):
        if p < 5:
            continue
        for l in (2, 3):
            shift = 4 if l == 2 else 0
            minv, table = _strict_skip_table(l, p)
            assert minv == uncertified_min_valuation(l, p), (l, p)
            assert len(table) == 12 * p + 1 and table[12 * p]
            if p < 60:
                want = [any(n % p == 0 for n in range(v + shift, 0, -12))
                        for v in range(12 * p + 1)]
                assert table.tolist() == want, (l, p)


def test_capped_valuation():
    d = np.array([1, -8, 24, 3 ** 10, -(2 ** 40) * 3, 7], dtype=np.int64)
    assert _capped_valuation(d, 2, 100).tolist() == [0, 3, 3, 0, 40, 0]
    assert _capped_valuation(d, 3, 100).tolist() == [0, 0, 1, 10, 1, 0]
    assert _capped_valuation(d, 2, 5).tolist() == [0, 3, 3, 0, 5, 0]


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


def test_default_workers_reads_the_environment(monkeypatch, capsys):
    monkeypatch.delenv("IWASTAT_THREADS", raising=False)
    assert default_workers() == 1
    monkeypatch.setenv("IWASTAT_THREADS", "")
    assert default_workers() == 1
    monkeypatch.setenv("IWASTAT_THREADS", "3")
    assert default_workers() == 3
    monkeypatch.setenv("IWASTAT_THREADS", "two")
    with pytest.raises(InvalidSetting, match=r"^invalid literal for int\(\) with base 10: 'two'$"):
        default_workers()
    assert cli.main(["enumerate", "--height", "100", "--prime", "5"]) == 1
    assert "error:" in capsys.readouterr().err

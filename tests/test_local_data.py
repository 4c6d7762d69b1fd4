import random

import pytest

from iwastat.curves import CurveQ, disc0_of, is_minimal_pair
from iwastat.errors import (
    GoodReductionAt,
    InvalidPrime,
    OutOfRange,
    SingularCurve,
    UnknownLocalData,
)
from iwastat.local_data import (
    KodairaData,
    KodairaSymbol,
    bad_primes,
    kodaira_tamagawa,
    local_reduction_raw,
    tamagawa_p_part,
)
from iwastat.primes import valuation


def test_bad_primes_always_include_two():
    assert sorted(bad_primes((-1, 0))) == [2]
    assert sorted(bad_primes((5, 6))) == [2, 23]  # disc0 = 1472 = 2^6 * 23
    assert sorted(bad_primes((1, 5))) == [2, 7, 97]  # disc0 = 679 = 7 * 97
    assert 2 in bad_primes(CurveQ(0, 1))


def test_table_known_types_at_l_ge_5():
    cases = {
        ((0, 25), 5): ("IV", 3),
        ((0, 625), 5): ("IV*", 3),
        ((25, 0), 5): ("I0*", 4),
        ((5, 0), 5): ("III", 2),
        ((0, 5), 5): ("II", 1),
    }
    for (ab, l), (disp, c) in cases.items():
        d = kodaira_tamagawa(ab, l)
        assert d.display == disp and d.tamagawa == c


def test_table_multiplicative_split():
    d = kodaira_tamagawa((1, 5), 7)  # disc0 = 679, v_7 = 1
    assert d.symbol is KodairaSymbol.In and d.n == 1
    assert d.split is True and d.tamagawa == 1
    d = kodaira_tamagawa((28, -86), 5)  # v_5(disc0) = 5
    assert d.display == "I5" and d.split is True and d.tamagawa == 5


def test_multiplicative_n_is_disc_valuation():
    # for l >= 5 on a minimal pair v_l of the discriminant is the fiber index
    rng = random.Random(97)
    hits = 0
    while hits < 25:
        A = rng.randrange(-80, 81)
        B = rng.randrange(-300, 301)
        if (A == 0 and B == 0) or disc0_of(A, B) == 0 or not is_minimal_pair(A, B):
            continue
        for l in (5, 7, 11, 13):
            d0 = disc0_of(A, B)
            if d0 % l or A % l == 0:
                continue
            d = kodaira_tamagawa((A, B), l)
            assert d.symbol is KodairaSymbol.In
            assert d.n == valuation(d0, l)
            assert d.tamagawa == (d.n if d.split else (2 if d.n % 2 == 0 else 1))
            hits += 1


def test_good_prime_raises():
    with pytest.raises(GoodReductionAt):
        kodaira_tamagawa((-1, 0), 5)
    with pytest.raises(GoodReductionAt):
        kodaira_tamagawa((1, 5), 11)


def test_small_primes_gated():
    with pytest.raises(UnknownLocalData):
        kodaira_tamagawa((-1, 0), 2)
    d = kodaira_tamagawa((-1, 0), 2, allow_23=True)
    assert d.display == "III" and d.tamagawa == 2


def test_general_algorithm_small_prime_values():
    cases = {
        ((-1, 0), 2): ("III", 2),
        ((4, 32), 2): ("I3*", 4),
        ((16, 64), 2): ("II", 1),
        ((1, -1), 2): ("III", 2),
        ((3, 2), 2): ("II", 1),
        ((0, 16), 2): ("I0", 1),  # 2-adically improvable to good reduction
        ((0, -27), 3): ("III*", 2),
        ((3, 0), 3): ("III", 2),
        ((0, 3), 3): ("II", 1),
        ((9, 27), 3): ("I0*", 2),
        ((1, -1), 3): ("I0", 1),
        ((0, 81), 3): ("IV*", 3),
    }
    for (ab, l), (disp, c) in cases.items():
        d = local_reduction_raw(*ab, l)
        assert (d.display, d.tamagawa) == (disp, c), (ab, l, d)


def test_general_algorithm_rejects_singular():
    with pytest.raises(SingularCurve):
        local_reduction_raw(-3, 2, 3)
    with pytest.raises(SingularCurve):
        local_reduction_raw(0, 0, 2)


def test_general_matches_table_on_corpus():
    # every bad (curve, l) with l >= 5 in a small box, table vs general
    checked = 0
    for A in range(-20, 21):
        for B in range(-50, 51):
            if (A == 0 and B == 0) or disc0_of(A, B) == 0:
                continue
            if not is_minimal_pair(A, B):
                continue
            d0 = abs(disc0_of(A, B))
            for l in (5, 7, 11, 13, 17, 19):
                if d0 % l:
                    continue
                t = kodaira_tamagawa((A, B), l)
                g = local_reduction_raw(A, B, l)
                assert (t.symbol, t.n, t.tamagawa) == (g.symbol, g.n, g.tamagawa), (
                    A, B, l, t, g,
                )
                checked += 1
    assert checked > 400


def test_scaling_invariance():
    # replacing (A, B) by (l^4 A, l^6 B) changes the model, not the curve
    rng = random.Random(71)
    done = 0
    while done < 60:
        l = rng.choice([2, 3, 5])
        A = rng.randrange(-40, 41)
        B = rng.randrange(-40, 41)
        if disc0_of(A, B) == 0:
            continue
        a = local_reduction_raw(A, B, l)
        b = local_reduction_raw(l**4 * A, l**6 * B, l)
        assert (a.symbol, a.n, a.tamagawa, a.split) == (b.symbol, b.n, b.tamagawa, b.split)
        done += 1


def test_kodaira_data_consistency_asserts():
    KodairaData(5, KodairaSymbol.In, 4, 4, True)
    KodairaData(5, KodairaSymbol.In, 4, 2, False)
    with pytest.raises(AssertionError):
        KodairaData(5, KodairaSymbol.In, 4, 3, True)  # split c must equal n
    with pytest.raises(AssertionError):
        KodairaData(5, KodairaSymbol.In_STAR, 2, 3, None)  # c in {2, 4}
    with pytest.raises(AssertionError):
        KodairaData(5, KodairaSymbol.I0, 0, 2, None)


def test_display_names():
    assert KodairaData(5, KodairaSymbol.In, 5, 5, True).display == "I5"
    assert KodairaData(2, KodairaSymbol.In_STAR, 3, 4, None).display == "I3*"
    assert KodairaData(5, KodairaSymbol.II, 0, 1, None).display == "II"


def test_tamagawa_p_part_certification():
    # v_2(Delta) = 6 for (-1, 0); no entry of the rescaling ladder is
    # divisible by 5, so the 2-part needs no local computation at 2
    assert tamagawa_p_part((-1, 0), 5) == 1
    assert tamagawa_p_part((-1, 0), 5, overrides={2: 5}) == 5
    assert tamagawa_p_part((-1, 0), 5, overrides={2: 10}) == 5
    assert tamagawa_p_part((-1, 0), 7, overrides={2: 5}) == 1


@pytest.mark.parametrize("p", [25, 49, 91])
def test_tamagawa_p_part_rejects_composite_p(p):
    with pytest.raises(InvalidPrime):
        tamagawa_p_part(CurveQ(-17, 425), p)


def test_tamagawa_p_part_uncertified():
    # (5, 6): v_2(Delta) = 10 is divisible by 5, certification fails
    with pytest.raises(UnknownLocalData):
        tamagawa_p_part((5, 6), 5)
    assert tamagawa_p_part((5, 6), 5, overrides={2: 1}) == 1
    # the actual fiber at 2 is III* with c = 2, so the honest answer is 1
    assert tamagawa_p_part((5, 6), 5, allow_23=True) == 1


def test_tamagawa_p_part_from_table():
    # c_5 = 5 at the split I5 prime contributes the full 5-part
    assert tamagawa_p_part((28, -86), 5, overrides={2: 1, 3: 1}) == 5
    # override keys at good primes are ignored
    assert tamagawa_p_part((-1, 0), 5, overrides={7: 5}) == 1


def test_tamagawa_p_part_multiplies_the_p_parts():
    # disc0 = 7^5 * 17^2 for (-17, 425): split I5 at 7, so c_7 = 5; with
    # c_2 = 5 from an override two bad primes each give a factor 5
    assert kodaira_tamagawa((-17, 425), 7).display == "I5"
    assert tamagawa_p_part((-17, 425), 5) == 5
    assert tamagawa_p_part((-17, 425), 5, overrides={2: 5}) == 25
    assert tamagawa_p_part((-17, 425), 5, overrides={2: 50}) == 125
    assert tamagawa_p_part((-17, 425), 7, overrides={2: 5}) == 1


def test_local_input_errors_are_typed():
    # 25 divides disc0 = -3^4 * 5^2 * 53 of (-30, 5), so only a primality
    # check stops the closed table at l = 25
    for l in (25, 4, 1, 0, -7):
        with pytest.raises(InvalidPrime, match=f"^l must be prime, got {l}$"):
            kodaira_tamagawa((-30, 5), l)
        with pytest.raises(InvalidPrime, match=f"^l must be prime, got {l}$"):
            local_reduction_raw(-30, 5, l)
    for p in (1, 0, -2):
        with pytest.raises(InvalidPrime):
            valuation(12, p)
    with pytest.raises(OutOfRange, match="^Tamagawa override at 2 must be positive, got 0$"):
        tamagawa_p_part((-1, 0), 5, overrides={2: 0})

import collections
import math
import random
import timeit

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from iwastat.curves import CurveQ, disc0_of, is_minimal_pair
from iwastat.errors import (
    GoodReductionAt,
    InvalidPrime,
    OutOfRange,
    SingularCurve,
    TooLarge,
    UnknownLocalData,
)
from iwastat import local_data
from iwastat.local_data import (
    KodairaData,
    KodairaSymbol,
    _repeated_root,
    _root_count,
    _shift,
    _singular_point,
    bad_primes,
    kodaira_tamagawa,
    local_reduction_raw,
    tamagawa_p_part,
)
from iwastat.primes import is_prime, legendre, valuation
from oracles import poly_roots_mod, tamagawa_table_by_factoring


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
    with pytest.raises(SingularCurve):
        bad_primes((-3, 2))


# ---------------------------------------------------------------------------
# oracle: the closed (v_l(A), v_l(B), v_l(disc0)) table for l >= 5 on an
# l-minimal pair, which shares no code with Tate's algorithm. Its I_n*
# branch reads c off the Legendre-symbol form of Tate's last step.


def _split_In(A, B, l):
    # tangent slopes at the node are rational iff -c6 = 864B is a QR mod l
    return legendre(864 * B % l, l) == 1


def _kodaira_l_ge_5(A, B, l) -> KodairaData:
    disc0 = 4 * A ** 3 + 27 * B ** 2
    vD = valuation(disc0, l)
    if vD == 0:
        return KodairaData(l, KodairaSymbol.I0, 0, 1)
    if A % l:
        split = _split_In(A, B, l)
        c = vD if split else math.gcd(2, vD)
        return KodairaData(l, KodairaSymbol.In, vD, c, split)
    # additive: l | A and l | B
    vA = valuation(A, l) if A else 10 ** 9
    vB = valuation(B, l) if B else 10 ** 9
    assert vB >= 1 and not (vA >= 4 and vB >= 6), "pair not l-minimal"
    if vD == 2:
        return KodairaData(l, KodairaSymbol.II, 0, 1)
    if vD == 3:
        return KodairaData(l, KodairaSymbol.III, 0, 2)
    if vD == 4:
        c = 3 if legendre(B // l ** 2 % l, l) == 1 else 1
        return KodairaData(l, KodairaSymbol.IV, 0, c)
    if vD == 6:
        # c = 1 + number of rational roots of T^3 + (A/l^2) T + (B/l^3)
        a = A // l ** 2 % l
        b = B // l ** 3 % l
        nroots = sum(1 for t in range(l) if (t * t * t + a * t + b) % l == 0)
        assert nroots in (0, 1, 3)
        return KodairaData(l, KodairaSymbol.I0_STAR, 0, 1 + nroots)
    if vA == 2 and vB == 3:
        # In* with n = vD - 6: c = 3 + (Delta / l^(6+n) | l) for even n and
        # 3 + (Delta c6 / l^(9+n) | l) for odd n
        n = vD - 6
        unit = -16 * disc0 // l ** vD
        if n % 2:
            unit *= -864 * B // l ** 3
        return KodairaData(l, KodairaSymbol.In_STAR, n, 3 + legendre(unit % l, l))
    if vD == 8:
        c = 3 if legendre(B // l ** 4 % l, l) == 1 else 1
        return KodairaData(l, KodairaSymbol.IV_STAR, 0, c)
    if vD == 9:
        return KodairaData(l, KodairaSymbol.III_STAR, 0, 2)
    assert vD == 10, (A, B, l, vD)
    return KodairaData(l, KodairaSymbol.II_STAR, 0, 1)


def _seeded_pairs(rng, l, count):
    """count (A, B) = (l^va u, l^vb w) with l-units u, w, bad at l: every
    (va, vb) with va < 4 or vb < 6, A = 0 and B = 0 included. A quarter
    take u = -3t^2, w = 2t^3 + l^k z at (va, vb) = (0, 0) or (2, 3), where
    v_l(disc0) = k (resp. k + 6), so I_n and I_n* reach n = k up to 6."""
    def unit():
        return rng.choice((1, -1)) * (rng.randrange(1, l) + l * rng.randrange(40))

    out = []
    while len(out) < count:
        if rng.random() < 0.25:
            va = rng.choice((0, 2))
            t, z = unit(), unit()
            u, w = -3 * t * t, 2 * t ** 3 + l ** rng.randrange(1, 7) * z
            A, B = l ** va * u, l ** (3 * va // 2) * w
        else:
            va, vb = rng.randrange(7), rng.randrange(9)
            if va >= 4 and vb >= 6:
                continue
            A = 0 if va == 6 else l ** va * unit()
            B = 0 if vb == 8 else l ** vb * unit()
        if disc0_of(A, B) % l == 0 and disc0_of(A, B) and is_minimal_pair(A, B):
            out.append((A, B))
    return out


def test_general_matches_table_on_corpus():
    # Tate's algorithm against the closed table: every bad (curve, l) with
    # l >= 5 in a small box, then seeded pairs reaching every fibre type
    def check(A, B, l):
        t = _kodaira_l_ge_5(A, B, l)
        for g in (kodaira_tamagawa((A, B), l), local_reduction_raw(A, B, l)):
            assert (t.symbol, t.n, t.tamagawa, t.split) == (g.symbol, g.n, g.tamagawa, g.split), (
                A, B, l, t, g,
            )
        return t.symbol

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
                check(A, B, l)
                checked += 1
    assert checked > 400
    rng = random.Random(2102)
    for l in (5, 7, 11, 101, 1009):
        seen = {check(A, B, l) for A, B in _seeded_pairs(rng, l, 150)}
        assert seen == set(KodairaSymbol) - {KodairaSymbol.I0}, (l, seen)


@pytest.mark.parametrize("l", [2, 3, 5, 7, 101, 2**31 - 1])
def test_singular_point_is_singular(l):
    # (A, B) = (-3t^2, 2t^3) mod l makes disc0 vanish mod l, so the reduction
    # of every model shifted from it by (r, s, t) has a singular point
    rng = random.Random(l)
    for _ in range(200):
        x0 = rng.randrange(l)
        A = -3 * x0 * x0 + l * rng.randrange(-50, 51)
        B = 2 * x0 ** 3 + l * rng.randrange(-50, 51)
        r, s, t = (rng.randrange(-10 * l, 10 * l) for _ in range(3))
        a1, a2, a3, a4, a6 = a = _shift((0, 0, 0, A, B), r, s, t)
        x, y = _singular_point(a, l)
        assert (y * y + a1 * x * y + a3 * y - x ** 3 - a2 * x * x - a4 * x - a6) % l == 0, (a, l)
        assert (2 * y + a1 * x + a3) % l == 0, (a, l)
        assert (a1 * y - 3 * x * x - 2 * a2 * x - a4) % l == 0, (a, l)


@settings(max_examples=300, deadline=None)
@given(l=st.sampled_from([2, 3, 5, 7, 11]), point=st.tuples(*[st.integers(0, 10)] * 2),
       a=st.tuples(*[st.integers(-10**6, 10**6)] * 5))
def test_singular_point_of_any_model_singular_mod_l(l, point, a):
    # a1, a2 and the multiples of l in a3, a4, a6 are free; the residues of
    # a3, a4, a6 mod l put a singular point at (x0, y0), so l | disc
    x0, y0 = point
    a1, a2 = a[0], a[1]
    a3 = -2 * y0 - a1 * x0 + l * a[2]
    a4 = a1 * y0 - 3 * x0 * x0 - 2 * a2 * x0 + l * a[3]
    a6 = y0 * y0 + a1 * x0 * y0 + a3 * y0 - x0 ** 3 - a2 * x0 * x0 - a4 * x0 + l * a[4]
    assert local_data._discriminant(a1, a2, a3, a4, a6) % l == 0
    x, y = _singular_point((a1, a2, a3, a4, a6), l)
    assert (y * y + a1 * x * y + a3 * y - x ** 3 - a2 * x * x - a4 * x - a6) % l == 0
    assert (2 * y + a1 * x + a3) % l == 0
    assert (a1 * y - 3 * x * x - 2 * a2 * x - a4) % l == 0


@pytest.mark.parametrize("l", [2, 3, 5, 7, 11, 13])
def test_cubic_roots_match_the_search_on_every_cubic(l):
    for c0 in range(l):
        for c1 in range(l):
            for c2 in range(l):
                roots = poly_roots_mod([c0, c1, c2, 1], l)
                repeated = [(r, m) for r, m in roots.items() if m >= 2]
                P = local_data._trim([c0, c1, c2, 1], l)
                got = _repeated_root(P, l)
                assert got == (repeated[0] if repeated else None), (c0, c1, c2, l)
                if got is None:
                    assert _root_count(P, l) == len(roots), (c0, c1, c2, l)


@pytest.mark.parametrize("l", [2, 3, 5, 7, 11, 13])
def test_quadratic_roots_match_the_search_on_every_quadratic(l):
    # the monic quadratics of the IV, I_n* and IV* stages take the cubic's code
    for c0 in range(l):
        for c1 in range(l):
            roots = poly_roots_mod([c0, c1, 1], l)
            repeated = [(r, m) for r, m in roots.items() if m >= 2]
            P = local_data._trim([c0, c1, 1], l)
            got = _repeated_root(P, l)
            assert got == (repeated[0] if repeated else None), (c0, c1, l)
            if got is None:
                assert _root_count(P, l) == len(roots), (c0, c1, l)


def test_cubic_roots_take_log_steps_at_a_large_prime(monkeypatch):
    # (3 l^2, 5 l^3) is I0* at l with Tate's cubic T^3 + 3T + 5, which is
    # irreducible mod l = 100000007 (sympy's factorization agrees); a search
    # over F_l would take ~10^8 steps, the gcds take O(log l) remainders
    l = 100000007
    calls = []
    real = local_data._poly_rem

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(local_data, "_poly_rem", counting)
    data = kodaira_tamagawa((3 * l ** 2, 5 * l ** 3), l)
    assert (data.symbol, data.tamagawa) == (KodairaSymbol.I0_STAR, 1)
    assert 0 < len(calls) <= 2 * l.bit_length() + 10
    calls.clear()
    split = local_data._trim([-6, 11, -6, 1], l)  # (T - 1)(T - 2)(T - 3)
    assert _repeated_root(split, l) is None and _root_count(split, l) == 3
    assert _repeated_root(local_data._trim([-2, 5, -4, 1], l), l) == (1, 2)  # (T - 1)^2 (T - 2)
    assert _repeated_root(local_data._trim([-1, 3, -3, 1], l), l) == (1, 3)  # (T - 1)^3
    assert 0 < len(calls) <= 2 * l.bit_length() + 10


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


@settings(max_examples=300, deadline=None)
@given(l=st.sampled_from([2, 3, 5, 7, 11, 13]), i=st.integers(0, 5), j=st.integers(0, 7),
       a=st.integers(-60, 60), b=st.integers(-60, 60), u=st.integers(1, 30))
def test_local_reduction_is_invariant_under_rescaling(l, i, j, a, b, u):
    # (u^4 A, u^6 B) is another model of the same curve, whether or not l
    # divides u; the factors l^i and l^j reach the additive fibres
    A, B = a * l ** i, b * l ** j
    assume(disc0_of(A, B) != 0)
    assert local_reduction_raw(u ** 4 * A, u ** 6 * B, l) == local_reduction_raw(A, B, l)


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


def eager_tamagawa_p_part(curve, p, overrides, allow_23):
    # oracle: the p-part of the product of every known c_l, each c_l from
    # its override or Tate's algorithm, after every l that has neither has
    # passed the v_l(Delta) certificate
    v = {l: valuation(-16 * curve.disc0, l) for l in bad_primes(curve)}
    product = 1
    for l in sorted(v):
        if l in overrides:
            product *= overrides[l]
        elif l >= 5 or allow_23:
            product *= local_reduction_raw(curve.A, curve.B, l).tamagawa
        elif not local_data._p_part_certifiably_trivial(v[l], p):
            raise UnknownLocalData(f"c_{l}")
    return p ** valuation(product, p)


@st.composite
def curve_and_prime(draw):
    # p, and a curve with I_n fibres, split or not, at l: B = 2u^3 + l^e t
    # next to the cusp A = -3u^2 makes disc0 = 27 l^e t (4u^3 + l^e t), so
    # v_l(Delta) >= e. Half the time e is p k + d, d in {0, +-6}, where the
    # certificate cannot clear c_l (at l = 2 the minimal model of an odd u
    # has v_2(Delta) = e + 6 - 12, split for u = 3 mod 8). l^e < 2^40 keeps
    # disc0 quick to factor. A quarter are small random pairs.
    p = draw(st.sampled_from([5, 7, 11, 13]))
    if draw(st.integers(0, 3)) == 0:
        A, B = draw(st.integers(-10**4, 10**4)), draw(st.integers(-10**4, 10**4))
    else:
        l = draw(st.sampled_from([2, 2, 3, 5, 7, 11, 13]))
        emax = int(40 / math.log2(l))
        near = st.builds(lambda k, d: p * k + d, st.integers(1, 3), st.sampled_from([0, 6, -6]))
        e = draw(st.one_of(st.integers(1, emax), near.filter(lambda e: 1 <= e <= emax)))
        u = draw(st.one_of(st.integers(-40, 40), st.integers(-5, 5).map(lambda k: 8 * k + 3)))
        t = draw(st.integers(-40, 40))
        A, B = -3 * u * u, 2 * u ** 3 + l ** e * t
    assume(disc0_of(A, B) != 0 and is_minimal_pair(A, B))
    return CurveQ(A, B), p


@settings(max_examples=300, deadline=None)
# split I11 at 2 (u = 11, t = 9, e = 17): c_2 = 11 only from Tate's algorithm
@example(case=(CurveQ(-363, 1182310), 11), given_at=set(), values=[1] * 6, allow_23=True)
@given(case=curve_and_prime(),
       given_at=st.sets(st.sampled_from([2, 3, 5, 7, 11, 13])),
       values=st.lists(st.integers(1, 60), min_size=6, max_size=6),
       allow_23=st.booleans())
def test_lazy_p_part_matches_the_eager_product(case, given_at, values, allow_23):
    curve, p = case
    for overrides in ({}, dict(zip(sorted(given_at), values))):
        try:
            want = eager_tamagawa_p_part(curve, p, overrides, allow_23)
        except UnknownLocalData:
            with pytest.raises(UnknownLocalData):
                tamagawa_p_part(curve, p, overrides=overrides, allow_23=allow_23)
        else:
            got = tamagawa_p_part(curve, p, overrides=overrides, allow_23=allow_23)
            assert got == want, (curve, p, overrides, allow_23)


def _override_key(key, disc0):
    """A sampled override key: "good" is the least prime >= 5 that does not
    divide disc0, "composite" the odd part of disc0 when that is composite
    (a key that divides disc0 but is no prime), or 15."""
    if key == "good":
        return next(q for q in range(5, 1000) if is_prime(q) and disc0 % q)
    if key == "composite":
        odd = abs(disc0) >> valuation(disc0, 2)
        return odd if odd > 1 and not is_prime(odd) else 15
    return key


@settings(max_examples=300, deadline=None)
@given(case=curve_and_prime(),
       keys=st.sets(st.sampled_from([-3, 0, 1, 2, 3, 4, 5, 7, 9, 11, 13, 25, "good", "composite"])),
       values=st.lists(st.integers(1, 60), min_size=14, max_size=14),
       allow_23=st.booleans())
def test_trial_division_table_matches_the_factoring_table(case, keys, values, allow_23):
    curve = case[0]
    given_at = {_override_key(k, curve.disc0) for k in keys}
    for overrides in ({}, dict(zip(sorted(given_at), values))):
        items = tuple(sorted(overrides.items()))
        want = tamagawa_table_by_factoring(curve, items, allow_23)
        assert local_data._tamagawa_table(curve, items, allow_23) == want, (curve, items)


# the table reads only disc0, so a stand-in carrying it reaches valuations no
# small curve has
Disc0 = collections.namedtuple("Disc0", "disc0")


@pytest.mark.parametrize("l", [2, 3, 5, 7, 65521])
@pytest.mark.parametrize("e", [5, 11, 13])
def test_trial_division_table_finds_fifth_powers(l, e):
    for cofactor in (1, -1, 3 * 5 * 7, -(11 ** 4) * 13, 2 ** 3 * 3 ** 4, 7 ** 6 * 65521 ** 5):
        curve = Disc0(l ** e * cofactor)
        for overrides in ({}, {2: 4}, {l: 3}, {2: 2, 3: 3, 7: 5}, {1: 9, 4: 2, 65537: 7}):
            items = tuple(sorted(overrides.items()))
            for allow_23 in (False, True):
                want = tamagawa_table_by_factoring(curve, items, allow_23)
                assert local_data._tamagawa_table(curve, items, allow_23) == want, (curve, items)
    # v_7(Delta) = 5 leaves c_7 to Tate's algorithm at p = 5 alone
    assert local_data._tamagawa_table(Disc0(7 ** 5), (), False) == (1, {5: ((7, True),)})


def test_trial_division_table_refuses_a_cofactor_of_2_to_the_80():
    below, above = sympy.prevprime(2 ** 80), sympy.nextprime(2 ** 80)
    for small in (1, -1, 2 ** 7, -(3 ** 5) * 7 ** 2, 65521 ** 5):
        curve = Disc0(small * below)
        want = tamagawa_table_by_factoring(curve, ((2, 3),), True)
        assert local_data._tamagawa_table(curve, ((2, 3),), True) == want
        with pytest.raises(TooLarge):
            local_data._tamagawa_table(Disc0(small * above), (), True)
    # 65537 is the least prime past 2^16: its fifth power is the smallest
    # l^5 trial division would not reach
    with pytest.raises(TooLarge):
        local_data._tamagawa_table(Disc0(65537 ** 5), (), True)


def test_trial_division_table_of_a_semiprime_is_quick():
    # two ~40-bit prime factors took pure-Python rho ~0.37 s; trial division
    # stops at 2^16 on a cofactor below 2^80
    n = (2 ** 40 - 87) * (2 ** 40 - 167)
    assert n < 2 ** 80 and is_prime(2 ** 40 - 87) and is_prime(2 ** 40 - 167)
    local_data._odd_primes_below(local_data._TRIAL_BITS)  # sieve once, outside the timing
    table = local_data._tamagawa_table.__wrapped__
    best = min(timeit.repeat(lambda: table(Disc0(n), (), False), number=1, repeat=5))
    assert table(Disc0(n), (), False) == (1, {})
    assert best < 0.02, best


def test_tate_runs_only_where_the_certificate_fails(monkeypatch):
    # disc0 = 7^5 * 17^2 for (-17, 425): v_7 = 5 and v_17 = 2, so only the
    # 5-part asks for c_7 (split I5, c_7 = 5); every other p >= 5 is cleared
    # by the certificates, and c_7 is computed once
    calls = []
    tate = local_data._tate
    monkeypatch.setattr(local_data, "_tate", lambda A, B, l: calls.append(l) or tate(A, B, l))
    local_data._tamagawa_table.cache_clear()
    local_data._tamagawa_number.cache_clear()
    tau_p = local_data._p_parts(CurveQ(-17, 425), {2: 1, 3: 1}, False)
    assert [tau_p(p) for p in (7, 11, 13, 17, 19)] == [1] * 5
    assert calls == []
    assert tau_p(5) == tau_p(5) == tamagawa_p_part((-17, 425), 5) == 5
    assert calls == [7]


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

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iwastat.errors import TooLarge
from iwastat.primes import (
    factorize,
    icbrt,
    iroot,
    is_prime,
    legendre,
    prime_range,
    primes_up_to,
    valuation,
)


def test_valuation_known_values():
    assert valuation(360, 2) == 3
    assert valuation(360, 3) == 2
    assert valuation(360, 5) == 1
    assert valuation(360, 7) == 0
    assert valuation(-8, 2) == 3
    assert valuation(1, 97) == 0


def test_valuation_rejects_zero():
    with pytest.raises(ValueError):
        valuation(0, 2)


def test_valuation_divides_exactly():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randrange(1, 10**12)
        p = rng.choice([2, 3, 5, 7, 11, 13])
        v = valuation(n, p)
        assert n % p**v == 0 and n % p ** (v + 1) != 0


def test_iroot_known_values():
    assert icbrt(26) == 2
    assert icbrt(27) == 3
    assert icbrt(28) == 3
    assert iroot(10**15, 5) == 1000
    assert iroot(0, 3) == 0
    assert iroot(1, 7) == 1


def test_iroot_bracket_property():
    rng = random.Random(23)
    for _ in range(500):
        n = rng.randrange(0, 10**18)
        k = rng.randrange(2, 8)
        r = iroot(n, k)
        assert r**k <= n < (r + 1) ** k


@pytest.mark.parametrize("k", [2, 3, 4, 6, 12])
@pytest.mark.parametrize("n", [2**1024 + 1, 2**4000, 10**103 + 1])
def test_iroot_past_the_float_range(n, k):
    # a float guess overflows past 2^1024, and at 10^103 + 1 it lands far
    # enough off that a unit-step correction never finishes
    r = iroot(n, k)
    assert r**k <= n < (r + 1) ** k
    if n == 2**4000 and 4000 % k == 0:
        assert r == 2 ** (4000 // k)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2**4096 - 1), st.integers(min_value=1, max_value=40))
def test_iroot_brackets_the_root(n, k):
    r = iroot(n, k)
    assert r**k <= n < (r + 1) ** k


def test_primes_up_to_and_range():
    assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert prime_range(10, 30) == [11, 13, 17, 19, 23, 29]
    assert prime_range(5, 6) == [5]
    assert prime_range(24, 29) == []


def test_is_prime_small_and_carmichael():
    # below 41^2 = 1681 trial division by the witnesses decides alone
    primes = set(primes_up_to(5000))
    for n in range(-2, 5000):
        assert is_prime(n) == (n in primes), n
    # Carmichael numbers fool Fermat-only tests
    for n in (561, 1105, 1729, 2465):
        assert not is_prime(n)
    assert is_prime(10**9 + 7)
    assert is_prime(2**61 - 1)


# psi_k (OEIS A014233): the least strong pseudoprime to all of the first k
# prime bases; psi_12 = 399165290221 * 798330580441 < 2^80 needs the base 41
PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
       341550071728321, 3825123056546413051, 318665857834031151167461)


def test_is_prime_strong_pseudoprimes():
    assert 399165290221 * 798330580441 == PSI[-1] < 2**80
    for n in PSI:
        assert not is_prime(n), n
    assert is_prime(41) and is_prime(43)


# psi_13 = 1287836182261 * 2575672364521 passes every witness up to 41
PSI_13 = 3317044064679887385961981


def test_is_prime_raises_past_psi_13():
    assert 1287836182261 * 2575672364521 == PSI_13
    with pytest.raises(TooLarge):
        is_prime(PSI_13)
    with pytest.raises(TooLarge):
        factorize(2 * PSI_13)
    # past psi_13 a witness still exposes a composite, but a prime such as
    # 2^89 - 1 cannot be proven by the witnesses
    assert not is_prime(59**17) and not is_prime((2**61 - 1) * (2**89 - 1))
    assert factorize(59**17) == {59: 17}
    with pytest.raises(TooLarge):
        is_prime(2**89 - 1)


def test_is_prime_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(1009)
    sample = [rng.randrange(2, 2**bits) | 1 for bits in (20, 40, 64, 80) for _ in range(150)]
    # products of two primes and primes themselves, up to 2^80
    for _ in range(60):
        q = sympy.nextprime(rng.randrange(2, 2**40))
        r = sympy.nextprime(rng.randrange(2, 2**40))
        sample += [q, q * r]
    sample += list(PSI)
    for n in sample:
        assert is_prime(n) == sympy.isprime(n), n


def test_legendre_at_7():
    qrs = {x * x % 7 for x in range(1, 7)}
    assert qrs == {1, 2, 4}
    for a in range(1, 7):
        assert legendre(a, 7) == (1 if a in qrs else -1)
    assert legendre(0, 7) == 0
    assert legendre(14, 7) == 0


def test_legendre_euler_criterion():
    rng = random.Random(7)
    for _ in range(400):
        p = rng.choice([5, 13, 101, 997, 10007])
        a = rng.randrange(1, p)
        e = pow(a, (p - 1) // 2, p)
        assert legendre(a, p) == (1 if e == 1 else -1)


def test_legendre_multiplicative():
    rng = random.Random(5)
    for _ in range(300):
        p = rng.choice([7, 11, 103, 1009])
        a = rng.randrange(1, p)
        b = rng.randrange(1, p)
        assert legendre(a * b, p) == legendre(a, p) * legendre(b, p)


def test_factorize_known():
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert factorize(1) == {}
    assert factorize(97) == {97: 1}
    assert factorize(2**10) == {2: 10}


def test_factorize_reconstructs():
    rng = random.Random(41)
    for _ in range(120):
        n = rng.randrange(2, 10**12)
        f = factorize(n)
        prod = 1
        for p, e in f.items():
            assert is_prime(p) and e >= 1
            prod *= p**e
        assert prod == n


# a prime power of a prime above the witness set, times a cofactor: rho must
# split repeated factors it cannot trial-divide
PRIME_POWER_TIMES = st.builds(
    lambda q, e, m: q**e * m,
    st.sampled_from([43, 47, 59, 97, 65537, 2**31 - 1]),
    st.integers(1, 9),
    st.integers(1, 2**20),
).filter(lambda n: n < 2**80)


@settings(max_examples=80, deadline=None)
@given(n=st.one_of(st.integers(1, 2**80), PRIME_POWER_TIMES))
def test_factorize_agrees_with_sympy(n):
    sympy = pytest.importorskip("sympy")
    assert factorize(n) == sympy.factorint(n)
    assert factorize(-n) == factorize(n)


def test_factorize_hard_cases_agree_with_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(43)
    cases = [43**7, 59**17, (2**31 - 1) ** 3 * 43**7, 47**2 * 53**3, 43 * 47, 2**80 - 1]
    # products of two ~40-bit primes, the slowest inputs for rho below 2^80
    for _ in range(2):
        cases.append(sympy.nextprime(rng.randrange(2**39, 2**40))
                     * sympy.nextprime(rng.randrange(2**39, 2**40)))
    for n in cases:
        assert factorize(n) == sympy.factorint(n), n

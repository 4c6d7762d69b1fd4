"""Small integer number theory: primality, sieves, factorization, valuations,
quadratic characters and modular square roots.

Everything here is exact integer arithmetic.  factorize divides out the
Miller-Rabin witness primes (those up to 41), then splits what is left with
Brent's variant of Pollard rho, which is adequate for discriminants of
desk-scale curves (well below 2^80).
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right

from .errors import InvalidPrime, TooLarge

__all__ = [
    "is_prime", "primes_up_to", "prime_range",
    "factorize", "valuation", "isqrt", "icbrt", "iroot",
    "legendre", "sqrt_mod",
]

# deterministic Miller-Rabin: psi_k (OEIS A014233) is the least odd
# composite that is a strong pseudoprime to each of the first k primes, so
# the first k primes of _MR_WITNESSES decide every n < psi_k. The primes up to
# 41 stop at psi_13 = 3317044064679887385961981 ~ 3.317e24, which is above
# the 2^80 the discriminant range needs; past it is_prime raises TooLarge
# rather than return True for a number every witness passes.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
           341550071728321, 341550071728321, 3825123056546413051,
           3825123056546413051, 3825123056546413051, 318665857834031151167461,
           3317044064679887385961981)


def is_prime(n: int) -> bool:
    """Whether n is prime, proven for n < psi_13 ~ 3.317e24.

    Raises TooLarge for an n >= psi_13 that every witness passes: the
    witnesses prove nothing there. A composite past psi_13 that some witness
    exposes still gives False.
    """
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    if n < _MR_WITNESSES[-1] ** 2:
        return True  # a composite this small has a prime factor below 41
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES[:bisect_right(_MR_PSI, n) + 1]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_PSI[-1]:
        raise TooLarge(f"{n} passes every Miller-Rabin witness up to 41, which "
                       f"proves primality only below {_MR_PSI[-1]}")
    return True


def primes_up_to(n: int) -> list[int]:
    """All primes <= n by a plain sieve."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i:: i] = bytearray(len(sieve[i * i:: i]))
    return [i for i in range(n + 1) if sieve[i]]


def prime_range(lo: int, hi: int) -> list[int]:
    """Primes p with lo <= p < hi."""
    return [p for p in primes_up_to(hi - 1) if p >= lo]


def _pollard_rho(n: int, rng: random.Random) -> int:
    # Brent's cycle variant; n must be composite (a prime power is fine)
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n| as {prime: exponent}.  n must be nonzero."""
    if n == 0:
        raise ValueError("0 has no factorization")
    n = abs(n)
    out: dict[int, int] = {}
    for p in _MR_WITNESSES:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    rng = random.Random(0xC0FFEE ^ n)
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        # perfect power peel-off helps rho on squares
        for e in (2, 3, 5):
            r = iroot(m, e)
            if r**e == m:
                stack.extend([r] * e)
                break
        else:
            g = _pollard_rho(m, rng)
            stack.append(g)
            stack.append(m // g)
    return out


def valuation(n: int, p: int) -> int:
    """v_p(n) for n != 0 and p >= 2.  Raises for n == 0 (the valuation is infinite)."""
    if p < 2:
        raise InvalidPrime(f"valuations need a base p >= 2, got {p}")
    if n == 0:
        raise ValueError("v_p(0) is infinite")
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


isqrt = math.isqrt


def iroot(n: int, k: int) -> int:
    """floor(n**(1/k)) for n >= 0 and k >= 1, exact in integers.

    Integer Newton from 2^ceil(bits(n) / k), which is above the root: every
    step stays at or above floor(n^(1/k)) and falls until it stops there.
    No float is formed, so any size of n works.
    """
    if n < 0:
        raise ValueError("negative radicand")
    if n == 0:
        return 0
    r = 1 << -(-n.bit_length() // k)
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def icbrt(n: int) -> int:
    return iroot(n, 3)


def legendre(a: int, p: int) -> int:
    """Quadratic character of a mod an odd prime p via Euler's criterion:
    0 if p | a, +1 on nonzero squares, -1 on nonsquares."""
    a %= p
    if a == 0:
        return 0
    t = pow(a, (p - 1) // 2, p)
    return 1 if t == 1 else -1


def sqrt_mod(a: int, p: int) -> int | None:
    """A square root of a modulo a prime p, or None if a is a nonresidue.

    Tonelli-Shanks; the p % 4 == 3 shortcut covers half the calls.
    """
    a %= p
    if p == 2:
        return a
    if a == 0:
        return 0
    if legendre(a, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # write p - 1 = q 2^s with q odd
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while legendre(z, p) != -1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, tt = 0, t
        while tt != 1:
            tt = tt * tt % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t = t * c % p
        r = r * b % p
    return r

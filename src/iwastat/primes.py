"""Small integer number theory: primality, sieves, factorization, valuations,
quadratic characters and modular square roots.

Everything here is exact integer arithmetic.  Factorization follows the
trial-division-then-rho strategy that is adequate for discriminants of
desk-scale curves (well below 2^80).
"""

from __future__ import annotations

import math
import random

__all__ = [
    "is_prime", "primes_up_to", "prime_range", "next_prime",
    "factorize", "valuation", "isqrt", "icbrt", "iroot",
    "legendre", "sqrt_mod",
]

TRIAL_LIMIT = 10**6

# deterministic Miller-Rabin witness set: the primes up to 41 are enough for
# n < psi_13 = 3317044064679887385961981 ~ 3.317e24 (OEIS A014233); the
# primes up to 37 stop at psi_12 = 318665857834031151167461 ~ 3.19e23, which
# is below the 2^80 the discriminant range needs
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
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
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
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


def next_prime(n: int) -> int:
    k = n + 1
    while not is_prime(k):
        k += 1
    return k


def _pollard_rho(n: int, rng: random.Random) -> int:
    # Brent's cycle variant; n must be odd composite, not a prime power issue
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
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    # wheel over 30 avoids multiples of 2, 3, 5
    d = 7
    inc = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while d <= TRIAL_LIMIT and d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += inc[i]
        i = (i + 1) % 8
    if n == 1:
        return out
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
    """v_p(n) for n != 0.  Raises for n == 0 (the valuation is infinite)."""
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
    """floor(n**(1/k)) for n >= 0, exact in integers."""
    if n < 0:
        raise ValueError("negative radicand")
    if n == 0:
        return 0
    r = int(round(n ** (1.0 / k)))
    while r > 0 and r**k > n:
        r -= 1
    while (r + 1) ** k <= n:
        r += 1
    return r


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

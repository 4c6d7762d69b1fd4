"""Small integer number theory: primality, sieves, factorization, valuations
and quadratic characters.

Everything here is exact integer arithmetic.  factorize divides out the
Miller-Rabin witness primes (those up to 41), then splits what is left with
Brent's variant of Pollard rho, which is adequate for discriminants of
desk-scale curves (well below 2^80) and gives up with TooLarge past
_RHO_STEP_CAP steps.  power_divisors finds the primes q with
q^k | n by trial division alone, up to _TRIAL_LIMIT; it decides minimality
(curves.is_minimal_pair) and finds the l with l^5 | disc0 for the Tamagawa
table (local_data._tamagawa_table) without factoring.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right

from .errors import InvalidPrime, TooLarge

__all__ = [
    "is_prime", "require_prime", "primes_up_to", "prime_range",
    "factorize", "power_divisors", "valuation", "isqrt", "icbrt", "iroot",
    "legendre",
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


def require_prime(n: int, least: int = 2) -> None:
    """Raise InvalidPrime unless n is a prime >= least: every prime argument's check."""
    if n < least or not is_prime(n):
        raise InvalidPrime(f"{n} is not a prime >= {least}")


# every sieve's bound: ~0.5 s and a ~55 MB peak (VmHWM, 2-vCPU Xeon VM,
# Python 3.11) at 10^7, both linear in n
_SIEVE_CAP = 10 ** 7


def primes_up_to(n: int) -> list[int]:
    """All primes <= n by a plain sieve; TooLarge past _SIEVE_CAP."""
    if n > _SIEVE_CAP:
        raise TooLarge(f"sieve up to {n} exceeds the cap {_SIEVE_CAP}")
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


# factorize takes at most this many Brent rho steps (squarings mod n) in all,
# then raises TooLarge. Products of two 38- to 42-bit primes took 0.2-3.9
# million steps, ~0.3 us each. A step mod an n of b > 128 bits costs more and
# counts as (b / 128)^2 steps, which outgrows its cost: giving up takes ~3-4.4 s
# at 112-128 bits and less past them, ~1.2 s at 512 bits against ~16-18 s with
# each step counted once (2-vCPU Xeon VM, Python 3.11).
_RHO_STEP_CAP = 1 << 23


def _pollard_rho(n: int, rng: random.Random, steps: int) -> tuple[int, int]:
    # Brent's cycle variant; n must be composite (a prime power is fine).
    # Returns a factor and what is left of steps, and raises TooLarge before
    # a round that could overrun them; steps are counted at 128 bits, so n
    # gets steps * (128 / b)^2 squarings of its own
    weight = max(n.bit_length(), 128) ** 2
    steps = allowed = steps * 128**2 // weight
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            if steps < 2 * r:
                raise TooLarge(f"no factor of {n} within {allowed} Pollard rho steps")
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
            steps -= r + min(k, r)
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
                steps -= 1
        if g != n:
            return g, steps * weight // 128**2


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n| as {prime: exponent}.  n must be nonzero.
    TooLarge past _RHO_STEP_CAP rho steps, or where is_prime cannot prove a
    factor."""
    if n == 0:
        raise ValueError("0 has no factorization")
    n = abs(n)
    out: dict[int, int] = {}
    for p in _MR_WITNESSES:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    rng = random.Random(0xC0FFEE ^ n)
    steps = _RHO_STEP_CAP
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
            g, steps = _pollard_rho(m, rng, steps)
            stack.append(g)
            stack.append(m // g)
    return out


# power_divisors trial-divides by no d past this, ~40-55 ms at the limit
# (2-vCPU Xeon VM, Python 3.11): it answers every n up to about 2^(20 (k + 1)),
# past which a q^k with q above the limit could hide in what is left.
_TRIAL_LIMIT = 1 << 20


def power_divisors(n: int, k: int) -> dict[int, int] | None:
    """{q: v_q(n)} for every prime q with q^k | n, for n >= 1 and k >= 1, or
    None when a q^k past _TRIAL_LIMIT could hide in what is left."""
    found = list(_power_divisor_walk(n, k))
    return None if None in found else dict(found)


def _power_divisor_walk(n: int, k: int):
    """Yields (q, v_q(n)) for each prime q with q^k | n, q ascending, then
    None when a q^k past _TRIAL_LIMIT could hide in what is left; a caller
    that needs only the first q^k stops there.

    Trial division by 2 and the odd d up to the (k+1)-th root of what is
    left of n takes out every small prime (a composite d never divides: its
    primes are out by then). What is left then has fewer than k + 1 prime
    factors, each above that root, so a q^k past the root divides it only
    as the whole of it, which an exact k-th root shows. The division stops
    at _TRIAL_LIMIT.
    """
    stop = min(iroot(n, k + 1), _TRIAL_LIMIT)
    d = 2
    while d <= stop:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            if e >= k:
                yield d, e
            stop = min(iroot(n, k + 1), _TRIAL_LIMIT)
        d += 1 if d == 2 else 2
    if iroot(n, k + 1) > _TRIAL_LIMIT:
        yield None
        return
    r = iroot(n, k)
    if r > 1 and r**k == n:
        yield r, k


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
    if k >= n.bit_length():
        return min(n, 1)  # n < 2^k: the root is 0 or 1, and Newton would form 2^(k-1)
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

import os
import pathlib
import random
import subprocess
import sys

import pytest

import iwastat
from iwastat.charpoly import (
    CharPoly,
    is_trivial_shape,
    iwasawa_invariants,
    truncated_chi_valuation,
    vanishing_order,
)
from iwastat.errors import InvalidPrime, ZeroPolynomial


def rand_poly(rng, p, deg_max=8, allow_zero_low=True):
    while True:
        cs = [rng.randrange(-(p**4), p**4 + 1) for _ in range(rng.randrange(1, deg_max + 2))]
        if any(cs):
            if not allow_zero_low and cs[0] == 0:
                cs[0] = 1 + p * rng.randrange(p)
            return CharPoly(p, cs)


def distinguished(rng, p, deg):
    # monic of the given degree, all lower coefficients divisible by p
    cs = [p * rng.randrange(-(p**2), p**2 + 1) for _ in range(deg)] + [1]
    return CharPoly(p, cs)


def unit_poly(rng, p, deg_max=4):
    cs = [rng.randrange(-(p**3), p**3 + 1) for _ in range(rng.randrange(1, deg_max + 2))]
    c0 = rng.randrange(1, p)  # unit constant term
    cs[0] = c0 + p * rng.randrange(-(p**2), p**2)
    return CharPoly(p, cs)


def test_construction_validation():
    with pytest.raises(ZeroPolynomial):
        CharPoly(5, [0, 0, 0])
    with pytest.raises(ZeroPolynomial):
        CharPoly(5, [])
    with pytest.raises(InvalidPrime):
        CharPoly(6, [1])
    f = CharPoly(5, [0, 5, 0])
    assert f.degree == 1


def test_product_at_two_primes_raises_under_optimization_too():
    # the check is no assert, so python -O keeps it
    with pytest.raises(InvalidPrime, match="p=5 and p=7"):
        CharPoly(5, [1]) * CharPoly(7, [1])
    src = pathlib.Path(iwastat.__file__).resolve().parent.parent
    script = ("from iwastat.charpoly import CharPoly\n"
              "from iwastat.errors import InvalidPrime\n"
              "try:\n    CharPoly(5, [1]) * CharPoly(7, [1])\n"
              "except InvalidPrime as e:\n    print(e)\n")
    out = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(src)), timeout=60)
    assert out.stdout == "cannot multiply polynomials at p=5 and p=7\n", out.stderr


def test_invariants_known_values():
    # mu strips the p-power content, lambda finds the first unit coefficient
    assert iwasawa_invariants(CharPoly(5, [25, 5])) == (1, 1)
    assert iwasawa_invariants(CharPoly(5, [75, 10, 3])) == (0, 2)
    assert iwasawa_invariants(CharPoly(5, [5, 25, 10])) == (1, 0)
    assert iwasawa_invariants(CharPoly(5, [1])) == (0, 0)
    assert iwasawa_invariants(CharPoly(5, [0, 0, 1])) == (0, 2)
    assert iwasawa_invariants(CharPoly(7, [49, 0, 14, 7])) == (1, 2)
    assert iwasawa_invariants(CharPoly(5, [-50, 35, 10])) == (1, 1)


def test_vanishing_order_and_leading_valuation():
    f = CharPoly(5, [0, 0, 75, 5])
    assert vanishing_order(f) == 2
    assert truncated_chi_valuation(f) == 2
    g = CharPoly(5, [3, 10])
    assert vanishing_order(g) == 0
    assert truncated_chi_valuation(g) == 0


def test_weierstrass_recovery():
    rng = random.Random(101)
    for _ in range(400):
        p = rng.choice([5, 7, 11])
        m = rng.randrange(0, 4)
        deg = rng.randrange(0, 6)
        h = distinguished(rng, p, deg)
        u = unit_poly(rng, p)
        f = CharPoly(p, [p**m]) * h * u
        assert iwasawa_invariants(f) == (m, deg)


def test_invariants_additive_in_products():
    rng = random.Random(13)
    for _ in range(400):
        p = rng.choice([5, 7, 11])
        f = rand_poly(rng, p)
        g = rand_poly(rng, p)
        mf, lf = iwasawa_invariants(f)
        mg, lg = iwasawa_invariants(g)
        assert iwasawa_invariants(f * g) == (mf + mg, lf + lg)


def test_unit_multiple_preserves_invariants():
    rng = random.Random(37)
    for _ in range(200):
        p = rng.choice([5, 7])
        f = rand_poly(rng, p)
        u = unit_poly(rng, p)
        assert iwasawa_invariants(f * u) == iwasawa_invariants(f)


def test_trivial_shape_basic():
    # unit times T^r
    assert is_trivial_shape(CharPoly(5, [0, 0, 3]), 2)
    assert is_trivial_shape(CharPoly(5, [1]), 0)
    assert is_trivial_shape(CharPoly(5, [0, 7, 10]), 1)
    assert not is_trivial_shape(CharPoly(5, [0, 0, 3]), 1)
    assert not is_trivial_shape(CharPoly(5, [0, 0, 5]), 2)  # leading coeff not a unit
    assert not is_trivial_shape(CharPoly(5, [5, 1]), 0)  # c_0 = 5 not a unit
    # nonzero but divisible constant term: invariants alone would say yes
    assert not is_trivial_shape(CharPoly(5, [5, 1]), 1)


def test_trivial_shape_equivalence_random():
    # the returned truth value must coincide with the leading-term criterion
    rng = random.Random(211)
    for _ in range(1000):
        p = rng.choice([5, 7])
        f = rand_poly(rng, p)
        r = rng.randrange(0, len(f.coeffs) + 1)
        expect = vanishing_order(f) == r and truncated_chi_valuation(f) == 0
        assert is_trivial_shape(f, r) == expect

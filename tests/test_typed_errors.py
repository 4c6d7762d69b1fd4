"""Every public numeric function gives a value or raises a typed
IwastatError, and the dp, bounds, invariants and ip-count commands exit 0
or 1, never 2, on any argument.

Arguments are drawn from each function's accepted range and just outside
it: 0, 1, negatives, composites (small and past 10^20), the census primes
up to 10^4, and heights up to 10^400. A sweep (count_Ip,
empirical_densities, ip-count) runs only at heights up to 10^6 or past the
cap, which it refuses at once, so the file runs in seconds. The examples
pin inputs that once raised an untyped exception.
"""

import contextlib
import io
import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from iwastat import cli
from iwastat.census import DpMode, bound_dp2, bound_dp3, d_of_p
from iwastat.charpoly import CharPoly, iwasawa_invariants, truncated_chi_valuation
from iwastat.curves import (
    anomalous_residue_table, classify_reduction, count_points, dp_census, trace_frobenius,
)
from iwastat.enumeration import (
    box_bounds, brumer_estimate, count_Ip, empirical_densities, lifting_count, sadek_bounds,
    total_weq,
)
from iwastat.errors import IwastatError
from iwastat.local_data import kodaira_tamagawa, local_reduction_raw, tamagawa_p_part
from iwastat.primes import primes_up_to

CENSUS_PRIMES = primes_up_to(10**4)[2:]

# a prime argument: the census primes, and 0, 1, negatives and composites
# around them; the large values are all even, so no census runs at a prime
# past 10^4
primes = st.one_of(
    st.sampled_from(CENSUS_PRIMES),
    st.integers(-10, 10),
    st.integers(2, 100).map(lambda n: n * n),
    st.integers(-10**4, 10**4),
    st.integers(10**20, 10**30).map(lambda n: 2 * n),
)
heights = st.one_of(
    st.integers(-10, 5000),
    st.integers(1, 10**6),
    st.integers(10**6, 10**16),
    st.integers(10**15 - 10, 10**15 + 10),
    st.sampled_from([10**400, -10**400]),
)
# the heights a sweep may run at here: up to 10^6, or past the cap
sweep_heights = st.one_of(st.integers(-10, 10**6), st.integers(10**15 + 1, 10**400))
coefficients = st.one_of(st.integers(-50, 50), st.integers(-10**30, 10**30))
pairs = st.tuples(coefficients, coefficients)
counts = st.one_of(st.integers(-10, 10**8), st.sampled_from([10**400, -10**400]))


def _answers(f, *args, **kwargs):
    """f's value, or None when f raises an IwastatError; any other exception
    fails the test. A float value must not be NaN."""
    try:
        value = f(*args, **kwargs)
    except IwastatError:
        return None
    for x in value if isinstance(value, tuple) else (value,):
        assert not (isinstance(x, float) and math.isnan(x)), (f.__name__, args, value)
    return value


@settings(max_examples=150, deadline=None)
@given(p=primes, d=counts, mode=st.sampled_from(["literal", *DpMode, "nope"]))
@example(p=5, d=10**400, mode="literal")
def test_census_functions_answer_or_raise_typed(p, d, mode):
    _answers(d_of_p, p, mode)
    _answers(bound_dp2, p)
    _answers(bound_dp3, p, d)
    census = _answers(d_of_p, p)
    if census is not None:
        assert 0 <= _answers(bound_dp3, p, census) <= 1.001


@settings(max_examples=20, deadline=None)
@given(p=primes)
def test_dp_census_answers_or_raises_typed(p):
    _answers(dp_census, p)


@settings(max_examples=150, deadline=None)
@given(X=heights)
@example(X=10**400)
def test_height_functions_answer_or_raise_typed(X):
    _answers(box_bounds, X)
    _answers(total_weq, X)
    _answers(brumer_estimate, X)


@settings(max_examples=150, deadline=None)
@given(l=primes, p=primes, X=heights, exponent=st.integers(-10, 10**4))
@example(l=5, p=223, X=10**6, exponent=223)
def test_locus_functions_answer_or_raise_typed(l, p, X, exponent):
    _answers(sadek_bounds, l, p, X)
    _answers(lifting_count, l, exponent)


@settings(max_examples=60, deadline=None)
@given(l=primes, p=primes, X=sweep_heights, strict=st.booleans())
def test_sweeps_answer_or_raise_typed(l, p, X, strict):
    _answers(count_Ip, l, p, X, workers=1)
    _answers(empirical_densities, p, X, ip_primes=[l], strict=strict, workers=1)


@settings(max_examples=150, deadline=None)
@given(pair=pairs, p=primes, flag=st.booleans())
@example(pair=[-1, 0], p=5, flag=False)
def test_curve_functions_answer_or_raise_typed(pair, p, flag):
    A, B = pair
    _answers(count_points, A, B, p)
    _answers(trace_frobenius, A, B, p)
    _answers(classify_reduction, pair, p, allow_p3=flag)
    _answers(kodaira_tamagawa, pair, p, allow_23=flag)
    _answers(local_reduction_raw, A, B, p)
    _answers(tamagawa_p_part, pair, p, allow_23=flag)


@settings(max_examples=20, deadline=None)
@given(p=primes)
def test_anomalous_residue_table_answers_or_raises_typed(p):
    _answers(anomalous_residue_table, p)


@settings(max_examples=150, deadline=None)
@given(p=primes, coeffs=st.lists(coefficients, max_size=6))
def test_invariants_answer_or_raise_typed(p, coeffs):
    f = _answers(CharPoly, p, coeffs)
    if f is not None:
        _answers(iwasawa_invariants, f)
        _answers(truncated_chi_valuation, f)


def _exits_0_or_1(argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.main(argv)
    assert code in (0, 1), (argv, code, err.getvalue())


@settings(max_examples=100, deadline=None)
@given(p=primes, mode=st.sampled_from(["literal", "trace-pairs", "trace-classes"]),
       coeffs=st.lists(coefficients, min_size=1, max_size=4))
def test_census_and_invariants_commands_never_exit_2(p, mode, coeffs):
    _exits_0_or_1(["dp", "--prime", str(p), "--mode", mode])
    _exits_0_or_1(["bounds", "--prime", str(p)])
    _exits_0_or_1(["invariants", "--poly", ",".join(map(str, coeffs)), "--prime", str(p)])


@settings(max_examples=60, deadline=None)
@given(l=primes, p=primes, X=sweep_heights)
@example(l=5, p=223, X=10**6)
def test_ip_count_never_exits_2(l, p, X):
    _exits_0_or_1(["ip-count", "--l", str(l), "--p", str(p), "--height", str(X), "--workers", "1"])

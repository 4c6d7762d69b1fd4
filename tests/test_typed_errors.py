"""Every public numeric function gives a value or raises a typed
IwastatError, and every command exits 0 or 1, never 2, on any argument.

Arguments are drawn from each function's accepted range and just outside
it: 0, 1, negatives, composites (small and past 10^20), the census primes
up to 10^4, and heights up to 10^400. A sweep (count_Ip,
empirical_densities, enumerate, ip-count) runs only at heights up to 10^6
or past the cap, which it refuses at once; a scan reads a CSV of a few
rows, malformed fields among them, up to a prime of at most 400 or past
the sieve's cap; dp_table runs below 2000 or past that cap. So the file
runs in seconds. The examples pin inputs that once raised an untyped
exception, answered a question they should have refused, or took
unbounded time.
"""

import contextlib
import csv
import io
import math
import os
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from iwastat import cli
from iwastat.census import DpMode, bound_dp2, bound_dp3, d_of_p, dp_table
from iwastat.charpoly import CharPoly, iwasawa_invariants, truncated_chi_valuation
from iwastat.curves import (
    anomalous_residue_table, classify_reduction, count_points, dp_census, trace_frobenius,
)
from iwastat.enumeration import (
    box_bounds, brumer_estimate, count_Ip, empirical_densities, lifting_count, sadek_bounds,
    total_weq,
)
from iwastat.errors import IwastatError
from iwastat.io import KNOWN_COLUMNS
from iwastat.local_data import kodaira_tamagawa, local_reduction_raw, tamagawa_p_part
from iwastat.prime_scan import CurveRecord, scan_primes, sigma_prime_membership
from iwastat.primes import _SIEVE_CAP, is_prime, primes_up_to

CENSUS_PRIMES = primes_up_to(10**4)[2:]

# a prime argument: the census primes, and 0, 1, negatives and composites
# around them; the large values are all even, so no census runs at a prime
# past 10^4 (the ip-count example at 10^12 + 39 sweeps for its I_p hits
# alone, and runs no census; the enumerate example there is refused by the
# census-prime cap)
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
@example(p=1000003, d=0, mode="literal")
@example(p=10000019, d=0, mode="literal")
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
@example(l=5, p=10**7 + 19, X=10**6, exponent=0)
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
@example(l=5, p=1000000000039, X=10**6)
def test_ip_count_never_exits_2(l, p, X):
    _exits_0_or_1(["ip-count", "--l", str(l), "--p", str(p), "--height", str(X), "--workers", "1"])


# the largest p_max a scan is drawn with here, below the cap
_SCAN_REACH = 400
# a cell of the scan CSV: an integer of any size, or a malformed field
cells = st.one_of(
    st.integers(-10, 60).map(str),
    coefficients.map(str),
    st.sampled_from(["", " 7 ", "x", "1.5", "1e3", "--1", "0x10", "nan", "\u0663",
                     "5", "5:x", "x:1", ":", "5:0;5:1", ";;", "5:0;"]),
    st.text(max_size=4),
)
reg_excess = st.dictionaries(st.integers(-7, 60), st.integers(-2, 3), max_size=3).map(
    lambda pvs: ";".join(f"{p}:{v}" for p, v in pvs.items()))


@st.composite
def bad_pairs(draw):
    """A singular pair, or one that is not minimal at a small or large q."""
    k = draw(st.one_of(st.integers(-30, 30), st.integers(-10**12, 10**12)))
    if draw(st.booleans()):
        return -3 * k * k, 2 * k ** 3
    q = draw(st.sampled_from([2, 3, 5, 7, 1009]))
    A, B = draw(pairs)
    return q ** 4 * A, q ** 6 * B


@st.composite
def scan_rows(draw):
    """A CSV row of small or huge coefficients with at most one fault: a
    malformed field, a value just outside its range, or a singular or
    non-minimal pair. The overrides may fall at a good prime."""
    A, B = draw(pairs)
    row = {
        "label": draw(st.text(max_size=5)),
        "a": str(A),
        "b": str(B),
        "rank": str(draw(st.integers(0, 3))),
        "sha_order": draw(st.sampled_from(["", "1", "4", "25"])),
        "torsion_order": draw(st.sampled_from(["", "1", "2", "4"])),
        "tamagawa_2": draw(st.sampled_from(["", "1", "2", "4"])),
        "tamagawa_3": draw(st.sampled_from(["", "", "", "3"])),
        "reg_excess": draw(reg_excess),
    }
    fault = draw(st.sampled_from([None, None, "cell", "range", "curve"]))
    if fault == "cell":
        row[draw(st.sampled_from(KNOWN_COLUMNS))] = draw(cells)
    elif fault == "range":
        column, value = draw(st.sampled_from([
            ("rank", "-1"), ("sha_order", "0"), ("torsion_order", "0"),
            ("tamagawa_2", "0"), ("tamagawa_3", "-3")]))
        row[column] = value
    elif fault == "curve":
        row["a"], row["b"] = map(str, draw(bad_pairs()))
    return row


max_primes = st.one_of(st.integers(-1, _SCAN_REACH), st.integers(-1, _SCAN_REACH),
                       st.integers(_SIEVE_CAP + 1, 10**30))


@settings(max_examples=40, deadline=None)
@given(rows=st.lists(scan_rows(), max_size=3), max_prime=max_primes, allow_23=st.booleans())
def test_scan_never_exits_2(rows, max_prime, allow_23):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "records.csv")
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, KNOWN_COLUMNS)
            writer.writeheader()
            writer.writerows(rows)
        argv = ["scan", path, "--max-prime", str(max_prime), "--workers", "1"]
        _exits_0_or_1(argv + ["--allow-23"] if allow_23 else argv)


@settings(max_examples=40, deadline=None)
@given(X=sweep_heights, p=primes, strict=st.booleans())
@example(X=10**15 + 1, p=5, strict=False)
@example(X=10**6, p=1000000000039, strict=False)
def test_enumerate_never_exits_2(X, p, strict):
    argv = ["enumerate", "--height", str(X), "--prime", str(p), "--workers", "1"]
    _exits_0_or_1(argv + ["--strict"] if strict else argv)


@settings(max_examples=60, deadline=None)
@given(pair=st.one_of(pairs, bad_pairs()), sha=st.one_of(st.none(), st.integers(1, 50)), p=primes,
       p_max=max_primes, p_min=st.integers(-10, _SCAN_REACH), flag=st.booleans())
@example(pair=(-1, 0), sha=4, p=0, p_max=50, p_min=5, flag=False)
@example(pair=(-1, 0), sha=4, p=1, p_max=50, p_min=5, flag=False)
@example(pair=(-1, 0), sha=4, p=4, p_max=50, p_min=5, flag=False)
def test_scan_functions_answer_or_raise_typed(pair, sha, p, p_max, p_min, flag):
    record = _answers(CurveRecord, pair, rank=0, sha_order=sha)
    if record is None:
        return
    member = _answers(sigma_prime_membership, record, p, allow_23=flag)
    if member is not None:
        # an answer is given at 2 and at the primes >= 5 only
        assert p == 2 or p >= 5 and is_prime(p), (p, member)
    _answers(scan_primes, record, p_max, p_min, allow_23=flag)


@settings(max_examples=40, deadline=None)
@given(p_max=st.one_of(st.integers(-10, 2000), st.integers(_SIEVE_CAP + 2, 10**30)),
       p_min=st.integers(-10, 2000))
@example(p_max=2 * 10**20, p_min=5)
def test_dp_table_answers_or_raises_typed(p_max, p_min):
    _answers(dp_table, p_max, p_min)

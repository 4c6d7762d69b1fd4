import dataclasses
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

import iwastat
from iwastat import local_data
from iwastat.curves import CurveQ, ReductionClass
from iwastat.errors import GoodReductionAt, InvalidPrime, MissingSha, OutOfRange, UnknownLocalData
from iwastat.prime_scan import (
    Conclusion,
    CurveRecord,
    PrimeScanResult,
    scan_primes,
    sigma_prime_membership,
)
from oracles import trace_by_legendre

FULL_TWO_TORSION = CurveRecord(
    curve=(-1, 0), rank=0, sha_order=1, torsion_order=4, label="full2tors"
)


def scan_at(record, p, allow_23=False):
    """The scan's result at the one prime p."""
    (res,) = scan_primes(record, p, p_min=p, allow_23=allow_23)
    return res


def test_record_validation():
    r = CurveRecord(curve=(-1, 0), rank=0)
    assert isinstance(r.curve, CurveQ)
    with pytest.raises(OutOfRange, match="^sha_order must be positive, got 0$"):
        CurveRecord(curve=(-1, 0), rank=0, sha_order=0)
    with pytest.raises(OutOfRange, match="^Tamagawa override at 2 must be positive, got 0$"):
        CurveRecord(curve=(-1, 0), rank=0, tamagawa_overrides={2: 0})
    # 7 is a good prime for disc0 = -4; so are 4 (not prime) and 3
    for l in (7, 4, 3):
        with pytest.raises(GoodReductionAt,
                           match=rf"^Tamagawa override at good prime {l} \(bad set \[2\]\)$"):
            CurveRecord(curve=(-1, 0), rank=0, tamagawa_overrides={l: 2})
    CurveRecord(curve=(-1, 0), rank=0, tamagawa_overrides={2: 4})
    # disc0 = 4 * 17^3 + 27 * 11^2 = 22919 = 13 * 41 * 43
    rec = CurveRecord(curve=(17, 11), rank=0, tamagawa_overrides={2: 1, 13: 2, 41: 1, 43: 1})
    assert local_data.bad_primes(rec.curve) == {2, 13, 41, 43}
    with pytest.raises(GoodReductionAt, match=r"\(bad set \[2, 13, 41, 43\]\)$"):
        CurveRecord(curve=(17, 11), rank=0, tamagawa_overrides={13 * 41: 1})


def test_rank_zero_scan_conclusions():
    res = scan_primes(FULL_TWO_TORSION, 30)
    got = [(x.p, x.reduction_class.value, x.conclusion.value) for x in res]
    assert got == [
        (5, "GoodOrdinary", "SelmerTrivial"),
        (7, "GoodSupersingular", "SignedSelmerTrivial"),
        (11, "GoodSupersingular", "SignedSelmerTrivial"),
        (13, "GoodOrdinary", "SelmerTrivial"),
        (17, "GoodOrdinary", "SelmerTrivial"),
        (19, "GoodSupersingular", "SignedSelmerTrivial"),
        (23, "GoodSupersingular", "SignedSelmerTrivial"),
        (29, "GoodOrdinary", "SelmerTrivial"),
    ]
    for x in res:
        assert (x.mu, x.lam, x.chi_valuation) == (0, 0, 0)
        assert x.in_sigma is False and x.in_sigma_prime is False


def test_anomalous_prime_is_inconclusive():
    rec = CurveRecord(curve=(3, 0), rank=0, sha_order=1)
    one = scan_at(rec, 5)
    assert one.conclusion is Conclusion.INCONCLUSIVE
    assert one.reason == "anomalous" and one.in_sigma is True


def test_inconclusive_set_is_exactly_the_anomalous_set():
    # for a rank 0, trivial-Sha, certified-Tamagawa record the only good
    # primes the scan refuses are the anomalous ones
    rec = CurveRecord(curve=(3, 0), rank=0, sha_order=1)
    anomalous = set()
    for x in scan_primes(rec, 100):
        if x.conclusion is Conclusion.BAD_PRIME:
            continue
        if (x.p + 1 - trace_by_legendre(3, 0, x.p)) % x.p == 0:
            anomalous.add(x.p)
            assert x.conclusion is Conclusion.INCONCLUSIVE
        else:
            assert x.conclusion in (
                Conclusion.SELMER_TRIVIAL,
                Conclusion.SIGNED_SELMER_TRIVIAL,
            )
    assert anomalous  # (3, 0) does have anomalous primes, e.g. 5


def test_missing_sha_blocks_conclusion():
    rec = CurveRecord(curve=(-1, 0), rank=0)
    one = scan_at(rec, 5)
    assert one.conclusion is Conclusion.INCONCLUSIVE
    assert one.reason == "MissingSha"
    with pytest.raises(MissingSha):
        sigma_prime_membership(rec, 5)


def test_rank_one_decision_tree():
    rec = CurveRecord(
        curve=(-1, 1),
        rank=1,
        sha_order=1,
        regulator_valuations={5: 0, 7: 1},
        label="rank1",
    )
    one = scan_at(rec, 5)
    assert one.conclusion is Conclusion.CHAR_ELEMENT_IS_TR
    assert one.conditional is False and one.in_pi is False
    assert (one.mu, one.lam, one.chi_valuation) == (0, 1, 0)
    # p divides the regulator excess: refuse
    one = scan_at(rec, 7)
    assert one.conclusion is Conclusion.INCONCLUSIVE and one.in_pi is True
    # no regulator data at all: refuse with a different reason
    one = scan_at(rec, 11)
    assert one.conclusion is Conclusion.INCONCLUSIVE
    assert one.reason == "missing regulator-excess valuation"
    # bad prime short-circuits
    one = scan_at(rec, 23)
    assert one.conclusion is Conclusion.BAD_PRIME


def test_supersingular_rank_one_is_conditional():
    rec = CurveRecord(
        curve=(-1, 1), rank=1, sha_order=1, regulator_valuations={59: 0}
    )
    one = scan_at(rec, 59)
    assert one.reduction_class is ReductionClass.GOOD_SUPERSINGULAR
    assert one.conclusion is Conclusion.CHAR_ELEMENT_IS_TR
    assert one.conditional is True
    assert one.reason == "conditional on the signed leading-term conjecture"


def test_sigma_prime_membership():
    assert sigma_prime_membership(FULL_TWO_TORSION, 2) is True
    assert sigma_prime_membership(FULL_TWO_TORSION, 5) is False
    sha5 = CurveRecord(curve=(-1, 0), rank=0, sha_order=5)
    assert sigma_prime_membership(sha5, 5) is True
    # c_5 = 5 at the split I5 prime of (28, -86) forces membership at 5 only
    tam5 = CurveRecord(curve=(28, -86), rank=0, sha_order=1)
    assert sigma_prime_membership(tam5, 5) is True
    assert sigma_prime_membership(tam5, 11) is False
    assert scan_at(tam5, 11).conclusion is Conclusion.SELMER_TRIVIAL


def test_divisor_hit_is_inconclusive():
    sha5 = CurveRecord(curve=(-1, 0), rank=0, sha_order=5)
    one = scan_at(sha5, 5)
    assert one.conclusion is Conclusion.INCONCLUSIVE
    assert one.in_sigma_prime is True and one.in_upsilon is True
    # at other primes the record is clean
    assert scan_at(sha5, 13).conclusion is Conclusion.SELMER_TRIVIAL


def test_unknown_local_data_propagates():
    # v_2(Delta) = 10 for (5, 6): the 5-part of c_2 cannot be certified away
    rec = CurveRecord(curve=(5, 6), rank=0, sha_order=1)
    with pytest.raises(UnknownLocalData):
        scan_at(rec, 5)
    fixed = CurveRecord(curve=(5, 6), rank=0, sha_order=1, tamagawa_overrides={2: 1})
    assert scan_at(fixed, 5).conclusion is not Conclusion.BAD_PRIME
    # or let the local algorithm run at 2
    assert scan_at(rec, 5, True).conclusion is scan_at(fixed, 5).conclusion


def test_result_invariant_asserts():
    with pytest.raises(AssertionError):
        PrimeScanResult(
            p=5,
            reduction_class=ReductionClass.GOOD_ORDINARY,
            in_sigma=False,
            in_sigma_prime=False,
            in_upsilon=False,
            in_pi=None,
            conclusion=Conclusion.SELMER_TRIVIAL,
            mu=1,  # conclusive result must pin mu = 0
            lam=0,
            chi_valuation=0,
        )
    with pytest.raises(AssertionError):
        PrimeScanResult(
            p=5,
            reduction_class=ReductionClass.GOOD_SUPERSINGULAR,
            in_sigma=False,
            in_sigma_prime=False,
            in_upsilon=False,
            in_pi=None,
            conclusion=Conclusion.SELMER_TRIVIAL,  # wrong class for this verdict
            mu=0,
            lam=0,
            chi_valuation=0,
        )


def test_scan_primes_bounds_and_workers():
    # serial == parallel is checked over records in
    # tests/test_cli.py::test_scan_workers_match_serial
    with pytest.raises(InvalidPrime):
        scan_primes(FULL_TWO_TORSION, 20, p_min=3)
    serial = scan_primes(FULL_TWO_TORSION, 60)
    assert [x.p for x in serial] == [5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def test_scan_never_factors_disc0(monkeypatch):
    # the Tamagawa table finds the l with l^5 | disc0 by trial division, and
    # an override is checked by l | disc0, so neither factors disc0
    def refuse(n):
        raise AssertionError(f"factorize({n}) called")

    monkeypatch.setattr(local_data, "factorize", refuse)
    local_data._tamagawa_table.cache_clear()
    # validating an override at parse time does not factor disc0 either
    records = [
        CurveRecord((-1, 1), rank=0, sha_order=1),
        CurveRecord((17, 11), rank=0, sha_order=1, tamagawa_overrides={2: 2, 13: 1}),
        # disc0 = 7^5 * 17^2: without an override at 7 the 5-part asks
        # Tate's algorithm for c_7 = 5
        CurveRecord((-17, 425), rank=0, sha_order=1, tamagawa_overrides={2: 1, 7: 5}),
        CurveRecord((-17, 425), rank=0, sha_order=1),
    ]
    assert len(scan_primes(records[0], 500)) == 93
    assert len(scan_primes(records[1], 100)) == 23
    for rec in records[2:]:
        assert [r.in_sigma_prime for r in scan_primes(rec, 13)] == [True, None, False, False]
    for rec in records:
        scan_primes(rec, 100, allow_23=True)


def test_scan_builds_each_distinct_result_once(monkeypatch):
    # records that meet the same verdict at p share one frozen result, so its
    # checks run once per distinct (p, verdict), not once per record
    from iwastat import prime_scan

    built = []
    real = PrimeScanResult.__post_init__

    def counting(self):
        built.append((self.p, self.conclusion, self.reason))
        real(self)

    monkeypatch.setattr(PrimeScanResult, "__post_init__", counting)
    prime_scan._result.cache_clear()
    records = [CurveRecord((a, b), rank=r, sha_order=1)
               for a, b, r in ((-1, 0, 0), (-1, 1, 0), (1, 1, 0), (-2, 1, 0), (-1, 1, 1))]
    scans = [scan_primes(rec, 300) for rec in records * 2]
    distinct = {dataclasses.astuple(res) for scan in scans for res in scan}
    assert sum(map(len, scans)) == 2 * len(records) * 60
    assert len(built) == len(distinct) < sum(map(len, scans)) // 2
    assert scans[:len(records)] == scans[len(records):]


def test_input_checks_survive_python_O(tmp_path):
    # input validation must not rely on assert, which python -O strips
    script = textwrap.dedent("""
        from iwastat.errors import InvalidPrime, OutOfRange, SingularCurve
        from iwastat.local_data import bad_primes, tamagawa_p_part
        from iwastat.prime_scan import CurveRecord, scan_primes
        from oracles import lifting_count_bruteforce

        def raises(exc, fn, *args, **kwargs):
            try:
                fn(*args, **kwargs)
            except exc:
                return
            raise SystemExit(f"{fn.__name__}{args} did not raise {exc.__name__}")

        raises(OutOfRange, CurveRecord, (-1, 0), rank=-1)
        raises(OutOfRange, CurveRecord, (-1, 0), rank=0, torsion_order=0)
        rec = CurveRecord((-1, 0), rank=0, sha_order=1)
        raises(InvalidPrime, scan_primes, rec, 20, p_min=3)
        raises(InvalidPrime, tamagawa_p_part, rec, 3)
        raises(SingularCurve, bad_primes, (-3, 2))
        raises(ValueError, lifting_count_bruteforce, 5, 2, exclusion="neither")
        print("ok")
    """)
    src = pathlib.Path(iwastat.__file__).resolve().parent.parent
    path = os.pathsep.join([str(src), str(pathlib.Path(__file__).resolve().parent)])
    env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run([sys.executable, "-O", "-c", script], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"

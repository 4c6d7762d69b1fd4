"""The per-prime scan against the decision code it replaced.

OldPrimeScanResult, old_tamagawa_p_part, old_sigma_prime_membership and
old_scan_one are the scan as it was before the Tamagawa data was worked out
once per record and the twelve result branches became one ordered gate list.
They are kept verbatim (the point-count cache argument dropped) as the
oracle: on seeded records and every prime from 5 to 200, with and without
the local algorithm at 2 and 3, the scan must give equal results or raise
the same exception type. The oracle classifies each prime by the pure-Python
Legendre sum of tests/oracles.py, which shares no code with the package's
point counts; the scan reads every a_p of a record from one batched pass,
checked both one prime at a time and over the whole range at once.
"""

import dataclasses
import io
import json
import random
from dataclasses import dataclass
from typing import Optional

import pytest

from iwastat.charpoly import CharPoly, is_trivial_shape
from iwastat.curves import CurveQ, ReductionClass, is_minimal_pair
from iwastat.errors import MissingSha, UnknownLocalData
from iwastat.io import scan_entry_text, scan_result_dict, write_scan_json
from iwastat.local_data import (
    _p_part_certifiably_trivial,
    bad_primes,
    kodaira_tamagawa,
    local_reduction_raw,
)
from iwastat.primes import prime_range, valuation
from iwastat.prime_scan import Conclusion, CurveRecord, Reason, scan_primes
from oracles import trace_by_legendre


@dataclass(frozen=True)
class OldPrimeScanResult:
    p: int
    reduction_class: ReductionClass
    in_sigma: bool
    in_sigma_prime: Optional[bool]
    in_upsilon: Optional[bool]
    in_pi: Optional[bool]
    conclusion: Conclusion
    conditional: bool = False
    reason: str = ""
    mu: Optional[int] = None
    lam: Optional[int] = None
    chi_valuation: Optional[int] = None

    def __post_init__(self):
        if self.conclusion is Conclusion.SELMER_TRIVIAL:
            assert self.reduction_class is ReductionClass.GOOD_ORDINARY
            assert not self.in_sigma and self.in_sigma_prime is False
        elif self.conclusion is Conclusion.SIGNED_SELMER_TRIVIAL:
            assert self.reduction_class is ReductionClass.GOOD_SUPERSINGULAR
            assert self.in_upsilon is False
        elif self.conclusion is Conclusion.CHAR_ELEMENT_IS_TR:
            assert self.in_pi is False
        if self.mu is not None and self.lam is not None:
            f = CharPoly(self.p, [0] * self.lam + [1])
            assert is_trivial_shape(f, self.lam) and self.mu == 0


PrimeScanResult = OldPrimeScanResult


def old_tamagawa_p_part(record_or_curve, p, overrides=None, allow_23=False) -> int:
    assert p >= 5, "tau_p is defined for p >= 5 here"
    curve = getattr(record_or_curve, "curve", record_or_curve)
    if not isinstance(curve, CurveQ):
        curve = CurveQ(*curve)
    if overrides is None:
        overrides = getattr(record_or_curve, "tamagawa_overrides", None) or {}

    tau = 1
    for l in sorted(bad_primes(curve)):
        if l in overrides:
            c = overrides[l]
        elif l >= 5:
            c = kodaira_tamagawa(curve, l).tamagawa
        elif allow_23:
            c = local_reduction_raw(curve.A, curve.B, l).tamagawa
        else:
            v_delta = valuation(curve.discriminant, l)
            if _p_part_certifiably_trivial(v_delta, p):
                continue
            raise UnknownLocalData(
                f"cannot certify the {p}-part of c_{l}; supply an override "
                f"or pass allow_23=True"
            )
        v = 0
        while c % p == 0:
            c //= p
            v += 1
        tau *= p ** v
    return tau


def old_sigma_prime_membership(record, p, allow_23=False) -> bool:
    if p == 2:
        return True
    if record.sha_order is None:
        raise MissingSha(f"Sha order needed to decide membership at p={p}")
    if record.sha_order % p == 0:
        return True
    return old_tamagawa_p_part(record, p, allow_23=allow_23) > 1


def old_scan_one(record, p, allow_23):
    curve = record.curve
    if curve.disc0 % p == 0:
        return PrimeScanResult(
            p, ReductionClass.BAD, False, None, None, None,
            Conclusion.BAD_PRIME, reason="p divides the discriminant",
        )
    a_p = trace_by_legendre(curve.A, curve.B, p)
    in_sigma = (p + 1 - a_p) % p == 0

    try:
        divisor_hit = old_sigma_prime_membership(record, p, allow_23=allow_23)
    except MissingSha:
        divisor_hit = None
    in_pi = None
    if record.regulator_valuations is not None and p in record.regulator_valuations:
        in_pi = record.regulator_valuations[p] != 0

    ordinary = a_p % p != 0
    reduction_class = ReductionClass.GOOD_ORDINARY if ordinary else ReductionClass.GOOD_SUPERSINGULAR
    kwargs = dict(
        p=p, reduction_class=reduction_class, in_sigma=in_sigma,
        in_sigma_prime=divisor_hit, in_upsilon=divisor_hit, in_pi=in_pi,
    )

    if record.rank == 0:
        if ordinary:
            if in_sigma:
                return PrimeScanResult(
                    **kwargs, conclusion=Conclusion.INCONCLUSIVE, reason="anomalous"
                )
            if divisor_hit is None:
                return PrimeScanResult(
                    **kwargs, conclusion=Conclusion.INCONCLUSIVE, reason="MissingSha"
                )
            if divisor_hit:
                return PrimeScanResult(
                    **kwargs, conclusion=Conclusion.INCONCLUSIVE,
                    reason="p divides the Sha order or a Tamagawa number",
                )
            return PrimeScanResult(
                **kwargs, conclusion=Conclusion.SELMER_TRIVIAL,
                mu=0, lam=0, chi_valuation=0,
            )
        # supersingular: anomalous is impossible for p >= 5
        assert not in_sigma
        if divisor_hit is None:
            return PrimeScanResult(
                **kwargs, conclusion=Conclusion.INCONCLUSIVE, reason="MissingSha"
            )
        if divisor_hit:
            return PrimeScanResult(
                **kwargs, conclusion=Conclusion.INCONCLUSIVE,
                reason="p divides the Sha order or a Tamagawa number",
            )
        return PrimeScanResult(
            **kwargs, conclusion=Conclusion.SIGNED_SELMER_TRIVIAL,
            mu=0, lam=0, chi_valuation=0,
        )

    # rank >= 1
    if ordinary and in_sigma:
        return PrimeScanResult(
            **kwargs, conclusion=Conclusion.INCONCLUSIVE, reason="anomalous"
        )
    if divisor_hit is None:
        return PrimeScanResult(
            **kwargs, conclusion=Conclusion.INCONCLUSIVE, reason="MissingSha"
        )
    if divisor_hit:
        return PrimeScanResult(
            **kwargs, conclusion=Conclusion.INCONCLUSIVE,
            reason="p divides the Sha order or a Tamagawa number",
        )
    if in_pi is None:
        return PrimeScanResult(
            **kwargs, conclusion=Conclusion.INCONCLUSIVE,
            reason="missing regulator-excess valuation",
        )
    if in_pi:
        return PrimeScanResult(
            **kwargs, conclusion=Conclusion.INCONCLUSIVE,
            reason="p divides the regulator excess",
        )
    return PrimeScanResult(
        **kwargs, conclusion=Conclusion.CHAR_ELEMENT_IS_TR,
        conditional=not ordinary,
        reason="" if ordinary else "conditional on the signed leading-term conjecture",
        mu=0, lam=record.rank, chi_valuation=0,
    )


PRIMES = prime_range(5, 201)


def scan_one(record, p, allow_23):
    """The scan's result at the one prime p."""
    (res,) = scan_primes(record, p, p_min=p, allow_23=allow_23)
    return res


def seeded_records(seed, n):
    """n records with small coefficients, a share of them CM (A = 0 or
    B = 0, so that supersingular primes are common), Sha orders with small
    prime factors or none, Tamagawa overrides at 2 and 3 on some, and
    regulator valuations at most primes or none."""
    rng = random.Random(seed)
    records = []
    while len(records) < n:
        kind = rng.random()
        A = 0 if kind < 0.15 else rng.randint(-60, 60)
        B = 0 if 0.15 <= kind < 0.3 else rng.randint(-300, 300)
        if 4 * A ** 3 + 27 * B * B == 0 or not is_minimal_pair(A, B):
            continue
        curve = CurveQ(A, B)
        bad = bad_primes(curve)
        overrides = {l: rng.choice([1, 2, 5, 7]) for l in (2, 3)
                     if l in bad and rng.random() < 0.3}
        regulator = None
        if rng.random() < 0.8:
            regulator = {p: int(rng.random() < 0.15) for p in PRIMES if rng.random() < 0.9}
        records.append(CurveRecord(
            curve=curve,
            rank=rng.choice([0, 0, 1, 1, 2]),
            sha_order=rng.choice([None, 1, 1, 1, 4, 5, 9, 25, 49]),
            tamagawa_overrides=overrides,
            regulator_valuations=regulator,
        ))
    return records


def as_row(res):
    """The result as (conclusion, reason string, every other field)."""
    row = dataclasses.asdict(res)
    row["reason"] = str(getattr(res.reason, "value", res.reason))
    return row


def outcome(scan, record, p, allow_23):
    """as_row of the result, or the type of the exception the scan raised."""
    try:
        res = scan(record, p, allow_23)
    except Exception as e:
        return type(e)
    return as_row(res)


@pytest.mark.parametrize("allow_23", [False, True])
def test_gate_list_matches_the_old_branches(allow_23):
    pairs = set()
    raised = 0
    for record in seeded_records(20240501, 120):
        for p in PRIMES:
            want = outcome(old_scan_one, record, p, allow_23)
            got = outcome(scan_one, record, p, allow_23)
            assert got == want, (record, p, allow_23)
            if isinstance(want, dict):
                pairs.add((want["conclusion"], want["reason"]))
            else:
                raised += 1
    assert pairs == {
        (Conclusion.BAD_PRIME, Reason.BAD_PRIME.value),
        (Conclusion.INCONCLUSIVE, Reason.ANOMALOUS.value),
        (Conclusion.INCONCLUSIVE, Reason.MISSING_SHA.value),
        (Conclusion.INCONCLUSIVE, Reason.SHA_OR_TAMAGAWA.value),
        (Conclusion.INCONCLUSIVE, Reason.MISSING_REGULATOR.value),
        (Conclusion.INCONCLUSIVE, Reason.REGULATOR_DIVIDES.value),
        (Conclusion.SELMER_TRIVIAL, Reason.NONE.value),
        (Conclusion.SIGNED_SELMER_TRIVIAL, Reason.NONE.value),
        (Conclusion.CHAR_ELEMENT_IS_TR, Reason.NONE.value),
        (Conclusion.CHAR_ELEMENT_IS_TR, Reason.CONDITIONAL.value),
    }
    # without the local algorithm some 2-adic Tamagawa parts stay uncertified
    assert (raised > 0) is not allow_23


@pytest.mark.parametrize("allow_23", [False, True])
def test_whole_range_scan_matches_the_old_branches(allow_23):
    # one batched pass over every prime: the results of the old per-prime
    # scan, or the exception type of the first prime at which it raised
    for record in seeded_records(20240502, 60):
        want = []
        for p in PRIMES:
            one = outcome(old_scan_one, record, p, allow_23)
            want.append(one)
            if not isinstance(one, dict):
                want = one
                break
        try:
            got = [as_row(res) for res in scan_primes(record, PRIMES[-1], allow_23=allow_23)]
        except Exception as e:
            got = type(e)
        assert got == want, (record, allow_23)


def test_scan_json_writer_matches_json_dumps():
    # the fixed-schema writer against the indent encoder, byte for byte
    records = seeded_records(20240501, 120)
    scans = [(f"r{i}", scan_primes(rec, PRIMES[-1], allow_23=True))
             for i, rec in enumerate(records)]
    payload = [{"label": label, "results": [scan_result_dict(r) for r in results]}
               for label, results in scans]
    want = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    fh = io.StringIO()
    write_scan_json((scan_entry_text(label, results) for label, results in scans), fh)
    assert fh.getvalue() == want

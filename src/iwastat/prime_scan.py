"""Per-curve prime classification and hypothesis checking.

For a curve record carrying ingested global data (rank, Sha order, torsion,
Tamagawa/regulator overrides), classify each prime p in [5, p_max] and draw
the strongest conclusion the hypothesis checks license:

  SelmerTrivial        rank 0, good ordinary, p not anomalous, p outside the
                       Sha/Tamagawa divisor set
  SignedSelmerTrivial  rank 0, good supersingular, p outside the divisor set
  CharElementIsTr      rank >= 1, the characteristic element is forced to be
                       T^rank; needs the regulator-excess valuation at p to be
                       present and zero. Supersingular results of this kind
                       are conditional on the signed leading-term conjecture
                       and say so.
  Inconclusive         some hypothesis failed or some input is missing
  BadPrime             p divides the discriminant

Membership sets: in_sigma is the anomalous set (p | N_p, which handles p = 5
correctly), in_sigma_prime is {p : p = 2, or p | sha, or p | prod c_l} (the
p = 2 clause is kept for fidelity even though scans start at 5), in_upsilon
evaluates the same divisor predicate for the supersingular checks, and in_pi
is p | regulator excess when that datum is present.
"""

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional

from .charpoly import CharPoly, is_trivial_shape
from .curves import CurveQ, PointCountCache, ReductionClass, classify_reduction
from .errors import MissingSha
from .local_data import bad_primes, tamagawa_p_part
from .parallel import default_workers
from .primes import prime_range

__all__ = [
    "Conclusion",
    "CurveRecord",
    "PrimeScanResult",
    "sigma_prime_membership",
    "scan_primes",
]


class Conclusion(str, Enum):
    SELMER_TRIVIAL = "SelmerTrivial"
    SIGNED_SELMER_TRIVIAL = "SignedSelmerTrivial"
    CHAR_ELEMENT_IS_TR = "CharElementIsTr"
    INCONCLUSIVE = "Inconclusive"
    BAD_PRIME = "BadPrime"


@dataclass(frozen=True)
class CurveRecord:
    curve: CurveQ
    rank: int
    sha_order: Optional[int] = None
    torsion_order: int = 1
    tamagawa_overrides: Dict[int, int] = field(default_factory=dict)
    regulator_valuations: Optional[Dict[int, int]] = None
    label: str = ""

    def __post_init__(self):
        if not isinstance(self.curve, CurveQ):
            object.__setattr__(self, "curve", CurveQ(*self.curve))
        assert self.rank >= 0
        assert self.torsion_order >= 1
        if self.sha_order is not None and self.sha_order < 1:
            raise ValueError(f"sha_order must be positive, got {self.sha_order}")
        bad = bad_primes(self.curve)
        for l, c in self.tamagawa_overrides.items():
            if c < 1:
                raise ValueError(f"Tamagawa override at {l} must be positive, got {c}")
            if l not in bad:
                raise ValueError(
                    f"Tamagawa override at good prime {l} (bad set {sorted(bad)})"
                )


@dataclass(frozen=True)
class PrimeScanResult:
    p: int
    reduction_class: ReductionClass
    in_sigma: bool
    in_sigma_prime: Optional[bool]
    in_upsilon: Optional[bool]
    in_pi: Optional[bool]
    conclusion: Conclusion
    conditional: bool = False
    reason: str = ""
    # invariants the conclusion reports for the (unknown) true characteristic
    # element: a conclusive result pins mu = 0 and lambda = rank
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
            # the reported shape must be consistent with the polynomial-level test
            f = CharPoly(self.p, [0] * self.lam + [1])
            assert is_trivial_shape(f, self.lam) and self.mu == 0


def sigma_prime_membership(record: CurveRecord, p: int, allow_23: bool = False) -> bool:
    """p = 2, or p divides the Sha order, or p divides the Tamagawa product."""
    if p == 2:
        return True
    if record.sha_order is None:
        raise MissingSha(f"Sha order needed to decide membership at p={p}")
    if record.sha_order % p == 0:
        return True
    return tamagawa_p_part(record, p, allow_23=allow_23) > 1


def _scan_one(record: CurveRecord, p: int, allow_23: bool, cache=None) -> PrimeScanResult:
    curve = record.curve
    if curve.disc0 % p == 0:
        return PrimeScanResult(
            p, ReductionClass.BAD, False, None, None, None,
            Conclusion.BAD_PRIME, reason="p divides the discriminant",
        )
    red = classify_reduction(curve, p, cache=cache)
    in_sigma = red.anomalous

    try:
        divisor_hit = sigma_prime_membership(record, p, allow_23=allow_23)
    except MissingSha:
        divisor_hit = None
    in_pi = None
    if record.regulator_valuations is not None and p in record.regulator_valuations:
        in_pi = record.regulator_valuations[p] != 0

    ordinary = red.reduction_class is ReductionClass.GOOD_ORDINARY
    kwargs = dict(
        p=p, reduction_class=red.reduction_class, in_sigma=in_sigma,
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


def _scan_chunk(record, ps, allow_23):
    cache = PointCountCache()
    return [_scan_one(record, p, allow_23, cache) for p in ps]


def scan_primes(
    record: CurveRecord,
    p_max: int,
    p_min: int = 5,
    workers: Optional[int] = None,
    allow_23: bool = False,
    cache: Optional[PointCountCache] = None,
) -> List[PrimeScanResult]:
    """Classify every prime in [p_min, p_max] for the record.

    Work items are independent, so the scan can fan out over processes;
    results always come back ordered by p regardless of worker count.
    """
    assert p_min >= 5, "scans start at 5; local data at 2 and 3 is override-fed"
    ps = prime_range(p_min, p_max + 1)
    if workers is None:
        workers = default_workers()
    if workers <= 1 or len(ps) < 4:
        cache = cache or PointCountCache()
        return [_scan_one(record, p, allow_23, cache) for p in ps]
    chunks = [ps[i::workers] for i in range(workers)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        parts = list(pool.map(_scan_chunk, [record] * len(chunks), chunks, [allow_23] * len(chunks)))
    merged = [r for part in parts for r in part]
    merged.sort(key=lambda r: r.p)
    return merged

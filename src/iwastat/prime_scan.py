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

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Dict, List, Optional

# perfbench/tracing.py times is_trivial_shape and classify_reduction by
# rebinding them at this module, so the names stay importable here
from .charpoly import is_trivial_shape  # noqa: F401
from .curves import classify_reduction  # noqa: F401
from .curves import CurveQ, ReductionClass, frobenius_traces
from .errors import GoodReductionAt, InvalidPrime, MissingSha, OutOfRange
from .local_data import _p_part, _tamagawa_table, bad_primes, tamagawa_p_part
from .primes import is_prime, prime_range

__all__ = [
    "Conclusion",
    "CurveRecord",
    "PrimeScanResult",
    "Reason",
    "sigma_prime_membership",
    "scan_primes",
]


class Conclusion(str, Enum):
    SELMER_TRIVIAL = "SelmerTrivial"
    SIGNED_SELMER_TRIVIAL = "SignedSelmerTrivial"
    CHAR_ELEMENT_IS_TR = "CharElementIsTr"
    INCONCLUSIVE = "Inconclusive"
    BAD_PRIME = "BadPrime"


class Reason(str, Enum):
    """Why a result is not (or only conditionally) conclusive."""

    NONE = ""
    BAD_PRIME = "p divides the discriminant"
    ANOMALOUS = "anomalous"
    MISSING_SHA = "MissingSha"
    SHA_OR_TAMAGAWA = "p divides the Sha order or a Tamagawa number"
    MISSING_REGULATOR = "missing regulator-excess valuation"
    REGULATOR_DIVIDES = "p divides the regulator excess"
    CONDITIONAL = "conditional on the signed leading-term conjecture"


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
        if self.rank < 0:
            raise OutOfRange(f"rank must be nonnegative, got {self.rank}")
        if self.torsion_order < 1:
            raise OutOfRange(f"torsion_order must be positive, got {self.torsion_order}")
        if self.sha_order is not None and self.sha_order < 1:
            raise OutOfRange(f"sha_order must be positive, got {self.sha_order}")
        for l, c in self.tamagawa_overrides.items():
            if c < 1:
                raise OutOfRange(f"Tamagawa override at {l} must be positive, got {c}")
            # l is bad iff l = 2 (the -16 in Delta) or a prime dividing disc0;
            # the full bad set is factored only for the message, so a scan
            # factors disc0 once, in its Tamagawa table
            if l != 2 and not (is_prime(l) and self.curve.disc0 % l == 0):
                raise GoodReductionAt(
                    f"Tamagawa override at good prime {l} "
                    f"(bad set {sorted(bad_primes(self.curve))})"
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
    reason: Reason = Reason.NONE
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
            assert self.mu == 0 and self.lam >= 0


def sigma_prime_membership(record: CurveRecord, p: int, allow_23: bool = False) -> bool:
    """p = 2, or p divides the Sha order, or p divides the Tamagawa product."""
    if p == 2:
        return True
    if record.sha_order is None:
        raise MissingSha(f"Sha order needed to decide membership at p={p}")
    if record.sha_order % p == 0:
        return True
    return tamagawa_p_part(record, p, allow_23=allow_23) > 1


def _decide(record: CurveRecord, p: int, a_p: int,
            divisor_hit: Optional[bool]) -> PrimeScanResult:
    """The result at a good prime p >= 5 with trace a_p; divisor_hit is
    sigma_prime_membership, or None when the Sha order is missing."""
    # Hasse puts |a_p| < p, so p | a_p (supersingular) means a_p = 0, and
    # p | N_p = p + 1 - a_p (anomalous) means a_p = 1 mod p
    ordinary = a_p != 0
    anomalous = (a_p - 1) % p == 0
    in_pi = None
    if record.regulator_valuations is not None and p in record.regulator_valuations:
        in_pi = record.regulator_valuations[p] != 0
    flags = dict(
        p=p,
        reduction_class=(ReductionClass.GOOD_ORDINARY if ordinary
                         else ReductionClass.GOOD_SUPERSINGULAR),
        in_sigma=anomalous, in_sigma_prime=divisor_hit, in_upsilon=divisor_hit,
        in_pi=in_pi,
    )

    # the hypotheses in the order they are checked; the first that fails
    # names the reason. Supersingular primes are never anomalous for p >= 5.
    gates = [
        (ordinary and anomalous, Reason.ANOMALOUS),
        (divisor_hit is None, Reason.MISSING_SHA),
        (divisor_hit, Reason.SHA_OR_TAMAGAWA),
    ]
    if record.rank >= 1:
        gates += [
            (in_pi is None, Reason.MISSING_REGULATOR),
            (in_pi, Reason.REGULATOR_DIVIDES),
        ]
    for failed, reason in gates:
        if failed:
            return PrimeScanResult(**flags, conclusion=Conclusion.INCONCLUSIVE, reason=reason)

    if record.rank >= 1:
        conclusion = Conclusion.CHAR_ELEMENT_IS_TR
    elif ordinary:
        conclusion = Conclusion.SELMER_TRIVIAL
    else:
        conclusion = Conclusion.SIGNED_SELMER_TRIVIAL
    conditional = record.rank >= 1 and not ordinary
    return PrimeScanResult(
        **flags, conclusion=conclusion, conditional=conditional,
        reason=Reason.CONDITIONAL if conditional else Reason.NONE,
        mu=0, lam=record.rank, chi_valuation=0,
    )


@lru_cache(maxsize=64)
def _scan_range(p_min: int, p_max: int) -> tuple:
    return tuple(prime_range(p_min, p_max + 1))


def scan_primes(
    record: CurveRecord,
    p_max: int,
    p_min: int = 5,
    allow_23: bool = False,
) -> List[PrimeScanResult]:
    """Classify every prime in [p_min, p_max] for the record, ordered by p.

    Every a_p comes from one frobenius_traces pass and the record's
    Tamagawa table is read once, at the first prime that needs it: where
    the Sha order is missing or divisible by p, as in
    sigma_prime_membership, it is not consulted.
    """
    if p_min < 5:
        raise InvalidPrime(
            f"scans start at 5, got p_min={p_min}; local data at 2 and 3 is override-fed"
        )
    primes = _scan_range(p_min, p_max)
    curve, sha = record.curve, record.sha_order
    table = None
    results = []
    for p, a_p in zip(primes, frobenius_traces(curve.A, curve.B, primes)):
        if curve.disc0 % p == 0:
            results.append(PrimeScanResult(
                p, ReductionClass.BAD, False, None, None, None,
                Conclusion.BAD_PRIME, reason=Reason.BAD_PRIME,
            ))
            continue
        if sha is None:
            divisor_hit = None
        elif sha % p == 0:
            divisor_hit = True
        else:
            if table is None:
                overrides = tuple(sorted(record.tamagawa_overrides.items()))
                table = _tamagawa_table(curve, overrides, allow_23)
            divisor_hit = _p_part(table, p) > 1
        results.append(_decide(record, p, a_p, divisor_hit))
    return results

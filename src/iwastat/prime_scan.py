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
from .local_data import _is_bad_prime, _p_parts, bad_primes, tamagawa_p_part
from .primes import prime_range

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
            # the full bad set is factored only for the message; a scan
            # never factors disc0
            if not _is_bad_prime(l, self.curve.disc0):
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


def _divisor_hit(record: CurveRecord, p: int, tau_p) -> Optional[bool]:
    """p | Sha or p | tau_p(p), None without a Sha order; tau_p is asked
    only where p does not divide the Sha order."""
    sha = record.sha_order
    return None if sha is None else (sha % p == 0 or tau_p(p) > 1)


def sigma_prime_membership(record: CurveRecord, p: int, allow_23: bool = False) -> bool:
    """p = 2, or p divides the Sha order, or p divides the Tamagawa product."""
    if p == 2:
        return True
    hit = _divisor_hit(record, p, lambda q: tamagawa_p_part(record, q, allow_23=allow_23))
    if hit is None:
        raise MissingSha(f"Sha order needed to decide membership at p={p}")
    return hit


@lru_cache(maxsize=256)
def _verdict(rank: int, ordinary: bool, anomalous: bool,
             divisor_hit: Optional[bool], in_pi: Optional[bool]) -> tuple:
    """Every field of the PrimeScanResult but p at a good prime p >= 5; a
    scan meets only a few dozen distinct keys."""
    flags = (ReductionClass.GOOD_ORDINARY if ordinary else ReductionClass.GOOD_SUPERSINGULAR,
             anomalous, divisor_hit, divisor_hit, in_pi)
    # the hypotheses in the order they are checked; the first that fails
    # names the reason. Supersingular primes are never anomalous for p >= 5.
    gates = [
        (ordinary and anomalous, Reason.ANOMALOUS),
        (divisor_hit is None, Reason.MISSING_SHA),
        (divisor_hit, Reason.SHA_OR_TAMAGAWA),
    ]
    if rank >= 1:
        gates += [
            (in_pi is None, Reason.MISSING_REGULATOR),
            (in_pi, Reason.REGULATOR_DIVIDES),
        ]
    for failed, reason in gates:
        if failed:
            return flags + (Conclusion.INCONCLUSIVE, False, reason, None, None, None)

    if rank >= 1:
        conclusion = Conclusion.CHAR_ELEMENT_IS_TR
    elif ordinary:
        conclusion = Conclusion.SELMER_TRIVIAL
    else:
        conclusion = Conclusion.SIGNED_SELMER_TRIVIAL
    conditional = rank >= 1 and not ordinary
    return flags + (conclusion, conditional,
                    Reason.CONDITIONAL if conditional else Reason.NONE, 0, rank, 0)


_BAD_PRIME = (ReductionClass.BAD, False, None, None, None,
              Conclusion.BAD_PRIME, False, Reason.BAD_PRIME, None, None, None)


@lru_cache(maxsize=4096)
def _result(p: int, key: tuple) -> PrimeScanResult:
    """The result at p with every other field from key (_verdict or
    _BAD_PRIME). Results are frozen, so records that meet the same verdict
    at p share one, and its checks run once."""
    return PrimeScanResult(p, *key)


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

    Every a_p comes from one frobenius_traces call, the record's Tamagawa
    table is read once, at the first prime that needs it (not where the Sha
    order is missing or divisible by p), each distinct verdict is decided
    once and each distinct result is built once.
    """
    if p_min < 5:
        raise InvalidPrime(
            f"scans start at 5, got p_min={p_min}; local data at 2 and 3 is override-fed"
        )
    primes = _scan_range(p_min, p_max)
    curve, rank = record.curve, record.rank
    tau_p = _p_parts(curve, record.tamagawa_overrides, allow_23)
    in_pi = {p: v != 0 for p, v in (record.regulator_valuations or {}).items()}
    results = []
    for p, a_p in zip(primes, frobenius_traces(curve.A, curve.B, primes)):
        if curve.disc0 % p == 0:
            results.append(_result(p, _BAD_PRIME))
            continue
        # Hasse puts |a_p| < p, so p | a_p (supersingular) means a_p = 0,
        # and p | N_p = p + 1 - a_p (anomalous) means a_p = 1 mod p
        results.append(_result(p, _verdict(
            rank, a_p != 0, (a_p - 1) % p == 0,
            _divisor_hit(record, p, tau_p), in_pi.get(p),
        )))
    return results

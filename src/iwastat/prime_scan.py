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

CurveRecord and PrimeScanResult are frozen value classes on the package's
_Value base (see its docstring); io.scan_result_dict gives a result's
fields as a dict.
"""

from enum import Enum
from functools import lru_cache
from typing import Dict, List, Optional

from . import _bind_on_access, _Value
from .curves import CurveQ, ReductionClass, _as_curve, frobenius_traces
from .errors import GoodReductionAt, InvalidPrime, MissingSha, OutOfRange, TooLarge
from .local_data import _is_bad_prime, _p_part, _require_override, _tamagawa_table, tamagawa_p_part
from .primes import _SIEVE_CAP, prime_range, require_prime

__all__ = [
    "Conclusion",
    "CurveRecord",
    "PrimeScanResult",
    "Reason",
    "sigma_prime_membership",
    "scan_primes",
]

# perfbench/tracing.py times these by rebinding them at this module, which
# calls none of them: each is bound on first access, so a scan does not load
# charpoly for them
__getattr__ = _bind_on_access(__name__, {
    "is_trivial_shape": "charpoly",
    "classify_reduction": "curves",
    "bad_primes": "local_data",
})


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


class CurveRecord(_Value):
    """A curve with its ingested global data. curve may be given as an (A, B)
    pair, which builds the CurveQ; tamagawa_overrides defaults to a fresh
    empty dict."""

    __slots__ = ("curve", "rank", "sha_order", "torsion_order", "tamagawa_overrides",
                 "regulator_valuations", "label")

    def __init__(self, curve: CurveQ, rank: int, sha_order: Optional[int] = None,
                 torsion_order: int = 1, tamagawa_overrides: Optional[Dict[int, int]] = None,
                 regulator_valuations: Optional[Dict[int, int]] = None, label: str = ""):
        curve = _as_curve(curve)
        if tamagawa_overrides is None:
            tamagawa_overrides = {}
        if rank < 0:
            raise OutOfRange(f"rank must be nonnegative, got {rank}")
        if torsion_order < 1:
            raise OutOfRange(f"torsion_order must be positive, got {torsion_order}")
        if sha_order is not None and sha_order < 1:
            raise OutOfRange(f"sha_order must be positive, got {sha_order}")
        if not isinstance(label, str):
            raise OutOfRange(f"label must be a str, got {label!r}")
        for l, c in tamagawa_overrides.items():
            _require_override(l, c)
            if not _is_bad_prime(l, curve.disc0):
                raise GoodReductionAt(f"Tamagawa override at good prime {l}")
        _Value.__init__(self, curve, rank, sha_order, torsion_order, tamagawa_overrides,
                        regulator_valuations, label)


class PrimeScanResult(_Value):
    """The result at one prime. mu, lam and chi_valuation are the invariants
    the conclusion reports for the (unknown) true characteristic element: a
    conclusive result pins mu = 0 and lambda = rank."""

    __slots__ = ("p", "reduction_class", "in_sigma", "in_sigma_prime", "in_upsilon", "in_pi",
                 "conclusion", "conditional", "reason", "mu", "lam", "chi_valuation")

    def __init__(self, p: int, reduction_class: ReductionClass, in_sigma: bool,
                 in_sigma_prime: Optional[bool], in_upsilon: Optional[bool],
                 in_pi: Optional[bool], conclusion: Conclusion, conditional: bool = False,
                 reason: Reason = Reason.NONE, mu: Optional[int] = None,
                 lam: Optional[int] = None, chi_valuation: Optional[int] = None):
        _Value.__init__(self, p, reduction_class, in_sigma, in_sigma_prime, in_upsilon, in_pi,
                        conclusion, conditional, reason, mu, lam, chi_valuation)
        if conclusion is Conclusion.SELMER_TRIVIAL:
            assert reduction_class is ReductionClass.GOOD_ORDINARY
            assert not in_sigma and in_sigma_prime is False
        elif conclusion is Conclusion.SIGNED_SELMER_TRIVIAL:
            assert reduction_class is ReductionClass.GOOD_SUPERSINGULAR
            assert in_upsilon is False
        elif conclusion is Conclusion.CHAR_ELEMENT_IS_TR:
            assert in_pi is False
        if mu is not None and lam is not None:
            assert mu == 0 and lam >= 0


def sigma_prime_membership(record: CurveRecord, p: int, allow_23: bool = False) -> bool:
    """p = 2, or p divides the Sha order, or p divides the Tamagawa product.
    p must be 2 or a prime >= 5."""
    if p == 2:
        return True
    require_prime(p, 5)
    sha = record.sha_order
    if sha is None:
        raise MissingSha(f"Sha order needed to decide membership at p={p}")
    return sha % p == 0 or tamagawa_p_part(record, p, allow_23=allow_23) > 1


@lru_cache(maxsize=4096)
def _result(p: int, rank: int, ordinary: Optional[bool], anomalous: bool,
            divisor_hit: Optional[bool], in_pi: Optional[bool]) -> PrimeScanResult:
    """The result at a prime p >= 5: BadPrime where ordinary is None, else
    decided from the rank, the reduction (ordinary or supersingular, and
    anomalous), divisor_hit (p | Sha or p | tau_p, None without a Sha order)
    and in_pi. Results are frozen, so records that meet the same key share
    one and its checks run once; a scan meets a few dozen keys per prime. A
    result that a failed hypothesis makes independent of the rank is that of
    the lowest rank the hypothesis is checked at, so it is built once too.
    """
    if ordinary is None:
        return PrimeScanResult(p, ReductionClass.BAD, False, None, None, None,
                               Conclusion.BAD_PRIME, False, Reason.BAD_PRIME)
    flags = (ReductionClass.GOOD_ORDINARY if ordinary else ReductionClass.GOOD_SUPERSINGULAR,
             anomalous, divisor_hit, divisor_hit, in_pi)
    # the hypotheses in the order they are checked, with the lowest rank each
    # is checked at; the first that fails names the reason. Supersingular
    # primes are never anomalous for p >= 5.
    gates = [
        (ordinary and anomalous, Reason.ANOMALOUS, 0),
        (divisor_hit is None, Reason.MISSING_SHA, 0),
        (divisor_hit, Reason.SHA_OR_TAMAGAWA, 0),
    ]
    if rank >= 1:
        gates += [
            (in_pi is None, Reason.MISSING_REGULATOR, 1),
            (in_pi, Reason.REGULATOR_DIVIDES, 1),
        ]
    for failed, reason, lowest in gates:
        if failed:
            if rank > lowest:
                return _result(p, lowest, ordinary, anomalous, divisor_hit, in_pi)
            return PrimeScanResult(p, *flags, Conclusion.INCONCLUSIVE, False, reason)

    if rank >= 1:
        conclusion = Conclusion.CHAR_ELEMENT_IS_TR
    elif ordinary:
        conclusion = Conclusion.SELMER_TRIVIAL
    else:
        conclusion = Conclusion.SIGNED_SELMER_TRIVIAL
    conditional = rank >= 1 and not ordinary
    return PrimeScanResult(p, *flags, conclusion, conditional,
                           Reason.CONDITIONAL if conditional else Reason.NONE, 0, rank, 0)


# a scan sieves the primes up to p_max once, so p_max has the sieve's cap;
# the a_p dispatch on them (curves._row_traces) adds ~0.04 s there
_P_MAX_CAP = _SIEVE_CAP


def _require_scan_cap(p_max: int) -> None:
    if p_max > _P_MAX_CAP:
        raise TooLarge(f"scan range up to {p_max} exceeds the cap {_P_MAX_CAP}")


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

    Every a_p comes from one frobenius_traces call and each distinct result
    is built once (_result). The divisor test reads the record's Tamagawa
    table (local_data._tamagawa_table) directly: p | Sha, or p divides the
    override product, or p is blocked there and tau_p > 1. The table is read
    once, at the first prime that needs it (not where the Sha order is
    missing or divisible by p), so TooLarge and UnknownLocalData are raised
    at that prime. A p_max past _P_MAX_CAP raises TooLarge before any sieve
    runs.
    """
    _require_scan_cap(p_max)
    if p_min < 5:
        raise InvalidPrime(
            f"scans start at 5, got p_min={p_min}; local data at 2 and 3 is override-fed"
        )
    primes = _scan_range(p_min, p_max)
    curve, rank, sha = record.curve, record.rank, record.sha_order
    disc0 = curve.disc0
    table = None
    in_pi = {p: v != 0 for p, v in (record.regulator_valuations or {}).items()}
    results = []
    for p, a_p in zip(primes, frobenius_traces(curve.A, curve.B, primes)):
        if disc0 % p == 0:
            results.append(_result(p, 0, None, False, None, None))
            continue
        if sha is None:
            hit = None
        elif sha % p == 0:
            hit = True
        else:
            if table is None:
                table = _tamagawa_table(
                    curve, tuple(sorted(record.tamagawa_overrides.items())), allow_23)
            product, blocked = table
            hit = _p_part(curve, table, p) > 1 if p in blocked else product % p == 0
        # Hasse puts |a_p| < p, so p | a_p (supersingular) means a_p = 0,
        # and p | N_p = p + 1 - a_p (anomalous) means a_p = 1 mod p
        results.append(_result(p, rank, a_p != 0, (a_p - 1) % p == 0, hit, in_pi.get(p)))
    return results

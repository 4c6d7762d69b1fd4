"""Valuation arithmetic for Euler characteristics and leading coefficients.

Everything here works at the level of p-adic valuations: the quantities of
interest are only ever pinned down up to a p-adic unit, so we never try to
reconstruct the characteristic itself, just v_p of it.
"""

import warnings
from enum import Enum
from typing import Optional

from . import _Value
from .errors import MissingRegulator, NegativeValuationWarning, OutOfRange, TorsionClampWarning

__all__ = [
    "ChiInputs",
    "GVariant",
    "chi_ordinary_valuation",
    "chi_supersingular_valuation",
    "g0_valuation",
]


class ChiInputs(_Value):
    """p-adic valuations of the local/global factors entering the formulas.

    v_sha       v_p of the p-primary Sha order
    v_tam       v_p of the Tamagawa product over bad primes
    v_red       v_p of the number of points of the reduction mod p
    v_tors      v_p of the p-primary rational torsion order
    v_reg_excess  v_p(normalized regulator) - rank; may be negative, which is
                  reported rather than silently accepted
    """

    __slots__ = ("v_sha", "v_tam", "v_red", "v_tors", "v_reg_excess")

    def __init__(self, v_sha: int = 0, v_tam: int = 0, v_red: int = 0, v_tors: int = 0,
                 v_reg_excess: Optional[int] = None):
        for name, v in (("v_sha", v_sha), ("v_tam", v_tam), ("v_red", v_red),
                        ("v_tors", v_tors)):
            if not isinstance(v, int) or v < 0:
                raise OutOfRange(f"{name} must be a nonnegative integer, got {v!r}")
        if v_reg_excess is not None and not isinstance(v_reg_excess, int):
            raise OutOfRange("v_reg_excess must be an integer when present")
        _Value.__init__(self, v_sha, v_tam, v_red, v_tors, v_reg_excess)


class GVariant(str, Enum):
    ORDINARY = "Ordinary"
    SIGNED_PLUS = "SignedPlus"
    SIGNED_MINUS = "SignedMinus"


def _effective_torsion(inputs, p):
    # Mazur: rational torsion order divides 2^a 3^b 5 7, so for p >= 11 the
    # p-part is trivial no matter what the caller supplied.
    if p is not None and p >= 11 and inputs.v_tors != 0:
        warnings.warn(
            f"torsion valuation {inputs.v_tors} at p={p} overridden to 0 "
            "(no rational p-torsion exists for p >= 11)",
            TorsionClampWarning,
            stacklevel=3,
        )
        return 0
    return inputs.v_tors


def _flag_negative(val, what):
    if val < 0:
        warnings.warn(
            f"{what} came out negative ({val}); inputs are inconsistent "
            "since the true characteristic is an integer",
            NegativeValuationWarning,
            stacklevel=3,
        )
    return val


def chi_ordinary_valuation(inputs: ChiInputs, p: Optional[int] = None) -> int:
    """v_p of the Euler characteristic in the good ordinary, rank zero case.

    Returns v_sha + v_tam + 2*v_red - 2*v_tors, the literal valuation of the
    product formula. A negative result is possible with inconsistent inputs
    and is flagged with NegativeValuationWarning, not corrected.
    """
    v_tors = _effective_torsion(inputs, p)
    val = inputs.v_sha + inputs.v_tam + 2 * inputs.v_red - 2 * v_tors
    return _flag_negative(val, "ordinary Euler characteristic valuation")


def chi_supersingular_valuation(inputs: ChiInputs, p: Optional[int] = None) -> int:
    """v_p of the signed Euler characteristic in the supersingular, rank zero case.

    Only the Sha and Tamagawa factors appear: at a supersingular prime the
    reduction and torsion contributions cancel (the mod-p torsion is trivial).
    """
    return inputs.v_sha + inputs.v_tam


def g0_valuation(
    inputs: ChiInputs,
    variant: GVariant = GVariant.ORDINARY,
    p: Optional[int] = None,
) -> int:
    """v_p of the leading coefficient of the characteristic element at T=0,
    in the positive-rank setting where the regulator excess enters.

    Ordinary: v_reg_excess + v_sha + v_tam + 2*v_red - 2*v_tors.
    Signed variants: v_reg_excess + v_sha + v_tam. The signed formulas are
    conditional on the signed leading-term conjecture; this function just
    evaluates them.
    """
    if inputs.v_reg_excess is None:
        raise MissingRegulator(
            "g0_valuation needs v_reg_excess; regulator valuations are "
            "ingested, never computed here"
        )
    variant = GVariant(variant)
    val = inputs.v_reg_excess + inputs.v_sha + inputs.v_tam
    if variant is GVariant.ORDINARY:
        val += 2 * inputs.v_red - 2 * _effective_torsion(inputs, p)
    return _flag_negative(val, f"{variant.value} leading coefficient valuation")

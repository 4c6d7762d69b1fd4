import warnings

import pytest

from iwastat.errors import (
    MissingRegulator,
    OutOfRange,
    NegativeValuationWarning,
    TorsionClampWarning,
)
from iwastat.euler_char import (
    ChiInputs,
    GVariant,
    chi_ordinary_valuation,
    chi_supersingular_valuation,
    g0_valuation,
)


def test_inputs_validation():
    with pytest.raises(ValueError):
        ChiInputs(v_sha=-1)
    with pytest.raises(ValueError):
        ChiInputs(v_tam=-2)
    with pytest.raises(ValueError):
        ChiInputs(v_reg_excess=1.5)
    ChiInputs(v_reg_excess=-1)  # negative excess is representable


def test_input_errors_are_typed():
    for kwargs in ({"v_sha": -1}, {"v_tors": "1"}, {"v_reg_excess": 1.5}):
        with pytest.raises(OutOfRange):
            ChiInputs(**kwargs)


def test_chi_ordinary_known_values():
    assert chi_ordinary_valuation(ChiInputs()) == 0
    assert chi_ordinary_valuation(ChiInputs(v_tam=1)) == 1
    assert chi_ordinary_valuation(ChiInputs(v_sha=1, v_red=1)) == 3
    assert chi_ordinary_valuation(ChiInputs(v_sha=2, v_tam=1, v_red=1)) == 5
    # torsion enters squared with the opposite sign
    assert chi_ordinary_valuation(ChiInputs(v_red=1, v_tors=1), p=5) == 0


def test_chi_supersingular_known_values():
    assert chi_supersingular_valuation(ChiInputs()) == 0
    assert chi_supersingular_valuation(ChiInputs(v_sha=1)) == 1
    assert chi_supersingular_valuation(ChiInputs(v_tam=2)) == 2
    # reduction and torsion factors do not enter
    assert chi_supersingular_valuation(ChiInputs(v_red=3, v_tors=1)) == 0


def test_torsion_clamp_for_large_p():
    with pytest.warns(TorsionClampWarning):
        v = chi_ordinary_valuation(ChiInputs(v_tors=1), p=11)
    assert v == 0  # clamped, not -2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # p in the range where rational p-torsion exists: no clamp
        assert chi_ordinary_valuation(ChiInputs(v_tors=1, v_red=1), p=5) == 0
        assert chi_ordinary_valuation(ChiInputs(v_tors=1, v_red=1), p=7) == 0
        # without p the inputs are taken at face value
        assert chi_ordinary_valuation(ChiInputs(v_tors=1, v_red=1)) == 0


def test_negative_result_flagged_not_corrected():
    with pytest.warns(NegativeValuationWarning):
        v = chi_ordinary_valuation(ChiInputs(v_tors=1), p=7)
    assert v == -2


def test_g0_ordinary_extends_chi():
    inputs = ChiInputs(v_sha=1, v_tam=1, v_red=1, v_reg_excess=2)
    assert g0_valuation(inputs, GVariant.ORDINARY) == 2 + 1 + 1 + 2
    base = ChiInputs(v_sha=1, v_tam=1, v_red=1)
    assert (
        g0_valuation(inputs, GVariant.ORDINARY)
        == chi_ordinary_valuation(base) + 2
    )


def test_g0_signed_variants():
    inputs = ChiInputs(v_sha=1, v_tam=2, v_red=5, v_tors=1, v_reg_excess=1)
    # signed formulas ignore reduction and torsion
    assert g0_valuation(inputs, GVariant.SIGNED_PLUS) == 1 + 1 + 2
    assert g0_valuation(inputs, GVariant.SIGNED_MINUS) == 1 + 1 + 2
    assert g0_valuation(inputs, "SignedPlus") == 4


def test_g0_requires_regulator():
    with pytest.raises(MissingRegulator):
        g0_valuation(ChiInputs(v_sha=1))


def test_g0_rank_zero_consistency():
    # with zero excess the leading coefficient valuation is the Euler
    # characteristic valuation in both reduction classes
    inputs = ChiInputs(v_sha=2, v_tam=1, v_reg_excess=0)
    assert g0_valuation(inputs, GVariant.ORDINARY) == chi_ordinary_valuation(inputs)
    assert g0_valuation(inputs, GVariant.SIGNED_MINUS) == chi_supersingular_valuation(
        inputs
    )

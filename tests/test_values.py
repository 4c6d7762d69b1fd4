"""The frozen value classes keep the contract they had as frozen dataclasses.

Each class is built from the fields a dataclass would take, positionally
and by keyword; the two builds must be equal and hash equal, an instance
with one field changed must differ, the repr must be the dataclass text,
assignment and deletion must raise AttributeError, and pickling and copying
must give an equal instance that is still frozen.
"""

import copy
import pickle

import pytest

from iwastat.charpoly import CharPoly
from iwastat.curves import CurveQ, LocalReduction, ReductionClass
from iwastat.euler_char import ChiInputs
from iwastat.local_data import KodairaData, KodairaSymbol
from iwastat.prime_scan import Conclusion, CurveRecord, PrimeScanResult, Reason

# class, fields in order, one field with another value, the dataclass repr
CASES = [
    (CurveQ, dict(A=-1, B=1, height=1, disc0=23), ("B", 2),
     "CurveQ(A=-1, B=1, height=1, disc0=23)"),
    (LocalReduction,
     dict(prime=7, reduction_class=ReductionClass.GOOD_ORDINARY, n_points=12, a_p=-4,
          anomalous=False),
     ("a_p", 4),
     "LocalReduction(prime=7, reduction_class=<ReductionClass.GOOD_ORDINARY: 'GoodOrdinary'>, "
     "n_points=12, a_p=-4, anomalous=False)"),
    (KodairaData, dict(prime=7, symbol=KodairaSymbol.In, n=3, tamagawa=3, split=True),
     ("prime", 11),
     "KodairaData(prime=7, symbol=<KodairaSymbol.In: 'In'>, n=3, tamagawa=3, split=True)"),
    (CurveRecord,
     dict(curve=CurveQ(-1, 1), rank=1, sha_order=1, torsion_order=1, tamagawa_overrides={2: 1},
          regulator_valuations={5: 0}, label="b"),
     ("label", "c"),
     "CurveRecord(curve=CurveQ(A=-1, B=1, height=1, disc0=23), rank=1, sha_order=1, "
     "torsion_order=1, tamagawa_overrides={2: 1}, regulator_valuations={5: 0}, label='b')"),
    (PrimeScanResult,
     dict(p=7, reduction_class=ReductionClass.GOOD_ORDINARY, in_sigma=False,
          in_sigma_prime=False, in_upsilon=False, in_pi=None,
          conclusion=Conclusion.SELMER_TRIVIAL, conditional=False, reason=Reason.NONE, mu=0,
          lam=0, chi_valuation=0),
     ("chi_valuation", None),
     "PrimeScanResult(p=7, reduction_class=<ReductionClass.GOOD_ORDINARY: 'GoodOrdinary'>, "
     "in_sigma=False, in_sigma_prime=False, in_upsilon=False, in_pi=None, "
     "conclusion=<Conclusion.SELMER_TRIVIAL: 'SelmerTrivial'>, conditional=False, "
     "reason=<Reason.NONE: ''>, mu=0, lam=0, chi_valuation=0)"),
    (CharPoly, dict(p=5, coeffs=(25, 5)), ("coeffs", (25, 6)), "CharPoly(p=5, coeffs=(25, 5))"),
    (ChiInputs, dict(v_sha=1, v_tam=0, v_red=2, v_tors=0, v_reg_excess=-1),
     ("v_reg_excess", None), "ChiInputs(v_sha=1, v_tam=0, v_red=2, v_tors=0, v_reg_excess=-1)"),
]


@pytest.mark.parametrize("cls, kwargs, changed, text", CASES, ids=[c[0].__name__ for c in CASES])
def test_value_class_keeps_the_dataclass_contract(cls, kwargs, changed, text):
    value = cls(*kwargs.values())
    assert cls.__slots__ == tuple(kwargs)
    assert value == cls(**kwargs)
    other = cls(**dict(kwargs, **dict([changed])))
    assert value != other and getattr(other, changed[0]) == changed[1]
    if cls is CurveRecord:
        # its dict fields make the field tuple unhashable, as the dataclass hash did
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(cls(**kwargs))
    assert repr(value) == text

    name = next(iter(kwargs))
    with pytest.raises(AttributeError):
        setattr(value, name, kwargs[name])
    with pytest.raises(AttributeError):
        delattr(value, name)

    copies = [pickle.loads(pickle.dumps(value, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    copies += [copy.copy(value), copy.deepcopy(value)]
    for twin in copies:
        assert type(twin) is cls and twin == value and repr(twin) == text
        with pytest.raises(AttributeError):
            setattr(twin, name, kwargs[name])


def test_each_record_gets_its_own_empty_overrides():
    first, second = CurveRecord((-1, 1), 0), CurveRecord(curve=(-1, 1), rank=0)
    assert first.tamagawa_overrides == {} and first.curve == CurveQ(-1, 1)
    assert first.tamagawa_overrides is not second.tamagawa_overrides

"""Reduction data, Iwasawa-type invariants and height-ordered statistics
for rational elliptic curves y^2 = x^3 + Ax + B.

Importing the package loads none of its modules. Each public name is read
from the module that defines it on first access (PEP 562) and then kept
here, so `iwastat.CurveQ`, `from iwastat import CurveQ` and
`from iwastat import *` work as before while a program pays only for the
modules it uses. The frozen value classes (CurveQ, CurveRecord,
PrimeScanResult and the rest) share the base _Value defined here.
"""

import sys
from importlib import import_module
from operator import attrgetter

__version__ = "0.1.0"

# module -> the public names it defines
_EXPORTS = {
    "charpoly": (
        "CharPoly", "is_trivial_shape", "iwasawa_invariants", "truncated_chi_valuation",
        "vanishing_order",
    ),
    "census": ("DpMode", "bound_dp2", "bound_dp3", "d_of_p", "dp_table", "zeta10"),
    "curves": (
        "CurveQ", "LocalReduction", "ReductionClass", "anomalous_residue_table",
        "classify_reduction", "count_points", "disc0_of", "dp_census", "is_minimal_pair",
        "trace_frobenius",
    ),
    "enumeration": (
        "DensityReport", "brumer_estimate", "count_Ip", "empirical_densities", "lifting_count",
        "sadek_bounds", "total_weq", "write_density_report",
    ),
    "errors": (
        "BadReductionAt", "EqualPrimes", "GoodReductionAt", "HeaderMismatch", "InvalidPrime",
        "InvalidSetting", "IwastatError", "MissingRegulator", "MissingSha",
        "NegativeValuationWarning", "NonMinimalModel", "OutOfRange", "ParseError",
        "SingularCurve", "TooLarge", "TorsionClampWarning", "UnknownColumnWarning",
        "UnknownLocalData", "ZeroPolynomial",
    ),
    "euler_char": (
        "ChiInputs", "GVariant", "chi_ordinary_valuation", "chi_supersingular_valuation",
        "g0_valuation",
    ),
    "io": ("parse_records", "write_records"),
    "local_data": (
        "KodairaData", "KodairaSymbol", "bad_primes", "kodaira_tamagawa",
        "local_reduction_raw", "tamagawa_p_part",
    ),
    "prime_scan": (
        "Conclusion", "CurveRecord", "PrimeScanResult", "Reason", "scan_primes",
        "sigma_prime_membership",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def _bind_on_access(module_name, module_of):
    """A PEP 562 __getattr__ for the module module_name: each name in
    module_of is read from the iwastat module module_of[name], imported on
    first access, and then kept as an attribute of module_name. A name
    mapped to None is the top-level module of that name itself."""

    def __getattr__(name):
        try:
            source = module_of[name]
        except KeyError:
            raise AttributeError(f"module {module_name!r} has no attribute {name!r}") from None
        if source is None:
            value = import_module(name)
        else:
            value = getattr(import_module(f"{__name__}.{source}"), name)
        setattr(sys.modules[module_name], name, value)
        return value

    return __getattr__


__getattr__ = _bind_on_access(__name__, _MODULE_OF)


def __dir__():
    return sorted(set(globals()) | _MODULE_OF.keys())


class _Value:
    """Base of the package's frozen value classes, the one place that stores
    a field. A subclass lists its fields in __slots__, in order; its own
    __init__ checks and coerces its arguments and then passes every field
    value, in that order, to _Value.__init__ once. It then behaves as under
    @dataclass(frozen=True): equality and hash over the fields, the
    dataclass repr, AttributeError on assignment and deletion, and pickling
    and copying through the field tuple. It is not a dataclass, whose import
    loads inspect, ast, dis and tokenize, so dataclasses.asdict, astuple and
    replace do not apply to it."""

    __slots__ = ()

    def __init_subclass__(cls):
        # every value class has two fields or more, so this gives a tuple
        cls._values = attrgetter(*cls.__slots__)
        # each slot's own setter, which the refusing __setattr__ never reaches
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def __init__(self, *values):
        for set_field, value in zip(self._setters, values, strict=True):
            set_field(self, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    # the default unpickling of a slots class assigns each field, which
    # __setattr__ refuses
    def __getstate__(self):
        return self._values(self)

    def __setstate__(self, state):
        _Value.__init__(self, *state)

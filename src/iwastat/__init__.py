"""Reduction data, Iwasawa-type invariants and height-ordered statistics
for rational elliptic curves y^2 = x^3 + Ax + B.

Importing the package loads none of its modules. Each public name is read
from the module that defines it on first access (PEP 562) and then kept
here, so `iwastat.CurveQ`, `from iwastat import CurveQ` and
`from iwastat import *` work as before while a program pays only for the
modules it uses.
"""

import sys
from importlib import import_module

__version__ = "0.1.0"

# module -> the public names it defines
_EXPORTS = {
    "charpoly": (
        "CharPoly", "is_trivial_shape", "iwasawa_invariants", "truncated_chi_valuation",
        "vanishing_order",
    ),
    "curves": (
        "CurveQ", "DpMode", "LocalReduction", "ReductionClass", "anomalous_residue_table",
        "classify_reduction", "count_points", "d_of_p", "disc0_of", "dp_census", "dp_table",
        "is_minimal_pair", "trace_frobenius",
    ),
    "enumeration": (
        "DensityReport", "bound_dp2", "bound_dp3", "brumer_estimate", "count_Ip",
        "empirical_densities", "lattice_class_count", "lattice_density", "lifting_count",
        "sadek_bounds", "total_weq", "zeta10",
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
    "io": ("parse_records", "write_density_report", "write_records"),
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
    first access, and then kept as an attribute of module_name."""

    def __getattr__(name):
        try:
            source = module_of[name]
        except KeyError:
            raise AttributeError(f"module {module_name!r} has no attribute {name!r}") from None
        value = getattr(import_module(f"{__name__}.{source}"), name)
        setattr(sys.modules[module_name], name, value)
        return value

    return __getattr__


__getattr__ = _bind_on_access(__name__, _MODULE_OF)


def __dir__():
    return sorted(set(globals()) | _MODULE_OF.keys())

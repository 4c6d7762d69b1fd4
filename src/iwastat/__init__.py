"""Reduction data, Iwasawa-type invariants and height-ordered statistics
for rational elliptic curves y^2 = x^3 + Ax + B."""

from .charpoly import (
    CharPoly,
    is_trivial_shape,
    iwasawa_invariants,
    truncated_chi_valuation,
    vanishing_order,
)
from .curves import (
    CurveQ,
    DpMode,
    LocalReduction,
    ReductionClass,
    anomalous_residue_table,
    classify_reduction,
    count_points,
    d_of_p,
    disc0_of,
    dp_census,
    dp_table,
    is_minimal_pair,
    trace_frobenius,
)
from .enumeration import (
    DensityReport,
    bound_dp2,
    bound_dp3,
    brumer_estimate,
    count_Ip,
    empirical_densities,
    lattice_class_count,
    lattice_density,
    lifting_count,
    lifting_count_bruteforce,
    sadek_bounds,
    total_weq,
    zeta10,
)
from .errors import (
    BadReductionAt,
    EqualPrimes,
    GoodReductionAt,
    HeaderMismatch,
    InvalidPrime,
    InvalidSetting,
    IwastatError,
    MissingRegulator,
    MissingSha,
    NegativeValuationWarning,
    NonMinimalModel,
    OutOfRange,
    ParseError,
    SingularCurve,
    TooLarge,
    TorsionClampWarning,
    UnknownColumnWarning,
    UnknownLocalData,
    ZeroPolynomial,
)
from .euler_char import (
    ChiInputs,
    GVariant,
    chi_ordinary_valuation,
    chi_supersingular_valuation,
    g0_valuation,
)
from .io import (
    parse_records,
    write_density_report,
    write_records,
    write_scan_results,
)
from .local_data import (
    KodairaData,
    KodairaSymbol,
    bad_primes,
    kodaira_tamagawa,
    local_reduction_raw,
    tamagawa_p_part,
)
from .prime_scan import (
    Conclusion,
    CurveRecord,
    PrimeScanResult,
    Reason,
    scan_primes,
    sigma_prime_membership,
)

__version__ = "0.1.0"

__all__ = [
    "BadReductionAt", "CharPoly", "ChiInputs", "Conclusion", "CurveQ",
    "CurveRecord", "DensityReport", "DpMode", "EqualPrimes", "GVariant",
    "GoodReductionAt", "HeaderMismatch", "InvalidPrime", "InvalidSetting", "IwastatError",
    "KodairaData", "KodairaSymbol", "LocalReduction", "MissingRegulator",
    "MissingSha", "NegativeValuationWarning", "NonMinimalModel",
    "OutOfRange", "ParseError", "PrimeScanResult", "Reason",
    "ReductionClass", "SingularCurve", "TooLarge", "TorsionClampWarning",
    "UnknownColumnWarning", "UnknownLocalData", "ZeroPolynomial",
    "anomalous_residue_table", "bad_primes", "bound_dp2", "bound_dp3",
    "brumer_estimate", "chi_ordinary_valuation",
    "chi_supersingular_valuation", "classify_reduction", "count_Ip",
    "count_points", "d_of_p", "disc0_of", "dp_census", "dp_table",
    "empirical_densities", "g0_valuation",
    "is_minimal_pair", "is_trivial_shape",
    "iwasawa_invariants", "kodaira_tamagawa", "lattice_class_count",
    "lattice_density", "lifting_count", "lifting_count_bruteforce",
    "local_reduction_raw", "parse_records", "sadek_bounds",
    "scan_primes", "sigma_prime_membership",
    "tamagawa_p_part", "total_weq", "trace_frobenius",
    "truncated_chi_valuation", "vanishing_order", "write_density_report",
    "write_records", "write_scan_results", "zeta10",
]

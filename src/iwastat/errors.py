"""Exception and warning types shared across the package."""


class IwastatError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidPrime(IwastatError):
    """The given integer is not a prime admitted by the operation's policy."""


class SingularCurve(IwastatError):
    """The pair (A, B) has 4A^3 + 27B^2 = 0 and defines no elliptic curve."""


class NonMinimalModel(IwastatError):
    """Some prime q has q^4 | A and q^6 | B, so the model can be reduced."""


class BadReductionAt(IwastatError):
    """A good-reduction quantity was requested at a prime of bad reduction."""


class GoodReductionAt(IwastatError):
    """A bad-reduction quantity was requested at, or supplied for, a prime of
    good reduction."""


class UnknownLocalData(IwastatError):
    """Local data at 2 or 3 is required but no override was ingested and the
    local algorithm was not enabled, so the requested value cannot be
    certified."""


class MissingSha(IwastatError):
    """No Tate-Shafarevich order was supplied for the record."""


class MissingRegulator(IwastatError):
    """No regulator excess valuation was supplied for the record/prime."""


class ZeroPolynomial(IwastatError):
    """All coefficients vanish; mu/lambda are undefined."""


class EqualPrimes(IwastatError):
    """The auxiliary prime l must differ from the working prime p."""


class TooLarge(IwastatError):
    """The requested exhaustive computation exceeds the allowed budget."""


class OutOfRange(IwastatError, ValueError):
    """An argument lies outside the values the operation is defined on (a
    height below 1, a negative count or valuation, an unknown census mode)."""


class InvalidSetting(IwastatError):
    """An environment setting such as IWASTAT_THREADS holds a value the
    package cannot use."""


class ParseError(IwastatError):
    """Text input (a CSV file or row, a coefficient list) could not be parsed."""


class HeaderMismatch(IwastatError):
    """The CSV header lacks required columns or names a column twice."""


class NegativeValuationWarning(UserWarning):
    """An Euler-characteristic valuation came out negative, which signals
    inconsistent inputs; the literal value is still returned."""


class TorsionClampWarning(UserWarning):
    """A nonzero torsion valuation was supplied at a prime where rational
    p-power torsion is impossible; the value was forced to zero."""


class UnknownColumnWarning(UserWarning):
    """The ingest CSV carries a column this package does not recognise."""

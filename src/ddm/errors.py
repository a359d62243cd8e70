"""Error taxonomy shared across the package.

Every raised condition falls into one of five buckets so that callers (and
the command line driver) can map failures onto exit codes without string
matching: configuration problems, malformed or missing data, shape/axis
mismatches, numeric breakdown (NaN/Inf), and violated call contracts.  Each
class carries the exit status ``ddm`` returns for it.
"""


class DDMError(Exception):
    """Base class for all package-specific errors."""

    exit_code = 1


class ConfigError(DDMError):
    """A configuration value is out of range or inconsistent with another."""


class DataError(DDMError):
    """An input file or payload is missing, malformed, or mismatched."""

    exit_code = 2


class DimensionError(DDMError):
    """Operand shapes or axes are incompatible with the requested operation."""


class NumericError(DDMError):
    """A computation produced or encountered non-finite values."""

    exit_code = 3


class ContractError(DDMError):
    """A call precondition was violated (empty input, wrong call order, ...)."""

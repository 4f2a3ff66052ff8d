"""Exception hierarchy shared across the package."""


class EntroscopeError(Exception):
    """Base class for every error this package raises on purpose."""


class UsageError(EntroscopeError):
    """Bad command-line invocation. Maps to exit code 1."""


class DataError(EntroscopeError):
    """Input data cannot support the requested computation. Exit code 2."""


class ManifestError(DataError):
    """Dataset manifest is malformed or inconsistent with its files."""


class DegenerateSpreadError(DataError):
    """Width rule hit zero spread (IQR or sigma is 0); only fixed_count works."""


class BudgetError(DataError):
    """Direct joint enumeration would exceed its state budget."""

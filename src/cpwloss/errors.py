"""Exception and warning types shared across the package.

The CLI maps exception classes onto process exit codes via ``exit_code``:
input/format problems exit 1, fit failures exit 2, and configuration
problems exit 3. Plain ``ValueError`` raised by the physics layer (domain
errors) is treated like an input problem.
"""


class CpwLossError(Exception):
    """Base class for package errors."""

    exit_code = 1


class InputError(CpwLossError):
    """Malformed or unusable input data (files, traces, series)."""

    exit_code = 1


class FitError(CpwLossError):
    """A fit did not converge or the data does not contain a resonance."""

    exit_code = 2


class ConfigError(CpwLossError):
    """Invalid or incomplete configuration document."""

    exit_code = 3


class ApproximationWarning(UserWarning):
    """A closed-form approximation is being used outside its comfort zone."""


class DataQualityWarning(UserWarning):
    """Input data was usable but needed cleanup (sorting, averaging, ...)."""

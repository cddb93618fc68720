"""Exception types shared across the toolkit.

The CLI maps these onto exit codes: input/format problems -> 2,
configuration problems -> 3, numerical failures -> 4.
"""

from dataclasses import fields
from numbers import Integral, Real


class TargetselError(Exception):
    """Base class for all toolkit errors."""


class DataFormatError(TargetselError):
    """Malformed input file (ragged rows, bad tokens, range violations)."""


class EmptyInputError(DataFormatError):
    """Input file contains no rows."""


class ShapeError(TargetselError):
    """Incompatible array or kernel shapes."""


class SizeError(TargetselError):
    """A requested count exceeds what the input can provide."""


class ConfigurationError(TargetselError):
    """Inconsistent or incomplete run configuration."""


class DegenerateFeatureError(TargetselError):
    """A feature row that cannot be used under the chosen metric."""


class IndefiniteKernelError(TargetselError):
    """Cholesky failed on a log-det path; a larger ridge may help."""


class DivergenceError(TargetselError):
    """Training produced a non-finite loss."""


def check_numeric_fields(instance):
    """Raise ConfigurationError when a dataclass field annotated int or float
    holds another type, as a JSON manifest or config can supply."""
    for f in fields(instance):
        value = getattr(instance, f.name)
        want = {int: Integral, float: Real}.get(f.type)
        if want is None:
            continue
        if isinstance(value, bool) or not isinstance(value, want):
            raise ConfigurationError(f"{f.name} must be {f.type.__name__}, got {value!r}")

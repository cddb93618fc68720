"""Exception types shared across the toolkit.

Each carries the CLI's exit code for it and the prefix of its stderr line:
input/format problems -> 2, configuration problems -> 3, numerical failures -> 4.
"""

from dataclasses import fields
from numbers import Integral, Real


class TargetselError(Exception):
    """Base class for all toolkit errors; an input error unless a subclass says otherwise."""
    exit_code, prefix = 2, "input error"


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
    exit_code, prefix = 3, "configuration error"


class DegenerateFeatureError(TargetselError):
    """A feature row that cannot be used under the chosen metric."""


class IndefiniteKernelError(TargetselError):
    """A log-det kernel is not usable: Cholesky failed, or no candidate is
    left that is a pivot (the budget exceeds the kernel's numerical rank).
    A larger ridge may help."""
    exit_code, prefix = 4, "numerical error"


class DivergenceError(TargetselError):
    """A computation produced non-finite values: a training loss, or a selection's gains."""
    exit_code, prefix = 4, "numerical error"


def check_field_types(instance):
    """Raise ConfigurationError when a dataclass field annotated int, float or
    str holds another type, as a JSON manifest or config can supply. A field
    whose default is None may also hold None."""
    for f in fields(instance):
        value = getattr(instance, f.name)
        want = {int: Integral, float: Real, str: str}.get(f.type)
        if want is None or (value is None and f.default is None):
            continue
        if isinstance(value, bool) or not isinstance(value, want):
            raise ConfigurationError(f"{f.name} must be {f.type.__name__}, got {value!r}")

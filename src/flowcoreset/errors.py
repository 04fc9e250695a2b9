"""Exception types shared across the package, and the checks settings pass.

The CLI maps these onto process exit codes, so raising the right type
matters: ConfigError -> 1, DataError -> 2, NumericalError -> 3.
"""

import json
import sys
from numbers import Integral, Real


def shown(value) -> str:
    """A setting as error messages show it: as JSON, the way a config writes it."""
    return json.dumps(value, default=repr)


class FlowCoresetError(Exception):
    """Base class for all package errors."""


class ConfigError(FlowCoresetError):
    """Invalid configuration: bad field values, missing files, unknown modes."""


class DataError(FlowCoresetError):
    """Malformed or unusable input data: schema mismatches, empty sets."""


class NumericalError(FlowCoresetError):
    """Numerical failure during optimization or sampling.

    Carries a diagnostics dict so callers can persist context for
    post-mortem inspection.
    """

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


# Counts stay within the integers a float holds exactly: the sampler does
# float arithmetic on them (burn-in, jittered step counts), and a larger
# size would end in numpy rather than in a ConfigError.
_MAX_COUNT = 2**53


def count_kind(least: int = 1, bounded: bool = True) -> str:
    """How messages name a count's range; only seeds are unbounded."""
    return "whole number " + (f"in [{least}, 2^53]" if bounded else f">= {least}")


def is_count(value, least: int = 1, bounded: bool = True) -> bool:
    """A whole number >= least, and <= 2^53 if `bounded`: never a float, a
    string or a bool."""
    return (isinstance(value, Integral) and not isinstance(value, bool)
            and least <= value and (not bounded or value <= _MAX_COUNT))


def require(condition: bool, message: str):
    if not condition:
        raise ConfigError(message)


def require_count(value, name: str, least: int = 1, bounded: bool = True):
    require(is_count(value, least, bounded),
            f"{name} must be a {count_kind(least, bounded)}, got {shown(value)}")


def require_real(value, name: str, positive: bool = False):
    """A real setting float64 holds, >= 0 or, if `positive`, > 0: bools,
    strings, NaN and infinities are refused."""
    require(isinstance(value, Real) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max
            and (value > 0 if positive else value >= 0),
            f"{name} must be a finite number {'>' if positive else '>='} 0, "
            f"got {shown(value)}")

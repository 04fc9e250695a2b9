"""Exception types shared across the package.

The CLI maps these onto process exit codes, so raising the right type
matters: ConfigError -> 1, DataError -> 2, NumericalError -> 3.
"""

import json


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

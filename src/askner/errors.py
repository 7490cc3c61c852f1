"""Exception hierarchy shared across the pipeline.

The CLI maps these onto process exit codes: configuration/argument problems
exit 1, malformed input data exits 2, violated internal invariants exit 3.
``check_fields``, ``check_known`` and ``check_value`` word every fault in a
JSON record or a config mapping's field the same way.
"""

import sys
from typing import Iterable, Mapping


class PipelineError(Exception):
    exit_code = 1


class ConfigError(PipelineError):
    """Invalid configuration, bad arguments, or missing input files."""

    exit_code = 1


class DataError(PipelineError):
    """Malformed or internally inconsistent input data."""

    exit_code = 2


class FetchError(DataError):
    """Remote retrieval gave up after the configured number of attempts."""

    def __init__(self, message: str, attempts: int):
        super().__init__(message)
        self.attempts = attempts


class InternalInvariantError(PipelineError):
    """A stage produced output that violates its own contract; a bug, not bad input."""

    exit_code = 3


_FLOAT_MAX = sys.float_info.max

# Each kind is named by the words its fault uses. JSON and YAML give values of
# exactly these types, so a boolean is neither an integer nor a number. A finite
# number is not NaN, an infinity or an integer too large for a float.
_KINDS = {
    "a string": lambda v: type(v) is str,
    "a non-empty string": lambda v: type(v) is str and v != "",
    "an integer": lambda v: type(v) is int,
    "a finite number": lambda v: type(v) in (int, float) and -_FLOAT_MAX <= v <= _FLOAT_MAX,
    "a boolean": lambda v: type(v) is bool,
    "an array": lambda v: type(v) is list,
    "an object": lambda v: type(v) is dict,
}


def check_value(value, what: str, kind: str, error: type[PipelineError] = DataError):
    """``value``, if it is of ``kind``; else raise ``error``: "<what> must be
    <kind>, got <repr>"."""
    if not _KINDS[kind](value):
        raise error(f"{what} must be {kind}, got {value!r}")
    return value


def check_fields(
    obj, where: str, schema: Mapping[str, str], error: type[PipelineError] = DataError
) -> list:
    """The values of ``obj``'s fields, in the order of ``schema`` ({name:
    kind}). The first fault raises ``error``: ``obj`` not an object, then
    the first field missing, then the first field not of its kind."""
    if type(obj) is not dict:
        raise error(f"{where}: expected an object, got {type(obj).__name__}")
    for name in schema:
        if name not in obj:
            raise error(f"{where}: missing field {name!r}")
    return [check_value(obj[name], f"{where}: {name}", kind, error)
            for name, kind in schema.items()]


def check_known(
    obj: Mapping, where: str, keys: Iterable, error: type[PipelineError] = DataError
) -> None:
    """Raise ``error`` if ``obj`` has a key not in ``keys``: "<where>:
    unknown keys [...]", the unknown keys sorted."""
    unknown = obj.keys() - keys
    if unknown:
        raise error(f"{where}: unknown keys {sorted(unknown, key=str)}")

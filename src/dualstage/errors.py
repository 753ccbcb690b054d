"""Exception hierarchy shared by the engine and the CLI.

The CLI maps these onto process exit codes: configuration, usage and
input errors exit 1, I/O errors exit 2, internal invariant violations
exit 3.
"""

import dataclasses
import sys

_FLOAT_MAX = sys.float_info.max


class DualStageError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(DualStageError):
    """Invalid or inconsistent configuration values."""


class UsageError(DualStageError):
    """An operation was called with arguments that violate its contract."""


class InputError(DualStageError):
    """Input data cannot be processed (silent speech, empty ranges, ...)."""


class AudioIOError(DualStageError):
    """A file could not be read or written, or has an unsupported format."""


class InternalError(DualStageError):
    """An internal invariant was violated; indicates a bug, not bad input."""


def refuse_huge_integers(config) -> None:
    """Raise ConfigError if a field of the config dataclass holds an
    integer beyond the float range, which no setting takes.

    A dataclass's __post_init__ calls this first, so the checks after it
    can format any value: Python will not print an integer of over 4,300
    digits.
    """
    for f in dataclasses.fields(config):
        stack = [getattr(config, f.name)]
        while stack:
            value = stack.pop()
            if isinstance(value, (tuple, list)):
                stack.extend(value)
            elif isinstance(value, int) and not -_FLOAT_MAX <= value <= _FLOAT_MAX:
                raise ConfigError(
                    f"{f.name} must lie in the float range, got an integer of "
                    f"{value.bit_length()} bits"
                )

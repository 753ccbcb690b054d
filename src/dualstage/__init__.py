"""Dual-stage spectral noise suppression for 16 kHz mono speech.

The processing path is one analysis/synthesis transform pair per frame
with two serial band-gain stages in between: a coarse stage whose
frame SNR estimate speeds up the fine stage's noise tracking, and a
fine stage that shapes the final suppression. See README.md for the
signal flow and the configuration schema.
"""

from .config import load_preset
from .errors import (
    AudioIOError,
    ConfigError,
    DualStageError,
    InputError,
    InternalError,
    UsageError,
)
from .metrics import evaluate_condition, snri_by_gain_shadowing
from .pipeline import StreamProcessor, process_stream, replay_gains
from .wavio import read_wav, write_wav

__version__ = "0.1.0"

__all__ = [
    "AudioIOError",
    "ConfigError",
    "DualStageError",
    "InputError",
    "InternalError",
    "StreamProcessor",
    "UsageError",
    "evaluate_condition",
    "load_preset",
    "process_stream",
    "read_wav",
    "replay_gains",
    "snri_by_gain_shadowing",
    "write_wav",
]

"""Time-frequency conversion for the suppression pipeline.

High-pass pre-filter, analysis windowing and forward transform with
zero-padding, and the inverse transform with weighted overlap-add
synthesis. All state (filter memory, overlap accumulator) is owned by
the caller and passed in explicitly, so the operations themselves are
pure and a stream can be moved between threads.
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.signal

from .errors import ConfigError, UsageError

WINDOW_KINDS = ("sqrt-hann", "hann", "rectangular")

# Relative deviation allowed when verifying the constant-overlap-add
# property of a (analysis window, synthesis window, hop) triple.
COLA_TOL = 1e-9

# largest transform length (4 s at 16 kHz); bounds every per-bin array
MAX_FFT_LEN = 2**16

# bounds the high-pass filter's l1 gain (below 2.44 for a second-order
# Butterworth high-pass at any cutoff) with room for rounding
_HPF_GAIN_BOUND = 8.0


@dataclass(frozen=True)
class FrameConfig:
    """Framing parameters for one stream.

    Parameters
    ----------
    sample_rate_hz : int
        Sampling rate in Hz.
    frame_len : int
        Analysis frame length in samples. The default wideband setup
        uses 128 samples (8 ms at 16 kHz).
    hop_len : int
        Frame advance in samples; must divide frame_len. The default is
        frame_len // 2 (50% overlap).
    fft_len : int
        Transform length; a power of two, at least frame_len and at
        most MAX_FFT_LEN. Frames shorter than fft_len are zero-padded
        before the transform.
    window_kind : str
        One of "sqrt-hann" (analysis and synthesis both sqrt-Hann),
        "hann" (Hann analysis, rectangular synthesis) or "rectangular".
    hpf_cutoff_hz : float or None
        Cutoff of the high-pass pre-filter, or None to disable it.
    """

    sample_rate_hz: int = 16000
    frame_len: int = 128
    hop_len: int = 64
    fft_len: int = 256
    window_kind: str = "sqrt-hann"
    hpf_cutoff_hz: float | None = 100.0

    def __post_init__(self):
        if self.sample_rate_hz <= 0:
            raise ConfigError(f"sample_rate_hz must be positive, got {self.sample_rate_hz}")
        if self.frame_len <= 0 or self.hop_len <= 0:
            raise ConfigError("frame_len and hop_len must be positive")
        if self.frame_len % self.hop_len != 0:
            raise ConfigError(
                f"hop_len must divide frame_len, got {self.hop_len} / {self.frame_len}"
            )
        if self.fft_len < self.frame_len:
            raise ConfigError(
                f"fft_len must be at least frame_len, got {self.fft_len} < {self.frame_len}"
            )
        if self.fft_len > MAX_FFT_LEN:
            raise ConfigError(f"fft_len must be at most {MAX_FFT_LEN}, got {self.fft_len}")
        if self.fft_len & (self.fft_len - 1):
            raise ConfigError(f"fft_len must be a power of two, got {self.fft_len}")
        if self.window_kind not in WINDOW_KINDS:
            raise ConfigError(
                f"window_kind must be one of {WINDOW_KINDS}, got {self.window_kind!r}"
            )
        if self.hpf_cutoff_hz is not None:
            if not 0.0 < self.hpf_cutoff_hz < self.sample_rate_hz / 2:
                raise ConfigError(
                    f"hpf_cutoff_hz must lie in (0, fs/2), got {self.hpf_cutoff_hz}"
                )
        # verify the window/hop triple reconstructs; raises on failure
        windows_for(self)

    @property
    def num_bins(self) -> int:
        return self.fft_len // 2 + 1

    @property
    def max_abs_sample(self) -> float:
        """Largest input magnitude whose spectra and band powers stay finite.

        With |x| <= M, the high-pass output stays below 2.44 M, so a
        windowed frame (window <= 1) has energy below
        frame_len (2.44 M)^2. By Parseval the powers of an fft_len-point
        transform sum to fft_len times the frame energy, so with
        M = sqrt(max_float / (fft_len frame_len)) / 8 every bin power,
        every band sum of them and every frame-SNR weight stays below
        2.44^2 / 64 < 0.1 of the largest float. Gains of at most 1 only
        shrink them, and no value inside the transforms or the
        overlap-add exceeds 2.44 M fft_len frame_len, far from overflow.
        """
        return np.sqrt(np.finfo(float).max / (self.fft_len * self.frame_len)) / _HPF_GAIN_BOUND


@dataclass
class SpectralFrame:
    """Half spectrum of one analysis frame, or of a block (one per row).

    bins holds the complex values for indices 0..fft_len/2 inclusive,
    power the per-bin squared magnitudes in linear power units.
    """

    bins: np.ndarray
    power: np.ndarray


def _periodic_hann(n: int) -> np.ndarray:
    # periodic (DFT-even) variant; the symmetric one breaks COLA at 50%
    idx = np.arange(n)
    return 0.5 * (1.0 - np.cos(2.0 * np.pi * idx / n))


@lru_cache(maxsize=32)
def windows_for(cfg: FrameConfig) -> tuple[np.ndarray, np.ndarray]:
    """Return the (analysis, synthesis) window pair for a config.

    The synthesis window is scaled by the reciprocal of the overlap-add
    constant so that a unity-gain analyze/synthesize round trip
    reconstructs the input. Raises ConfigError when the overlapped
    window product is not constant to within COLA_TOL.
    """
    n = cfg.frame_len
    if cfg.window_kind == "sqrt-hann":
        root = np.sqrt(_periodic_hann(n))
        analysis, synthesis = root, root.copy()
    elif cfg.window_kind == "hann":
        analysis, synthesis = _periodic_hann(n), np.ones(n)
    else:
        analysis, synthesis = np.ones(n), np.ones(n)

    product = analysis * synthesis
    cola = product.reshape(n // cfg.hop_len, cfg.hop_len).sum(axis=0)
    level = cola.mean()
    if level <= 0 or np.max(np.abs(cola - level)) / level > COLA_TOL:
        raise ConfigError(
            f"window {cfg.window_kind!r} with hop {cfg.hop_len} does not satisfy "
            f"constant overlap-add"
        )
    synthesis = synthesis / level
    analysis.flags.writeable = False
    synthesis.flags.writeable = False
    return analysis, synthesis


def design_hpf(cutoff_hz: float, sample_rate_hz: int) -> tuple[np.ndarray, np.ndarray]:
    """Design the second-order Butterworth high-pass pre-filter.

    Returns (b, a) transfer-function coefficients with the -3 dB point
    at cutoff_hz. The numerator sums to zero, so DC is rejected exactly.
    """
    if not 0.0 < cutoff_hz < sample_rate_hz / 2:
        raise ConfigError(
            f"hpf cutoff must lie in (0, fs/2) = (0, {sample_rate_hz / 2}), got {cutoff_hz}"
        )
    b, a = scipy.signal.butter(2, cutoff_hz, btype="highpass", fs=sample_rate_hz)
    return b, a


@dataclass
class HpfState:
    """Streaming filter memory; zeros at stream start."""

    zi: np.ndarray = field(default_factory=lambda: np.zeros(2))


def hpf_process(samples: np.ndarray, coeffs, state: HpfState) -> np.ndarray:
    """Apply the high-pass filter to one block, carrying state.

    Splitting a signal at any point and filtering the pieces with the
    same carried state is bit-identical to filtering it in one call.
    """
    b, a = coeffs
    out, state.zi = scipy.signal.lfilter(b, a, samples, zi=state.zi)
    return out


def analyze(frame: np.ndarray, cfg: FrameConfig) -> SpectralFrame:
    """Window frames, zero-pad to fft_len and transform.

    Parameters
    ----------
    frame : ndarray
        Exactly cfg.frame_len time samples, or a block of such rows.

    Returns
    -------
    SpectralFrame
        Complex half spectrum plus per-bin power, one row per frame.
    """
    if frame.ndim not in (1, 2) or frame.shape[-1] != cfg.frame_len:
        raise UsageError(f"expected {cfg.frame_len} samples per frame, got shape {frame.shape}")
    analysis, _ = windows_for(cfg)
    bins = np.fft.rfft(frame * analysis, n=cfg.fft_len, axis=-1)
    power = bins.real * bins.real + bins.imag * bins.imag
    return SpectralFrame(bins=bins, power=power)


@dataclass
class OlaState:
    """Overlap-add accumulator holding the unfinished synthesis tail."""

    tail: np.ndarray

    @classmethod
    def for_config(cls, cfg: FrameConfig) -> "OlaState":
        return cls(tail=np.zeros(cfg.frame_len - cfg.hop_len))


def synthesize(spec: SpectralFrame, ola_state: OlaState, cfg: FrameConfig) -> np.ndarray:
    """Inverse-transform frames and emit hop_len samples per frame.

    Each inverse transform is truncated to frame_len samples (dropping
    the zero-pad tail), synthesis-windowed and added into the overlap
    accumulator, oldest frame first; the hop_len samples per frame that
    can receive no further contributions are returned.
    """
    _, synthesis = windows_for(cfg)
    frames = np.fft.irfft(spec.bins, n=cfg.fft_len, axis=-1)[..., : cfg.frame_len] * synthesis
    hop = cfg.hop_len
    if frames.ndim == 1:
        acc = np.concatenate((ola_state.tail, frames[-hop:]))
        acc[:-hop] += frames[:-hop]
        ola_state.tail = acc[hop:]
        return acc[:hop]
    n = len(frames)
    # samples past the tail start from their oldest contribution
    acc = np.concatenate((ola_state.tail, frames[:, -hop:].reshape(-1)))
    rows = acc.reshape(-1, hop)
    for j in range(cfg.frame_len // hop - 2, -1, -1):
        rows[j : j + n] += frames[:, j * hop : (j + 1) * hop]
    ola_state.tail = acc[n * hop :]
    return acc[: n * hop]


def algorithmic_latency_ms(cfg: FrameConfig) -> float:
    """Input-to-output delay implied by framing, in milliseconds.

    Counts the frame_len samples needed to fill the first analysis
    frame plus the hop_len samples of output granularity; compute time
    and the high-pass filter group delay are excluded.
    """
    return (cfg.frame_len + cfg.hop_len) * 1000.0 / cfg.sample_rate_hz

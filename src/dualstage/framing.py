"""Time-frequency conversion for the suppression pipeline.

High-pass pre-filter, analysis windowing and forward transform with
zero-padding, and the inverse transform with weighted overlap-add
synthesis. The high-pass runs on the C loop inside
scipy.signal.lfilter (scipy.signal._sigtools), and the transform pair
on scipy.fft's pocketfft extension (scipy.fft._pocketfft.pypocketfft),
each loaded without its package (see dualstage._scipy); both release
the interpreter lock. The transforms give the bits of np.fft.rfft and
np.fft.irfft; on a lone frame, where a call's fixed cost dominates,
they take about a third of numpy's time. A spectrum is a plain
complex array of bins 0..fft_len/2, one row per frame; bin_power
gives its per-bin powers, which only a caller that pools or plots
computes. All state (filter memory, overlap accumulator) is a plain
array owned by the caller, passed in and handed back (None at stream
start), so the operations themselves are pure and a stream can be
moved between threads.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._scipy import leaf
from .errors import ConfigError, UsageError, refuse_huge_integers

# the loop inside scipy.signal.lfilter, without scipy.signal's imports
_linear_filter = leaf("scipy.signal._sigtools")._linear_filter
# scipy.fft's C++ transforms (r2c, c2r), without scipy.fft's imports
_pocketfft = leaf("scipy.fft._pocketfft.pypocketfft")

WINDOW_KINDS = ("sqrt-hann", "hann", "rectangular")

# Relative deviation allowed when verifying the constant-overlap-add
# property of a (analysis window, synthesis window, hop) triple.
COLA_TOL = 1e-9

# largest transform length (4 s at 16 kHz); bounds every per-bin array
MAX_FFT_LEN = 2**16

# largest sample rate, the most a WAV header's 32-bit rate field holds;
# it keeps every rate a float and every division by it finite
MAX_SAMPLE_RATE_HZ = 2**32 - 1

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

    windows, built when the config is made, is the read-only
    (analysis, synthesis) window pair. The synthesis window is scaled
    by the reciprocal of the overlap-add constant, so that a
    unity-gain analyze/synthesize round trip reconstructs the input; a
    pair whose overlapped product is not constant to within COLA_TOL
    raises ConfigError.
    """

    sample_rate_hz: int = 16000
    frame_len: int = 128
    hop_len: int = 64
    fft_len: int = 256
    window_kind: str = "sqrt-hann"
    hpf_cutoff_hz: float | None = 100.0

    def __post_init__(self):
        refuse_huge_integers(self)
        if not 0 < self.sample_rate_hz <= MAX_SAMPLE_RATE_HZ:
            raise ConfigError(
                f"sample_rate_hz must lie in [1, {MAX_SAMPLE_RATE_HZ}], got {self.sample_rate_hz}"
            )
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
        object.__setattr__(self, "windows", _build_windows(self))

    @property
    def num_bins(self) -> int:
        return self.fft_len // 2 + 1

    @functools.cached_property
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


def _periodic_hann(n: int) -> np.ndarray:
    # periodic (DFT-even) variant; the symmetric one breaks COLA at 50%
    idx = np.arange(n)
    return 0.5 * (1.0 - np.cos(2.0 * np.pi * idx / n))


def _build_windows(cfg: FrameConfig) -> tuple[np.ndarray, np.ndarray]:
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
    at cutoff_hz: the bilinear transform of the analog prototype, with
    the cutoff prewarped to k = tan(pi fc / fs). The numerator is
    norm [1, -2, 1], which sums to exactly zero, so DC is rejected
    exactly.
    """
    if not 0.0 < cutoff_hz < sample_rate_hz / 2:
        raise ConfigError(
            f"hpf cutoff must lie in (0, fs/2) = (0, {sample_rate_hz / 2}), got {cutoff_hz}"
        )
    k = math.tan(math.pi * cutoff_hz / sample_rate_hz)
    norm = 1.0 / (1.0 + math.sqrt(2.0) * k + k * k)
    b = np.array([norm, -2.0 * norm, norm])
    a = np.array([1.0, 2.0 * (k * k - 1.0) * norm, (1.0 - math.sqrt(2.0) * k + k * k) * norm])
    return b, a


def hpf_process(samples: np.ndarray, coeffs, zi):
    """Apply the high-pass filter to a 1-D block; return (output, zi).

    Direct form II transposed, in scipy.signal.lfilter's C loop:
    y(i) = z1 + b0 x(i), z1 = (z2 + b1 x(i)) - a1 y(i),
    z2 = b2 x(i) - a2 y(i). The two delays zi (lfilter's zi; None at
    stream start, which is zeros) are the whole state and are carried
    exactly, so filtering the pieces of a signal, each with the zi the
    last handed back, is bit-identical to filtering it in one call.
    """
    x = np.asarray(samples, dtype=float)
    zi = np.zeros(2) if zi is None else zi
    if not x.size:  # the kernel leaves zf unset for an empty block
        return x.copy(), zi
    b, a = coeffs
    return _linear_filter(b, a, x, -1, zi)


def analyze(frame: np.ndarray, cfg: FrameConfig) -> np.ndarray:
    """Window frames, zero-pad to fft_len and transform.

    The windowed frames are written into a zero-padded array, which
    pocketfft's r2c transforms without normalisation: the bits of
    np.fft.rfft(frame * analysis, n=fft_len).

    Parameters
    ----------
    frame : ndarray
        Exactly cfg.frame_len time samples, or a block of such rows.

    Returns
    -------
    ndarray
        Complex half spectrum, bins 0..fft_len/2, one row per frame;
        fresh, so a caller may scale it in place.
    """
    if frame.ndim not in (1, 2) or frame.shape[-1] != cfg.frame_len:
        raise UsageError(f"expected {cfg.frame_len} samples per frame, got shape {frame.shape}")
    padded = np.zeros((*frame.shape[:-1], cfg.fft_len))
    np.multiply(frame, cfg.windows[0], out=padded[..., : cfg.frame_len])
    return _pocketfft.r2c(padded, (-1,), True, 0)


def bin_power(bins: np.ndarray) -> np.ndarray:
    """Per-bin squared magnitudes of a half spectrum (or of a block of
    them), in linear power units; a fresh array."""
    p = bins.real * bins.real
    p += bins.imag * bins.imag
    return p


def synthesize(bins: np.ndarray, tail, cfg: FrameConfig):
    """Inverse-transform frames; return (hop_len samples per frame, tail).

    pocketfft's c2r inverts each row with a 1/fft_len normalisation,
    the bits of np.fft.irfft(bins, n=fft_len). Each inverse transform
    is truncated to frame_len samples (dropping the zero-pad tail),
    synthesis-windowed in place and added into the overlap
    accumulator, oldest frame first; the hop_len samples per frame
    that can receive no further contributions are returned, with the
    unfinished tail of frame_len - hop_len samples (None at stream
    start, which is zeros) to pass to the next call. bins is only read.

    With r = frame_len // hop_len, a block's hop m starts from the
    tail's hop m, or from the last hop of frame m - r + 1, and adds the
    hops of frames m - r + 2 .. m in turn. The output's hops and the
    next tail's are summed in fresh arrays, and a lone frame's are
    copied out of its transform, so each holds only its own samples.
    """
    # c2r's output is fresh: window it, and add into it, in place
    frames = _pocketfft.c2r(bins, (-1,), cfg.fft_len, False, 2)[..., : cfg.frame_len]
    frames *= cfg.windows[1]
    hop = cfg.hop_len
    tail = np.zeros(cfg.frame_len - hop) if tail is None else tail
    if frames.ndim == 1:
        frames[:-hop] += tail
        return frames[:hop].copy(), frames[hop:].copy()
    n, r = len(frames), cfg.frame_len // hop
    # hops[i, j] is hop j of frame i
    hops, tail = frames.reshape(n, r, hop), tail.reshape(r - 1, hop)
    sums = []
    for lo, hi in ((0, n), (n, n + r - 1)):
        split = min(max(r - 1 - lo, 0), hi - lo)  # the rows that start from the tail
        acc = np.concatenate([tail[lo : lo + split], hops[lo + split - r + 1 : hi - r + 1, r - 1]])
        for j in range(r - 2, -1, -1):
            a, b = max(lo, j), min(hi, j + n)  # the rows frame m - j exists for
            acc[a - lo : b - lo] += hops[a - j : b - j, j]
        sums.append(acc.reshape(-1))
    return tuple(sums)


def algorithmic_latency_ms(cfg: FrameConfig) -> float:
    """Input-to-output delay implied by framing, in milliseconds.

    Counts the frame_len samples needed to fill the first analysis
    frame plus the hop_len samples of output granularity; compute time
    and the high-pass filter group delay are excluded.
    """
    return (cfg.frame_len + cfg.hop_len) * 1000.0 / cfg.sample_rate_hz

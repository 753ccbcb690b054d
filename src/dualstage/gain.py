"""Subband SNR, raw suppression gain and adaptive gain smoothing.

The raw gain is the spectral-subtraction rule sqrt(1 - mu/SNR) with an
over/under-estimation factor mu and a floor that bounds the maximum
attenuation. Raw gains are smoothed per band with a factor that grows
with the gain itself, so speech onsets are tracked quickly while gains
deep in the noise floor move slowly (fast attack, slow release).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, refuse_huge_integers
from .noise_tracking import _ONE, PerBand, frozen_array, smooth_rows

# validation bound for mu; presets stay well inside it
MU_MAX = 1.5
_TINY = frozen_array(np.finfo(float).tiny)
_ZERO = frozen_array(0.0)
# largest amplitude ratio compute_snr squares: the square, 2**1022, is
# finite, and at that SNR, as at any larger one, the raw gain is 1 and
# the frame SNR lies far above any alpha map's last point
_RATIO_CAP = frozen_array(2.0**511)


@dataclass(frozen=True)
class GainParams:
    """Suppression-gain settings for one stage.

    mu scales the noise estimate inside the gain rule (scalar or per
    band); gain_floor is the lower gain bound in (0, 1], also scalar or
    per band; gamma_min/gamma_max bound the smoothing factor;
    noise_floor_eps guards the SNR division.
    """

    mu: PerBand = 1.49
    gain_floor: PerBand = 0.178
    gamma_min: float = 0.2
    gamma_max: float = 0.95
    noise_floor_eps: float = 1e-10

    def __post_init__(self):
        refuse_huge_integers(self)
        # every range check is written so that NaN fails it
        mu = np.asarray(self.mu, dtype=float)
        if not np.all((0.0 <= mu) & (mu <= MU_MAX)):
            raise ConfigError(f"mu must lie in [0, {MU_MAX}], got {self.mu}")
        floor = np.asarray(self.gain_floor, dtype=float)
        if not np.all((0.0 < floor) & (floor <= 1.0)):
            raise ConfigError(f"gain_floor must lie in (0, 1], got {self.gain_floor}")
        if not 0.0 <= self.gamma_min <= self.gamma_max <= 1.0:
            raise ConfigError(
                f"need 0 <= gamma_min <= gamma_max <= 1, got "
                f"({self.gamma_min}, {self.gamma_max})"
            )
        if not 0.0 < self.noise_floor_eps < math.inf:
            raise ConfigError(f"noise_floor_eps must be finite and > 0, got {self.noise_floor_eps}")


class GainState:
    """Previous smoothed gains of one stream; starts at 1 per band."""

    def __init__(self, num_bands):
        self.prev_gain = np.ones(num_bands)


class GainConstants:
    """GainParams in the form the per-frame arithmetic takes.

    A pipeline builds them once per stream stage, smooth_gain once per
    call: mu, the floor, the smoothing factor's offset and span, and
    the SNR guard as frozen arrays, and whether the gain rule's
    silent-band snap can change a gain (see _raw_gain).
    """

    def __init__(self, params: GainParams):
        self.mu = frozen_array(params.mu)
        self.floor = frozen_array(params.gain_floor)
        self.snap_silent = bool(np.any(self.mu < _TINY))
        self.gamma_min = frozen_array(params.gamma_min)
        self.gamma_span = frozen_array(params.gamma_max - params.gamma_min)
        self.eps = frozen_array(params.noise_floor_eps)


def compute_snr(band_mags, noise_est, eps: float) -> np.ndarray:
    """Per-band linear SNR: |X|^2 / max(|N|, eps)^2, at most 2**1022."""
    ratio = np.divide(band_mags, np.maximum(noise_est, eps))
    # a burst near the input bound over a quiet background would
    # otherwise overflow the square
    np.minimum(ratio, _RATIO_CAP, out=ratio)
    return np.multiply(ratio, ratio, out=ratio)


def compute_raw_gain(snr, mu, gain_floor) -> np.ndarray:
    """Spectral-subtraction gain sqrt(1 - mu/SNR), clamped to [floor, 1].

    Where SNR <= mu the radicand is non-positive and the gain snaps to
    the floor; a band with no SNR evidence (SNR 0 or NaN) takes the
    floor too. gain_floor lies in (0, 1], as GainParams checks.
    """
    snr = np.asarray(snr, dtype=float)
    return _raw_gain(np.atleast_1d(snr), mu, gain_floor, snap_silent=True).reshape(snr.shape)


def _raw_gain(snr: np.ndarray, mu, floor, snap_silent: bool) -> np.ndarray:
    """compute_raw_gain on an array; a silent band snaps to the floor
    by force only when snap_silent.

    The tiny clamp keeps mu / SNR finite. Where mu >= tiny, a band at
    SNR 0 already has mu / tiny >= 1, a radicand <= 0 and the floor, so
    the forced snap (for SNR 0, or NaN, which screened input never
    makes) changes a gain only where some mu < tiny, i.e. mu = 0. The
    radicand is at most 1, and a floor at most 1 keeps the result
    there, so no upper clamp is needed.
    """
    q = np.maximum(snr, _TINY)
    np.divide(mu, q, out=q)
    if snap_silent:
        q = np.where(snr > 0.0, q, np.inf)
    np.subtract(_ONE, q, out=q)
    np.maximum(q, _ZERO, out=q)
    np.sqrt(q, out=q)
    return np.maximum(q, floor, out=q)


def smoothing_factor_of(raw_gain, gamma_min: float, gamma_max: float) -> np.ndarray:
    """Affine smoothing factor: gamma_min + (gamma_max - gamma_min) * G'."""
    return _smoothing_factor(np.asarray(raw_gain, dtype=float), gamma_min, gamma_max - gamma_min)


def _smoothing_factor(raw, gamma_min, gamma_span):
    gamma = raw * gamma_span
    gamma += gamma_min
    return gamma


def smooth_gain(raw, state: GainState, params: GainParams) -> np.ndarray:
    """First-order gain smoothing with the gain-dependent factor.

    G(m) = (1 - gamma(G')) * G(m-1) + gamma(G') * G', clamped to
    [gain_floor, 1]; the state is updated with the result. raw holds
    one frame's band gains, or a block with one frame per row. gamma
    changes with every frame and band, so a block is one bidiagonal
    solve (smooth_rows).
    """
    return _smooth_gain(np.asarray(raw, dtype=float), state, GainConstants(params))


def _smooth_gain(raw: np.ndarray, state: GainState, k: GainConstants) -> np.ndarray:
    gamma = _smoothing_factor(raw, k.gamma_min, k.gamma_span)
    out = smooth_rows(state.prev_gain, gamma, raw, k.floor)
    state.prev_gain = out if out.ndim == 1 else out[-1]
    return out

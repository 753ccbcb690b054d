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

from .errors import ConfigError
from .noise_tracking import PerBand, scalar_or_array, smooth_rows

# validation bound for mu; presets stay well inside it
MU_MAX = 1.5
_TINY = np.finfo(float).tiny


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


def compute_snr(band_mags, noise_est, eps: float) -> np.ndarray:
    """Per-band linear SNR: |X|^2 / max(|N|, eps)^2."""
    ratio = np.asarray(band_mags, dtype=float) / np.maximum(noise_est, eps)
    return ratio * ratio


def compute_raw_gain(snr, mu, gain_floor) -> np.ndarray:
    """Spectral-subtraction gain sqrt(1 - mu/SNR), clamped to [floor, 1].

    Where SNR <= mu the radicand is non-positive and the gain snaps to
    the floor.
    """
    snr = np.asarray(snr, dtype=float)
    # a silent band has no SNR evidence and takes the floor; the tiny
    # clamp keeps the division finite, the where() forces the snap
    q = np.asarray(mu, dtype=float) / np.maximum(snr, _TINY)
    q = np.where(snr > 0.0, q, np.inf)
    raw = np.sqrt(np.maximum(1.0 - q, 0.0))
    return np.minimum(np.maximum(raw, gain_floor), 1.0)


def smoothing_factor_of(raw_gain, gamma_min: float, gamma_max: float) -> np.ndarray:
    """Affine smoothing factor: gamma_min + (gamma_max - gamma_min) * G'."""
    return gamma_min + (gamma_max - gamma_min) * np.asarray(raw_gain, dtype=float)


def smooth_gain(raw, state: GainState, params: GainParams) -> np.ndarray:
    """First-order gain smoothing with the gain-dependent factor.

    G(m) = (1 - gamma(G')) * G(m-1) + gamma(G') * G', clamped to
    [gain_floor, 1]; the state is updated with the result. raw holds
    one frame's band gains, or a block with one frame per row. gamma
    changes with every frame and band, so a block is one bidiagonal
    solve (smooth_rows).
    """
    raw = np.asarray(raw, dtype=float)
    gamma = smoothing_factor_of(raw, params.gamma_min, params.gamma_max)
    out = smooth_rows(state.prev_gain, gamma, raw, scalar_or_array(params.gain_floor))
    state.prev_gain = out if out.ndim == 1 else out[-1]
    return out

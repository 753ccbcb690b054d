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
from .noise_tracking import _ONE, PerBand, _set_frozen, frozen_array, smooth_carried

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
        # the settings in the form the per-frame arithmetic takes them,
        # built once: frozen arrays (see noise_tracking.frozen_array),
        # the smoothing factor's offset and span, and whether the gain
        # rule's silent-band snap can change a gain (see
        # compute_raw_gain). Not fields, so the config codec and asdict
        # never see them.
        _set_frozen(self, _mu=mu, _floor=floor, _eps=self.noise_floor_eps)
        _set_frozen(self, _gamma_min=self.gamma_min, _gamma_span=self.gamma_max - self.gamma_min)
        object.__setattr__(self, "_snap_silent", bool(np.any(self._mu < _TINY)))


def compute_snr(band_mags, noise_est, params: GainParams) -> np.ndarray:
    """Per-band linear SNR: |X|^2 / max(|N|, eps)^2, at most 2**1022,
    with eps = params.noise_floor_eps."""
    ratio = np.divide(band_mags, np.maximum(noise_est, params._eps))
    # a burst near the input bound over a quiet background would
    # otherwise overflow the square
    np.minimum(ratio, _RATIO_CAP, out=ratio)
    return np.multiply(ratio, ratio, out=ratio)


def compute_raw_gain(snr: np.ndarray, params: GainParams) -> np.ndarray:
    """Spectral-subtraction gain sqrt(1 - mu/SNR), clamped to [floor, 1].

    snr is a float array of at least one dimension. Where SNR <= mu the
    radicand is non-positive and the gain snaps to the floor; a band
    with no SNR evidence (SNR 0 or NaN) takes the floor too.

    The tiny clamp keeps mu / SNR finite. Where mu >= tiny, a band at
    SNR 0 already has mu / tiny >= 1, a radicand <= 0 and the floor, so
    the forced snap (for SNR 0, or NaN, which screened input never
    makes) changes a gain only where some mu < tiny, i.e. mu = 0, and
    runs only then. The radicand is at most 1, and a floor at most 1
    (GainParams checks it) keeps the result there, so no upper clamp
    is needed.
    """
    q = np.maximum(snr, _TINY)
    np.divide(params._mu, q, out=q)
    if params._snap_silent:
        q = np.where(snr > 0.0, q, np.inf)
    np.subtract(_ONE, q, out=q)
    np.maximum(q, _ZERO, out=q)
    np.sqrt(q, out=q)
    return np.maximum(q, params._floor, out=q)


def smoothing_factor_of(raw_gain: np.ndarray, params: GainParams) -> np.ndarray:
    """Affine smoothing factor: gamma_min + (gamma_max - gamma_min) * G'."""
    gamma = raw_gain * params._gamma_span
    gamma += params._gamma_min
    return gamma


def smooth_gain(raw: np.ndarray, prev, params: GainParams):
    """First-order gain smoothing with the gain-dependent factor; return
    (gains, prev) with the carry for the next call.

    G(m) = (1 - gamma(G')) * G(m-1) + gamma(G') * G', clamped to
    [gain_floor, 1], from G(-1) = prev, the last smoothed gains (None at
    stream start, which is 1 per band). raw holds one frame's band
    gains, or a block with one frame per row. gamma changes with every
    frame and band, so a block is one bidiagonal solve (smooth_rows).
    """
    prev = np.ones(raw.shape[-1]) if prev is None else prev
    return smooth_carried(prev, smoothing_factor_of(raw, params), raw, params._floor)

"""Per-band minimum-statistics noise estimation.

The raw estimate is the exact minimum of the (pre-smoothed) band
magnitudes over a sliding window of window_len frames, scaled by a
fixed bias factor. A first-order smoother with a per-band alpha turns
the raw track into the noise magnitude estimate; for the second stage
the alpha is scaled up at low frame SNR so the tracker follows faster
where the first stage says the signal is mostly noise.

All three smoothers (magnitude pre-smoothing, noise smoothing, and the
gain smoothing in the gain module) are the recursion in smooth_rows,
p(m) = c(m) * p(m-1) + a(m) * x(m) with c = 1 - a. A block whose
factor is one scalar and that has no clamp (pre-smoothing in every
stage, noise smoothing wherever alpha is not per band or per frame) is
a time-invariant filter and runs as one scipy.signal.lfilter call. The
rest (Stage-2 noise, whose factor follows the Stage-1 frame SNR,
per-band factors and both gain smoothers) have a factor that changes
from frame to frame, which lfilter cannot take; such a block is one
unit lower-bidiagonal linear system, solved by one LAPACK dgttrs call.
Both round each step exactly as a lone frame does (see smooth_rows),
so chunking a stream never changes a bit.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat

import numpy as np
import scipy.linalg.lapack
import scipy.signal

from .errors import ConfigError, UsageError

# default Stage-2 map: multiplier 2.0 at and below 0 dB, 1.0 at and
# above 20 dB, linear between
DEFAULT_ALPHA_SNR_MAP = ((0.0, 2.0), (20.0, 1.0))

# a smoothing factor or gain bound: one value for every band, or one per band
PerBand = float | tuple[float, ...]


@dataclass(frozen=True)
class TrackerParams:
    """Noise tracker settings for one stage.

    window_len is the length of the sliding-minimum window in frames.
    bias_factor compensates the low bias of the window minimum. alpha
    is the per-band smoothing factor (scalar or one value per band);
    alpha_snr_map, when set, maps a frame SNR in dB to a multiplier on
    alpha (piecewise linear, non-increasing), and a pipeline feeds the
    stage the Stage-1 frame SNR exactly when it is set.
    mag_smooth_alpha pre-smooths the band magnitudes ahead of the
    minimum search so the window minimum lands near the stationary
    level instead of deep in the fluctuation floor.
    """

    window_len: int = 384
    bias_factor: float = 1.2
    alpha: PerBand = 0.5
    alpha_snr_map: tuple[tuple[float, float], ...] | None = None
    mag_smooth_alpha: float = 0.1

    def __post_init__(self):
        if self.window_len < 1:
            raise ConfigError(f"window_len must be at least 1, got {self.window_len}")
        # every range check is written so that NaN fails it
        if not 1.0 <= self.bias_factor < math.inf:
            raise ConfigError(f"bias_factor must be finite and >= 1, got {self.bias_factor}")
        alpha = np.asarray(self.alpha, dtype=float)
        if not np.all((0.0 <= alpha) & (alpha <= 1.0)):
            raise ConfigError(f"alpha must lie in [0, 1], got {self.alpha}")
        if not 0.0 < self.mag_smooth_alpha <= 1.0:
            raise ConfigError(
                f"mag_smooth_alpha must lie in (0, 1], got {self.mag_smooth_alpha}"
            )
        if self.alpha_snr_map is not None:
            pts = tuple(self.alpha_snr_map)
            if len(pts) < 2:
                raise ConfigError("alpha_snr_map needs at least two points")
            if not np.all(np.isfinite(pts)):
                raise ConfigError(f"alpha_snr_map values must be finite, got {pts}")
            xs = [p[0] for p in pts]
            ys = [p[1] for p in pts]
            if any(b <= a for a, b in zip(xs, xs[1:])):
                raise ConfigError("alpha_snr_map SNR breakpoints must be increasing")
            if any(b > a for a, b in zip(ys, ys[1:])):
                raise ConfigError("alpha_snr_map multipliers must be non-increasing")
            if any(y <= 0 for y in ys):
                raise ConfigError("alpha_snr_map multipliers must be positive")
            # a tuple of pairs, hashable for effective_alpha's map cache
            object.__setattr__(self, "alpha_snr_map", tuple(tuple(p) for p in pts))


class _SlidingMin:
    """Exact trailing-window minimum, O(1) per frame and band.

    Block-aligned running minimum (van Herk 1992; Gil & Werman 1993):
    with time cut into blocks of window_len frames, the window ending at
    offset i of a block is the previous block's suffix from i+1 plus the
    current block's prefix up to i. Suffixes start at +inf, so a short
    stream takes the minimum over everything seen.
    """

    def __init__(self, window_len: int, num_bands: int):
        self.window_len = window_len
        self.block = np.empty((window_len, num_bands))
        self.pos = 0  # frames held in the current block
        self.prefix_min = np.full(num_bands, np.inf)
        self.prev_suffix = np.full((window_len + 1, num_bands), np.inf)

    def push(self, rows: np.ndarray) -> np.ndarray:
        """Append one frame (1-D) or a block of frames (one per row);
        return the window minimum of each, in the same shape."""
        if rows.ndim == 1:
            self.block[self.pos] = rows
            self.prefix_min = np.minimum(rows, self.prefix_min)
            out = np.minimum(self.prefix_min, self.prev_suffix[self.pos + 1])
            self._advance(self.pos + 1)
            return out
        outs = []
        while len(rows):
            pos = self.pos
            seg, rows = rows[: self.window_len - pos], rows[self.window_len - pos :]
            self.block[pos : pos + len(seg)] = seg
            prefix = np.minimum(np.minimum.accumulate(seg, axis=0), self.prefix_min)
            outs.append(np.minimum(prefix, self.prev_suffix[pos + 1 : pos + len(seg) + 1]))
            self.prefix_min = prefix[-1]
            self._advance(pos + len(seg))
        return outs[0] if len(outs) == 1 else np.concatenate(outs)

    def _advance(self, end: int) -> None:
        """Move to block offset end, closing the block when it is full."""
        if end == self.window_len:
            reversed_min = np.minimum.accumulate(self.block[::-1], axis=0)
            self.prev_suffix[:end] = reversed_min[::-1]
            self.prefix_min = np.full_like(self.prefix_min, np.inf)
            end = 0
        self.pos = end


@dataclass
class NoiseState:
    """Per-stream tracker state; single writer, movable between threads."""

    window_min: _SlidingMin
    smoothed: np.ndarray
    presmoothed_mag: np.ndarray
    frame_count: int = 0

    @classmethod
    def for_params(cls, params: TrackerParams, num_bands: int) -> "NoiseState":
        return cls(
            window_min=_SlidingMin(params.window_len, num_bands),
            smoothed=np.zeros(num_bands),
            presmoothed_mag=np.zeros(num_bands),
        )


def scalar_or_array(value):
    """A Python number as a float, anything else as a float array."""
    # isinstance, not np.ndim: this runs on every one-hop call
    if isinstance(value, (float, int)):
        return float(value)
    return np.asarray(value, dtype=float)


def smooth_rows(prev, alpha, x: np.ndarray, floor=None) -> np.ndarray:
    """First-order recursion p(m) = (1 - alpha(m)) * p(m-1) + alpha(m) * x(m).

    x is one frame (1-D) or a block, one frame per row; the result has
    its shape. A 2-D alpha gives each frame of a block its own row,
    other alphas apply to every frame; pass a scalar as a Python float
    so 1 - alpha costs no numpy call. prev = None seeds p(0) = x(0). A
    floor clamps every p(m) to [floor, 1] before the next step.

    Every path rounds each step as fl(fl(c * p) + fl(alpha * x)) with
    c = 1 - alpha, as a lone frame does, so every split of a stream
    gives the same bits:
    - a block with a scalar alpha and no floor is one lfilter call with
      b = [alpha, 0] and a = [1, -c], whose transposed direct form
      computes exactly that sum;
    - any other block is one unit lower-bidiagonal solve (_solve_rows),
      whose forward step computes the same sum;
    - with a floor, the clamp runs only from the first row that left
      [floor, 1], since a clamp that changes nothing can be skipped;
      from that row on the block steps row by row.
    A LAPACK or scipy built to fuse the multiply and add would round
    the solve differently; test_block_smoother_equals_frame_by_frame
    would catch it.
    """
    if x.ndim == 1:
        if prev is None:
            p = x.copy()
        else:
            p = (1 - alpha) * prev + alpha * x
        return p if floor is None else np.minimum(np.maximum(p, floor), 1.0)
    if prev is None:  # the seeded first row, then the recursion from it
        first = smooth_rows(None, alpha, x[0], floor)
        if len(x) == 1:
            return first[None]
        rest = smooth_rows(first, alpha[1:] if np.ndim(alpha) == 2 else alpha, x[1:], floor)
        return np.concatenate([first[None], rest])
    if floor is None and np.ndim(alpha) == 0:
        c = 1 - alpha
        return scipy.signal.lfilter([alpha, 0.0], [1.0, -c], x, axis=0, zi=[c * prev])[0]
    rows = _solve_rows(prev, alpha, x)
    if rows is None:
        rows = np.empty_like(x)
        _step_rows(prev, 1 - alpha, alpha * x, rows)
    if floor is not None:
        # a clamp that changes nothing can be skipped: rows before the
        # first one outside [floor, 1] are exact, and from that row on
        # the block steps again with the clamp
        bad = np.flatnonzero(np.any((rows < floor) | (rows > 1.0), axis=-1))
        if bad.size:
            m = bad[0]
            np.minimum(np.maximum(rows[m], floor), 1.0, out=rows[m])
            alpha_rest = alpha[m + 1 :] if np.ndim(alpha) == 2 else alpha
            _step_rows(rows[m], 1 - alpha_rest, alpha_rest * x[m + 1 :], rows[m + 1 :], floor)
    return rows


def _solve_rows(prev, alpha, x: np.ndarray) -> np.ndarray | None:
    """The recursion over a block as one LAPACK dgttrs solve of L p = b.

    Unknowns run band by band, p(-1) = prev first, then rows 1..n. L
    has ones on its diagonal, alpha(m) - 1 below it within a band (it
    rounds to exactly -c(m)) and 0 across a band boundary; b = [prev,
    alpha * x]. dgttrs's forward step B(i+1) - DL(i) * B(i) is then
    fl(alpha * x + fl(c * p)), the row loop's arithmetic, and its
    back-substitution subtracts 0 * p and divides by 1, which is exact
    while every p is finite. A non-finite p spreads NaN back to the
    first unknown through 0 * inf; the solve then returns None, as it
    does for systems of fewer than 3 unknowns (too small for the
    wrapper's du2), and the caller steps the rows instead. The result
    is a Fortran-ordered view.
    """
    n, bands = x.shape
    size = bands * (n + 1)
    if size < 3:
        return None
    # b and the subdiagonal in the unknowns' order: Fortran order over
    # (n + 1, bands), so the products land there without a transpose
    b = np.empty((n + 1, bands), order="F")
    b[0] = prev
    np.multiply(alpha, x, out=b[1:])
    dl = np.empty((n + 1, bands), order="F")
    dl[0] = 0.0
    np.subtract(alpha, 1.0, out=dl[1:])
    # the LU factor's other parts: a unit diagonal, nothing above it
    # and no row interchanges
    zeros = np.zeros(size)
    ipiv = np.arange(1, size + 1, dtype=np.int32)
    scipy.linalg.lapack.dgttrs(
        dl.T.reshape(-1)[1:],
        np.ones(size),
        zeros[:-1],
        zeros[:-2],
        ipiv,
        b.T.reshape(-1, 1),
        overwrite_b=1,
    )
    return b[1:] if math.isfinite(b[0, 0]) else None


def _step_rows(p, c, ax, rows, floor=None) -> None:
    """rows[m] = c(m) * rows[m-1] + ax[m], from rows[-1] = p, with the
    [floor, 1] clamp when a floor is given."""
    for axm, cm, pm in zip(ax, c if np.ndim(c) == 2 else repeat(c), rows):
        np.multiply(p, cm, out=pm)
        pm += axm
        if floor is not None:
            np.maximum(pm, floor, out=pm)
            np.minimum(pm, 1.0, out=pm)
        p = pm


def track_raw(band_mags: np.ndarray, params: TrackerParams, state: NoiseState) -> np.ndarray:
    """Raw noise estimate: bias_factor times the sliding-window minimum.

    The window covers the last params.window_len frames (fewer while
    the stream is shorter than that); the first frame seeds the minimum
    with the first observation. Like update, it takes one frame or a
    block.
    """
    return params.bias_factor * state.window_min.push(np.asarray(band_mags, dtype=float))


def _smooth_noise(raw: np.ndarray, state: NoiseState, alpha) -> np.ndarray:
    seed = None if state.frame_count == 0 else state.smoothed
    out = smooth_rows(seed, alpha, raw)
    state.smoothed = out if out.ndim == 1 else out[-1]
    state.frame_count += 1 if out.ndim == 1 else len(out)
    return out


def smooth_noise(raw: np.ndarray, state: NoiseState, alpha_eff) -> np.ndarray:
    """First-order smoothing of the raw track into the noise estimate.

    N(m) = N(m-1) + alpha * (N'(m) - N(m-1)); the first frame seeds
    N directly with the raw estimate so the floor never starts at zero.
    """
    alpha = np.asarray(alpha_eff, dtype=float)
    if alpha.size and not (float(alpha.min()) >= 0.0 and float(alpha.max()) <= 1.0):
        raise UsageError(f"alpha_eff must lie in [0, 1], got {alpha_eff}")
    return _smooth_noise(np.asarray(raw, dtype=float), state, alpha)


@lru_cache(maxsize=8)
def _map_points(snr_map: tuple) -> tuple[np.ndarray, np.ndarray]:
    """An alpha map's SNR breakpoints and multipliers as read-only float
    arrays, built once per map: np.interp on tuples converts them on
    every call."""
    xs = np.array([p[0] for p in snr_map], dtype=float)
    ys = np.array([p[1] for p in snr_map], dtype=float)
    xs.flags.writeable = ys.flags.writeable = False
    return xs, ys


def effective_alpha(base_alpha, stage1_snr_db, snr_map) -> np.ndarray:
    """Scale the base smoothing factor by the SNR-dependent multiplier.

    Lower frame SNR gives a multiplier >= 1 (faster tracking); the
    result is clamped to [0, 1]. With no map the base value is returned
    unchanged apart from the clamp. snr_map is a tuple of (SNR dB,
    multiplier) pairs, as TrackerParams.alpha_snr_map holds it.
    stage1_snr_db may be a 1-D array of frame SNRs; the result is then
    2-D with one row per frame.
    """
    base = np.asarray(base_alpha, dtype=float)
    if snr_map is None:
        return np.clip(base, 0.0, 1.0)
    xs, ys = _map_points(snr_map)
    mult = np.interp(stage1_snr_db, xs, ys)
    if mult.ndim:
        mult = mult[:, None]
    elif base.ndim == 0:
        return min(max(float(base) * float(mult), 0.0), 1.0)
    return np.minimum(np.maximum(mult * base, 0.0), 1.0)


def update(
    band_mags: np.ndarray,
    params: TrackerParams,
    state: NoiseState,
    stage1_snr_db=None,
) -> tuple[np.ndarray, np.ndarray]:
    """One full tracker step: pre-smooth, window minimum, noise smoothing.

    Returns (raw estimate, smoothed estimate). stage1_snr_db feeds the
    alpha map when the params carry one; passing None leaves the base
    alpha in place. A block of frames (one per row, with one frame SNR
    each) gives the same rows as frame-by-frame calls.
    """
    mags = np.asarray(band_mags, dtype=float)
    if params.alpha_snr_map is not None and stage1_snr_db is not None:
        alpha = effective_alpha(params.alpha, stage1_snr_db, params.alpha_snr_map)
    else:
        # construction already validated alpha's range
        alpha = scalar_or_array(params.alpha)
    seed = None if state.frame_count == 0 else state.presmoothed_mag
    pre = smooth_rows(seed, float(params.mag_smooth_alpha), mags)
    state.presmoothed_mag = pre if pre.ndim == 1 else pre[-1]
    raw = track_raw(pre, params, state)
    return raw, _smooth_noise(raw, state, alpha)

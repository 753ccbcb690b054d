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
from itertools import repeat

import numpy as np
import scipy.linalg.lapack
import scipy.signal

from .errors import ConfigError, refuse_huge_integers

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
        refuse_huge_integers(self)
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
            object.__setattr__(self, "alpha_snr_map", tuple(tuple(p) for p in pts))
        # the settings in the form the per-frame arithmetic takes them,
        # built once: frozen arrays (see frozen_array), the smoothing
        # factors with their complements c = 1 - alpha, and the alpha
        # map's breakpoints and multipliers (np.interp would convert a
        # tuple on every call). Not fields, so the config codec and
        # asdict never see them.
        _set_frozen(self, _bias=self.bias_factor, _pre_alpha=self.mag_smooth_alpha, _alpha=alpha)
        _set_frozen(self, _pre_c=1 - self._pre_alpha, _c=1 - self._alpha)
        snr_map = self.alpha_snr_map
        xy = None if snr_map is None else tuple(map(frozen_array, zip(*snr_map)))
        object.__setattr__(self, "_map", xy)


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


def frozen_array(value) -> np.ndarray:
    """A constant (a scalar or a per-band setting) as the per-frame
    arithmetic takes it: a read-only float array, 0-d for a scalar.
    numpy takes a 0-d array as an operand in about half the time it
    takes to convert a Python float, and np.ndim still reads 0."""
    arr = np.array(value, dtype=float)
    arr.flags.writeable = False
    return arr


_ONE = frozen_array(1.0)


def _set_frozen(params, **values) -> None:
    """Set each value on the frozen dataclass params as a frozen array."""
    for name, value in values.items():
        object.__setattr__(params, name, frozen_array(value))


def smooth_rows(prev, alpha, x: np.ndarray, floor=None, c=None) -> np.ndarray:
    """First-order recursion p(m) = (1 - alpha(m)) * p(m-1) + alpha(m) * x(m).

    x is one frame (1-D) or a block, one frame per row; the result has
    its shape. A 2-D alpha gives each frame of a block its own row,
    other alphas apply to every frame. c, when given, is 1 - alpha
    built ahead for an alpha that is not 2-D. prev = None seeds
    p(0) = x(0). A floor clamps every p(m) to [floor, 1] before the
    next step.

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
            p = (_ONE - alpha if c is None else c) * prev
            p += alpha * x
        if floor is not None:
            np.maximum(p, floor, out=p)
            np.minimum(p, _ONE, out=p)
        return p
    if prev is None:  # the seeded first row, then the recursion from it
        first = smooth_rows(None, alpha, x[0], floor, c)
        if len(x) == 1:
            return first[None]
        rest = smooth_rows(first, alpha[1:] if np.ndim(alpha) == 2 else alpha, x[1:], floor, c)
        return np.concatenate([first[None], rest])
    if c is None and np.ndim(alpha) == 0:
        c = 1 - alpha
    if floor is None and np.ndim(alpha) == 0:
        return scipy.signal.lfilter([alpha, 0.0], [1.0, -c], x, axis=0, zi=[c * prev])[0]
    rows = _solve_rows(prev, alpha, x)
    if rows is None:
        rows = np.empty_like(x)
        _step_rows(prev, 1 - alpha if c is None else c, alpha * x, rows)
    if floor is not None:
        # a clamp that changes nothing can be skipped: rows before the
        # first one outside [floor, 1] are exact, and from that row on
        # the block steps again with the clamp
        bad = np.flatnonzero(np.any((rows < floor) | (rows > 1.0), axis=-1))
        if bad.size:
            m = bad[0]
            np.minimum(np.maximum(rows[m], floor), 1.0, out=rows[m])
            alpha_rest = alpha[m + 1 :] if np.ndim(alpha) == 2 else alpha
            c_rest = 1 - alpha_rest if c is None else c
            _step_rows(rows[m], c_rest, alpha_rest * x[m + 1 :], rows[m + 1 :], floor)
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
    block of float band magnitudes.
    """
    raw = state.window_min.push(band_mags)  # a fresh array
    raw *= params._bias
    return raw


def smooth_noise(raw: np.ndarray, state: NoiseState, alpha, c=None) -> np.ndarray:
    """First-order smoothing of the raw track into the noise estimate.

    N(m) = N(m-1) + alpha * (N'(m) - N(m-1)); the first frame seeds
    N directly with the raw estimate so the floor never starts at zero.
    alpha lies in [0, 1], as TrackerParams and effective_alpha give it;
    c, when given, is 1 - alpha built ahead (see smooth_rows).
    """
    seed = None if state.frame_count == 0 else state.smoothed
    out = smooth_rows(seed, alpha, raw, c=c)
    state.smoothed = out if out.ndim == 1 else out[-1]
    state.frame_count += 1 if out.ndim == 1 else len(out)
    return out


def effective_alpha(params: TrackerParams, stage1_snr_db):
    """Scale the base smoothing factor by the SNR-dependent multiplier.

    The multiplier is params.alpha_snr_map at the Stage-1 frame SNR in
    dB; params must carry a map. Lower frame SNR gives a multiplier
    >= 1 (faster tracking); the result is clamped to [0, 1].
    stage1_snr_db may be a 1-D array of frame SNRs; the result is then
    2-D with one row per frame.
    """
    base = params._alpha
    mult = np.interp(stage1_snr_db, *params._map)
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
    alpha in place. band_mags is one frame's float band magnitudes, or
    a block with one frame per row (and one frame SNR each), which
    gives the same rows as frame-by-frame calls.
    """
    if params._map is not None and stage1_snr_db is not None:
        alpha, c = effective_alpha(params, stage1_snr_db), None
    else:
        alpha, c = params._alpha, params._c
    seed = None if state.frame_count == 0 else state.presmoothed_mag
    pre = smooth_rows(seed, params._pre_alpha, band_mags, c=params._pre_c)
    state.presmoothed_mag = pre if pre.ndim == 1 else pre[-1]
    raw = track_raw(pre, params, state)
    return raw, smooth_noise(raw, state, alpha, c)

"""Per-band minimum-statistics noise estimation.

The raw estimate is the exact minimum of the (pre-smoothed) band
magnitudes over a sliding window of window_len frames, scaled by a
fixed bias factor. A first-order smoother with a per-band alpha turns
the raw track into the noise magnitude estimate; for the second stage
the alpha is scaled up at low frame SNR so the tracker follows faster
where the first stage says the signal is mostly noise.

All three smoothers (magnitude pre-smoothing, noise smoothing, and the
gain smoothing in the gain module) are the recursion in smooth_rows,
p(m) = c(m) * p(m-1) + a(m) * x(m) with c = 1 - a, written once: the
step of a lone frame. Each smoother takes its carry, its last row
(None at stream start), and hands back a copy of its new one. A block
runs once on one of two kernels, each proven to round every row as
that step does, so chunking a stream never changes a bit. A factor
that is one constant for the whole block (pre-smoothing in every
stage, and noise smoothing with a scalar alpha without an alpha map)
runs down the rows on scipy.signal.lfilter's C loop
(scipy.signal._sigtools, loaded without scipy.signal). A factor that
varies (the Stage-2 factor that follows each frame's Stage-1 SNR,
per-band alphas and both gain smoothers) is one unit lower-bidiagonal
LAPACK solve over all bands (dgttrs, from scipy.linalg._flapack,
loaded on the first solve: a lone frame never solves, and past the
warm-up the engine steps a push of fewer than pipeline.STEP_FRAMES
frames one frame at a time, so a stream fed fewer than three hops at
a time never loads it). Where a kernel meets a non-finite value, or
the gain floor's clamp changes a row, the block steps lone frames
from there.
"""

import bisect
import functools
import math
from dataclasses import dataclass

import numpy as np

from ._scipy import leaf
from .errors import ConfigError, refuse_huge_integers

_linear_filter = leaf("scipy.signal._sigtools")._linear_filter

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
        # map's breakpoints and multipliers, as arrays for a block's
        # np.interp (which would convert a tuple on every call) and as
        # tuples of floats for a lone frame's (_interp_point). Not
        # fields, so the config codec and asdict never see them.
        _set_frozen(self, _bias=self.bias_factor, _pre_alpha=self.mag_smooth_alpha, _alpha=alpha)
        _set_frozen(self, _pre_c=1 - self._pre_alpha, _c=1 - self._alpha)
        snr_map = self.alpha_snr_map
        xy = None if snr_map is None else tuple(map(frozen_array, zip(*snr_map)))
        object.__setattr__(self, "_map", xy)
        object.__setattr__(self, "_points", None if xy is None else tuple(tuple(a.tolist()) for a in xy))


class _SlidingMin:
    """Exact trailing-window minimum, O(1) per frame and band.

    Block-aligned running minimum (van Herk 1992; Gil & Werman 1993):
    with time cut into blocks of window_len frames, the window ending at
    offset i of a block is the previous block's suffix from i+1 plus the
    current block's prefix up to i. One buffer of window_len + 1 rows
    holds both: row i holds the previous block's suffix from i until
    offset i - 1 has read it, then the current block's frame i, and a
    full block turns its rows into its own suffix minima in place. The
    last row and the first suffixes are +inf, so a short stream takes
    the minimum over everything seen.
    """

    def __init__(self, window_len: int, num_bands: int):
        self.window_len = window_len
        self.buf = np.full((window_len + 1, num_bands), np.inf)
        self.pos = 0  # frames held in the current block
        self.prefix_min = np.full(num_bands, np.inf)

    def push(self, rows: np.ndarray) -> np.ndarray:
        """Append one frame (1-D) or a block of frames (one per row);
        return the window minimum of each, in the same shape."""
        buf = self.buf
        if rows.ndim == 1:
            pos = self.pos
            np.minimum(rows, self.prefix_min, out=self.prefix_min)
            out = np.minimum(self.prefix_min, buf[pos + 1])
            buf[pos] = rows
            if pos + 1 < self.window_len:  # _advance only closes a block
                self.pos = pos + 1
            else:
                self._advance(pos + 1)
            return out
        outs = []
        while len(rows):
            pos = self.pos
            seg, rows = rows[: self.window_len - pos], rows[self.window_len - pos :]
            end = pos + len(seg)
            out = np.minimum.accumulate(seg, axis=0)
            np.minimum(out, self.prefix_min, out=out)
            self.prefix_min = out[-1].copy()
            # the suffix rows this segment reads, before its frames take them
            np.minimum(out, buf[pos + 1 : end + 1], out=out)
            buf[pos:end] = seg
            outs.append(out)
            self._advance(end)
        return outs[0] if len(outs) == 1 else np.concatenate(outs)

    def _advance(self, end: int) -> None:
        """Move to block offset end, closing the block when it is full."""
        if end == self.window_len:
            suffix = self.buf[end - 1 :: -1]
            np.minimum.accumulate(suffix, axis=0, out=suffix)
            self.prefix_min.fill(np.inf)
            end = 0
        self.pos = end


@dataclass
class NoiseState:
    """Per-stream tracker state: the sliding minimum's buffer and the
    carries of the two smoothers (the last rows smooth_rows hands
    back), None until the first frame seeds them; single writer,
    movable between threads."""

    window_min: _SlidingMin
    presmoothed_mag: np.ndarray | None = None
    smoothed: np.ndarray | None = None

    @classmethod
    def for_params(cls, params: TrackerParams, num_bands: int) -> "NoiseState":
        return cls(_SlidingMin(params.window_len, num_bands))


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


def smooth_rows(prev, alpha, x: np.ndarray, floor=None, c=None):
    """First-order recursion p(m) = (1 - alpha(m)) * p(m-1) + alpha(m) * x(m);
    return (rows, carry), the carry a copy of the last row, so a caller
    may keep or write into the rows and hand the carry to its next call.

    x is one frame (1-D) or a block, one frame per row; the rows have
    its shape, and an empty block hands back prev as the carry. A 2-D
    alpha gives each frame of a block its own row (of one value, or one
    per band), other alphas apply to every frame. c, when given, is
    1 - alpha built ahead for an alpha that is not 2-D. prev = None
    seeds p(0) = x(0). A floor clamps every p(m) to [floor, 1] before
    the next step.

    The step is the lone-frame branch below, fl(fl(c * p) + fl(alpha *
    x)) with c = 1 - alpha, then the clamp. A block runs on one of two
    kernels that round each row exactly as that step does, so every
    split of a stream gives the same bits:
    - a 0-d alpha runs on lfilter's C loop (_filter_rows);
    - a factor that varies (by row, by band or both) is one unit
      lower-bidiagonal solve over all bands (_solve_rows).
    Where a kernel meets a non-finite value it reports None, and the
    block steps lone frames from its first row; with a floor, the
    kernel's rows stand up to the first one outside [floor, 1] (a
    clamp that changes nothing can be skipped), and the block steps
    lone frames from that row on. A LAPACK built to fuse the multiply
    and add would round the solve differently;
    test_block_smoother_equals_frame_by_frame would catch it.
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
        return p, p.copy()
    if not len(x):
        return np.empty_like(x), prev
    row_alpha = np.ndim(alpha) == 2
    if prev is None:  # the seeded first row, then the recursion from it
        first, carry = smooth_rows(None, alpha, x[0], floor, c)
        if len(x) == 1:
            return first[None], carry
        rest, carry = smooth_rows(carry, alpha[1:] if row_alpha else alpha, x[1:], floor, c)
        return np.concatenate([first[None], rest]), carry
    if np.ndim(alpha) == 0:
        rows = _filter_rows(prev, alpha, _ONE - alpha if c is None else c, x)
    else:
        rows = _solve_rows(prev, alpha, x)
    if rows is None:
        rows, start = np.empty_like(x), 0
    elif floor is None:
        start = len(x)
    else:  # the rows before the first one outside [floor, 1] stand
        bad = np.flatnonzero(np.any((rows < floor) | (rows > 1.0), axis=-1))
        start = bad[0] if bad.size else len(x)
    # from start on, the block steps lone frames
    carry = prev if start == 0 else rows[start - 1].copy()
    for m in range(start, len(x)):
        rows[m], carry = smooth_rows(carry, alpha[m] if row_alpha else alpha, x[m], floor, c)
    return rows, carry


def _filter_rows(prev, alpha, c, x: np.ndarray) -> np.ndarray | None:
    """The recursion over a block with one factor throughout, as
    scipy.signal.lfilter's C loop down the rows: b = [alpha],
    a = [1, -c], and the delay starts at z = c * prev.

    The loop computes y = z + alpha * x, then z = 0 * x - (-c) * y,
    which is exactly c * y while x is finite, so each row is the lone
    frame's fl(fl(c * p) + fl(alpha * x)). An infinite x makes 0 * x
    NaN, and a non-finite value runs on to its band's last row; the
    filter then returns None and smooth_rows steps lone frames instead.
    """
    rows, _ = _linear_filter(np.array((alpha,)), np.array((1.0, -c)), x, 0, (c * prev)[None])
    return rows if np.isfinite(rows[-1]).all() else None


def _solve_rows(prev, alpha, x: np.ndarray) -> np.ndarray | None:
    """The recursion over a block as one LAPACK dgttrs solve of L p = b.

    Unknowns run band by band, p(-1) = prev first, then rows 1..n. L
    has ones on its diagonal, alpha(m) - 1 below it within a band (it
    rounds to exactly -c(m)) and 0 across a band boundary; b = [prev,
    alpha * x]. dgttrs's forward step B(i+1) - DL(i) * B(i) is then
    fl(alpha * x + fl(c * p)), the lone frame's arithmetic, and its
    back-substitution subtracts 0 * p and divides by 1, which is exact
    while every p is finite. A non-finite p spreads NaN back to the
    first unknown through 0 * inf; the solve then returns None, as it
    does for systems of fewer than 3 unknowns (too small for the
    wrapper's du2), and smooth_rows steps lone frames instead. The
    result is a Fortran-ordered view.
    """
    n, bands = x.shape
    size = bands * (n + 1)
    if size < 3:
        return None
    # a column per band, so the products land there without a transpose
    b = np.empty((n + 1, bands), order="F")
    b[0] = prev
    np.multiply(alpha, x, out=b[1:])
    # the subdiagonal in the unknowns' order, as b
    dl = np.empty((n + 1, bands), order="F")
    dl[0] = 0.0
    np.subtract(alpha, 1.0, out=dl[1:])
    # the LU factor's other parts: a unit diagonal, nothing above it
    # and no row interchanges
    ones, zeros, ipiv = _unit_factor(size)
    lower, rhs = dl.T.reshape(-1)[1:], b.T.reshape(-1, 1)
    dgttrs = leaf("scipy.linalg._flapack").dgttrs
    dgttrs(lower, ones, zeros[:-1], zeros[:-2], ipiv, rhs, overwrite_b=1)
    return b[1:] if math.isfinite(b[0, 0]) else None


@functools.lru_cache(maxsize=16)
def _unit_factor(size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ones, zeros and the pivots 1..size, each size long and read-only:
    the parts of a tridiagonal LU factor that every block of that size
    shares. The solve only reads them."""
    parts = np.ones(size), np.zeros(size), np.arange(1, size + 1, dtype=np.int32)
    for part in parts:
        part.flags.writeable = False
    return parts


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


def smooth_noise(raw: np.ndarray, prev, alpha, c=None):
    """First-order smoothing of the raw track into the noise estimate;
    return (estimate, prev) with the carry for the next call.

    N(m) = N(m-1) + alpha * (N'(m) - N(m-1)) from N(-1) = prev; at
    stream start (prev None) the first frame seeds N directly with the
    raw estimate so the floor never starts at zero. alpha lies in
    [0, 1], as TrackerParams and effective_alpha give it; c, when
    given, is 1 - alpha built ahead (see smooth_rows).
    """
    return smooth_rows(prev, alpha, raw, c=c)


def effective_alpha(params: TrackerParams, stage1_snr_db):
    """Scale the base smoothing factor by the SNR-dependent multiplier.

    The multiplier is params.alpha_snr_map at the Stage-1 frame SNR in
    dB; params must carry a map. Lower frame SNR gives a multiplier
    >= 1 (faster tracking); the result is clamped to [0, 1].
    stage1_snr_db may be a 1-D array of frame SNRs; the result is then
    2-D with one row per frame.
    """
    base = params._alpha
    if getattr(stage1_snr_db, "ndim", 0):  # a block's frame SNRs
        mult = np.interp(stage1_snr_db, *params._map)[:, None]
    else:
        mult = _interp_point(float(stage1_snr_db), *params._points)
        if base.ndim == 0:
            return min(max(float(base) * mult, 0.0), 1.0)
    return np.minimum(np.maximum(mult * base, 0.0), 1.0)


def _interp_point(x: float, xs: tuple, ys: tuple) -> float:
    """np.interp(x, xs, ys) at one point, in Python floats: the
    arithmetic of numpy's C loop, slope * (x - xs[j]) + ys[j] with the
    slope (ys[j+1] - ys[j]) / (xs[j+1] - xs[j]), so the same bits
    without np.interp's wrapper, which costs a lone frame more than its
    arithmetic. test_lone_frame_interp_is_numpys checks the bits."""
    if x != x:  # NaN, as np.interp gives it
        return x
    j = bisect.bisect_right(xs, x) - 1
    if j < 0:
        return ys[0]
    if j == len(xs) - 1 or x == xs[j]:
        return ys[j]
    return (ys[j + 1] - ys[j]) / (xs[j + 1] - xs[j]) * (x - xs[j]) + ys[j]


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
    pre, state.presmoothed_mag = smooth_rows(
        state.presmoothed_mag, params._pre_alpha, band_mags, c=params._pre_c
    )
    raw = track_raw(pre, params, state)
    smoothed, state.smoothed = smooth_noise(raw, state.smoothed, alpha, c)
    return raw, smoothed

"""Dual-stage suppression pipeline.

One analysis and one synthesis per frame. Stage-1 tracks noise on the
analyzed spectrum's band magnitudes and applies its coarse gains to
the spectrum; Stage-2 pools the modified spectrum, speeds its noise
tracking up or down from Stage-1's frame SNR, and applies the fine
gains. The final per-frame bin gains (the product of both stages) are
logged so the measurement harness can replay them over the clean
components of a mix; replay shares the engine's input screen and
block framer, and runs one analysis then one synthesis per gain log.

Every layer runs once per block of frames. Of the first-order
smoothers, those with a fixed scalar factor are one lfilter call per
block; the noise smoother with a per-frame or per-band factor and the
gain smoothers are one LAPACK bidiagonal solve per block. A row's
result depends only on that row and the carried state, and both block
forms round as a frame-by-frame step does, so any chunking of a
stream gives bit-identical output.
"""

import math

import numpy as np

from . import bands, framing, gain, noise_tracking
from .config import PipelineConfig, StageConfig
from .errors import InputError, UsageError

# frame SNR (linear, 100 dB) reported for frames that carry no usable
# energy; high enough that the alpha map treats the frame as clean speech
_IDLE_FRAME_SNR = 1e10
# most frames run through the layers at once; bounds a call's memory
BLOCK_FRAMES = 256


class _StageState:
    """Tracker plus gain state for one stage of one stream."""

    def __init__(self, stage_cfg: StageConfig, num_bands: int):
        self.cfg = stage_cfg
        self.noise = noise_tracking.NoiseState.for_params(stage_cfg.tracker, num_bands)
        self.gains = gain.GainState(num_bands)

    def step(self, band_mags: np.ndarray, snr_db):
        raw_n, noise_est = noise_tracking.update(band_mags, self.cfg.tracker, self.noise, snr_db)
        snr = gain.compute_snr(band_mags, noise_est, self.cfg.gains.noise_floor_eps)
        raw_g = gain.compute_raw_gain(snr, self.cfg.gains.mu, self.cfg.gains.gain_floor)
        return gain.smooth_gain(raw_g, self.gains, self.cfg.gains), snr, raw_n, noise_est


class StreamProcessor:
    """Streaming processor for one audio stream.

    Feed arbitrary blocks through process(); each call returns the
    output samples that became available, and concatenating the
    returns of chunked calls is bit-identical to one whole-signal
    call. The input buffer is pre-seeded with frame_len + hop_len
    zeros, so the output is the input delayed by exactly the
    algorithmic latency.
    """

    def __init__(
        self,
        cfg: PipelineConfig,
        *,
        single_stage: bool = False,
        log_gains: bool = True,
        tracker_sink=None,
    ):
        self.cfg = cfg
        fcfg = cfg.frame
        self.plan = bands.build_band_plan(fcfg.fft_len, fcfg.sample_rate_hz, cfg.num_bands)
        cutoff = fcfg.hpf_cutoff_hz
        self.hpf = None if cutoff is None else framing.design_hpf(cutoff, fcfg.sample_rate_hz)
        self.hpf_state = framing.HpfState()
        self.ola = framing.OlaState.for_config(fcfg)
        self.latency_samples = fcfg.frame_len + fcfg.hop_len
        # frames whose analysis buffer still holds seeded zeros
        self.warm_frames = fcfg.frame_len // fcfg.hop_len + 1
        self.max_abs = fcfg.max_abs_sample
        self.carry = np.zeros(self.latency_samples)
        self.samples_in = 0
        self.frame_index = 0
        self.gain_log: list[np.ndarray] | None = [] if log_gains else None
        self.tracker_sink = tracker_sink
        self.stage1 = _StageState(cfg.stage1, cfg.num_bands)
        self.stage2 = None if single_stage else _StageState(cfg.stage2, cfg.num_bands)

    def process(self, samples: np.ndarray) -> np.ndarray:
        """Feed a block; return whatever output samples are now complete.

        A NaN, an infinity or a magnitude above cfg.frame.max_abs_sample
        (which could overflow a band power) raises InputError naming
        its stream index; no state changes.
        """
        x = _screen(samples, self.max_abs, self.samples_in)
        self.samples_in += x.size
        if x.size and self.hpf is not None:
            x = framing.hpf_process(x, self.hpf, self.hpf_state)
        fcfg = self.cfg.frame
        buf = np.concatenate([self.carry, x]) if x.size else self.carry
        n_frames = max(0, (buf.size - fcfg.frame_len) // fcfg.hop_len + 1)
        outs = []
        first = 0
        while first < n_frames:
            # warm-up frames form blocks of their own
            warm = self.warm_frames - self.frame_index
            n = min(BLOCK_FRAMES, n_frames - first, warm if warm > 0 else n_frames)
            outs.append(self._run_block(buf, first, n))
            first += n
        self.carry = buf[n_frames * fcfg.hop_len :].copy()
        return outs[0] if len(outs) == 1 else np.concatenate(outs or [np.zeros(0)])

    def _run_block(self, buf: np.ndarray, first: int, n: int) -> np.ndarray:
        """Process frames first..first+n-1 of buf; return n hops of output."""
        fcfg = self.cfg.frame
        spec = framing.analyze(_frames(buf, first, n, fcfg), fcfg)
        spec.bins, bin_gains = self._suppress(spec, n)
        if self.gain_log is not None:
            self.gain_log.append(bin_gains.reshape(n, -1))
        self.frame_index += n
        return framing.synthesize(spec, self.ola, fcfg)

    def _suppress(self, spec: framing.SpectralFrame, n: int):
        """Run both stages over n frames; return (output bins, bin gains)."""
        if self.frame_index < self.warm_frames:
            return spec.bins, np.ones(spec.bins.shape)
        mags1 = bands.pool_to_bands(spec, self.plan)
        g1, snr1, raw_n1, n1 = self.stage1.step(mags1, None)
        tracks = [(1, raw_n1, n1)]
        bin_gains = bands.expand_to_bins(g1, self.plan)
        spec = bands.apply_gains(spec, bin_gains)
        if self.stage2 is not None:
            mags2 = bands.pool_to_bands(spec, self.plan)
            # Stage 2 takes the Stage-1 frame SNR exactly when it maps it to alpha
            fed = self.stage2.cfg.tracker.alpha_snr_map is not None
            snr_db = self._frame_snr_db(mags1, snr1) if fed else None
            g2, _, raw_n2, n2 = self.stage2.step(mags2, snr_db)
            tracks.append((2, raw_n2, n2))
            bin_g2 = bands.expand_to_bins(g2, self.plan)
            spec.bins *= bin_g2
            if self.gain_log is not None:  # only the log needs the product
                bin_gains = bin_gains * bin_g2
        if self.tracker_sink is not None:
            for i in range(n):
                for stage, raw_n, noise_est in tracks:
                    rows = (np.reshape(raw_n, (n, -1))[i], np.reshape(noise_est, (n, -1))[i])
                    self.tracker_sink(self.frame_index + i, stage, *rows)
        return spec.bins, bin_gains

    def _frame_snr_db(self, band_mags: np.ndarray, snr: np.ndarray):
        """Energy-weighted mean of Stage-1 per-band SNR per frame, dB."""
        # weights are band energies; a silent frame has no SNR evidence
        weights = band_mags * band_mags * self.plan.widths
        total = np.add.reduce(weights, axis=-1)
        snr_lin = np.add.reduce(weights * snr, axis=-1) / (total + (total == 0.0))
        return 10.0 * np.log10(snr_lin + (snr_lin == 0.0) * _IDLE_FRAME_SNR)


def run_stream(proc: StreamProcessor, x: np.ndarray, *, latency_aligned: bool = False):
    """Feed a whole signal and a zero flush through proc; return x.size
    output samples, starting after the algorithmic latency when
    latency_aligned. An empty signal runs no frame."""
    if x.shape == (0,):
        return np.zeros(0)
    lead = proc.latency_samples if latency_aligned else 0
    # the flush yields at least x.size + 2 * latency samples in all
    flush = np.zeros(proc.latency_samples + proc.cfg.frame.frame_len)
    return np.concatenate([proc.process(x), proc.process(flush)])[lead : lead + x.size]


def process_stream(
    samples,
    cfg: PipelineConfig,
    *,
    single_stage: bool = False,
    latency_aligned: bool = False,
    tracker_sink=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Run the dual-stage pipeline over a whole signal.

    Returns (enhanced signal, per-frame bin-gain log). The output has
    the input's length; the algorithmic latency appears as a leading
    delay and the tail is flushed with zeros. With latency_aligned the
    leading delay is trimmed instead, so output sample i corresponds
    to input sample i.
    """
    x = np.asarray(samples, dtype=float)
    if x.shape == (0,):
        return np.zeros(0), np.zeros((0, cfg.frame.num_bins))
    proc = StreamProcessor(cfg, single_stage=single_stage, tracker_sink=tracker_sink)
    y = run_stream(proc, x, latency_aligned=latency_aligned)
    return y, np.concatenate(proc.gain_log)


def replay_gains(samples, gain_log: np.ndarray, cfg: PipelineConfig) -> np.ndarray:
    """Re-run the framing path applying a logged gain sequence.

    The signal goes through the same high-pass, framing and synthesis
    as the run that produced the log, but the logged bin gains are
    applied verbatim. The log must have exactly as many frames as the
    stream produces, otherwise a UsageError is raised.
    """
    return _replay(samples, [gain_log], cfg)[0]


def _replay(samples, gain_logs, cfg: PipelineConfig) -> list[np.ndarray]:
    """replay_gains for several logs from one analysis of the signal.

    A None log stands for unity gains, whose output is synthesised from
    the unmodified bins (a multiply by 1.0 is exact).
    """
    fcfg = cfg.frame
    hop, flen = fcfg.hop_len, fcfg.frame_len
    x = np.asarray(samples, dtype=float)
    logs = [None if g is None else np.asarray(g, dtype=float) for g in gain_logs]
    given = [g for g in logs if g is not None]
    if x.shape == (0,):
        if frames := [len(g) for g in given if len(g)]:
            raise UsageError(f"gain log has {frames[0]} frames, empty stream has none")
        return [np.zeros(0) for _ in logs]
    for g in given:
        if (rows := g.shape[1:]) != (fcfg.num_bins,):
            raise UsageError(f"gain log rows have shape {rows}, expected {(fcfg.num_bins,)}")
    # run_stream's stream: seeded zeros, then the high-passed signal and flush
    latency = flen + hop
    sig = np.concatenate([_screen(x, fcfg.max_abs_sample, 0), np.zeros(latency + flen)])
    if fcfg.hpf_cutoff_hz is not None:
        hpf = framing.design_hpf(fcfg.hpf_cutoff_hz, fcfg.sample_rate_hz)
        sig = framing.hpf_process(sig, hpf, framing.HpfState())
    buf = np.concatenate([np.zeros(latency), sig])
    n_frames = (buf.size - flen) // hop + 1
    for g in given:
        if len(g) != n_frames:
            raise UsageError(f"gain log has {len(g)} frames, stream produced {n_frames}")
    olas = [framing.OlaState.for_config(fcfg) for _ in logs]
    outs = [np.empty(n_frames * hop) for _ in logs]
    for first in range(0, n_frames, BLOCK_FRAMES):
        n = min(BLOCK_FRAMES, n_frames - first)
        spec = framing.analyze(_frames(buf, first, n, fcfg), fcfg)
        rows = slice(first, first + n)
        for g, ola, out in zip(logs, olas, outs):
            bins = spec.bins if g is None else spec.bins * g[rows].reshape(spec.bins.shape)
            # synthesis reads only the bins
            shadow = framing.SpectralFrame(bins=bins, power=None)
            out[first * hop : (first + n) * hop] = framing.synthesize(shadow, ola, fcfg)
    return [out[: x.size] for out in outs]


def _screen(samples, limit: float, offset: int) -> np.ndarray:
    """samples as a mono float array; a NaN, an infinity or a magnitude
    above limit raises InputError naming its stream index."""
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1:
        raise UsageError(f"expected a mono 1-D signal, got shape {x.shape}")
    # a sample over the bound squares to at least limit**2, and a rounded
    # sum of squares is at least its largest term (a NaN fails the test too)
    if not x.dot(x) < limit * limit:
        bad = np.flatnonzero(~(np.abs(x) <= limit))
        if bad.size:
            i = bad[0]
            what = f"sample magnitude above {limit:.3g}" if math.isfinite(x[i]) else "non-finite sample"
            raise InputError(f"{what} at stream index {offset + i}")
    return x


def _frames(buf: np.ndarray, first: int, n: int, fcfg) -> np.ndarray:
    """Frames first..first+n-1 of buf, one per row; a lone frame stays
    1-D, which every layer accepts, to spare numpy's broadcasting cost."""
    start, hop, flen = first * fcfg.hop_len, fcfg.hop_len, fcfg.frame_len
    if n == 1:
        return buf[start : start + flen]
    # a copy, not a strided view: over a long signal, analyze's window
    # multiply on a view's overlapping rows costs more than this copy
    hops = buf[start : start + (n - 1) * hop + flen].reshape(-1, hop)
    return np.concatenate([hops[j : j + n] for j in range(flen // hop)], axis=1)

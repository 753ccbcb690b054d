"""Dual-stage suppression pipeline.

One analysis and one synthesis per frame. Stage-1 tracks noise on the
analyzed spectrum's band magnitudes and applies its coarse gains to
the spectrum; Stage-2 pools the modified spectrum, speeds its noise
tracking up or down from Stage-1's frame SNR, and applies the fine
gains. The final per-frame bin gains (the product of both stages) are
logged so the measurement harness can replay them over the clean
components of a mix. Replay (_Shadow) frames a component as the
engine frames its input, with the engine's input screen and block
framer, and shadows one block of gain rows at a time: one analysis,
then one synthesis per output. shadow_stream runs the engine and that
replay as a two-stage pipeline, so no gain log is kept.

Every layer runs once per block of frames. The high-pass is one LAPACK
solve per block, and so is each first-order smoother: one tridiagonal
solve for a factor each frame shares across bands, one bidiagonal
solve for a factor per band (see noise_tracking). A row's result
depends only on that row and the carried state, and every block form
rounds as a sample-by-sample or frame-by-frame step does, so any
chunking of a stream gives bit-identical output.
"""

import itertools
import math
import sys
from concurrent.futures import ThreadPoolExecutor

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
    """Tracker plus gain state for one stage of one stream. step calls
    each layer by its module attribute, so a wrapper set there (a
    tracer's, a test's) sees every call."""

    def __init__(self, stage_cfg: StageConfig, num_bands: int):
        self.cfg = stage_cfg
        self.noise = noise_tracking.NoiseState.for_params(stage_cfg.tracker, num_bands)
        self.gains = gain.GainState(num_bands)

    def step(self, band_mags: np.ndarray, snr_db):
        cfg = self.cfg
        raw_n, noise_est = noise_tracking.update(band_mags, cfg.tracker, self.noise, snr_db)
        snr = gain.compute_snr(band_mags, noise_est, cfg.gains)
        raw_g = gain.compute_raw_gain(snr, cfg.gains)
        return gain.smooth_gain(raw_g, self.gains, cfg.gains), snr, raw_n, noise_est


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
        # input no frame has consumed yet is carry[:fill]; the buffer is
        # sized for the seeded zeros, and after the first call holds less
        # than a frame
        self.carry = np.zeros(self.latency_samples)
        self.fill = self.latency_samples
        self.samples_in = 0
        self.frame_index = 0
        self.gain_log: list[np.ndarray] | None = [] if log_gains else None
        self.tracker_sink = tracker_sink
        self.stage1 = _StageState(cfg.stage1, cfg.num_bands)
        # below this sum of a frame's weights (see _frame_snr_db) no
        # weight * SNR can overflow: a band's Stage-1 SNR is at most its
        # weight over eps**2, so their weighted sum is at most
        # total**2 / eps**2
        self.loud_weight = cfg.stage1.gains.noise_floor_eps * math.sqrt(sys.float_info.max) / 2
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
        hop, flen = fcfg.hop_len, fcfg.frame_len
        fill, carry = self.fill, self.carry
        end = fill + x.size
        if flen <= end < flen + hop:
            # exactly one frame (the carry is then short of one): complete
            # it in place, run it, and shift the remainder down
            take = flen - fill
            carry[fill:flen] = x[:take]
            out = self._run_block(carry[:flen], 1)
            carry[: flen - hop] = carry[hop:flen]
            if end > flen:
                carry[flen - hop : end - hop] = x[take:]
            self.fill = end - hop
            return out
        buf = np.concatenate([carry[:fill], x])
        n_frames = max(0, (end - flen) // hop + 1)
        outs = []
        first = 0
        while first < n_frames:
            # warm-up frames form blocks of their own
            warm = self.warm_frames - self.frame_index
            n = min(BLOCK_FRAMES, n_frames - first, warm if warm > 0 else n_frames)
            outs.append(self._run_block(_frames(buf, first, n, fcfg), n))
            first += n
        self.fill = end - n_frames * hop
        carry[: self.fill] = buf[n_frames * hop :]
        return outs[0] if len(outs) == 1 else np.concatenate(outs or [np.zeros(0)])

    def _run_block(self, frames: np.ndarray, n: int) -> np.ndarray:
        """Process n frames (one per row, or a lone 1-D frame); return n
        hops of output."""
        fcfg = self.cfg.frame
        spec = framing.analyze(frames, fcfg)
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
        weights = band_mags * band_mags
        weights *= self.plan.widths
        total = np.add.reduce(weights, axis=-1)
        # a lone frame's total is a scalar, which compares fastest
        if (total if total.ndim == 0 else total.max()) >= self.loud_weight:
            # weights * snr could overflow: scale each frame's weights by
            # the power of two that brings their sum into [0.5, 1), which
            # is exact and leaves the weighted mean as it was
            total, exp = np.frexp(total)
            weights = np.ldexp(weights, -exp[..., np.newaxis])
        weights *= snr
        snr_lin = np.add.reduce(weights, axis=-1) / (total + (total == 0.0))
        return 10.0 * np.log10(snr_lin + (snr_lin == 0.0) * _IDLE_FRAME_SNR)


def run_stream(proc: StreamProcessor, blocks, size: int, *, latency_aligned: bool = False):
    """Feed blocks of a signal (size samples in all) and a zero flush
    through proc; yield the output as it completes, size samples in all,
    starting after the algorithmic latency when latency_aligned. An
    empty signal runs no frame."""
    if size == 0:
        return
    lead = proc.latency_samples if latency_aligned else 0
    # the flush yields at least size + 2 * latency samples in all
    flush = np.zeros(proc.latency_samples + proc.cfg.frame.frame_len)
    for block in itertools.chain(blocks, (flush,)):
        y = proc.process(block)
        cut = min(lead, y.size)
        lead -= cut
        y = y[cut : cut + size]
        size -= y.size
        if y.size:
            yield y


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
    x = _mono(samples)
    if x.size == 0:
        return np.zeros(0), np.zeros((0, cfg.frame.num_bins))
    proc = StreamProcessor(cfg, single_stage=single_stage, tracker_sink=tracker_sink)
    y = np.concatenate(list(run_stream(proc, [x], x.size, latency_aligned=latency_aligned)))
    return y, np.concatenate(proc.gain_log)


def shadow_stream(mix, components, cfg: PipelineConfig, *, single_stage: bool = False):
    """Run the engine over mix and replay its gains over each component.

    The mix goes through a StreamProcessor BLOCK_FRAMES hops at a time,
    then the zero flush. Each time a block's gain rows come out they go
    to one worker thread, which shadows them over every component (see
    _Shadow) while the engine runs the next block. The shadow work is
    mostly transforms, which numpy runs with the interpreter lock
    released, so the two overlap. Every operation is the one
    process_stream and _replay do, in the same order, so the outputs
    are bit-identical to theirs, and no gain log is kept. Returns, per
    component, [unity reference, shadowed output], each as long as the
    mix and delayed by the algorithmic latency.
    """
    fcfg = cfg.frame
    # screened whole before the components, as by process_stream before
    # _replay, so a sample bad in both is reported at its mix index
    x = _screen(mix, fcfg.max_abs_sample, 0)
    shadows = [_Shadow(c, cfg, outputs=2) for c in components]
    proc = StreamProcessor(cfg, single_stage=single_stage)
    feed = BLOCK_FRAMES * fcfg.hop_len
    blocks = (x[i : i + feed] for i in range(0, x.size, feed))

    def replay_block(rows):
        for s in shadows:
            for gains in rows:
                s.step(len(gains), (None, gains))

    with ThreadPoolExecutor(max_workers=1) as worker:
        try:
            running = None
            # one more round after the stream ends drains the last rows
            for _ in itertools.chain(run_stream(proc, blocks, x.size), (None,)):
                rows, proc.gain_log = proc.gain_log, []
                if rows:
                    # hand this block over, then wait for the previous
                    # one, so at most one block waits while the engine runs
                    job = worker.submit(replay_block, rows)
                    if running is not None:
                        running.result()
                    running = job
            if running is not None:
                running.result()
        except BaseException:
            worker.shutdown(cancel_futures=True)
            raise
    return [s.outs for s in shadows]


def replay_gains(samples, gain_log: np.ndarray, cfg: PipelineConfig) -> np.ndarray:
    """Re-run the framing path applying a logged gain sequence.

    The signal goes through the same high-pass, framing and synthesis
    as the run that produced the log, but the logged bin gains are
    applied verbatim. The log must have exactly as many frames as the
    stream produces, otherwise a UsageError is raised.
    """
    return _replay(samples, [gain_log], cfg)[0]


def _replay(samples, gain_logs, cfg: PipelineConfig) -> list[np.ndarray]:
    """replay_gains for several logs, one _Shadow step per BLOCK_FRAMES
    frames; a None log stands for unity gains."""
    fcfg = cfg.frame
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
    shadow = _Shadow(x, cfg, outputs=len(logs))
    # frames of run_stream's stream: seeded zeros, signal, flush
    n_frames = (2 * (fcfg.frame_len + fcfg.hop_len) + x.size) // fcfg.hop_len + 1
    for g in given:
        if len(g) != n_frames:
            raise UsageError(f"gain log has {len(g)} frames, stream produced {n_frames}")
    for first in range(0, n_frames, BLOCK_FRAMES):
        block = slice(first, first + BLOCK_FRAMES)
        shadow.step(min(BLOCK_FRAMES, n_frames - first), [None if g is None else g[block] for g in logs])
    return shadow.outs


class _Shadow:
    """Replays gain rows over one signal, a block of frames at a time.

    The signal is screened, high-passed and framed as run_stream frames
    its input: seeded zeros, then the signal and the zero flush. Each
    step analyses its frames once and synthesises every output from
    those bins, each into an overlap-add state of its own. outs holds
    the outputs, as long as the signal.
    """

    def __init__(self, samples, cfg: PipelineConfig, *, outputs: int):
        fcfg = self.fcfg = cfg.frame
        self.x = _screen(samples, fcfg.max_abs_sample, 0)
        cutoff = fcfg.hpf_cutoff_hz
        self.hpf = None if cutoff is None else framing.design_hpf(cutoff, fcfg.sample_rate_hz)
        self.hpf_state = framing.HpfState()
        # the framed stream from the next frame on
        self.buf = np.zeros(fcfg.frame_len + fcfg.hop_len)
        self.read = 0  # samples of signal and flush high-passed so far
        self.done = 0  # output samples written
        self.olas = [framing.OlaState.for_config(fcfg) for _ in range(outputs)]
        self.outs = [np.empty(self.x.size) for _ in range(outputs)]

    def step(self, n: int, gains) -> None:
        """Shadow the next n frames: output k takes gains[k], n bin-gain
        rows, or where that is None unity gains, synthesised from the
        unmodified bins (a multiply by 1.0 is exact)."""
        fcfg = self.fcfg
        hop = fcfg.hop_len
        need = (n - 1) * hop + fcfg.frame_len - self.buf.size
        if need > 0:
            new = self.x[self.read : self.read + need]
            if new.size < need:  # into the flush
                new = np.concatenate([new, np.zeros(need - new.size)])
            self.read += need
            if self.hpf is not None:
                new = framing.hpf_process(new, self.hpf, self.hpf_state)
            self.buf = np.concatenate([self.buf, new])
        spec = framing.analyze(_frames(self.buf, 0, n, fcfg), fcfg)
        self.buf = self.buf[n * hop :]
        end = min(self.done + n * hop, self.x.size)
        for g, ola, out in zip(gains, self.olas, self.outs):
            bins = spec.bins if g is None else spec.bins * g.reshape(spec.bins.shape)
            # synthesis reads only the bins
            y = framing.synthesize(framing.SpectralFrame(bins=bins, power=None), ola, fcfg)
            out[self.done : end] = y[: end - self.done]
        self.done = end


def _screen(samples, limit: float, offset: int) -> np.ndarray:
    """samples as a mono float array; a NaN, an infinity or a magnitude
    above limit raises InputError naming its stream index."""
    x = _mono(samples)
    # the peak magnitude is exact and cannot overflow, and a NaN fails the
    # test too; a sum of squares would need a prescale that leaves
    # ordinary samples' squares subnormal, which is slow
    mags = np.abs(x)
    if not np.maximum.reduce(mags, initial=0.0) <= limit:
        bad = np.flatnonzero(~(mags <= limit))
        if bad.size:
            i = bad[0]
            what = f"sample magnitude above {limit:.3g}" if math.isfinite(x[i]) else "non-finite sample"
            raise InputError(f"{what} at stream index {offset + i}")
    return x


def _mono(samples) -> np.ndarray:
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1:
        raise UsageError(f"expected a mono 1-D signal, got shape {x.shape}")
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

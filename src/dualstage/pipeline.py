"""Dual-stage suppression pipeline.

One analysis and one synthesis per frame. Stage-1 tracks noise on the
analyzed spectrum's band magnitudes and applies its coarse gains to
the spectrum; Stage-2 pools the modified spectrum, speeds its noise
tracking up or down from Stage-1's frame SNR, and applies the fine
gains. The final per-frame bin gains (the product of both stages) are
logged so the measurement harness can replay them over the clean
components of a mix.

Every layer runs once per block of frames. Of the first-order
smoothers, those with a fixed scalar factor are one lfilter call per
block; the noise smoother with a per-frame or per-band factor and the
gain smoothers step through a block row by row. A row's result depends
only on that row and the carried state, so any chunking of a stream
gives bit-identical output.
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

    def step(self, band_mags: np.ndarray, snr_feed_db):
        feed = snr_feed_db if self.cfg.uses_snr_feed else None
        raw_n, noise_est = noise_tracking.update(band_mags, self.cfg.tracker, self.noise, feed)
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

    Passing replay_log turns the processor into a gain player: the
    logged per-frame bin gains are applied instead of computing any,
    which is how the metrics module shadows mix components.
    """

    def __init__(
        self,
        cfg: PipelineConfig,
        *,
        single_stage: bool = False,
        replay_log: np.ndarray | None = None,
        log_gains: bool = True,
        tracker_sink=None,
    ):
        self.cfg = cfg
        fcfg = cfg.frame
        self.plan = bands.build_band_plan(fcfg.fft_len, fcfg.sample_rate_hz, cfg.num_bands)
        if fcfg.hpf_cutoff_hz is not None:
            self.hpf = framing.design_hpf(fcfg.hpf_cutoff_hz, fcfg.sample_rate_hz)
        else:
            self.hpf = None
        self.hpf_state = framing.HpfState()
        self.ola = framing.OlaState.for_config(fcfg)
        self.latency_samples = fcfg.frame_len + fcfg.hop_len
        # frames whose analysis buffer still holds seeded zeros
        self.warm_frames = fcfg.frame_len // fcfg.hop_len + 1
        self.carry = np.zeros(self.latency_samples)
        self.samples_in = 0
        self.frame_index = 0
        self.replay_pos = 0
        self.gain_log: list[np.ndarray] | None = [] if log_gains else None
        self.tracker_sink = tracker_sink
        self.replay_log = None if replay_log is None else np.asarray(replay_log, dtype=float)
        self.stage1 = self.stage2 = None
        if replay_log is None:
            self.stage1 = _StageState(cfg.stage1, cfg.num_bands)
            self.stage2 = None if single_stage else _StageState(cfg.stage2, cfg.num_bands)
        elif (rows := self.replay_log.shape[1:]) != (fcfg.num_bins,):
            raise UsageError(f"gain log rows have shape {rows}, expected {(fcfg.num_bins,)}")

    def process(self, samples: np.ndarray) -> np.ndarray:
        """Feed a block; return whatever output samples are now complete.

        A NaN or infinity raises InputError naming its stream index; no state changes.
        """
        x = np.asarray(samples, dtype=float)
        if x.ndim != 1:
            raise UsageError(f"expected a mono 1-D signal, got shape {x.shape}")
        if not math.isfinite(x.dot(x)):  # a NaN or infinity, or an overflow
            bad = np.flatnonzero(~np.isfinite(x))
            if bad.size:
                raise InputError(f"non-finite sample at stream index {self.samples_in + bad[0]}")
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
        start, hop, flen = first * fcfg.hop_len, fcfg.hop_len, fcfg.frame_len
        # a lone frame runs 1-D, which every layer accepts, to spare
        # numpy's per-call broadcasting cost
        if n == 1:
            frames = buf[start : start + flen]
        else:
            hops = buf[start : start + (n - 1) * hop + flen].reshape(-1, hop)
            frames = np.concatenate([hops[j : j + n] for j in range(flen // hop)], axis=1)
        spec = framing.analyze(frames, fcfg)
        if self.replay_log is None:
            spec.bins, bin_gains = self._suppress(spec, n)
        else:
            bin_gains = self.replay_log[self.replay_pos : self.replay_pos + n]
            if len(bin_gains) < n:
                raise UsageError(
                    f"gain log exhausted after {len(self.replay_log)} frames; "
                    f"stream and log do not match"
                )
            self.replay_pos += n
            spec.bins *= bin_gains.reshape(spec.bins.shape)
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
            g2, _, raw_n2, n2 = self.stage2.step(mags2, self._frame_snr_db(mags1, snr1))
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


def single_stage_process(samples, cfg: PipelineConfig, **kwargs):
    """process_stream with Stage-2 disabled, for A/B comparison."""
    return process_stream(samples, cfg, single_stage=True, **kwargs)


def replay_gains(samples, gain_log: np.ndarray, cfg: PipelineConfig) -> np.ndarray:
    """Re-run the framing path applying a logged gain sequence.

    The signal goes through the same high-pass, framing and synthesis
    as the run that produced the log, but the logged bin gains are
    applied verbatim. The log must have exactly as many frames as the
    stream produces, otherwise a UsageError is raised.
    """
    x = np.asarray(samples, dtype=float)
    gain_log = np.asarray(gain_log, dtype=float)
    if x.shape == (0,):
        if len(gain_log):
            raise UsageError(f"gain log has {len(gain_log)} frames, empty stream has none")
        return np.zeros(0)
    proc = StreamProcessor(cfg, replay_log=gain_log, log_gains=False)
    y = run_stream(proc, x)
    if proc.replay_pos != len(gain_log):
        raise UsageError(
            f"gain log has {len(gain_log)} frames, stream produced {proc.replay_pos}"
        )
    return y

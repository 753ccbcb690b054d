"""Dual-stage suppression pipeline.

One analysis and one synthesis per frame (no synthesis in the
gain-rows pass). Between them the stages (StreamProcessor.stages) run
in order: Stage 1, then Stage 2 unless single_stage. Each pools the
spectrum the one before left, tracks its noise and applies its gains,
coarse in Stage 1 and fine in Stage 2, which is fed Stage 1's frame
SNR to speed its tracking up or down, one method running a stage on a
block or a lone frame (_StageState.run). The engine hands each block's
record (BlockRecord) to its caller, who keeps what it needs: its
output, its final bin gains (the stages' product), which the harness
replays over the clean components of a mix, and its noise estimates.
One framer (_Framer) owns a stream's shape: the seeded zeros, the input
screen, the high-pass, the blocks, the pieces and the zero flush. Every
push, a hop or a whole file, runs through its one buffer of at most
latency + BLOCK_FRAMES hops; a lone frame it yields is a view of that
buffer, valid until the generator resumes. The hop path skips the
generators: StreamProcessor.process runs a push that completes fewer
than STEP_FRAMES frames past the warm-up (a 4 ms hop, or an 8 or 10 ms
buffer) one frame at a time. The framer screens the whole push
(accept), high-passes it into its buffer (load) and, once each frame,
a view of the buffer, has run through every layer, shifts
them out (shift); no BlockRecord is made. Stepping a push frame by
frame gives the bits of one block, by the chunk invariance below.
metrics.spectrogram_stream
has a framer of its own, with no high-pass, and so has replay
(_Shadow), fed the engine's pieces: it shadows each block's gain rows,
one analysis, then one synthesis per output, for replay_gains (one
log) or shadow_stream (a mix's speech and noise, on a worker thread,
each block reduced to per-hop powers, _shadow_powers).

Every layer runs once per block of frames (or per frame on the hop
path), on plain arrays. The
transform pair runs on scipy.fft's pocketfft extension (see framing),
and each stage scales the block's fresh bins in place. Only Stage 1
computes the bins' powers (framing.bin_power), past the warm-up;
replay computes none. A block holds only what a later step reads: the
high-passed chunk goes once the framer's buffer holds it, the frames
once analysed, each stage's bin gains once applied (unless logged),
the powers once the last stage has pooled them and the bins once
synthesised, so a call of any length holds about one block's bins and
one set of bin gains beyond its input and output. The gain-rows pass
(gains_only) drops the bins once their powers are taken, scales only
the powers a later stage pools and synthesises nothing. Replay's last
output scales the analysed bins in place, and each stage's sliding
minimum is one buffer of window_len + 1 band rows. The high-pass runs
once per chunk on scipy.signal.lfilter's C loop, and so does each
first-order smoother whose factor is one constant; a smoother whose
factor varies by frame or band is one bidiagonal LAPACK solve per
block (see noise_tracking). A row's result depends only on that row
and the carried state, and every block form rounds as a
sample-by-sample or frame-by-frame step does, so any chunking of a
stream gives bit-identical output. The carried state is plain arrays
that each layer takes and hands back, and none shares memory with an
array a record holds.
"""

import itertools
import math
import sys
from typing import NamedTuple

import numpy as np

from . import bands, framing, gain, noise_tracking
from .config import PipelineConfig, StageConfig
from .errors import InputError, UsageError

# frame SNR (linear, 100 dB) reported for frames that carry no usable
# energy; high enough that the alpha map treats the frame as clean speech
_IDLE_FRAME_SNR = 1e10
# most frames run through the layers at once: bounds every push's
# memory, whatever its length
BLOCK_FRAMES = 256
# a push that completes fewer frames than this, past the warm-up, runs
# them one at a time (StreamProcessor.process) instead of as one block.
# Realtime audio APIs hand over such pushes: a 4 ms hop (1 frame), the
# W3C Web Audio API's 128-sample render quantum (8 ms at 16 kHz, 2
# frames) and the 10 ms chunks of WebRTC's audio processing module
# (AudioProcessing::kChunkSizeMs; 160 samples, 2 or 3 frames). A feed
# of fewer than 3 hops steps every call after its first (the warm-up
# block and at most one lone frame); a 192-sample feed's first call
# runs 2 frames as a block, a 200-sample feed 10 of its first 80
# calls. Stepped against as a block, a process call of 2 frames took
# 115-117 and 194-198 us, of 3 frames 168-178 and 201-214 us, of 4
# frames 226-237 and 217-230 us and of 5 frames 276-294 and 224-229
# us (dual stage, communication preset, thread CPU time, two runs of
# the median of 3 runs of 7 batches, on a 2-core x86-64 box; single
# stage crosses over at 4 frames too, 121-129 against 116-126 us)
STEP_FRAMES = 4
_SCREEN_LEN = 4096  # samples _first_bad reads at a time: 32 KiB temporaries, under glibc's mmap threshold
_F64 = np.dtype(float)  # _mono hands a 1-D array of it on as it is: every hop calls it


class _Framer:
    """The shape of one stream: latency seeded zeros, the signal fed to
    push piece by piece, then flush_len zeros, which bring out at least
    size + 2 * latency samples in all. push runs a piece of any length
    through one buffer, BLOCK_FRAMES hops at a time, so the buffer holds
    at most latency + BLOCK_FRAMES * hop_len samples (about two frames
    hop by hop). It yields blocks (frames, n), copies (see _frames) of at
    most BLOCK_FRAMES, the warm_frames frames of seeded zeros in blocks of
    their own; a lone frame is a view of the buffer, valid until the
    generator resumes. frames counts frames run: the running block's
    first. A caller may instead run a push of at most feed samples
    itself: accept, load, run the buffer's frames, count them and shift
    them out."""

    def __init__(self, fcfg: framing.FrameConfig):
        self.fcfg = fcfg
        cutoff = fcfg.hpf_cutoff_hz
        self.hpf = None if cutoff is None else framing.design_hpf(cutoff, fcfg.sample_rate_hz)
        self.zi = None  # the high-pass's carry (see framing.hpf_process)
        self.latency = fcfg.frame_len + fcfg.hop_len
        self.warm_frames = fcfg.frame_len // fcfg.hop_len + 1
        self.flush_len = self.latency + fcfg.frame_len
        self.feed = BLOCK_FRAMES * fcfg.hop_len
        self.buf, self.fill = np.zeros(self.latency), self.latency  # buf[:fill]: input to frame
        self.samples_in = 0
        self.frames = 0

    def push(self, samples):
        """Screen a piece (see accept), then high-pass, buffer and frame
        it a chunk at a time; yield its blocks."""
        feed, hop, flen = self.feed, self.fcfg.hop_len, self.fcfg.frame_len
        x = _mono(samples)
        # chunks of at most BLOCK_FRAMES hops, at least one (a first
        # completes the seeded zeros' frames)
        chunks = [x] if x.size <= feed else [x[at : at + feed] for at in range(0, x.size, feed)]
        self.accept(x)
        for chunk in chunks:
            buf = self.load(chunk)
            del chunk  # spent: buf holds it
            n_frames = self.completes(0)
            first = 0
            while first < n_frames:
                warm = self.warm_frames - self.frames
                n = n_frames - first if warm <= 0 else min(n_frames - first, warm, BLOCK_FRAMES)
                start = first * hop
                yield (buf[start : start + flen] if n == 1 else _frames(buf, start, n, hop, flen)), n
                self.frames += n
                first += n
            self.shift(n_frames)

    def accept(self, x: np.ndarray) -> None:
        """Screen a whole piece x (see _first_bad) before any state
        changes, then count its samples: a NaN, an infinity or a
        magnitude above max_abs_sample raises InputError naming its
        stream index."""
        if bad := _first_bad(x, self.fcfg.max_abs_sample):
            raise InputError(f"{bad[1]} at stream index {self.samples_in + bad[0]}")
        self.samples_in += x.size

    def load(self, chunk: np.ndarray) -> np.ndarray:
        """High-pass an accepted chunk of at most feed samples into the
        buffer; return the buffer, whose first frames run next (see
        shift)."""
        if self.hpf is not None:
            chunk, self.zi = framing.hpf_process(chunk, self.hpf, self.zi)
        buf, fill = self.buf, self.fill
        end = self.fill = fill + chunk.size
        if end > buf.size:  # at most latency + feed, as fill <= latency
            grown = np.empty(end)
            grown[:fill] = buf[:fill]
            buf = self.buf = grown
        buf[fill:end] = chunk
        return buf

    def shift(self, n: int) -> None:
        """Shift the hops of n frames run out of the buffer."""
        cut = n * self.fcfg.hop_len
        self.fill -= cut
        self.buf[: self.fill] = self.buf[cut : cut + self.fill]

    def completes(self, size: int, fill: int | None = None) -> int:
        """Frames a push of size samples completes after fill samples (default: those buffered)."""
        fill = self.fill if fill is None else fill
        return max(0, (fill + size - self.fcfg.frame_len) // self.fcfg.hop_len + 1)

    def pieces(self, x: np.ndarray):
        """x in the pieces a stream is fed in, BLOCK_FRAMES hops each."""
        return (x[i : i + self.feed] for i in range(0, x.size, self.feed))

    def stream(self, x: np.ndarray):
        """The pieces of x, then the zero flush; none for an empty x."""
        yield from self.pieces(x)
        if x.size:
            yield np.zeros(self.flush_len)

    def frames_of(self, size: int) -> int:
        """Frames in the stream of a size-sample signal; none if empty."""
        return self.completes(size + self.flush_len, self.latency) if size else 0


class _StageState:
    """One stage of one stream: tracker state, gain carry and its place
    in the sequence, set from later, the next stage's config (None if
    last): it feeds later its frame SNR when later maps that to alpha.
    run calls each layer by its module attribute, so a wrapper set
    there (a tracer's, a test's) sees every call."""

    def __init__(self, stage_cfg: StageConfig, plan: bands.BandPlan, later: StageConfig | None):
        self.cfg, self.plan = stage_cfg, plan
        self.noise = noise_tracking.NoiseState.for_params(stage_cfg.tracker, plan.num_bands)
        self.prev_gain = None
        self.last = later is None
        self.feeds = not self.last and later.tracker.alpha_snr_map is not None
        # below this sum of a frame's weights (see frame_snr_db) no
        # weight * SNR can overflow: a band's SNR is at most its weight
        # over eps**2, so their weighted sum is at most total**2 / eps**2
        self.loud_weight = stage_cfg.gains.noise_floor_eps * math.sqrt(sys.float_info.max) / 2

    def run(self, band_mags: np.ndarray, snr_db, bins, power):
        """Track, gain and smooth a frame's or a block's pooled powers fed
        snr_db; scale bins, and power unless last, in place (either may
        be None). Returns (the next stage's SNR feed or None, bin gains,
        raw noise, smoothed noise)."""
        cfg, plan = self.cfg, self.plan
        raw_n, noise_est = noise_tracking.update(band_mags, cfg.tracker, self.noise, snr_db)
        snr = gain.compute_snr(band_mags, noise_est, cfg.gains)
        g, self.prev_gain = gain.smooth_gain(gain.compute_raw_gain(snr, cfg.gains), self.prev_gain, cfg.gains)
        snr_db = self.frame_snr_db(band_mags, snr, plan.widths) if self.feeds else None
        bin_g = bands.expand_to_bins(g, plan)
        bands.apply_gains(bins, None if self.last else power, bin_g)
        return snr_db, bin_g, raw_n, noise_est

    def frame_snr_db(self, band_mags: np.ndarray, snr: np.ndarray, widths: np.ndarray):
        """Energy-weighted mean of this stage's per-band SNR per frame, dB."""
        # weights are band energies; a silent frame has no SNR evidence
        weights = band_mags * band_mags
        weights *= widths
        total = np.add.reduce(weights, axis=-1)
        # a lone frame's total is a scalar, which compares fastest
        if (total if total.ndim == 0 else total.max()) >= self.loud_weight:
            # weights * snr could overflow: scale each frame's weights by
            # the power of two that brings their sum into [0.5, 1), which
            # is exact and leaves the weighted mean as it was
            total, exp = np.frexp(total)
            weights = np.ldexp(weights, -exp[..., np.newaxis])
        weights *= snr
        if weights.ndim == 1:
            # a lone frame's tail in Python floats: the same IEEE
            # arithmetic without numpy's scalar overhead. np.log10 stays:
            # math.log10 rounds some inputs differently
            total = float(total)
            snr_lin = float(np.add.reduce(weights)) / (total + (total == 0.0))
            return 10.0 * np.log10(snr_lin or _IDLE_FRAME_SNR)
        snr_lin = np.add.reduce(weights, axis=-1) / (total + (total == 0.0))
        return 10.0 * np.log10(snr_lin + (snr_lin == 0.0) * _IDLE_FRAME_SNR)


class BlockRecord(NamedTuple):
    """One engine block of n frames, as StreamProcessor.blocks yields it.

    frame is the index of its first frame and out its n hops of output,
    or None with gains_only. gains holds its (n, bins) final bin gains
    (unity in the warm-up) with log_gains or gains_only, else None.
    noise holds, per stage of StreamProcessor.stages in order (none in
    the warm-up), its (raw, smoothed) noise estimates, (n, bands) each.
    All are arrays the engine made for this block and neither writes
    nor reads again, so a caller may keep them or write into them.
    """

    frame: int
    out: np.ndarray | None
    gains: np.ndarray | None
    noise: tuple


class StreamProcessor:
    """Streaming processor for one audio stream.

    Feed arbitrary blocks through process(); each call returns the
    output samples that became available, and concatenating the
    returns of chunked calls is bit-identical to one whole-signal
    call. The input buffer is pre-seeded with frame_len + hop_len
    zeros, so the output is the input delayed by exactly the
    algorithmic latency. blocks() runs the same engine and yields each
    block's BlockRecord, with its bin gains when log_gains is set.
    Neither keeps anything per frame. stages lists the stages that run:
    Stage 1, then Stage 2 unless single_stage. gains_only makes a
    gain-rows pass, which evaluate_condition runs: blocks() yields the
    bin gains and no output, and process() raises UsageError.
    """

    def __init__(
        self,
        cfg: PipelineConfig,
        *,
        single_stage: bool = False,
        log_gains: bool = False,
        gains_only: bool = False,
    ):
        self.cfg = cfg
        fcfg = cfg.frame
        self.plan = bands.build_band_plan(fcfg.fft_len, fcfg.sample_rate_hz, cfg.num_bands)
        self.framer = _Framer(fcfg)
        self.tail = None  # the overlap-add's carry (see framing.synthesize)
        self.latency_samples = self.framer.latency
        self.gains_only = gains_only
        self.log_gains = log_gains or gains_only
        stages = (cfg.stage1,) if single_stage else (cfg.stage1, cfg.stage2)
        after = (*stages[1:], None)  # each stage's next, None for the last
        self.stages = [_StageState(stage, self.plan, later) for stage, later in zip(stages, after)]

    frame_index = property(lambda self: self.framer.frames, doc="Frames run so far.")

    def process(self, samples: np.ndarray) -> np.ndarray:
        """Feed a block; return whatever output samples are now complete.

        A NaN, an infinity or a magnitude above cfg.frame.max_abs_sample
        (which could overflow a band power) raises InputError naming
        its stream index; no state changes.

        A push that completes fewer than STEP_FRAMES frames, once the
        warm-up is done, runs them one at a time through every layer
        (_StageState.run for each stage), with no generator and no
        BlockRecord; a larger push runs as blocks (see blocks). Both
        give the same bits.
        """
        if self.gains_only:
            raise UsageError("a gains_only processor makes no output; read its blocks()")
        x = _mono(samples)
        fcfg, plan, framer = self.cfg.frame, self.plan, self.framer
        n = framer.completes(x.size)
        if n < STEP_FRAMES and framer.frames >= framer.warm_frames:
            # a small push past the warm-up: each frame, a view of the
            # framer's buffer, through every layer in turn
            framer.accept(x)
            buf = framer.load(x)
            hop, flen = fcfg.hop_len, fcfg.frame_len
            outs = []
            for at in range(0, n * hop, hop):
                bins = framing.analyze(buf[at : at + flen], fcfg)
                power, snr_db = framing.bin_power(bins), None
                for stage in self.stages:
                    snr_db = stage.run(bands.pool_to_bands(power, plan), snr_db, bins, power)[0]
                out, self.tail = framing.synthesize(bins, self.tail, fcfg)
                outs.append(out)
            framer.frames += n
            framer.shift(n)
            return outs[0] if n == 1 else np.concatenate(outs) if outs else np.zeros(0)
        y, pos = np.empty(n * fcfg.hop_len), 0
        for record in self.blocks(x):
            y[pos : pos + record.out.size] = record.out
            pos += record.out.size
        return y

    def blocks(self, samples: np.ndarray):
        """Feed a block of samples, as process does; yield the
        BlockRecord of each engine block it completes. Run the
        generator to its end before feeding more.

        The stages run in list order over each block's bins in place
        (_StageState.run), each handing the next its frame SNR if that
        one is fed. Each array goes as soon as nothing reads it again,
        which is why the powers are pooled here: a name of the stage's
        would keep them alive through the last stage's call."""
        fcfg, plan, log, framer = self.cfg.frame, self.plan, self.log_gains, self.framer
        for frames, n in framer.push(samples):
            first = framer.frames
            bins = framing.analyze(frames, fcfg)
            del frames  # spent: the layers below read the spectrum
            # the stages run past the warm-up, on the bins' powers
            power = None if first < framer.warm_frames else framing.bin_power(bins)
            if self.gains_only:
                bins = None  # no output: the powers are all the stages read
            gains, noise, snr_db = None, [], None
            if power is not None:
                for stage in self.stages:
                    mags = bands.pool_to_bands(power, plan)
                    if stage.last:
                        power = None  # pooled: nothing reads it again
                    snr_db, bin_g, raw_n, noise_est = stage.run(mags, snr_db, bins, power)
                    noise.append((raw_n.reshape(n, -1), noise_est.reshape(n, -1)))
                    if log:  # only the caller's gains need the product
                        gains = bin_g if gains is None else np.multiply(gains, bin_g, out=gains)
                    del bin_g
            if log:  # unity in the warm-up
                gains = np.ones((n, fcfg.num_bins)) if gains is None else gains.reshape(n, -1)
            out = None
            if bins is not None:
                out, self.tail = framing.synthesize(bins, self.tail, fcfg)
            del bins  # spent: the caller reads the record alone
            yield BlockRecord(first, out, gains, tuple(noise))


def run_stream(proc: StreamProcessor, blocks, size: int, *, latency_aligned: bool = False):
    """Feed blocks of a signal (size samples in all) and the zero flush
    through proc; yield the BlockRecord of each engine block, its out
    cut so that the outs hold size samples in all, starting after the
    algorithmic latency when latency_aligned. An empty signal runs no
    frame."""
    if size == 0:
        return
    lead = proc.latency_samples if latency_aligned else 0
    for block in itertools.chain(blocks, (np.zeros(proc.framer.flush_len),)):
        for record in proc.blocks(block):
            y = record.out
            cut = min(lead, y.size)
            lead -= cut
            y = y[cut : cut + size]
            size -= y.size
            yield record._replace(out=y)


def process_stream(
    samples, cfg: PipelineConfig, *, single_stage: bool = False, latency_aligned: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Run the dual-stage pipeline over a whole signal.

    Returns (enhanced signal, per-frame bin-gain log). The output has
    the input's length; the algorithmic latency appears as a leading
    delay and the tail is flushed with zeros. With latency_aligned the
    leading delay is trimmed instead, so output sample i corresponds
    to input sample i. The signal is pushed whole, and the output and
    the log are written into arrays of their final size, so a call
    holds little more than what it returns.
    """
    x = _mono(samples)
    proc = StreamProcessor(cfg, single_stage=single_stage, log_gains=True)
    y = np.empty(x.size)
    log = np.empty((proc.framer.frames_of(x.size), cfg.frame.num_bins))
    pos = 0
    for record in run_stream(proc, [x], x.size, latency_aligned=latency_aligned):
        y[pos : pos + record.out.size] = record.out
        pos += record.out.size
        log[record.frame : record.frame + len(record.gains)] = record.gains
    return y, log


def shadow_stream(pieces, size: int, cfg: PipelineConfig) -> np.ndarray:
    """Replay gain rows over a mix's speech and noise; return their
    per-hop powers (see _shadow_powers).

    pieces yields (speech, noise, rows, first): a piece of each
    component, in _Framer.stream's pieces of size samples, and gain
    rows from frame first on (None if the piece completes no frame).
    One worker thread shadows each (see _Shadow) and reduces its
    blocks' outputs to powers while the caller makes the next: the
    shadow work is mostly transforms, which scipy's pocketfft extension
    runs with the interpreter lock released (two threads of 256-frame
    analyze and synthesize reached 1.0-2.6 times one thread's
    throughput on a loaded 2-core box, and 1.3-2.1 on numpy's
    transforms). The only arrays kept are the powers, 6 per hop.
    """
    # here, not at the top: only evaluation pays for concurrent.futures
    # and what it imports (logging and queue among them)
    from concurrent.futures import ThreadPoolExecutor

    hop = cfg.frame.hop_len
    shadows = [_Shadow(cfg, size, outputs=2) for _ in range(2)]
    powers = np.empty((6, size // hop))
    done = 0  # hops reduced

    def replay(speech, noise, rows, first):
        nonlocal done
        # both shadows frame the same pieces, so their blocks pair up;
        # strict runs the second push to its end after the first's
        rows = None if rows is None else rows[shadows[0].framer.frames - first :]
        pushes = [s.push(part, (None, rows)) for s, part in zip(shadows, (speech, noise))]
        for speech, noise in zip(*pushes, strict=True):
            block = _shadow_powers(speech, noise, hop)
            powers[:, done : done + block.shape[1]] = block
            done += block.shape[1]

    with ThreadPoolExecutor(max_workers=1) as worker:
        try:
            job = None
            for piece in pieces:
                # hand this piece over, then wait for the previous one,
                # so at most one piece waits while the next is made
                job, last = worker.submit(replay, *piece), job
                if last is not None:
                    last.result()
            if job is not None:
                job.result()
        except BaseException:
            worker.shutdown(cancel_futures=True)
            raise
    return powers


def _shadow_powers(speech, noise, hop: int) -> np.ndarray:
    """Per-hop powers of a mix's speech and noise, each given as
    [unity reference, shadowed output]: one row each of the mean
    square of every full hop of the speech reference, the speech
    output, the noise reference, the noise output, the references' sum
    and the outputs' sum (the mix before and after processing). A row
    depends only on its hop, so the rows of hop-aligned pieces joined
    are the rows of the whole signals."""
    rows = [_block_power(y, hop) for y in (*speech, *noise)]
    rows += [_block_power(s + n, hop) for s, n in zip(speech, noise)]
    return np.array(rows)


def _block_power(x: np.ndarray, block_len: int) -> np.ndarray:
    """Mean square of each full block_len-sample block of x; a trailing
    partial block is left out."""
    blocks = x[: x.size - x.size % block_len].reshape(-1, block_len)
    return np.mean(blocks * blocks, axis=1)


def replay_gains(samples, gain_log: np.ndarray, cfg: PipelineConfig) -> np.ndarray:
    """Re-run the framing path applying a logged gain sequence.

    The signal goes through the same high-pass, framing and synthesis
    as the run that produced the log, but the logged bin gains are
    applied verbatim. A log of other than as many frames as the stream
    produces, or with a complex or non-finite gain, raises UsageError.
    """
    x = _mono(samples)
    shadow = _Shadow(cfg, x.size, outputs=1)
    log = _gain_log(gain_log, shadow.framer.frames_of(x.size), cfg)
    y = np.empty(x.size)
    pos = 0
    for piece in shadow.framer.stream(x):
        for (out,) in shadow.push(piece, [log[shadow.framer.frames :]]):
            y[pos : pos + out.size] = out
            pos += out.size
    return y


def _gain_log(gain_log, n_frames: int, cfg: PipelineConfig) -> np.ndarray:
    """gain_log as a float array of n_frames rows of bin gains; any
    other shape, or a complex or non-finite gain, raises UsageError."""
    g = _real(gain_log, "gain log")
    if g.size and (rows := g.shape[1:]) != (cfg.frame.num_bins,):
        raise UsageError(f"gain log rows have shape {rows}, expected {(cfg.frame.num_bins,)}")
    if len(g) != n_frames:
        raise UsageError(f"gain log has {len(g)} frames, stream produced {n_frames}")
    if not (finite := np.isfinite(g).all(axis=-1)).all():
        raise UsageError(f"gain log frame {np.argmin(finite)} holds a non-finite gain")
    return g


class _Shadow:
    """Replays gain rows over a size-sample signal fed to push in the
    engine's pieces, which a framer of its own frames as the engine's
    does. Each block is analysed once and every output synthesised
    from those bins with an overlap-add tail of its own; push hands
    each block's outputs to its caller, cut so that they hold size
    samples each in all, and keeps none of them."""

    def __init__(self, cfg: PipelineConfig, size: int, *, outputs: int):
        fcfg = self.fcfg = cfg.frame
        self.framer = _Framer(fcfg)
        self.left = size  # output samples still to hand over
        self.tails = [None] * outputs  # each output's overlap-add carry

    def push(self, piece: np.ndarray, gains):
        """Shadow the frames piece completes; yield each block's outputs,
        one array per output. Output k takes gains[k]'s rows from the
        piece's first frame on, or where that is None unity gains (a
        multiply by 1.0 is exact). Run the generator to its end before
        pushing more."""
        row = 0
        for frames, n in self.framer.push(piece):
            ys = self._outputs(frames, [None if g is None else g[row : row + n] for g in gains])
            self.left -= ys[0].size
            row += n
            yield ys

    def _outputs(self, frames, gains) -> list[np.ndarray]:
        """One block's outputs; its spectra are freed on return, so a
        caller holding a block holds only its outputs. The last output
        scales the bins in place, since no output reads them after it."""
        fcfg = self.fcfg
        bins = framing.analyze(frames, fcfg)
        ys = []
        last = len(gains) - 1
        for k, g in enumerate(gains):
            spectrum = bins
            if g is not None:
                spectrum = np.multiply(bins, g.reshape(bins.shape), out=bins if k == last else None)
            y, self.tails[k] = framing.synthesize(spectrum, self.tails[k], fcfg)
            ys.append(y[: self.left])
        return ys


def _first_bad(x: np.ndarray, limit: float) -> tuple[int, str] | None:
    """The index of x's first NaN or sample above limit in magnitude (an
    infinity), and what it is, or None. A chunk's peak magnitude flags
    it: exact, it cannot overflow and fails a NaN."""
    for at in range(0, x.size, _SCREEN_LEN):
        chunk = x[at : at + _SCREEN_LEN]
        if not np.maximum.reduce(np.abs(chunk), initial=0.0) <= limit:
            i = np.flatnonzero(~(np.abs(chunk) <= limit))[0]
            return at + i, f"sample magnitude above {limit:.3g}" if math.isfinite(chunk[i]) else "non-finite sample"
    return None


def _mono(samples, what: str = "samples") -> np.ndarray:
    if type(samples) is np.ndarray and samples.dtype is _F64 and samples.ndim == 1:
        return samples
    x = _real(samples, what)
    if x.ndim != 1:
        raise UsageError(f"{what} must be a mono 1-D signal, got shape {x.shape}")
    return x


def _real(values, what: str) -> np.ndarray:
    """values as a float array; ragged, complex or non-numeric ones raise UsageError."""
    try:
        x = np.asarray(values)
    except ValueError as exc:  # a ragged nesting
        raise UsageError(f"{what} must be a regular array, not a ragged nesting ({exc})") from None
    if x.dtype.kind not in "biuf":
        raise UsageError(f"{what} must be real numbers, got dtype {x.dtype}")
    return x.astype(float, copy=False)


def _frames(buf: np.ndarray, start: int, n: int, hop: int, flen: int) -> np.ndarray:
    """n frames of buf from sample start on, one per row."""
    # a copy, not a strided view: over a long signal, analyze's window
    # multiply on a view's overlapping rows costs more than this copy
    hops = buf[start : start + (n - 1) * hop + flen].reshape(-1, hop)
    return np.concatenate([hops[j : j + n] for j in range(flen // hop)], axis=1)

"""Dual-stage suppression pipeline.

One analysis and one synthesis per frame (no synthesis in the
gain-rows pass). Between them the stages (StreamProcessor.stages) run
in order: Stage 1, then Stage 2 unless single_stage. Each pools the
spectrum the one before left, tracks its noise and applies its gains,
coarse in Stage 1 and fine in Stage 2, which is fed Stage 1's frame
SNR to speed its tracking up or down. The engine hands each block's
record (BlockRecord) to its caller, who keeps what it needs: its
output, its final bin gains (the stages' product), which the harness
replays over the clean components of a mix, and its noise estimates.
One framer (_Framer) owns a stream's shape: the seeded zeros, the input
screen, the high-pass, the blocks, the pieces and the zero flush. Every
push, a hop or a whole file, runs through its one buffer of at most
latency + BLOCK_FRAMES hops; a lone frame it yields is a view of that
buffer, valid until the generator resumes. metrics.spectrogram_stream
has a framer of its own, with no high-pass, and so has replay
(_Shadow), fed the engine's pieces: it shadows each block's gain rows,
one analysis, then one synthesis per output, for replay_gains (one
log) or shadow_stream (a mix's speech and noise, on a worker thread,
each block reduced to per-hop powers, _shadow_powers).

Every layer runs once per block of frames, on plain arrays. The
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
_F64 = np.dtype(float)  # _mono hands a 1-D array of it on as it is: every hop calls it twice


class _Framer:
    """The shape of one stream: latency seeded zeros, the signal fed to
    push piece by piece, then flush_len zeros, which bring out at least
    size + 2 * latency samples in all. push runs a piece of any length
    through one buffer, BLOCK_FRAMES hops at a time, so the buffer holds
    at most latency + BLOCK_FRAMES * hop_len samples (about two frames
    hop by hop). It yields blocks (frames, n), copies (see _frames) of at
    most BLOCK_FRAMES, the warm_frames frames of seeded zeros in blocks of
    their own; a lone frame is a view of the buffer, valid until the
    generator resumes. frames counts frames run: the running block's first."""

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
        """Screen a piece, then high-pass, buffer and frame it a chunk at
        a time; yield its blocks. A NaN, an infinity or a magnitude above
        max_abs_sample raises InputError naming its stream index, before
        any state changes."""
        feed, hop, flen = self.feed, self.fcfg.hop_len, self.fcfg.frame_len
        x = _mono(samples)
        # chunks of at most BLOCK_FRAMES hops, at least one (a first completes
        # the seeded zeros' frames); their peak magnitude is exact, cannot
        # overflow and fails a NaN, where a sum of squares needs a prescale
        limit = self.fcfg.max_abs_sample
        chunks = [x] if x.size <= feed else [x[at : at + feed] for at in range(0, x.size, feed)]
        for chunk in chunks:
            if not np.maximum.reduce(np.abs(chunk), initial=0.0) <= limit:
                i = np.flatnonzero(~(np.abs(x) <= limit))[0]
                what = f"sample magnitude above {limit:.3g}" if math.isfinite(x[i]) else "non-finite sample"
                raise InputError(f"{what} at stream index {self.samples_in + i}")
        self.samples_in += x.size
        for chunk in chunks:
            if self.hpf is not None:
                chunk, self.zi = framing.hpf_process(chunk, self.hpf, self.zi)
            buf, fill = self.buf, self.fill
            end = fill + chunk.size
            if end > buf.size:  # at most latency + feed, as fill <= latency
                grown = np.empty(end)
                grown[:fill] = buf[:fill]
                buf = self.buf = grown
            buf[fill:end] = chunk
            del chunk  # spent: buf holds it
            n_frames = (end - flen) // hop + 1 if end >= flen else 0
            first = 0
            while first < n_frames:
                warm = self.warm_frames - self.frames
                n = n_frames - first if warm <= 0 else min(n_frames - first, warm, BLOCK_FRAMES)
                start = first * hop
                yield (buf[start : start + flen] if n == 1 else _frames(buf, start, n, hop, flen)), n
                self.frames += n
                first += n
            self.fill = end - n_frames * hop
            buf[: self.fill] = buf[n_frames * hop : end]

    def completes(self, size: int) -> int:
        """Frames a push of size samples completes."""
        return max(0, (self.fill + size - self.fcfg.frame_len) // self.fcfg.hop_len + 1)

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
        end = self.latency + size + self.flush_len
        return (end - self.fcfg.frame_len) // self.fcfg.hop_len + 1 if size else 0


class _StageState:
    """One stage of one stream: tracker state, gain carry, and whether
    it is fed the frame SNR of the stage before (its tracker maps that
    to alpha). step calls each layer by its module attribute, so a
    wrapper set there (a tracer's, a test's) sees every call."""

    def __init__(self, stage_cfg: StageConfig, num_bands: int):
        self.cfg = stage_cfg
        self.noise = noise_tracking.NoiseState.for_params(stage_cfg.tracker, num_bands)
        self.prev_gain = None
        self.fed = stage_cfg.tracker.alpha_snr_map is not None
        # below this sum of a frame's weights (see frame_snr_db) no
        # weight * SNR can overflow: a band's SNR is at most its weight
        # over eps**2, so their weighted sum is at most total**2 / eps**2
        self.loud_weight = stage_cfg.gains.noise_floor_eps * math.sqrt(sys.float_info.max) / 2

    def step(self, band_mags: np.ndarray, snr_db):
        cfg = self.cfg
        raw_n, noise_est = noise_tracking.update(band_mags, cfg.tracker, self.noise, snr_db)
        snr = gain.compute_snr(band_mags, noise_est, cfg.gains)
        raw_g = gain.compute_raw_gain(snr, cfg.gains)
        g, self.prev_gain = gain.smooth_gain(raw_g, self.prev_gain, cfg.gains)
        return g, snr, raw_n, noise_est

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
        self.stages = [_StageState(stage, cfg.num_bands) for stage in stages]
        self.pairs = list(zip(self.stages, (*self.stages[1:], None)))  # (stage, next or None)

    frame_index = property(lambda self: self.framer.frames, doc="Frames run so far.")

    def process(self, samples: np.ndarray) -> np.ndarray:
        """Feed a block; return whatever output samples are now complete.

        A NaN, an infinity or a magnitude above cfg.frame.max_abs_sample
        (which could overflow a band power) raises InputError naming
        its stream index; no state changes.
        """
        if self.gains_only:
            raise UsageError("a gains_only processor makes no output; read its blocks()")
        x = _mono(samples)
        size = self.framer.completes(x.size) * self.cfg.frame.hop_len
        y, pos = None, 0
        for record in self.blocks(x):
            if record.out.size == size:  # one block makes it all, in an array of its own
                y = record.out
            else:
                y = np.empty(size) if y is None else y
                y[pos : pos + record.out.size] = record.out
                pos += record.out.size
        return np.zeros(0) if y is None else y

    def blocks(self, samples: np.ndarray):
        """Feed a block of samples, as process does; yield the
        BlockRecord of each engine block it completes. Run the
        generator to its end before feeding more.

        The stages run in list order over each block's bins in place,
        each handing the next its frame SNR if that one is fed. Each
        array goes as soon as nothing reads it again, which is why the
        stages run here and not in a method of their own: a caller's
        name would keep an array alive through the call."""
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
                for stage, later in self.pairs:
                    mags = bands.pool_to_bands(power, plan)
                    if later is None:
                        power = None  # pooled: nothing reads it again
                    g, snr, raw_n, noise_est = stage.step(mags, snr_db)
                    noise.append((raw_n.reshape(n, -1), noise_est.reshape(n, -1)))
                    # the next stage takes this one's frame SNR exactly when it maps it to alpha
                    fed = later is not None and later.fed
                    snr_db = stage.frame_snr_db(mags, snr, plan.widths) if fed else None
                    bin_g = bands.expand_to_bins(g, plan)
                    bands.apply_gains(bins, power, bin_g)
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

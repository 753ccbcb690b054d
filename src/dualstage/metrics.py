"""Objective measurements for the suppression pipeline.

SNR improvement is measured by gain shadowing: the per-frame bin gains
of a processed mix are replayed separately over the scaled speech and
noise components, which decomposes the enhanced output exactly (the
pipeline is linear in its input once the gains are fixed); one
analysis per component serves both its unity-gain reference and its
shadowed output. Both entry points hand the components' pieces and
their gain rows to pipeline.shadow_stream, which replays them on a
second thread and reduces each block's outputs to per-hop powers, so
neither keeps an array as long as the signal: evaluate_condition
hands over the gains of each block record (StreamProcessor.blocks) as
the engine runs a gain-rows pass (no output) over the mix it forms
piece by piece, and
snri_by_gain_shadowing a given log. Speech level is taken over
speech-active hops, noise level over the speech-free hops, each the
mean of those hops' mean squares, as a desk-scale stand-in for a
calibrated measurement front end. spectrogram_stream frames its signal
in the engine framer's pieces.
"""

import dataclasses
import math
from dataclasses import dataclass, fields

import numpy as np

from . import framing, pipeline
from .config import PipelineConfig
from .errors import InputError, UsageError

# reductions are reported within +/- this bound so digital silence
# cannot produce an infinite ratio
REDUCTION_CAP_DB = 120.0

# spectrogram rows floor each bin's power at this level, so a silent
# bin reads a finite one
SPECTROGRAM_FLOOR_DB = -120.0

# block length for the speech-activity rule, seconds; one analysis
# frame at the default 16 kHz setup
ACTIVITY_BLOCK_S = 0.008

REPORT_COLUMNS = (
    "noise_type",
    "target_snr_db",
    "preset",
    "snri_db",
    "noise_reduction_db",
    "input_snr_db",
    "output_snr_db",
    "variant",
    "speech_attenuation_db",
)


@dataclass(frozen=True)
class SnriReport:
    """SNR improvement figures for one processed mix.

    speech_attenuation_db is the speech power the processing removed
    over the speech-active frames; the noise-side figures alone would
    also reward a method that suppresses speech.
    """

    input_snr_db: float
    output_snr_db: float
    snri_db: float
    noise_reduction_db: float
    speech_attenuation_db: float


_REPORT_FIELDS = tuple(f.name for f in fields(SnriReport))


def block_rms(samples: np.ndarray, block_len: int) -> np.ndarray:
    """RMS of consecutive non-overlapping full blocks; the trailing
    partial block, if any, is ignored."""
    return np.sqrt(pipeline._block_power(np.asarray(samples, dtype=float), block_len))


def active_frame_mask(samples, block_len: int, threshold_db: float) -> np.ndarray:
    """Mark blocks whose RMS is within threshold_db of the peak block RMS."""
    return _active(block_rms(samples, block_len), threshold_db)


def _active(rms: np.ndarray, threshold_db: float) -> np.ndarray:
    """active_frame_mask from the blocks' RMS."""
    if rms.size == 0:
        return np.zeros(0, dtype=bool)
    peak = rms.max()
    if peak <= 0.0:
        return np.zeros(rms.size, dtype=bool)
    return rms > peak * 10.0 ** (-threshold_db / 20.0)


def mix_at_snr(
    speech, noise, target_snr_db: float, sample_rate_hz: int, *, active_threshold_db: float = 35.0
):
    """Scale the noise so the mix hits the target SNR.

    The speech level is the RMS over speech-active blocks, the noise
    level the RMS over the full (truncated-to-length) noise.
    active_threshold_db sets the speech-activity rule: a block is
    active when its RMS is within that many dB of the loudest block.
    Returns (mix, speech, scaled noise); the components sum to the mix
    exactly.
    A non-finite sample in the speech or in the noise it uses raises
    InputError naming the signal and the sample's index, a signal
    whose power overflows one naming the signal, and a target whose
    noise scale overflows or rounds to 0 one naming the target.
    """
    speech, noise, scale = _noise_scale(
        speech, noise, target_snr_db, sample_rate_hz, active_threshold_db
    )
    noise_scaled = noise * scale
    return speech + noise_scaled, speech, noise_scaled


def _noise_scale(speech, noise, target_snr_db, sample_rate_hz, active_threshold_db):
    """(speech, noise truncated to the speech's length, the factor that
    brings that noise to the target SNR), screened as mix_at_snr says.
    Beside boolean masks, one signal-length array at a time is made,
    and none is kept."""
    speech = pipeline._mono(speech, "speech")
    noise = pipeline._mono(noise, "noise")
    if not np.isfinite(target_snr_db):
        raise InputError(f"target_snr_db must be finite, got {target_snr_db}")
    if noise.size < speech.size:
        raise InputError(
            f"noise ({noise.size} samples) must be at least as long as "
            f"speech ({speech.size} samples)"
        )
    noise = noise[: speech.size]
    _screen_samples(speech, noise)
    block = max(1, round(ACTIVITY_BLOCK_S * sample_rate_hz))
    # a square or a sum of squares can overflow a finite signal's power:
    # numpy stays quiet and the signal is named instead
    with np.errstate(over="ignore"):
        block_pow = pipeline._block_power(speech, block)
        _finite_power("speech", block_pow.max(initial=0.0))
        mask = _active(np.sqrt(block_pow), active_threshold_db)
        active_samples = int(mask.sum()) * block
        if active_samples < sample_rate_hz:
            raise InputError(
                f"speech must contain at least 1 s of active signal, found "
                f"{active_samples / sample_rate_hz:.2f} s"
            )
        # squared in place: the selection is the one transient array
        active = speech[: mask.size * block][np.repeat(mask, block)]
        speech_pow = _finite_power("speech", float(np.mean(np.square(active, out=active))))
        del active
        noise_pow = _finite_power("noise", float(np.mean(noise**2)))
    if noise_pow <= 0.0:
        raise InputError("noise signal is silent; cannot scale it to a target SNR")
    try:
        with np.errstate(over="ignore"):
            scale = np.sqrt(speech_pow / noise_pow) * 10.0 ** (-target_snr_db / 20.0)
    except OverflowError:  # the float power; numpy's product gives inf
        scale = math.inf
    if not 0.0 < scale < math.inf:
        raise InputError(
            f"target_snr_db {target_snr_db:g} cannot scale the noise: its scale "
            f"factor {'overflows the float range' if scale else 'rounds to 0'}"
        )
    return speech, noise, scale


def _screen_samples(speech, noise, limit: float = np.finfo(float).max) -> None:
    """Raise InputError naming the signal and the index of its first NaN
    or sample above limit in magnitude (an infinity), in speech, then in
    noise (see pipeline._first_bad)."""
    for what, x in (("speech", speech), ("noise", noise)):
        if bad := pipeline._first_bad(x, limit):
            raise InputError(f"{what} holds a {bad[1]} at index {bad[0]}")


def _finite_power(what: str, power: float) -> float:
    """power, unless it overflowed to inf."""
    if not math.isfinite(power):
        raise InputError(f"{what} power overflows the float range")
    return power


def snri_by_gain_shadowing(
    speech,
    noise,
    gain_log,
    cfg: PipelineConfig,
    *,
    active_threshold_db: float = 35.0,
    measure_start_s: float = 0.0,
) -> SnriReport:
    """SNR improvement of a processed mix, by component shadowing.

    The logged gains are replayed over the speech and noise components,
    each beside its unity-gain reference; speech power is measured on
    speech-active frames, noise power on the speech-free frames, both
    from measure_start_s on (earlier frames cover the tracker warm-up
    and are excluded from the measurement). A NaN, an infinity or a
    magnitude above cfg.frame.max_abs_sample raises InputError naming
    its component and index before any replay.
    """
    speech = pipeline._mono(speech, "speech")
    noise = pipeline._mono(noise, "noise")
    if speech.shape != noise.shape:
        raise UsageError(
            f"speech and noise components must have equal shape, got "
            f"{speech.shape} and {noise.shape}"
        )
    _screen_samples(speech, noise, cfg.frame.max_abs_sample)
    framer = pipeline._Framer(cfg.frame)
    log = pipeline._gain_log(gain_log, framer.frames_of(speech.size), cfg)
    pieces = ((sp, nz, log, 0) for sp, nz in zip(framer.stream(speech), framer.stream(noise)))
    return _shadowing_report(pieces, speech.size, cfg, active_threshold_db, measure_start_s)


def _shadowing_report(pieces, size: int, cfg: PipelineConfig, active_threshold_db, measure_start_s):
    """The report from the per-hop powers pipeline.shadow_stream gives
    for pieces. A negative or non-finite measure_start_s, or one past
    the last full hop, raises InputError before pieces is read. The
    activity mask is active_frame_mask's over the speech reference's
    hops, and a region's power is the mean of its hops' mean squares:
    hops are of equal length, so that is the mean square over the
    region's samples up to rounding."""
    if not 0.0 <= measure_start_s < math.inf:  # False for NaN as well
        raise InputError(f"measure_start_s must be finite and >= 0, got {measure_start_s}")
    hop = cfg.frame.hop_len
    start = math.ceil(measure_start_s * cfg.frame.sample_rate_hz / hop)
    if start >= size // hop:
        raise InputError(f"measure_start_s={measure_start_s} leaves no frames to measure")
    powers = pipeline.shadow_stream(pieces, size, cfg)
    ref_speech, out_speech, ref_noise, out_noise, ref_mix, out_mix = powers
    mask = _active(np.sqrt(ref_speech), active_threshold_db)
    active, inactive = mask.copy(), ~mask
    active[:start] = inactive[:start] = False
    if not active.any():
        raise InputError("no speech-active frames in the measurement region")
    if not inactive.any():
        raise InputError("no speech-free frames to measure the noise on")

    ref_speech_pow, out_speech_pow = (float(np.mean(p[active])) for p in (ref_speech, out_speech))
    ref_noise_pow, out_noise_pow = (float(np.mean(p[inactive])) for p in (ref_noise, out_noise))
    if ref_noise_pow <= 0.0 or out_noise_pow <= 0.0:
        raise InputError("noise component is silent over the measurement frames")
    if ref_speech_pow <= 0.0 or out_speech_pow <= 0.0:
        raise InputError("speech component is silent over the active frames")

    input_snr_db = 10.0 * np.log10(ref_speech_pow / ref_noise_pow)
    output_snr_db = 10.0 * np.log10(out_speech_pow / out_noise_pow)

    reduction = _reduction_db(float(np.mean(ref_mix[inactive])), float(np.mean(out_mix[inactive])))
    return SnriReport(
        input_snr_db=float(input_snr_db),
        output_snr_db=float(output_snr_db),
        snri_db=float(output_snr_db - input_snr_db),
        noise_reduction_db=reduction,
        speech_attenuation_db=float(10.0 * np.log10(ref_speech_pow / out_speech_pow)),
    )


def _reduction_db(p_in: float, p_out: float) -> float:
    """10*log10(p_in / p_out), within +/- REDUCTION_CAP_DB; 0 dB when
    both powers are zero."""
    if p_in == 0.0 and p_out == 0.0:
        return 0.0
    if p_out == 0.0:
        return REDUCTION_CAP_DB
    if p_in == 0.0:
        return -REDUCTION_CAP_DB
    return float(np.clip(10.0 * np.log10(p_in / p_out), -REDUCTION_CAP_DB, REDUCTION_CAP_DB))


def relative_improvement(before: float, after: float) -> float:
    """Percent change 100 * (after - before) / before."""
    if before <= 0.0:
        raise InputError(f"before must be positive, got {before}")
    return 100.0 * (after - before) / before


def evaluate_condition(
    speech,
    noise,
    target_snr_db: float,
    cfg: PipelineConfig,
    *,
    single_stage: bool = False,
    active_threshold_db: float = 35.0,
    measure_start_s: float = 0.0,
) -> SnriReport:
    """Mix, process and shadow one evaluation condition.

    Equal to snri_by_gain_shadowing over the mix's components and the
    gain log process_stream gives for the mix, field for field. Each
    feed piece's mix and scaled noise are formed as the piece is fed,
    which gives the engine mix_at_snr's samples, and the gains are
    replayed and reduced to per-hop powers block by block as the engine
    produces them (pipeline.shadow_stream), so once the noise scale is
    known no array as long as the signal is made.
    """
    speech, noise, scale = _noise_scale(
        speech, noise, target_snr_db, cfg.frame.sample_rate_hz, active_threshold_db
    )
    proc = pipeline.StreamProcessor(cfg, single_stage=single_stage, gains_only=True)

    def pieces():
        for sp, nz in zip(proc.framer.stream(speech), proc.framer.stream(noise)):
            nz = nz * scale
            first = proc.framer.frames
            rows = [record.gains for record in proc.blocks(sp + nz)]
            # a piece completes one block, several in the warm-up, or none
            rows = rows[0] if len(rows) == 1 else np.concatenate(rows) if rows else None
            yield sp, nz, rows, first

    return _shadowing_report(pieces(), speech.size, cfg, active_threshold_db, measure_start_s)


def spectrogram_db(samples, frame_cfg) -> np.ndarray:
    """Frame-by-bin magnitude matrix in dB for before/after inspection."""
    [(_, rows)] = spectrogram_stream([samples], frame_cfg)
    return rows


def spectrogram_stream(blocks, frame_cfg):
    """Yield each of blocks, the pieces of a signal, with the (n, bins)
    spectrogram_db rows it completes: the frames of the engine's framer
    with the high-pass off, past those of its seeded zeros, so that row
    i starts at sample i * hop_len. Bad samples raise as in the engine."""
    fcfg = dataclasses.replace(frame_cfg, hpf_cutoff_hz=None)
    framer = pipeline._Framer(fcfg)
    floor_pow = 10.0 ** (SPECTROGRAM_FLOOR_DB / 10.0)
    for block in blocks:
        x = pipeline._mono(block)
        first = max(framer.frames, framer.warm_frames)
        rows = np.empty((max(0, framer.frames + framer.completes(x.size) - first), fcfg.num_bins))
        for frames, n in framer.push(x):
            if framer.frames >= first:
                power = framing.bin_power(framing.analyze(frames, fcfg))
                at = framer.frames - first
                rows[at : at + n] = 10.0 * np.log10(np.maximum(power, floor_pow))
        yield block, rows


def write_report_csv(path, rows) -> None:
    """Write evaluation rows (dicts keyed by REPORT_COLUMNS) as CSV."""
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=REPORT_COLUMNS)
        writer.writeheader()
        for row in rows:
            formatted = dict(row)
            for key in _REPORT_FIELDS:
                if key in formatted and formatted[key] is not None:
                    formatted[key] = f"{formatted[key]:.4f}"
            if "target_snr_db" in formatted:
                formatted["target_snr_db"] = f"{formatted['target_snr_db']:g}"
            writer.writerow(formatted)

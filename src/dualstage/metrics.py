"""Objective measurements for the suppression pipeline.

SNR improvement is measured by gain shadowing: the per-frame bin gains
logged while processing a mix are replayed separately over the scaled
speech and noise components, which decomposes the enhanced output
exactly (the pipeline is linear in its input once the gains are
fixed); one analysis per component serves both its unity-gain
reference and its shadowed output. Speech level is taken over
speech-active frames, noise level over the speech-free frames, as a
desk-scale stand-in for a calibrated measurement front end.
"""

from dataclasses import dataclass

import numpy as np

from . import pipeline
from .config import PipelineConfig
from .errors import InputError, UsageError

# reductions are reported within +/- this bound so digital silence
# cannot produce an infinite ratio
REDUCTION_CAP_DB = 120.0

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
)


@dataclass(frozen=True, eq=False)
class MixSpec:
    """A speech+noise mixing job at a target SNR.

    active_threshold_db sets the speech-activity rule: a frame is
    active when its RMS is within that many dB of the loudest frame.
    """

    speech: np.ndarray
    noise: np.ndarray
    target_snr_db: float
    sample_rate_hz: int
    active_threshold_db: float = 35.0


@dataclass(frozen=True)
class SnriReport:
    """SNR improvement figures for one processed mix."""

    input_snr_db: float
    output_snr_db: float
    snri_db: float
    noise_reduction_db: float


def block_rms(samples: np.ndarray, block_len: int) -> np.ndarray:
    """RMS of consecutive non-overlapping full blocks; the trailing
    partial block, if any, is ignored."""
    x = np.asarray(samples, dtype=float)
    nfull = x.size // block_len
    if nfull == 0:
        return np.zeros(0)
    blocks = x[: nfull * block_len].reshape(nfull, block_len)
    return np.sqrt(np.mean(blocks * blocks, axis=1))


def active_frame_mask(samples, block_len: int, threshold_db: float) -> np.ndarray:
    """Mark blocks whose RMS is within threshold_db of the peak block RMS."""
    rms = block_rms(samples, block_len)
    if rms.size == 0:
        return np.zeros(0, dtype=bool)
    peak = rms.max()
    if peak <= 0.0:
        return np.zeros(rms.size, dtype=bool)
    return rms > peak * 10.0 ** (-threshold_db / 20.0)


def mix_at_snr(spec: MixSpec):
    """Scale the noise so the mix hits the target SNR.

    The speech level is the RMS over speech-active blocks, the noise
    level the RMS over the full (truncated-to-length) noise. Returns
    (mix, speech, scaled noise); the components sum to the mix exactly.
    """
    speech = np.asarray(spec.speech, dtype=float)
    noise = np.asarray(spec.noise, dtype=float)
    if speech.ndim != 1 or noise.ndim != 1:
        raise InputError("speech and noise must be mono 1-D signals")
    if not np.isfinite(spec.target_snr_db):
        raise InputError(f"target_snr_db must be finite, got {spec.target_snr_db}")
    if noise.size < speech.size:
        raise InputError(
            f"noise ({noise.size} samples) must be at least as long as "
            f"speech ({speech.size} samples)"
        )
    block = max(1, round(ACTIVITY_BLOCK_S * spec.sample_rate_hz))
    mask = active_frame_mask(speech, block, spec.active_threshold_db)
    active_samples = int(mask.sum()) * block
    if active_samples < spec.sample_rate_hz:
        raise InputError(
            f"speech must contain at least 1 s of active signal, found "
            f"{active_samples / spec.sample_rate_hz:.2f} s"
        )
    active = np.repeat(mask, block)
    speech_pow = float(np.mean(speech[: active.size][active] ** 2))
    noise_cut = noise[: speech.size]
    noise_pow = float(np.mean(noise_cut**2))
    if noise_pow <= 0.0:
        raise InputError("noise signal is silent; cannot scale it to a target SNR")
    scale = np.sqrt(speech_pow / noise_pow) * 10.0 ** (-spec.target_snr_db / 20.0)
    noise_scaled = noise_cut * scale
    return speech + noise_scaled, speech, noise_scaled


def _region_power(samples: np.ndarray, block_mask: np.ndarray, block_len: int) -> float:
    picked = np.repeat(block_mask, block_len)
    return float(np.mean(samples[: picked.size][picked] ** 2))


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
    and are excluded from the measurement).
    """
    speech = np.asarray(speech, dtype=float)
    noise = np.asarray(noise, dtype=float)
    if speech.shape != noise.shape:
        raise UsageError(
            f"speech and noise components must have equal shape, got "
            f"{speech.shape} and {noise.shape}"
        )
    # None asks for the unity-gain reference
    ref_speech, out_speech = pipeline._replay(speech, (None, gain_log), cfg)
    ref_noise, out_noise = pipeline._replay(noise, (None, gain_log), cfg)

    block = cfg.frame.hop_len
    mask = active_frame_mask(ref_speech, block, active_threshold_db)
    start_block = int(np.ceil(measure_start_s * cfg.frame.sample_rate_hz / block))
    if start_block >= mask.size:
        raise InputError(
            f"measure_start_s={measure_start_s} leaves no frames to measure"
        )
    region = np.zeros(mask.size, dtype=bool)
    region[start_block:] = True
    active = mask & region
    inactive = ~mask & region
    if not active.any():
        raise InputError("no speech-active frames in the measurement region")
    if not inactive.any():
        raise InputError("no speech-free frames to measure the noise on")

    ref_speech_pow = _region_power(ref_speech, active, block)
    ref_noise_pow = _region_power(ref_noise, inactive, block)
    out_speech_pow = _region_power(out_speech, active, block)
    out_noise_pow = _region_power(out_noise, inactive, block)
    if ref_noise_pow <= 0.0 or out_noise_pow <= 0.0:
        raise InputError("noise component is silent over the measurement frames")
    if ref_speech_pow <= 0.0 or out_speech_pow <= 0.0:
        raise InputError("speech component is silent over the active frames")

    input_snr_db = 10.0 * np.log10(ref_speech_pow / ref_noise_pow)
    output_snr_db = 10.0 * np.log10(out_speech_pow / out_noise_pow)

    ranges = _mask_to_ranges(inactive, block)
    reduction = noise_segment_reduction(ref_speech + ref_noise, out_speech + out_noise, ranges)
    return SnriReport(
        input_snr_db=float(input_snr_db),
        output_snr_db=float(output_snr_db),
        snri_db=float(output_snr_db - input_snr_db),
        noise_reduction_db=float(reduction),
    )


def _mask_to_ranges(block_mask: np.ndarray, block_len: int) -> list[tuple[int, int]]:
    """Contiguous runs of marked blocks, as (start, stop) sample ranges."""
    ranges = []
    start = None
    for i, flag in enumerate(block_mask):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            ranges.append((start * block_len, i * block_len))
            start = None
    if start is not None:
        ranges.append((start * block_len, block_mask.size * block_len))
    return ranges


def noise_segment_reduction(input_sig, output_sig, noise_only_ranges) -> float:
    """10*log10(input power / output power) over the given sample ranges.

    Digital-silence outputs report the +/-120 dB cap instead of an
    infinite ratio.
    """
    input_sig = np.asarray(input_sig, dtype=float)
    output_sig = np.asarray(output_sig, dtype=float)
    ranges = list(noise_only_ranges)
    if not ranges:
        raise InputError("noise_only_ranges must not be empty")
    pieces_in = []
    pieces_out = []
    for start, stop in ranges:
        if not 0 <= start < stop <= min(input_sig.size, output_sig.size):
            raise InputError(
                f"range ({start}, {stop}) does not lie within both signals"
            )
        pieces_in.append(input_sig[start:stop])
        pieces_out.append(output_sig[start:stop])
    p_in = float(np.mean(np.concatenate(pieces_in) ** 2))
    p_out = float(np.mean(np.concatenate(pieces_out) ** 2))
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
    """Mix, process and shadow one evaluation condition."""
    mix, sp, nz = mix_at_snr(
        MixSpec(
            speech=speech,
            noise=noise,
            target_snr_db=target_snr_db,
            sample_rate_hz=cfg.frame.sample_rate_hz,
            active_threshold_db=active_threshold_db,
        )
    )
    _, gain_log = pipeline.process_stream(mix, cfg, single_stage=single_stage)
    return snri_by_gain_shadowing(
        sp,
        nz,
        gain_log,
        cfg,
        active_threshold_db=active_threshold_db,
        measure_start_s=measure_start_s,
    )


def spectrogram_db(samples, frame_cfg, floor_db: float = -120.0) -> np.ndarray:
    """Frame-by-bin magnitude matrix in dB for before/after inspection."""
    from . import framing  # local import keeps module deps one-way

    x = np.asarray(samples, dtype=float)
    n_frames = max(0, (x.size - frame_cfg.frame_len) // frame_cfg.hop_len + 1)
    rows = np.empty((n_frames, frame_cfg.num_bins))
    floor_pow, step = 10.0 ** (floor_db / 10.0), pipeline.BLOCK_FRAMES
    for i in range(0, n_frames, step):
        n = min(step, n_frames - i)
        power = framing.analyze(pipeline._frames(x, i, n, frame_cfg), frame_cfg).power
        rows[i : i + n] = 10.0 * np.log10(np.maximum(power, floor_pow))
    return rows


def write_spectrogram_csv(path, samples, frame_cfg) -> None:
    np.savetxt(path, spectrogram_db(samples, frame_cfg), delimiter=",", fmt="%.3f")


def write_report_csv(path, rows) -> None:
    """Write evaluation rows (dicts keyed by REPORT_COLUMNS) as CSV."""
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=REPORT_COLUMNS)
        writer.writeheader()
        for row in rows:
            formatted = dict(row)
            for key in ("snri_db", "noise_reduction_db", "input_snr_db", "output_snr_db"):
                if key in formatted and formatted[key] is not None:
                    formatted[key] = f"{formatted[key]:.4f}"
            if "target_snr_db" in formatted:
                formatted["target_snr_db"] = f"{formatted['target_snr_db']:g}"
            writer.writerow(formatted)

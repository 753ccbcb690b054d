"""Batch command line: enhance files, build mixes, run evaluation
matrices, dump band plans and spectrograms, list presets.

Exit codes: 0 success, 1 usage/validation/config error, 2 I/O error,
3 internal invariant violation.
"""

import argparse
import contextlib
import csv
import dataclasses
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, metrics, pipeline
from .bands import build_band_plan
from .config import (
    _decode_section,
    apply_overrides,
    config_dumps,
    list_presets,
    load_config,
    load_preset,
)
from .errors import (
    AudioIOError,
    ConfigError,
    InputError,
    InternalError,
    UsageError,
)
from .framing import algorithmic_latency_ms
from .wavio import FLOAT32, WavReader, read_wav, replacing, write_wav

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_INTERNAL = 3

_VARIANTS = ("dual", "single")

# enhance reads, processes and writes this many blocks of
# pipeline.BLOCK_FRAMES hops at a time, which bounds its memory
_FEED_BLOCKS = 4

# the optional keys of an evaluation matrix
_MATRIX_DEFAULTS = {
    "variants": ["dual"],
    "active_threshold_db": 35.0,
    "measure_start_s": 0.0,
    "loop_noise": False,
    "overrides": {},
}


class _Parser(argparse.ArgumentParser):
    """argparse maps its own failures to exit 2; route them through the
    package error types so usage problems exit 1 like the rest."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _add_config_options(sub):
    sub.add_argument("--preset", help="preset name (default: communication)")
    sub.add_argument("--config", help="JSON config file instead of a preset")
    sub.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a config leaf by dotted key, e.g. stage2.gains.mu=1.2",
    )


def _config_from_args(args):
    if args.config and args.preset:
        raise UsageError("pass either --preset or --config, not both")
    if args.config:
        cfg = load_config(args.config)
    else:
        cfg = load_preset(args.preset or "communication")
    if args.set:
        cfg = apply_overrides(cfg, args.set)
    return cfg


def _require_rate(path, rate, cfg):
    want = cfg.frame.sample_rate_hz
    if rate != want:
        raise InputError(
            f"{path}: sample rate {rate} Hz does not match the configured {want} Hz"
        )


def _tile_noise(noise, length):
    if noise.size == 0:
        raise InputError("noise signal is empty")
    reps = -(-length // noise.size)
    return np.tile(noise, reps)


def _sidecar(out_path, tag):
    p = Path(out_path)
    return p.with_name(p.stem + f".{tag}.wav")


def cmd_enhance(args) -> int:
    cfg = _config_from_args(args)
    if args.print_config:
        print(config_dumps(cfg), end="")
        return EXIT_OK
    with WavReader(args.input) as src, contextlib.ExitStack() as files:
        _require_rate(args.input, src.rate, cfg)
        sink = None
        if args.tracker_dump:
            dump = files.enter_context(
                replacing(args.tracker_dump, "w", "tracker dump", newline="")
            )
            sink = _tracker_dump_sink(dump, args.tracker_dump, args.tracker_dump_stage)
        t0 = time.perf_counter()
        # no gain log: only its frame count would be printed
        proc = pipeline.StreamProcessor(
            cfg, single_stage=args.single_stage, log_gains=False, tracker_sink=sink
        )
        # the spectrogram dumps are the one use that keeps the whole signal
        kept_in, kept_out = [], []
        blocks = src.blocks(_FEED_BLOCKS * pipeline.BLOCK_FRAMES * cfg.frame.hop_len)
        if args.dump_spectrogram_in:
            blocks = _keeping(blocks, kept_in)
        out = pipeline.run_stream(
            proc, blocks, src.size, latency_aligned=not args.no_latency_compensation
        )
        if args.dump_spectrogram_out:
            out = _keeping(out, kept_out)
        write_wav(args.output, out, cfg.frame.sample_rate_hz, src.subtype, size=src.size)
        elapsed = time.perf_counter() - t0
    for path, kept in ((args.dump_spectrogram_in, kept_in), (args.dump_spectrogram_out, kept_out)):
        if path:
            metrics.write_spectrogram_csv(path, np.concatenate([np.zeros(0), *kept]), cfg.frame)
    duration = src.size / cfg.frame.sample_rate_hz
    rtf = elapsed / duration if duration > 0 else 0.0
    print(
        f"{args.output}: {proc.frame_index} frames, "
        f"realtime factor {rtf:.4f}, "
        f"algorithmic latency {algorithmic_latency_ms(cfg.frame):.1f} ms"
    )
    return EXIT_OK


def _tracker_dump_sink(fh, path, wanted_stage):
    """A tracker_sink writing wanted_stage's rows to fh, open on path, as CSV."""
    writer = csv.writer(fh)

    def write(rows):
        try:
            writer.writerows(rows)
        except OSError as exc:
            raise AudioIOError(f"{path}: cannot write tracker dump ({exc})") from exc

    write([("frame", "band", "raw_noise", "smoothed_noise")])

    def sink(frame, stage, raw, smoothed):
        if stage == wanted_stage:
            write(
                (frame, band, f"{raw[band]:.8g}", f"{smoothed[band]:.8g}")
                for band in range(raw.size)
            )

    return sink


def _keeping(blocks, kept):
    """Pass blocks through, appending each to kept."""
    for block in blocks:
        kept.append(block)
        yield block


def cmd_mix(args) -> int:
    speech, sp_rate, _ = read_wav(args.speech)
    noise, nz_rate, _ = read_wav(args.noise)
    if sp_rate != nz_rate:
        raise InputError(
            f"sample rates differ: {args.speech} is {sp_rate} Hz, "
            f"{args.noise} is {nz_rate} Hz"
        )
    if noise.size < speech.size:
        if not args.loop_noise:
            raise InputError(
                f"{args.noise}: noise ({noise.size} samples) is shorter than "
                f"speech ({speech.size} samples); pass --loop-noise to tile it"
            )
        noise = _tile_noise(noise, speech.size)
    mix, sp, nz = metrics.mix_at_snr(
        metrics.MixSpec(
            speech=speech,
            noise=noise,
            target_snr_db=args.snr_db,
            sample_rate_hz=sp_rate,
            active_threshold_db=args.active_threshold_db,
        )
    )
    # float32 output: a mix of two full-scale signals can exceed the
    # PCM16 range, and the sidecars must sum to the mix exactly
    write_wav(args.output, mix, sp_rate, FLOAT32)
    speech_path = _sidecar(args.output, "speech")
    noise_path = _sidecar(args.output, "noise")
    write_wav(speech_path, sp, sp_rate, FLOAT32)
    write_wav(noise_path, nz, sp_rate, FLOAT32)
    print(f"{args.output}: mix at {args.snr_db:g} dB SNR, sidecars {speech_path} {noise_path}")
    return EXIT_OK


@dataclass(frozen=True)
class _Matrix:
    """An evaluation matrix (README: Evaluation matrix schema)."""

    speech: tuple[str, ...]
    noise: tuple[str, ...]
    snr_db: tuple[float, ...]
    presets: tuple[str, ...]
    variants: tuple[str, ...]
    active_threshold_db: float
    measure_start_s: float
    loop_noise: bool
    overrides: dict

    def __post_init__(self):
        bad = sorted(set(self.variants) - set(_VARIANTS))
        if bad:
            raise ConfigError(f"unknown variant(s) {', '.join(bad)}; allowed: dual, single")
        for key in ("active_threshold_db", "measure_start_s"):
            if not math.isfinite(getattr(self, key)):
                raise ConfigError(f"config key {key!r} must be finite, got {getattr(self, key)}")


def _load_matrix(path) -> _Matrix:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise AudioIOError(f"{path}: cannot read matrix config ({exc})") from exc
    except ValueError as exc:  # bad JSON, or an integer too long to convert
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    if isinstance(raw, dict):
        raw = {**_MATRIX_DEFAULTS, **raw}
    try:
        return _decode_section(_Matrix, raw, "")
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def cmd_evaluate(args) -> int:
    matrix = _load_matrix(args.matrix)
    missing = sorted(
        p for p in {*matrix.speech, *matrix.noise} if not Path(p).exists()
    )
    if missing:
        raise AudioIOError(f"missing input file(s): {', '.join(missing)}")

    assignments = [f"{k}={json.dumps(v)}" for k, v in sorted(matrix.overrides.items())]
    configs = {}
    for preset in sorted(set(matrix.presets)):
        cfg = load_preset(preset)
        if assignments:
            cfg = apply_overrides(cfg, assignments)
        configs[preset] = cfg

    cache = {}

    def load(path):
        if path not in cache:
            samples, rate, _ = read_wav(path)
            cache[path] = (samples, rate)
        return cache[path]

    rows = []
    for noise_path in sorted(matrix.noise):
        for snr in sorted(matrix.snr_db):
            for preset in sorted(matrix.presets):
                cfg = configs[preset]
                for variant in sorted(matrix.variants):
                    for speech_path in sorted(matrix.speech):
                        speech, sp_rate = load(speech_path)
                        noise, nz_rate = load(noise_path)
                        _require_rate(speech_path, sp_rate, cfg)
                        _require_rate(noise_path, nz_rate, cfg)
                        if matrix.loop_noise and noise.size < speech.size:
                            noise = _tile_noise(noise, speech.size)
                        report = metrics.evaluate_condition(
                            speech,
                            noise,
                            float(snr),
                            cfg,
                            single_stage=(variant == "single"),
                            active_threshold_db=matrix.active_threshold_db,
                            measure_start_s=matrix.measure_start_s,
                        )
                        rows.append(
                            {
                                "noise_type": Path(noise_path).stem,
                                "target_snr_db": float(snr),
                                "preset": preset,
                                "variant": variant,
                                **dataclasses.asdict(report),
                            }
                        )
    metrics.write_report_csv(args.out, rows)
    print(f"{args.out}: {len(rows)} rows")
    return EXIT_OK


def cmd_bandplan(args) -> int:
    cfg = _config_from_args(args)
    plan = build_band_plan(cfg.frame.fft_len, cfg.frame.sample_rate_hz, cfg.num_bands)
    lines = ["band_index,low_bin,high_bin,center_hz"]
    for i in range(plan.num_bands):
        lines.append(
            f"{i},{plan.edges[i]},{plan.edges[i + 1] - 1},{plan.centers_hz[i]:.4f}"
        )
    text = "\n".join(lines) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w") as fh:
            fh.write(text)
    return EXIT_OK


def cmd_presets(args) -> int:
    if args.show:
        print(config_dumps(load_preset(args.show)), end="")
        return EXIT_OK
    for name in list_presets():
        print(name)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dualstage", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="verb", required=True, metavar="VERB")

    p = sub.add_parser("enhance", parents=[], help="suppress noise in a WAV file")
    p.add_argument("input", help="input WAV (mono, PCM16 or float32)")
    p.add_argument("output", help="output WAV, written in the input's format")
    _add_config_options(p)
    p.add_argument("--single-stage", action="store_true", help="disable the fine stage")
    p.add_argument(
        "--no-latency-compensation",
        action="store_true",
        help="keep the leading algorithmic-latency samples instead of trimming them",
    )
    p.add_argument(
        "--print-config",
        action="store_true",
        help="print the effective config as JSON and exit without processing",
    )
    p.add_argument("--tracker-dump", metavar="CSV", help="write per-frame noise estimates")
    p.add_argument(
        "--tracker-dump-stage",
        type=int,
        choices=(1, 2),
        default=2,
        help="which stage's tracker to dump (default 2)",
    )
    p.add_argument("--dump-spectrogram-in", metavar="CSV", help="input spectrogram, dB")
    p.add_argument("--dump-spectrogram-out", metavar="CSV", help="output spectrogram, dB")
    p.set_defaults(func=cmd_enhance)

    p = sub.add_parser("mix", help="mix speech and noise at a target SNR")
    p.add_argument("speech", help="speech WAV")
    p.add_argument("noise", help="noise WAV, at least as long as speech unless looped")
    p.add_argument("output", help="mix WAV; scaled components go to sidecar files")
    p.add_argument("--snr-db", type=float, required=True, help="target SNR in dB")
    p.add_argument(
        "--loop-noise", action="store_true", help="tile the noise if it is shorter"
    )
    p.add_argument(
        "--active-threshold-db",
        type=float,
        default=35.0,
        help="speech-activity threshold below the peak frame RMS (default 35)",
    )
    p.set_defaults(func=cmd_mix)

    p = sub.add_parser("evaluate", help="run a mix/enhance/measure matrix to CSV")
    p.add_argument("matrix", help="JSON matrix config; see README for the schema")
    p.add_argument("out", help="output CSV")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("bandplan", help="dump the bin-to-band partition as CSV")
    p.add_argument("out", nargs="?", default="-", help="output CSV (default stdout)")
    _add_config_options(p)
    p.set_defaults(func=cmd_bandplan)

    p = sub.add_parser("presets", help="list bundled and user presets")
    p.add_argument("--show", metavar="NAME", help="print one preset's JSON")
    p.set_defaults(func=cmd_presets)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (UsageError, ConfigError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (AudioIOError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # pragma: no cover - last-resort guard
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

"""Batch command line: enhance files, build mixes, run evaluation
matrices, dump band plans and spectrograms, list presets.

Exit codes: 0 success, 1 usage/validation/config error, 2 I/O error,
3 internal invariant violation.
"""

import argparse
import csv
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, metrics, pipeline
from .bands import build_band_plan
from .config import (
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
from .wavio import FLOAT32, read_wav, write_wav

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_INTERNAL = 3

_VARIANTS = ("dual", "single")

_MATRIX_DEFAULTS = {
    "variants": ["dual"],
    "active_threshold_db": 35.0,
    "measure_start_s": 0.0,
    "loop_noise": False,
    "overrides": {},
}
_MATRIX_REQUIRED = ("speech", "noise", "snr_db", "presets")


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
    x, rate, subtype = read_wav(args.input)
    _require_rate(args.input, rate, cfg)
    dump_rows = []
    sink = None
    if args.tracker_dump:
        wanted = args.tracker_dump_stage

        def sink(frame, stage, raw, smoothed):
            if stage == wanted:
                dump_rows.append((frame, raw.copy(), smoothed.copy()))

    t0 = time.perf_counter()
    # no gain log: only its frame count would be printed
    proc = pipeline.StreamProcessor(
        cfg, single_stage=args.single_stage, log_gains=False, tracker_sink=sink
    )
    y = pipeline.run_stream(proc, x, latency_aligned=not args.no_latency_compensation)
    elapsed = time.perf_counter() - t0
    write_wav(args.output, y, cfg.frame.sample_rate_hz, subtype)
    if args.tracker_dump:
        _write_tracker_dump(args.tracker_dump, dump_rows)
    if args.dump_spectrogram_in:
        metrics.write_spectrogram_csv(args.dump_spectrogram_in, x, cfg.frame)
    if args.dump_spectrogram_out:
        metrics.write_spectrogram_csv(args.dump_spectrogram_out, y, cfg.frame)
    duration = x.size / cfg.frame.sample_rate_hz
    rtf = elapsed / duration if duration > 0 else 0.0
    print(
        f"{args.output}: {proc.frame_index} frames, "
        f"realtime factor {rtf:.4f}, "
        f"algorithmic latency {algorithmic_latency_ms(cfg.frame):.1f} ms"
    )
    return EXIT_OK


def _write_tracker_dump(path, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("frame", "band", "raw_noise", "smoothed_noise"))
        for frame, raw, smoothed in rows:
            for band in range(raw.size):
                writer.writerow((frame, band, f"{raw[band]:.8g}", f"{smoothed[band]:.8g}"))


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


def _load_matrix(path) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise AudioIOError(f"{path}: cannot read matrix config ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: matrix config must be a JSON object")
    allowed = set(_MATRIX_REQUIRED) | set(_MATRIX_DEFAULTS)
    unknown = sorted(set(raw) - allowed)
    if unknown:
        raise ConfigError(f"{path}: unknown matrix key(s): {', '.join(unknown)}")
    missing = sorted(k for k in _MATRIX_REQUIRED if k not in raw)
    if missing:
        raise ConfigError(f"{path}: missing matrix key(s): {', '.join(missing)}")
    matrix = dict(_MATRIX_DEFAULTS)
    matrix.update(raw)
    for key in ("speech", "noise", "presets", "variants"):
        if not isinstance(matrix[key], list) or not all(
            isinstance(v, str) for v in matrix[key]
        ):
            raise ConfigError(f"{path}: {key} must be a list of strings")
    if not isinstance(matrix["snr_db"], list) or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in matrix["snr_db"]
    ):
        raise ConfigError(f"{path}: snr_db must be a list of numbers")
    bad = sorted(set(matrix["variants"]) - set(_VARIANTS))
    if bad:
        raise ConfigError(
            f"{path}: unknown variant(s) {', '.join(bad)}; allowed: dual, single"
        )
    if not isinstance(matrix["overrides"], dict):
        raise ConfigError(f"{path}: overrides must be an object of dotted keys")
    return matrix


def cmd_evaluate(args) -> int:
    matrix = _load_matrix(args.matrix)
    missing = sorted(
        p for p in {*matrix["speech"], *matrix["noise"]} if not Path(p).exists()
    )
    if missing:
        raise AudioIOError(f"missing input file(s): {', '.join(missing)}")

    assignments = [f"{k}={json.dumps(v)}" for k, v in sorted(matrix["overrides"].items())]
    configs = {}
    for preset in sorted(set(matrix["presets"])):
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
    for noise_path in sorted(matrix["noise"]):
        for snr in sorted(matrix["snr_db"]):
            for preset in sorted(matrix["presets"]):
                cfg = configs[preset]
                for variant in sorted(matrix["variants"]):
                    for speech_path in sorted(matrix["speech"]):
                        speech, sp_rate = load(speech_path)
                        noise, nz_rate = load(noise_path)
                        _require_rate(speech_path, sp_rate, cfg)
                        _require_rate(noise_path, nz_rate, cfg)
                        if matrix["loop_noise"] and noise.size < speech.size:
                            noise = _tile_noise(noise, speech.size)
                        report = metrics.evaluate_condition(
                            speech,
                            noise,
                            float(snr),
                            cfg,
                            single_stage=(variant == "single"),
                            active_threshold_db=matrix["active_threshold_db"],
                            measure_start_s=matrix["measure_start_s"],
                        )
                        rows.append(
                            {
                                "noise_type": Path(noise_path).stem,
                                "target_snr_db": float(snr),
                                "preset": preset,
                                "snri_db": report.snri_db,
                                "noise_reduction_db": report.noise_reduction_db,
                                "input_snr_db": report.input_snr_db,
                                "output_snr_db": report.output_snr_db,
                                "variant": variant,
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

"""End-to-end and per-layer benchmark for the dualstage engine.

usage: python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is imported from the
checkout's src/ and the signal generators from tests/synth.py. Every
input is generated from --seed before timing starts. One process and
one thread drive the engine as a closed loop: the next call is made
when the previous one returns. The untraced run (--trace 0) reports
the end-to-end metrics; the traced run (--trace 1) wraps the package's
public functions in spans and reports per-layer calls and self time.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the line before it holds the run's
context (versions, core count, src/ size, per-condition figures).
See README.md in this directory for the workloads and metrics.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
WORK = ROOT / ".bench_work"

for _needed in (SRC / "dualstage" / "__init__.py", TESTS / "synth.py"):
    if not _needed.is_file():
        sys.exit(f"benchmark: {_needed} not found; run from a full dualstage checkout")
sys.path[:0] = [str(BENCH_DIR), str(SRC), str(TESTS)]

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from scipy.io import wavfile  # noqa: E402

import speed  # noqa: E402
import tracer  # noqa: E402
from dualstage import cli, config, metrics, pipeline  # noqa: E402
from synth import FS, am_noise, pink_noise, surrogate_speech, white_noise  # noqa: E402

PRESET = "communication"
# fresh interpreters started per run to time set-up; the median is reported
SETUP_RUNS = 3
PROBE_TIMEOUT_S = 150
# noise-reduction figures skip the tracker warm-up at the start
MEASURE_START_S = 3.0
SPEECH_LEAD_IN_S = 2.5

END_TO_END = (
    ("setup_s", "s"),
    ("realtime_factor", "s/s"),
    ("call_ms_p50", "ms"),
    ("call_ms_p99", "ms"),
    ("peak_rss_mb", "MiB"),
    ("noise_reduction_db", "dB"),
)


class Stats:
    """What one measuring loop saw: per-call times, audio covered, checks."""

    def __init__(self):
        self.spans = []
        self.busy_s = 0.0
        self.audio_s = 0.0
        self.untimed = 0
        self.failed = 0
        self.extra = {}

    @property
    def attempted(self):
        return len(self.spans) + self.untimed

    def add(self, start, end, audio_s):
        self.spans.append((start, end))
        self.busy_s += end - start
        self.audio_s += audio_s


def _timed(tr, fn, *args, **kwargs):
    """Call fn once, inside a root span when tracing; return (result or
    the exception raised, start, end)."""
    t0 = time.perf_counter()
    try:
        result = tr.span(tracer.ROOT, fn, *args, **kwargs) if tr else fn(*args, **kwargs)
    except Exception as exc:  # counted as a failed operation by the caller
        result = exc
    return result, t0, time.perf_counter()


def _done(stats, seconds, ops, boundary=True):
    """Stop after `ops` calls, or after `seconds` of calls at a boundary."""
    if ops is not None:
        return stats.attempted >= ops
    return boundary and stats.busy_s >= seconds


def mix_at_power_ratio(speech, noise, snr_db):
    """speech + noise scaled so the whole-signal power ratio is snr_db."""
    gain = (np.mean(speech**2) / np.mean(noise**2) / 10.0 ** (snr_db / 10.0)) ** 0.5
    return speech + gain * noise


def speech_in_pink_noise(seed, audio_s):
    """(clean speech, speech plus pink noise at 6 dB) for the 60 s workloads."""
    rng = np.random.default_rng(seed)
    speech = surrogate_speech(audio_s, rng, lead_in_s=SPEECH_LEAD_IN_S)
    return speech, mix_at_power_ratio(speech, pink_noise(audio_s, rng), 6.0)


def noise_reduction_db(noisy, enhanced, speech, hop):
    """Noise power removed over speech-free stretches, in dB.

    The surrogate speech is exactly zero between bursts. A hop block
    counts as speech-free when it and its two neighbours on each side
    are all zero, which keeps frame overlap and the high-pass delay from
    leaking speech into the measurement.
    """
    n = min(noisy.size, enhanced.size, speech.size) // hop * hop
    quiet = np.all(speech[:n].reshape(-1, hop) == 0.0, axis=1)
    keep = quiet.copy()
    for k in (1, 2):
        keep[k:] &= quiet[:-k]
        keep[:-k] &= quiet[k:]
    keep[: int(MEASURE_START_S * FS) // hop] = False
    mask = np.repeat(keep, hop)
    p_in = np.mean(noisy[:n][mask] ** 2)
    p_out = np.mean(enhanced[:n][mask] ** 2)
    return float(10.0 * np.log10(p_in / p_out))


class EnhanceFile:
    """One `dualstage enhance` of a float32 WAV through cli.main."""

    name = "enhance-file"
    default_audio_s = 60.0

    def __init__(self, cfg, work_dir, seed, audio_s):
        self.cfg = cfg
        self.audio_s = audio_s
        self.speech, mix = speech_in_pink_noise(seed, audio_s)
        mix = mix.astype(np.float32)
        self.noisy = mix.astype(np.float64)
        self.src = str(work_dir / "in.wav")
        self.dst = str(work_dir / "out.wav")
        wavfile.write(self.src, FS, mix)
        self.warm_src = str(work_dir / "warm.wav")
        wavfile.write(self.warm_src, FS, mix[:FS])
        self.quality_db = None

    def probe_args(self):
        return [self.src, self.dst]

    def warm_up(self):
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["enhance", self.warm_src, self.dst])

    def measure(self, seconds=None, ops=None, tr=None):
        stats = Stats()
        frames = 0
        while not _done(stats, seconds, ops) or not stats.attempted:
            printed = io.StringIO()
            with contextlib.redirect_stdout(printed):
                rc, t0, t1 = _timed(tr, cli.main, ["enhance", self.src, self.dst])
            stats.add(t0, t1, self.audio_s)
            found = re.search(r"(\d+) frames", printed.getvalue())
            frames += int(found.group(1)) if found else 0
            if not self.check(rc):
                stats.failed += 1
        stats.extra["frames_reported"] = frames
        return stats

    def check(self, rc):
        """Exit code 0, output as long as the input, every sample finite."""
        if rc != 0:
            return False
        try:
            _, y = wavfile.read(self.dst)
        except (OSError, ValueError):
            return False
        if y.shape != self.noisy.shape or not np.all(np.isfinite(y)):
            return False
        if self.quality_db is None:
            self.quality_db = noise_reduction_db(
                self.noisy, y.astype(np.float64), self.speech, self.cfg.frame.hop_len
            )
        return True


class StreamHop:
    """The enhance-file mix fed to StreamProcessor.process one hop at a time."""

    name = "stream-hop"
    default_audio_s = 60.0

    def __init__(self, cfg, work_dir, seed, audio_s):
        self.cfg = cfg
        self.speech, self.mix = speech_in_pink_noise(seed, audio_s)
        self.mix_path = str(work_dir / "mix.npy")
        np.save(self.mix_path, self.mix)
        # chunk invariance: hop-sized calls must reproduce one whole-signal
        # call; without a reference every call counts as failed
        whole = pipeline.StreamProcessor(cfg, log_gains=False)
        self.reference = _timed(None, whole.process, self.mix)[0]
        self.quality_db = None
        if isinstance(self.reference, Exception):
            self.reference = None
        else:
            lat = whole.latency_samples
            self.quality_db = noise_reduction_db(
                self.mix[:-lat], self.reference[lat:], self.speech[:-lat], cfg.frame.hop_len
            )

    def probe_args(self):
        return [self.mix_path]

    def warm_up(self):
        proc = pipeline.StreamProcessor(self.cfg, log_gains=False)
        hop = self.cfg.frame.hop_len
        for pos in range(0, FS, hop):
            proc.process(self.mix[pos : pos + hop])

    def measure(self, seconds=None, ops=None, tr=None):
        stats = Stats()
        hop = self.cfg.frame.hop_len
        while not _done(stats, seconds, ops) or not stats.attempted:
            proc = pipeline.StreamProcessor(self.cfg, log_gains=False)
            outs = []
            for pos in range(0, self.mix.size, hop):
                block = self.mix[pos : pos + hop]
                out, t0, t1 = _timed(tr, proc.process, block)
                stats.add(t0, t1, block.size / FS)
                outs.append(out)
                if _done(stats, seconds, ops):
                    break
            stats.failed += self.count_mismatches(outs)
        return stats

    def count_mismatches(self, outs):
        """Calls whose output differs from the whole-signal reference."""
        if self.reference is None:
            return len(outs)
        bad = 0
        pos = 0
        for out in outs:
            if isinstance(out, Exception):
                bad += 1
                continue
            expect = self.reference[pos : pos + out.size]
            pos += out.size
            if not np.array_equal(out, expect):
                bad += 1
        return bad


class EvaluateMatrix:
    """evaluate_condition over {white, am6} x {0, 12} dB x {dual, single}.

    One call is one noise/SNR pair, dual-stage then single-stage: the
    unit the dual-versus-single check needs, and two calls of similar
    cost, where single conditions alone run faster than dual ones.
    """

    name = "evaluate-matrix"
    default_audio_s = 15.0

    def __init__(self, cfg, work_dir, seed, audio_s):
        self.cfg = cfg
        self.audio_s = audio_s
        rng = np.random.default_rng(seed)
        self.speech = surrogate_speech(audio_s, rng, lead_in_s=SPEECH_LEAD_IN_S)
        self.noises = {
            "white": white_noise(audio_s, rng),
            "am6": am_noise(audio_s, rng, mod_hz=6.0, depth=0.7),
        }
        self.pairs = [(noise, snr) for noise in self.noises for snr in (0.0, 12.0)]
        self.speech_path = str(work_dir / "speech.npy")
        self.noise_path = str(work_dir / "noise.npy")
        np.save(self.speech_path, self.speech)
        np.save(self.noise_path, self.noises["white"])
        self.quality_db = None
        self.snri = {}

    def probe_args(self):
        return [self.speech_path, self.noise_path]

    def warm_up(self):
        n = 5 * FS
        metrics.evaluate_condition(
            self.speech[:n], self.noises["white"][:n], 0.0, self.cfg, measure_start_s=MEASURE_START_S
        )

    def evaluate_pair(self, noise, snr):
        """Dual-stage then single-stage report for one noise/SNR pair."""
        return [
            metrics.evaluate_condition(
                self.speech,
                self.noises[noise],
                snr,
                self.cfg,
                single_stage=single,
                measure_start_s=MEASURE_START_S,
            )
            for single in (False, True)
        ]

    def measure(self, seconds=None, ops=None, tr=None):
        stats = Stats()
        done = []
        # at least one whole matrix, for the quality figures
        while not _done(stats, seconds, ops, boundary=len(done) >= len(self.pairs)):
            noise, snr = self.pairs[len(done) % len(self.pairs)]
            reports, t0, t1 = _timed(tr, self.evaluate_pair, noise, snr)
            stats.add(t0, t1, 2 * self.audio_s)
            done.append(reports)
            stats.failed += not _pair_ok(reports)
            if len(done) % len(self.pairs) == 0:
                self.record_quality(done[-len(self.pairs) :])
        return stats

    def record_quality(self, matrix):
        if self.quality_db is not None or not all(_pair_ok(p) for p in matrix):
            return
        reports = [r for pair in matrix for r in pair]
        self.quality_db = float(np.mean([r.noise_reduction_db for r in reports]))
        for (noise, snr), pair in zip(self.pairs, matrix):
            for variant, r in zip(("dual", "single"), pair):
                self.snri[f"{noise}/{snr:g}dB/{variant}"] = r.snri_db


def _pair_ok(reports):
    """Both reports finite and dual-stage SNRI above single-stage SNRI."""
    if isinstance(reports, Exception):
        return False
    dual, single = reports
    return _finite_report(dual) and _finite_report(single) and dual.snri_db > single.snri_db


def _finite_report(report):
    fields = (report.snri_db, report.noise_reduction_db, report.input_snr_db, report.output_snr_db)
    return all(np.isfinite(v) for v in fields)


WORKLOADS = {w.name: w for w in (EnhanceFile, StreamHop, EvaluateMatrix)}


def probe(wl, with_call):
    """One fresh interpreter: set-up time, and peak RSS after one call."""
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC)]
    if with_call:
        cmd += [wl.name] + wl.probe_args()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(wl, seconds, setup_runs):
    probes = [probe(wl, with_call=(i == setup_runs - 1)) for i in range(setup_runs)]
    # a failing program shows in the measured calls, not here
    _timed(None, wl.warm_up)
    with speed.Sampler() as sampler:
        stats = wl.measure(seconds=seconds)
    # the probe's one call is checked only for errors
    stats.untimed += 1
    stats.failed += "error" in probes[-1]
    call_s = np.array([sampler.scale(start, end) for start, end in stats.spans])
    wall_s = np.array([end - start for start, end in stats.spans])
    values = {
        "setup_s": statistics.median(p["setup_s"] for p in probes),
        "realtime_factor": float(call_s.sum()) / stats.audio_s,
        "call_ms_p50": float(np.percentile(call_s, 50)) * 1e3,
        "call_ms_p99": float(np.percentile(call_s, 99)) * 1e3,
        "peak_rss_mb": probes[-1]["peak_rss_mb"],
        # 0 only when every call failed its check, which the result flags
        "noise_reduction_db": wl.quality_db or 0.0,
    }
    context = {
        "wall_clock": {
            "setup_s": statistics.median(p["setup_wall_s"] for p in probes),
            "realtime_factor": float(wall_s.sum()) / stats.audio_s,
            "call_ms_p50": float(np.percentile(wall_s, 50)) * 1e3,
            "call_ms_p99": float(np.percentile(wall_s, 99)) * 1e3,
        },
        "slowdown": 1.0 / (speed.REFERENCE_PASS_S * float(np.mean(sampler.inv_pass))),
        "probe_error": probes[-1].get("error"),
    }
    return {name: (values[name], unit) for name, unit in END_TO_END}, stats, context


def per_layer(wl, seconds, cfg):
    _timed(None, wl.warm_up)
    tr = tracer.Tracer(cfg.frame.hop_len)
    # both passes are scaled to the reference speed, so the overhead
    # share does not depend on which phase of a shared host each ran in
    with speed.Sampler() as sampler:
        tr.install()
        try:
            config.load_preset(PRESET)
            traced = wl.measure(seconds=seconds, tr=tr)
        finally:
            tr.uninstall()
        untraced = wl.measure(ops=len(traced.spans))
    traced_s, untraced_s = (sum(sampler.scale(*span) for span in part.spans) for part in (traced, untraced))
    values = tr.report(traced_s / untraced_s - 1.0, zip(sampler.starts, sampler.ends))
    units = dict(tracer.per_layer_names())
    stats = traced
    stats.spans += untraced.spans
    stats.busy_s += untraced.busy_s
    stats.audio_s += untraced.audio_s
    stats.failed += untraced.failed
    context = {"trace_missing": tr.missing}
    return {name: (values[name], unit) for name, unit in units.items()}, stats, context


def run_context():
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    head = ROOT / ".git" / "HEAD"
    sha = None
    if head.is_file():
        ref = head.read_text().strip()
        target = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        sha = target.read_text().strip() if target and target.is_file() else ref
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "src_lines": src_lines,
        "git_sha": sha,
    }


def run(workload, seed, seconds, trace, audio_s=None, setup_runs=SETUP_RUNS):
    """Run one workload; return (result object, context dict)."""
    kind = WORKLOADS[workload]
    cfg = config.load_preset(PRESET)
    work_dir = WORK / f"run-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        wl = kind(cfg, work_dir, seed, audio_s or kind.default_audio_s)
        if trace:
            measured, stats, context = per_layer(wl, seconds, cfg)
        else:
            measured, stats, context = end_to_end(wl, seconds, setup_runs)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    context.update(run_context())
    context.update(
        workload=workload,
        seed=seed,
        seconds=seconds,
        trace=bool(trace),
        calls=stats.attempted,
        busy_s=stats.busy_s,
        audio_s=stats.audio_s,
    )
    context.update(stats.extra)
    if isinstance(wl, EvaluateMatrix):
        context["snri_db"] = wl.snri
    result = {
        "correct": stats.failed == 0,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in measured.items()},
    }
    return result, context


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measured call time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    result, context = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

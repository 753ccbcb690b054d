"""Time the engine against another revision, in one process.

usage: python scripts/compare_timing.py [REV] [--batches N] [--seconds S]
                                       [--case NAME ...] [--json PATH]

Extracts REV's src/ (default HEAD) with git archive into a temporary
directory and imports its package beside the checkout's, under the
name dualstage_rev: the package imports its own modules relatively,
so each side runs its own code. Each side loads the communication
preset from its own tree. The cases then alternate batches between
the two sides, the side that runs first alternating from batch to
batch:
- one-hop: one-hop (64-sample) StreamProcessor.process calls of a
  default processor, HOP_CALLS per batch, 8 * N batches after
  WARM_CALLS warm-up calls on each side; times are per call;
- stream-hop: benchmarks/run.py's stream-hop loop: per batch, a fresh
  default processor fed S seconds of noise one hop per call, every
  output kept, each call timed; a batch's time is its median call's;
- feed-128, feed-160: a fresh default processor fed S seconds of noise
  in 128- and 160-sample (8 and 10 ms) calls, outputs kept, one run
  per batch; times are per audio second;
- stream-128, stream-256: run_stream over S seconds of noise fed 128
  and 256 hops at a time, one run per batch;
- evaluate: evaluate_condition dual stage and then single stage at
  0 dB, on S seconds of surrogate speech and amplitude-modulated
  noise, one pair per batch.
For each case it prints, for wall time (perf_counter) and the calling
thread's CPU time (thread_time, which leaves out evaluate's shadow
worker thread), each side's median per batch, the quartiles of the
checkout's time over REV's in paired batches, and the share of
batches the checkout ran faster. --json writes the same figures.

Timing on a shared or loaded machine is noisy: read the ratio
quartiles and the share of wins, not one median. Run it from a git
checkout with numpy and scipy installed; it needs no network. The
defaults take about five minutes on a 2-core box.
"""

import argparse
import importlib.util
import io
import json
import statistics
import subprocess
import sys
import tempfile
import time
import zipfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))
sys.path.insert(0, str(ROOT / "src"))
from synth import FS, am_noise, surrogate_speech  # noqa: E402

HOP_CALLS = 200
WARM_CALLS = 2000
CASES = ("one-hop", "stream-hop", "feed-128", "feed-160", "stream-128", "stream-256", "evaluate")
# what each case's times are per
UNITS = {"one-hop": "per call", "stream-hop": "per call (a batch's median)"}
UNITS.update({case: "per audio second" for case in ("feed-128", "feed-160")})


def import_tree(name: str, package: Path):
    """The package in directory package, imported as name."""
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def timed(batch, per):
    """A measure: (wall, thread CPU) seconds of one batch, over per."""

    def measure():
        wall, cpu = time.perf_counter(), time.thread_time()
        batch()
        return (time.perf_counter() - wall) / per, (time.thread_time() - cpu) / per

    return measure


def one_hop(ds, cfg, seconds):
    """A measure of HOP_CALLS one-hop calls of one stream, warmed up."""
    proc = ds.StreamProcessor(cfg)
    hops = np.random.default_rng(0).normal(0.0, 0.1, (HOP_CALLS, cfg.frame.hop_len))
    for i in range(WARM_CALLS):
        proc.process(hops[i % HOP_CALLS])

    def batch():
        for hop in hops:
            proc.process(hop)

    return timed(batch, HOP_CALLS)


def stream_hop(ds, cfg, seconds):
    """A measure of a fresh stream fed one hop per call, every output
    kept: the median call's (wall, thread CPU) seconds."""
    x = np.random.default_rng(3).normal(0.0, 0.1, round(seconds * FS))
    hop = cfg.frame.hop_len

    def measure():
        proc = ds.StreamProcessor(cfg)
        outs, walls, cpus = [], [], []
        for pos in range(0, x.size, hop):
            block = x[pos : pos + hop]
            wall, cpu = time.perf_counter(), time.thread_time()
            out = proc.process(block)
            walls.append(time.perf_counter() - wall)
            cpus.append(time.thread_time() - cpu)
            outs.append(out)
        return statistics.median(walls), statistics.median(cpus)

    return measure


def feed(size):
    """A measure maker: a fresh stream fed seconds of noise in size-sample
    calls, every output kept, per audio second."""

    def make(ds, cfg, seconds):
        x = np.random.default_rng(4).normal(0.0, 0.1, round(seconds * FS))

        def batch():
            proc = ds.StreamProcessor(cfg)
            return [proc.process(x[pos : pos + size]) for pos in range(0, x.size, size)]

        return timed(batch, x.size / FS)

    return make


def stream(feed_hops):
    """A measure maker: one run_stream over seconds of noise fed
    feed_hops hops at a time, on a fresh processor."""

    def make(ds, cfg, seconds):
        x = np.random.default_rng(1).normal(0.0, 0.1, round(seconds * FS))
        size = feed_hops * cfg.frame.hop_len

        def batch():
            proc = ds.StreamProcessor(cfg)
            pieces = (x[i : i + size] for i in range(0, x.size, size))
            for _ in ds.pipeline.run_stream(proc, pieces, x.size):
                pass

        return timed(batch, 1)

    return make


def evaluate(ds, cfg, seconds):
    """A measure of evaluate_condition dual and then single stage."""
    rng = np.random.default_rng(2)
    speech = surrogate_speech(seconds, rng)
    noise = am_noise(seconds, rng, 0.5, 0.9)

    def batch():
        for single in (False, True):
            ds.evaluate_condition(speech, noise, 0.0, cfg, single_stage=single)

    return timed(batch, 1)


RUNNERS = {
    "one-hop": one_hop,
    "stream-hop": stream_hop,
    "feed-128": feed(128),
    "feed-160": feed(160),
    "stream-128": stream(128),
    "stream-256": stream(256),
    "evaluate": evaluate,
}


def compare(sides, case, batches, seconds):
    """Alternate batches of case between the sides (REV's, then the
    checkout's); return {clock: figures}."""
    measures = [RUNNERS[case](ds, cfg, seconds) for ds, cfg in sides]
    times = [[], []]
    for i in range(batches):
        for side in (0, 1) if i % 2 == 0 else (1, 0):
            times[side].append(measures[side]())
    figures = {}
    for k, clock in enumerate(("wall", "cpu")):
        rev, ours = ([t[k] for t in side] for side in times)
        ratios = [o / r for o, r in zip(ours, rev)]
        figures[clock] = {
            "rev_median_us": round(1e6 * statistics.median(rev), 2),
            "checkout_median_us": round(1e6 * statistics.median(ours), 2),
            "ratio_quartiles": [round(q, 4) for q in np.percentile(ratios, [25, 50, 75])],
            "checkout_faster": f"{sum(o < r for o, r in zip(ours, rev))}/{batches}",
        }
    return figures


def extract(rev: str, into: Path) -> Path:
    """REV's src/ extracted under into; returns its package directory."""
    git = ["git", "-C", str(ROOT), "archive", "--format=zip", rev, "src"]
    archive = subprocess.run(git, capture_output=True)
    if archive.returncode:
        sys.exit(f"git archive {rev} failed: {archive.stderr.decode().strip()}")
    with zipfile.ZipFile(io.BytesIO(archive.stdout)) as tree:
        tree.extractall(into)
    return into / "src" / "dualstage"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", nargs="?", default="HEAD", help="revision to compare with")
    parser.add_argument("--batches", type=int, default=20, help="batches per side and case")
    parser.add_argument("--seconds", type=float, default=60.0, help="signal length")
    parser.add_argument(
        "--case", action="append", choices=CASES, help="a case to run (all by default)"
    )
    parser.add_argument("--json", type=Path, help="also write the figures here")
    args = parser.parse_args(argv)
    import dualstage

    if not Path(dualstage.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"imported {dualstage.__file__}, not the checkout's package")
    report = {}
    with tempfile.TemporaryDirectory() as tmp:
        rev = import_tree("dualstage_rev", extract(args.rev, Path(tmp)))
        sides = [
            (ds, ds.config.load_config(Path(ds.__file__).parent / "presets" / "communication.json"))
            for ds in (rev, dualstage)
        ]
        for case in args.case or CASES:
            batches = 8 * args.batches if case == "one-hop" else args.batches
            report[case] = figures = compare(sides, case, batches, args.seconds)
            unit = UNITS.get(case, "per batch")
            print(f"{case}: {batches} batches, times {unit}, checkout against {args.rev}")
            for clock, f in figures.items():
                q = " / ".join(f"{x:.4f}" for x in f["ratio_quartiles"])
                print(
                    f"  {clock:>4}: {args.rev} {f['rev_median_us']:.2f} us, checkout "
                    f"{f['checkout_median_us']:.2f} us, ratio quartiles {q}, "
                    f"checkout faster in {f['checkout_faster']}"
                )
    if args.json:
        args.json.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

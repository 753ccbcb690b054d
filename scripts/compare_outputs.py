"""Check that the engine's outputs and reports are bit-identical to
those of another revision.

usage: python scripts/compare_outputs.py [REV]

Extracts REV's src/ (default HEAD) with git archive into a temporary
directory, then runs one fixed suite (see suite) in two child
processes, one importing REV's src/ and one the checkout's, and
compares what they hand back, case by case. For each case it prints
"identical" or the largest absolute difference between the two, and
it exits 1 on any difference, or on a case only one side has.

The suite runs the three bundled presets, dual and single stage, over
seeded signals from tests/synth.py:
- process_stream's (output, gain log), whole and latency-aligned;
- StreamProcessor.process fed 1-, 64-, 97- and 777-sample pieces, and
  the noise rows of every block that the 777-sample feed yields;
- replay_gains of the whole run's gain log over the noise alone;
- evaluate_condition at -5, 0 and 10 dB SNR, and
  snri_by_gain_shadowing of the mix's gain log;
- metrics.spectrogram_db, once per preset;
- `dualstage enhance` WAVs with the tracker and both spectrogram dumps,
  from a PCM16 and a float32 input;
- an 8-row `dualstage evaluate` CSV with looped noise.
It reads src/ only through the public API and cli.main, so it runs
against any revision that has them. Input WAVs are written with
scipy.io.wavfile, so both sides read the same bytes.

Run it from a git checkout with numpy and scipy installed; it needs no
network. Each child takes about ten seconds on a 2-core box.
"""

import argparse
import contextlib
import dataclasses
import io
import json
import os
import pickle
import re
import subprocess
import sys
import tempfile
import zipfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))
from synth import FS, am_noise, pink_noise, surrogate_speech  # noqa: E402

PRESETS = ("communication", "multimedia", "voice-trigger")
VARIANTS = ("dual", "single")
CHUNKS = (1, 64, 97, 777)
SNRS_DB = (-5.0, 0.0, 10.0)
# the engine cases' signal length; evaluation needs a few seconds of
# speech past the trackers' warm-up
SECONDS = 2.0
EVAL_SECONDS = 4.0
MEASURE_START_S = 1.5
# the files an enhance run writes: the output and its three dumps
DUMPS = (("out", "wav"), ("tracker", "csv"), ("spec_in", "csv"), ("spec_out", "csv"))

# numbers in a text file: integers, decimals, exponents, nan and inf
_NUMBER = re.compile(rb"[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf)")


def suite(presets=PRESETS, variants=VARIANTS, chunks=CHUNKS, snrs_db=SNRS_DB, files=True):
    """Yield (case, {name: array}) for every output of the suite, run
    on the dualstage this process imports; the arguments pick a subset.
    files adds the enhance and evaluate commands' files."""
    import dualstage as ds
    from dualstage import metrics

    rng = np.random.default_rng(2031)
    speech = surrogate_speech(SECONDS, rng)
    noise = pink_noise(SECONDS, rng) + am_noise(SECONDS, rng, 6.0, 0.7)
    mix = speech + noise
    eval_speech = surrogate_speech(EVAL_SECONDS, rng)
    eval_noise = am_noise(EVAL_SECONDS, rng, 0.5, 0.9)
    for preset in presets:
        cfg = ds.load_preset(preset)
        yield f"{preset}/spectrogram_db", {"rows": metrics.spectrogram_db(mix, cfg.frame)}
        for variant in variants:
            single = variant == "single"
            case = f"{preset}/{variant}"
            y, log = ds.process_stream(mix, cfg, single_stage=single)
            yield f"{case}/process_stream", {"y": y, "log": log}
            y, log_aligned = ds.process_stream(mix, cfg, single_stage=single, latency_aligned=True)
            yield f"{case}/process_stream_aligned", {"y": y, "log": log_aligned}
            for size in chunks:
                proc = ds.StreamProcessor(cfg, single_stage=single)
                outs = [proc.process(mix[i : i + size]) for i in range(0, mix.size, size)]
                yield f"{case}/process_{size}", {"y": np.concatenate(outs)}
            proc = ds.StreamProcessor(cfg, single_stage=single, log_gains=True)
            rows = {}
            for i in range(0, mix.size, 777):
                for record in proc.blocks(mix[i : i + 777]):
                    for k, (raw, smoothed) in enumerate(record.noise, 1):
                        rows.setdefault(f"stage{k}_raw", []).append(raw)
                        rows.setdefault(f"stage{k}_smoothed", []).append(smoothed)
            yield f"{case}/block_noise_rows", {k: np.concatenate(v) for k, v in rows.items()}
            yield f"{case}/replay_gains", {"y": ds.replay_gains(noise, log, cfg)}
            report = ds.snri_by_gain_shadowing(speech, noise, log, cfg, measure_start_s=0.5)
            yield f"{case}/snri_by_gain_shadowing", _report(report)
            for snr in snrs_db:
                report = ds.evaluate_condition(
                    eval_speech, eval_noise, snr, cfg, single_stage=single,
                    measure_start_s=MEASURE_START_S,
                )
                yield f"{case}/evaluate_condition_{snr:g}dB", _report(report)
    if files:
        with tempfile.TemporaryDirectory() as tmp:
            yield from _command_files(Path(tmp), presets, variants, mix, rng)


def _report(report) -> dict:
    return {field: np.float64(value) for field, value in dataclasses.asdict(report).items()}


def _command_files(tmp: Path, presets, variants, mix, rng):
    """The files `dualstage enhance` and `dualstage evaluate` write."""
    from scipy.io import wavfile

    inputs = {
        "pcm16": np.round(mix / np.abs(mix).max() * 20000).astype(np.int16),
        "float32": (0.5 * mix).astype(np.float32),
    }
    for subtype, samples in inputs.items():
        wavfile.write(tmp / f"in_{subtype}.wav", FS, samples)
    for preset in presets:
        for variant in variants:
            for subtype in inputs:
                out = {tag: tmp / f"{tag}.{ext}" for tag, ext in DUMPS}
                argv = ["enhance", str(tmp / f"in_{subtype}.wav"), str(out["out"])]
                argv += ["--preset", preset]
                argv += ["--tracker-dump", str(out["tracker"])]
                argv += ["--dump-spectrogram-in", str(out["spec_in"])]
                argv += ["--dump-spectrogram-out", str(out["spec_out"])]
                _run_command(argv + (["--single-stage"] if variant == "single" else []))
                for tag, path in out.items():
                    yield f"{preset}/{variant}/enhance_{subtype}/{tag}", _file(path)
    # two speech files against one noise file that must be looped
    speech_a = surrogate_speech(EVAL_SECONDS, rng)
    speech_b = surrogate_speech(EVAL_SECONDS - 0.5, rng)
    noise = am_noise(1.5, rng, 6.0, 0.7)
    for name, x in (("speech_a", speech_a), ("speech_b", speech_b), ("noise", noise)):
        wavfile.write(tmp / f"{name}.wav", FS, x.astype(np.float32))
    matrix = {
        "speech": [str(tmp / "speech_a.wav"), str(tmp / "speech_b.wav")],
        "noise": [str(tmp / "noise.wav")],
        "snr_db": [0.0, 10.0],
        "presets": [presets[0]],
        "variants": ["dual", "single"],
        "measure_start_s": MEASURE_START_S,
        "loop_noise": True,
    }
    (tmp / "matrix.json").write_text(json.dumps(matrix))
    _run_command(["evaluate", str(tmp / "matrix.json"), str(tmp / "report.csv")])
    yield "evaluate_csv", _file(tmp / "report.csv")


def _run_command(argv) -> None:
    from dualstage import cli

    stdout = io.StringIO()  # its lines hold timings
    with contextlib.redirect_stdout(stdout):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"dualstage {' '.join(argv)} exited {code}")


def _file(path: Path) -> dict:
    """A file's bytes, and the values it holds: a WAV's samples, or
    every number in a text file."""
    raw = path.read_bytes()
    values = _wav_samples(raw) if path.suffix == ".wav" else _numbers(raw)
    return {"bytes": np.frombuffer(raw, np.uint8), "values": values}


def _wav_samples(raw: bytes) -> np.ndarray:
    """The samples of a mono PCM16 or float32 WAV's data chunk."""
    pos, dtype = 12, None
    while pos + 8 <= len(raw):
        tag, size = raw[pos : pos + 4], int.from_bytes(raw[pos + 4 : pos + 8], "little")
        body = raw[pos + 8 : pos + 8 + size]
        if tag == b"fmt ":
            dtype = np.dtype("<f4") if int.from_bytes(body[:2], "little") == 3 else np.dtype("<i2")
        elif tag == b"data":
            return np.frombuffer(body, dtype).astype(float)
        pos += 8 + size + size % 2
    raise ValueError("no data chunk")


def _numbers(raw: bytes) -> np.ndarray:
    return np.array([float(token) for token in _NUMBER.findall(raw)])


def differences(ours: dict, theirs: dict) -> list[str]:
    """One line per case: its name and "identical", or how it differs."""
    lines = []
    for case in sorted(ours.keys() | theirs.keys()):
        if case not in ours or case not in theirs:
            lines.append(f"{case}: only in {'ours' if case in ours else 'theirs'}")
            continue
        lines.append(f"{case}: {_difference(ours[case], theirs[case])}")
    return lines


def _difference(ours: dict, theirs: dict) -> str:
    if ours.keys() != theirs.keys():
        return f"arrays differ: {sorted(ours)} vs {sorted(theirs)}"
    changed = [k for k in ours if not _same_bits(ours[k], theirs[k])]
    if not changed:
        return "identical"
    worst, where = 0.0, None
    for k in changed:
        if k == "bytes":  # a file's values say by how much
            continue
        a, b = (np.atleast_1d(np.asarray(x, dtype=float)) for x in (ours[k], theirs[k]))
        if a.shape != b.shape:
            return f"{k} has shape {a.shape} vs {b.shape}"
        diff = np.abs(a - b)
        # a NaN on one side only is as large as a difference gets
        diff[np.isnan(a) != np.isnan(b)] = np.inf
        diff[np.isnan(a) & np.isnan(b)] = 0.0
        if where is None or diff.max(initial=0.0) > worst:
            worst, where = float(diff.max(initial=0.0)), k
    if where is None:
        return "bytes differ, values identical"
    return f"largest absolute difference {worst:.6g} ({where})"


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _collect(src: Path, out: Path) -> None:
    """Child side: run the suite on src's dualstage; pickle it to out."""
    import dualstage

    if not Path(dualstage.__file__).resolve().is_relative_to(src.resolve()):
        raise RuntimeError(f"imported {dualstage.__file__}, not the package under {src}")
    with open(out, "wb") as fh:
        pickle.dump(dict(suite()), fh)


def _run_child(src: Path, out: Path) -> dict:
    path = [str(src), *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    cmd = [sys.executable, __file__, "--collect", str(src), str(out)]
    subprocess.run(cmd, env=env, check=True)
    with open(out, "rb") as fh:
        return pickle.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", nargs="?", default="HEAD", help="revision to compare with")
    parser.add_argument("--collect", nargs=2, metavar=("SRC", "OUT"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.collect:
        _collect(*map(Path, args.collect))
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        git = ["git", "-C", str(ROOT), "archive", "--format=zip", args.rev, "src"]
        archive = subprocess.run(git, capture_output=True)
        if archive.returncode:
            sys.exit(f"git archive {args.rev} failed: {archive.stderr.decode().strip()}")
        with zipfile.ZipFile(io.BytesIO(archive.stdout)) as tree:
            tree.extractall(tmp / "rev")
        theirs = _run_child(tmp / "rev" / "src", tmp / "theirs.pickle")
        ours = _run_child(ROOT / "src", tmp / "ours.pickle")
    lines = differences(ours, theirs)
    print("\n".join(lines))
    differing = sum(not line.endswith(": identical") for line in lines)
    verdict = f"{differing} differ" if differing else "all identical"
    print(f"{len(lines)} cases against {args.rev}: {verdict}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())

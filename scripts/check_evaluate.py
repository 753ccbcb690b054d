"""Check `dualstage mix` and `dualstage evaluate` end to end, and that
evaluate's memory is flat in signal length.

Writes 5 s and 4 s of surrogate speech, 5 s of white noise and 2 s of
louder white noise as WAVs into a temporary directory, mixes the first
speech and noise with `dualstage mix`, and evaluates both speech files
in both noises with `dualstage evaluate` at two SNRs, dual and single
stage, with loop_noise on, so the 2 s noise is tiled to each speech
file's length. With loop_noise off, the same matrix must stop before
its first condition: exit 1, one stderr line naming the 2 s noise
file and the longest speech file, and no report.
Then it evaluates a 1 min and a 4 min speech/noise pair (one SNR, dual
stage), each in a child process of its own, and reads each child's
peak resident set (ru_maxrss, KiB on Linux) from wait4. Exits 1 unless
every other command succeeds, the mix comes out as long as the speech,
the report has one row per condition, every figure in it is finite,
the refused run fails as said, and the 4 min peak exceeds the 1 min
peak by at most four float64 copies of the extra 3 min of signal plus
8 MiB: the command holds the speech
and the noise it read, and evaluate_condition one transient copy
while it scales the noise. evaluate shadows the gains on a worker
thread, so this runs that path through the command as installed. The
long WAVs are written a few seconds at a time, so this process stays
smaller than any child, whose peak would otherwise include it.

usage: python scripts/check_evaluate.py [DUALSTAGE]

DUALSTAGE is the command to run, split as a shell splits it (default:
dualstage on PATH), so a checkout with no installed package can pass
"python -m dualstage.cli" with src on PYTHONPATH. Run from the
checkout: the signals come from tests/synth.py.
"""

import csv
import json
import math
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from dualstage import read_wav, write_wav

# the script beside this one, which the CI's enhance step runs
from check_enhance_rss import peak_rss_mib

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from synth import FS, surrogate_speech, white_noise  # noqa: E402

SECONDS = 5.0
# the second speech file's length, and the looped noise's
SPEECH2_S = 4.0
SHORT_NOISE_S = 2.0
SNRS_DB = [0.0, 12.0]
VARIANTS = ["dual", "single"]
KEY_COLUMNS = {"noise_type", "preset", "variant"}
FLAT_MINUTES = (1, 4)
# growth allowed per extra sample: four float64 copies, plus a margin
COPIES = 4
SLACK_MIB = 8.0
# surrogate speech is written in pieces of this many seconds, a whole
# number of its 300 ms burst periods
SPEECH_PIECE_S = 3.0


def finite(text):
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def run(argv):
    proc = subprocess.run(argv, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited with {proc.returncode}: {proc.stderr.strip()}")


def evaluate_peak_mib(command, tmp, minutes, rng):
    """Write a minutes-long speech/noise pair and its one-condition
    matrix; return the peak RSS of `dualstage evaluate` on it."""
    size = 60 * minutes * FS
    speech, noise = (os.path.join(tmp, f"{name}{minutes}.wav") for name in ("speech", "noise"))
    pieces = round(60 * minutes / SPEECH_PIECE_S)
    write_wav(speech, (surrogate_speech(SPEECH_PIECE_S, rng) for _ in range(pieces)), FS, "float32", size=size)
    write_wav(noise, (white_noise(1.0, rng) for _ in range(60 * minutes)), FS, "float32", size=size)
    matrix = os.path.join(tmp, f"matrix{minutes}.json")
    with open(matrix, "w") as fh:
        doc = {"speech": [speech], "noise": [noise], "snr_db": [6.0], "presets": ["communication"]}
        json.dump({**doc, "variants": ["dual"], "measure_start_s": 1.0}, fh)
    return peak_rss_mib([*command, "evaluate", matrix, os.path.join(tmp, f"report{minutes}.csv")])


def main():
    command = shlex.split(sys.argv[1]) if len(sys.argv) > 1 else ["dualstage"]
    rng = np.random.default_rng(0)
    with tempfile.TemporaryDirectory() as tmp:
        speech, noise, mix = (os.path.join(tmp, f"{name}.wav") for name in ("speech", "noise", "mix"))
        write_wav(speech, surrogate_speech(SECONDS, rng, lead_in_s=0.5), FS, "float32")
        write_wav(noise, white_noise(SECONDS, rng), FS, "float32")
        speech2, short = (os.path.join(tmp, f"{name}.wav") for name in ("speech2", "short"))
        write_wav(speech2, surrogate_speech(SPEECH2_S, rng, lead_in_s=0.5), FS, "float32")
        write_wav(short, white_noise(SHORT_NOISE_S, rng, level=0.1), FS, "float32")
        run([*command, "mix", speech, noise, mix, "--snr-db", "6"])
        mixed = read_wav(mix)[0]
        if mixed.size != round(SECONDS * FS) or not np.all(np.isfinite(mixed)):
            sys.exit(f"mix: {mixed.size} samples, expected {round(SECONDS * FS)}, all finite")
        matrix = os.path.join(tmp, "matrix.json")
        with open(matrix, "w") as fh:
            doc = {"speech": [speech, speech2], "noise": [noise, short], "snr_db": SNRS_DB}
            doc.update(presets=["communication"], variants=VARIANTS, loop_noise=True)
            json.dump({**doc, "measure_start_s": 1.0}, fh)
        report = os.path.join(tmp, "report.csv")
        run([*command, "evaluate", matrix, report])
        with open(report, newline="") as fh:
            rows = list(csv.DictReader(fh))
        # the short noise file sorts after the other one, whose
        # conditions would run first if the files were checked lazily
        with open(matrix, "w") as fh:
            json.dump({**doc, "loop_noise": False, "measure_start_s": 1.0}, fh)
        report = os.path.join(tmp, "refused.csv")
        proc = subprocess.run([*command, "evaluate", matrix, report], capture_output=True, text=True)
        err = proc.stderr
        refused = proc.returncode == 1 and err.count("\n") == 1 and short in err and speech in err
        refused = refused and not os.path.exists(report)
    expected = len(doc["speech"]) * len(doc["noise"]) * len(SNRS_DB) * len(VARIANTS)
    bad = [
        (i, key, value)
        for i, row in enumerate(rows)
        for key, value in row.items()
        if key not in KEY_COLUMNS and not finite(value)
    ]
    print(f"evaluate: {len(rows)} rows (expected {expected}), {len(bad)} non-finite values")
    print(f"evaluate, short noise without loop_noise: exit {proc.returncode}, {err.strip()!r}")
    with tempfile.TemporaryDirectory() as tmp:
        short, long = FLAT_MINUTES
        peaks = [evaluate_peak_mib(command, tmp, m, rng) for m in FLAT_MINUTES]
    limit = COPIES * 60 * (long - short) * FS * 8 / 2**20 + SLACK_MIB
    growth = peaks[1] - peaks[0]
    print(
        f"peak RSS, evaluate: {short} min {peaks[0]:.1f} MiB, {long} min {peaks[1]:.1f} MiB, "
        f"difference {growth:+.1f} MiB (limit {limit:.1f})"
    )
    return 0 if len(rows) == expected and not bad and refused and growth <= limit else 1


if __name__ == "__main__":
    sys.exit(main())

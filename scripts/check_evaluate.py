"""Check `dualstage mix` and `dualstage evaluate` end to end.

Writes 5 s of surrogate speech and 5 s of white noise as WAVs into a
temporary directory, mixes them with `dualstage mix`, and evaluates the
pair with `dualstage evaluate` at two SNRs, dual and single stage.
Exits 1 unless both commands succeed, the mix comes out as long as the
speech, the report has one row per condition, and every figure in it
is finite. evaluate shadows the gains on a worker thread, so this runs
that path through the command as installed.

usage: python scripts/check_evaluate.py [DUALSTAGE]

DUALSTAGE is the command to run (default: dualstage on PATH). Run from
the checkout: the signals come from tests/synth.py.
"""

import csv
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from dualstage import read_wav, write_wav

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from synth import FS, surrogate_speech, white_noise  # noqa: E402

SECONDS = 5.0
SNRS_DB = [0.0, 12.0]
VARIANTS = ["dual", "single"]
KEY_COLUMNS = {"noise_type", "preset", "variant"}


def finite(text):
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def run(argv):
    proc = subprocess.run(argv, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited with {proc.returncode}: {proc.stderr.strip()}")


def main():
    command = sys.argv[1] if len(sys.argv) > 1 else "dualstage"
    rng = np.random.default_rng(0)
    with tempfile.TemporaryDirectory() as tmp:
        speech, noise, mix = (os.path.join(tmp, f"{name}.wav") for name in ("speech", "noise", "mix"))
        write_wav(speech, surrogate_speech(SECONDS, rng, lead_in_s=0.5), FS, "float32")
        write_wav(noise, white_noise(SECONDS, rng), FS, "float32")
        run([command, "mix", speech, noise, mix, "--snr-db", "6"])
        mixed = read_wav(mix)[0]
        if mixed.size != round(SECONDS * FS) or not np.all(np.isfinite(mixed)):
            sys.exit(f"mix: {mixed.size} samples, expected {round(SECONDS * FS)}, all finite")
        matrix = os.path.join(tmp, "matrix.json")
        with open(matrix, "w") as fh:
            doc = {"speech": [speech], "noise": [noise], "snr_db": SNRS_DB, "presets": ["communication"]}
            json.dump({**doc, "variants": VARIANTS, "measure_start_s": 1.0}, fh)
        report = os.path.join(tmp, "report.csv")
        run([command, "evaluate", matrix, report])
        with open(report, newline="") as fh:
            rows = list(csv.DictReader(fh))
    expected = len(SNRS_DB) * len(VARIANTS)
    bad = [
        (i, key, value)
        for i, row in enumerate(rows)
        for key, value in row.items()
        if key not in KEY_COLUMNS and not finite(value)
    ]
    print(f"evaluate: {len(rows)} rows (expected {expected}), {len(bad)} non-finite values")
    return 0 if len(rows) == expected and not bad else 1


if __name__ == "__main__":
    sys.exit(main())

"""Check that running dualstage never imports scipy.signal or scipy.stats.

In one fresh interpreter: imports dualstage, runs `dualstage enhance`
through cli.main on a 1 s WAV of noise, and evaluates one condition
with evaluate_condition. Exits 1, naming them, if scipy.signal or
scipy.stats is then in sys.modules. Importing scipy.signal (which
pulls in scipy.stats, scipy.optimize and scipy.interpolate) takes
about a second, which every process that starts on demand would pay
before its first sample.

usage: python scripts/check_imports.py

Imports the dualstage that the interpreter finds: the installed one, or
the checkout's with PYTHONPATH=src.
"""

import contextlib
import io
import os
import sys
import tempfile

import numpy as np

from dualstage import cli, evaluate_condition, load_preset, write_wav

FORBIDDEN = ("scipy.signal", "scipy.stats")
FS = 16000


def main():
    rng = np.random.default_rng(0)
    # 1.5 s: evaluate_condition asks for at least 1 s of active speech
    noise = 0.1 * rng.standard_normal(3 * FS // 2)
    speech = 0.3 * np.sin(2 * np.pi * 300 / FS * np.arange(noise.size))
    with tempfile.TemporaryDirectory() as tmp:
        src, dst = os.path.join(tmp, "in.wav"), os.path.join(tmp, "out.wav")
        write_wav(src, noise[:FS], FS, "float32")
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["enhance", src, dst])
        if code != 0:
            sys.exit(f"dualstage enhance exited with {code}")
    evaluate_condition(speech, noise, 6.0, load_preset("communication"))
    loaded = [name for name in FORBIDDEN if name in sys.modules]
    if loaded:
        sys.exit(f"running dualstage imported {', '.join(loaded)}")
    print(f"ok: {len(sys.modules)} modules loaded, none of {', '.join(FORBIDDEN)}")


if __name__ == "__main__":
    main()

"""Check that running dualstage imports none of scipy's heavy packages.

In one fresh interpreter, in three phases:
- two streams: imports dualstage and feeds 1 s of noise through a
  StreamProcessor in 64-sample process calls (one hop), then through
  another in 160-sample calls (10 ms at 16 kHz, two or three frames a
  call). Exits 1, naming each one loaded, if scipy.linalg._flapack,
  scipy.io.wavfile, top-level scipy (outside Windows) or
  concurrent.futures is then in sys.modules: the engine steps a push
  of a few frames one frame at a time, a lone frame never solves a
  block and a stream reads no WAV, so a caller fed a hop or a 10 ms
  buffer at a time needs no LAPACK wrapper (nor its OpenBLAS thread)
  and no WAV codec.
- an enhance run: runs `dualstage enhance` through cli.main on a 1 s
  WAV of noise. Exits 1, naming it, if top-level scipy (outside
  Windows) or concurrent.futures is then in sys.modules: their
  __init__s cost a process that starts on demand time and memory, and
  enhance needs neither (only Windows wheels need scipy's, to set up
  their libraries, and only evaluation runs a worker thread).
- an evaluation: evaluates one condition with evaluate_condition and
  exits 1, naming them, if scipy.signal, scipy.stats, scipy.linalg,
  scipy.io, scipy.fft or numpy.fft is then in sys.modules, or if one
  of the four leaf modules dualstage uses (scipy.signal._sigtools,
  scipy.linalg._flapack, scipy.io.wavfile,
  scipy.fft._pocketfft.pypocketfft) is missing or was loaded from a
  file outside the installed scipy's signal, linalg, io or
  fft/_pocketfft directory.
Importing scipy.signal (which pulls in scipy.stats, scipy.optimize and
scipy.interpolate) takes about a second; the scipy.linalg, scipy.io
and scipy.fft packages take about a quarter of one, for lfilter's C
loop, a LAPACK wrapper, a WAV codec and an FFT pair that dualstage
loads from their files alone (dualstage._scipy). Every process that
starts on demand would pay that before its first sample. A scipy whose
layout moved those files makes dualstage import the packages after
all, which this check reports. The engine's transforms are scipy's, so
numpy.fft, which numpy loads on first use, stays unloaded too.

usage: python scripts/check_imports.py

Imports the dualstage that the interpreter finds: the installed one, or
the checkout's with PYTHONPATH=src.
"""

import contextlib
import io
import os
import sys
import tempfile
from importlib.util import find_spec

import numpy as np

from dualstage import StreamProcessor, cli, evaluate_condition, load_preset, write_wav

# what an enhance run leaves unloaded
LEAN = ("concurrent.futures",) if os.name == "nt" else ("scipy", "concurrent.futures")
# and what a stream fed a hop or 10 ms at a time leaves unloaded besides
LEAN_STREAM = ("scipy.linalg._flapack", "scipy.io.wavfile", *LEAN)
FORBIDDEN = ("scipy.signal", "scipy.stats", "scipy.linalg", "scipy.io", "scipy.fft", "numpy.fft")
# the leaf modules dualstage loads, and the directory each must come from
LEAVES = {
    "scipy.signal._sigtools": "signal",
    "scipy.linalg._flapack": "linalg",
    "scipy.io.wavfile": "io",
    "scipy.fft._pocketfft.pypocketfft": "fft/_pocketfft",
}
FS = 16000
# the streams' call sizes: one hop, and 10 ms
FEEDS = (64, 160)


def main():
    rng = np.random.default_rng(0)
    # 1.5 s: evaluate_condition asks for at least 1 s of active speech
    noise = 0.1 * rng.standard_normal(3 * FS // 2)
    speech = 0.3 * np.sin(2 * np.pi * 300 / FS * np.arange(noise.size))
    for feed in FEEDS:
        proc = StreamProcessor(load_preset("communication"))
        for pos in range(0, FS, feed):
            proc.process(noise[pos : pos + feed])
        loaded = [name for name in LEAN_STREAM if name in sys.modules]
        if loaded:
            sys.exit(f"a dualstage stream fed {feed} samples a call imported {', '.join(loaded)}")
    with tempfile.TemporaryDirectory() as tmp:
        src, dst = os.path.join(tmp, "in.wav"), os.path.join(tmp, "out.wav")
        write_wav(src, noise[:FS], FS, "float32")
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["enhance", src, dst])
        if code != 0:
            sys.exit(f"dualstage enhance exited with {code}")
    loaded = [name for name in LEAN if name in sys.modules]
    if loaded:
        sys.exit(f"dualstage enhance imported {', '.join(loaded)}")
    evaluate_condition(speech, noise, 6.0, load_preset("communication"))
    loaded = [name for name in FORBIDDEN if name in sys.modules]
    if loaded:
        sys.exit(f"running dualstage imported {', '.join(loaded)}")
    scipy_dir = os.path.dirname(os.path.realpath(find_spec("scipy").origin))
    for name, folder in LEAVES.items():
        path = getattr(sys.modules.get(name), "__file__", None)
        expected = os.path.join(scipy_dir, *folder.split("/"))
        if path is None or os.path.dirname(os.path.realpath(path)) != expected:
            sys.exit(f"{name} was loaded from {path}, not from {expected}")
    print(
        f"ok: {len(sys.modules)} modules loaded, none of {', '.join(FORBIDDEN)}; "
        f"enhance loaded none of {', '.join(LEAN)}; "
        f"streams fed {' and '.join(map(str, FEEDS))} samples a call none of {', '.join(LEAN_STREAM)}"
    )


if __name__ == "__main__":
    main()

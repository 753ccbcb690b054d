"""Start-up cost: running dualstage imports none of scipy.signal,
scipy.stats, scipy.linalg, scipy.io or scipy.fft, which between them
take most of a second to import, nor numpy.fft; it loads
scipy.signal._sigtools, scipy.linalg._flapack, scipy.io.wavfile and
scipy.fft._pocketfft.pypocketfft from their files alone
(dualstage._scipy), and those are the very module objects scipy hands
out when its packages are imported too. A stream imports neither
top-level scipy (outside Windows) nor concurrent.futures, which only
evaluation uses; the LAPACK wrapper loads on the first block solve and
the WAV codec on the first read, so a stream fed one hop at a time
loads neither, and threads that make their first solve at once load
the wrapper once."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_python(*args):
    """A fresh interpreter with the checkout's src first on its path."""
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_a_run_imports_no_heavy_scipy_package():
    """scripts/check_imports.py in a fresh interpreter: feed a stream a
    hop a call and another 160 samples a call and look in sys.modules,
    enhance a 1 s WAV through cli.main and look again, then evaluate
    one condition, look again and at where the four scipy leaf modules
    came from."""
    run_python(str(ROOT / "scripts" / "check_imports.py"))


IMPORT_DUALSTAGE = """
import os
import sys
import numpy as np
from dualstage import framing, load_preset, noise_tracking, wavio
from dualstage.pipeline import StreamProcessor
WAV = os.path.join(sys.argv[1], "x.wav")
wavio.write_wav(WAV, np.zeros(100), 16000)
def run_block():
    out = StreamProcessor(load_preset("communication")).process(np.ones(4096))
    assert out.size and np.isfinite(out).all()
run_block()
wavio.read_wav(WAV)
"""

IMPORT_SCIPY = """
import scipy.fft
import scipy.io.wavfile
import scipy.linalg
import scipy.linalg.lapack as lapack
import scipy.signal
"""

SAME_OBJECTS = """
import scipy.signal._sigtools as sigtools
assert sigtools._linear_filter is framing._linear_filter
assert sigtools._linear_filter is noise_tracking._linear_filter
import scipy.fft._pocketfft.pypocketfft as pocketfft
# the name scipy.fft's transforms call it by
assert pocketfft is scipy.fft._pocketfft.basic.pfft is framing._pocketfft
ab = np.array([[0.0, 1.0, 1.0], [4.0, 4.0, 4.0], [1.0, 1.0, 0.0]])
x = scipy.linalg.solve_banded((1, 1), ab, [5.0, 6.0, 5.0])
np.testing.assert_allclose(x, [1.0, 1.0, 1.0])
y = scipy.signal.lfilter([0.5], [1.0, -0.5], [1.0, 1.0, 1.0])
np.testing.assert_array_equal(y, [0.5, 0.75, 0.875])
np.testing.assert_allclose(scipy.fft.rfft([1.0, 2.0, 3.0, 4.0]), [10.0, -2.0 + 2.0j, -2.0])
# the LAPACK wrapper and the WAV codec are looked up on each use: a
# block solve and a read call the routines scipy hands out
import scipy.linalg._flapack as flapack
assert lapack.dgttrs is flapack.dgttrs
calls = []
def spy(module, name):
    real = getattr(module, name)
    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)
    setattr(module, name, counted)
spy(flapack, "dgttrs")
spy(scipy.io.wavfile, "read")
run_block()
wavio.read_wav(WAV)
assert "dgttrs" in calls and "read" in calls, calls
"""


@pytest.mark.parametrize("first", ["dualstage", "scipy"])
def test_scipy_packages_share_the_leaf_modules(first, tmp_path):
    """Whichever is imported and run first, dualstage's filter loop and
    transforms are the objects scipy.signal and scipy.fft hand out, its
    block solve calls scipy.linalg's dgttrs and its WAV read
    scipy.io.wavfile's read, scipy.linalg still solves,
    scipy.signal.lfilter still filters and scipy.fft.rfft still
    transforms."""
    parts = [IMPORT_DUALSTAGE, IMPORT_SCIPY] if first == "dualstage" else [IMPORT_SCIPY, IMPORT_DUALSTAGE]
    run_python("-c", "".join(parts) + SAME_OBJECTS, str(tmp_path))


STREAM = """
import sys
import numpy as np
import dualstage
out = dualstage.StreamProcessor(dualstage.load_preset("communication")).process(np.ones(4096))
assert out.size and np.isfinite(out).all()
assert sys.argv[1] not in sys.modules, f"running a stream imported {sys.argv[1]}"
"""


@pytest.mark.parametrize(
    "package",
    [
        "concurrent.futures",
        pytest.param(
            "scipy",
            marks=pytest.mark.skipif(
                os.name == "nt", reason="Windows wheels set up their libraries in scipy's __init__"
            ),
        ),
    ],
)
def test_a_stream_imports_only_what_runs(package):
    """In a fresh interpreter, import dualstage and run a
    StreamProcessor; package is then still not loaded."""
    run_python("-c", STREAM, package)


HOP_BY_HOP = """
import sys
import numpy as np
import dualstage
proc = dualstage.StreamProcessor(dualstage.load_preset("communication"))
x = 0.1 * np.random.default_rng(0).standard_normal(16000)
for pos in range(0, x.size, 64):
    assert np.isfinite(proc.process(x[pos : pos + 64])).all()
loaded = [name for name in ("scipy.linalg._flapack", "scipy.io.wavfile") if name in sys.modules]
assert not loaded, f"a hop-by-hop stream loaded {loaded}"
"""


def test_a_hop_by_hop_stream_loads_no_lapack_or_wav_codec():
    """In a fresh interpreter, feed 1 s through a StreamProcessor in
    64-sample calls: neither scipy.linalg._flapack nor scipy.io.wavfile
    is then loaded."""
    run_python("-c", HOP_BY_HOP)


RACE = """
import threading
import time
import numpy as np
import dualstage
from dualstage import _scipy
# count the leaf modules made, and hold each thread between finding
# its leaf missing and registering it long enough for the other to look
made = []
module_from_spec = _scipy.module_from_spec
def slow_module_from_spec(spec):
    made.append(spec.name)
    time.sleep(0.2)
    return module_from_spec(spec)
_scipy.module_from_spec = slow_module_from_spec
cfg = dualstage.load_preset("communication")
x = 0.1 * np.random.default_rng(0).standard_normal(16000)
def run():
    proc = dualstage.StreamProcessor(cfg)
    return np.concatenate([proc.process(x[pos : pos + 1024]) for pos in range(0, x.size, 1024)])
barrier = threading.Barrier(2)
outs = {}
def worker(i):
    barrier.wait()
    outs[i] = run()
threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join()
assert made.count("scipy.linalg._flapack") == 1, made
serial = run()
assert len(outs) == 2 and all(out.tobytes() == serial.tobytes() for out in outs.values())
"""


def test_threads_that_solve_first_at_once_load_one_lapack_module():
    """In a fresh interpreter, two threads released together each run a
    new StreamProcessor over the same 1 s in 1024-sample calls: the
    LAPACK wrapper is made once, and both outputs equal a serial run's
    bit for bit."""
    run_python("-c", RACE)


FALLBACK = """
import os
import sys
import numpy as np
from dualstage import _scipy, wavio
path = os.path.join(sys.argv[1], "x.wav")
wavio.write_wav(path, np.zeros(100), 16000)
wavio.read_wav(path)
first = sys.modules["scipy.io.wavfile"]
assert "scipy.io" not in sys.modules
# the leaf no longer loaded, and not where the loader looks for it
del sys.modules["scipy.io.wavfile"]
_scipy.SCIPY_DIR = sys.argv[1]
x, rate, _ = wavio.read_wav(path)
assert rate == 16000 and x.size == 100 and not x.any()
assert "scipy.io" in sys.modules
import scipy.io
assert sys.modules["scipy.io.wavfile"] is scipy.io.wavfile is not first
"""


def test_a_leaf_not_where_scipy_puts_it_is_imported_the_usual_way(tmp_path):
    """After a read has loaded the WAV codec from its file, take it out
    of sys.modules and move SCIPY_DIR: the next read still reads, and
    imports scipy.io the usual way to do it."""
    run_python("-c", FALLBACK, str(tmp_path))

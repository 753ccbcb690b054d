"""Start-up cost: running dualstage imports none of scipy.signal,
scipy.stats, scipy.linalg, scipy.io or scipy.fft, which between them
take most of a second to import, nor numpy.fft; it loads
scipy.signal._sigtools, scipy.linalg._flapack, scipy.io.wavfile and
scipy.fft._pocketfft.pypocketfft from their files alone
(dualstage._scipy), and those are the very module objects scipy hands
out when its packages are imported too. A stream imports neither
top-level scipy (outside Windows) nor concurrent.futures, which only
evaluation uses."""

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
    """scripts/check_imports.py in a fresh interpreter: enhance a 1 s WAV
    through cli.main and look in sys.modules, then evaluate one
    condition, look again and at where the four scipy leaf modules
    came from."""
    run_python(str(ROOT / "scripts" / "check_imports.py"))


IMPORT_DUALSTAGE = """
import numpy as np
from dualstage import framing, load_preset, noise_tracking, wavio
from dualstage.pipeline import StreamProcessor
out = StreamProcessor(load_preset("communication")).process(np.ones(4096))
assert out.size and np.isfinite(out).all()
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
assert lapack.dgttrs is noise_tracking._dgttrs
assert scipy.io.wavfile is wavio.wavfile
import scipy.fft._pocketfft.pypocketfft as pocketfft
# the name scipy.fft's transforms call it by
assert pocketfft is scipy.fft._pocketfft.basic.pfft is framing._pocketfft
ab = np.array([[0.0, 1.0, 1.0], [4.0, 4.0, 4.0], [1.0, 1.0, 0.0]])
x = scipy.linalg.solve_banded((1, 1), ab, [5.0, 6.0, 5.0])
np.testing.assert_allclose(x, [1.0, 1.0, 1.0])
y = scipy.signal.lfilter([0.5], [1.0, -0.5], [1.0, 1.0, 1.0])
np.testing.assert_array_equal(y, [0.5, 0.75, 0.875])
np.testing.assert_allclose(scipy.fft.rfft([1.0, 2.0, 3.0, 4.0]), [10.0, -2.0 + 2.0j, -2.0])
"""


@pytest.mark.parametrize("first", ["dualstage", "scipy"])
def test_scipy_packages_share_the_leaf_modules(first):
    """Whichever is imported first, dualstage's filter loop, LAPACK
    wrapper, WAV codec and transforms are the objects scipy.signal,
    scipy.linalg, scipy.io and scipy.fft hand out, scipy.linalg still
    solves, scipy.signal.lfilter still filters and scipy.fft.rfft
    still transforms."""
    parts = [IMPORT_DUALSTAGE, IMPORT_SCIPY] if first == "dualstage" else [IMPORT_SCIPY, IMPORT_DUALSTAGE]
    run_python("-c", "".join(parts) + SAME_OBJECTS)


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


FALLBACK = """
import sys
from dualstage import _scipy, wavio
# a leaf not loaded yet, and not where the loader looks for it
del sys.modules["scipy.io.wavfile"]
_scipy.SCIPY_DIR = sys.argv[1]
module = _scipy.leaf("scipy.io.wavfile")
import scipy.io
assert "scipy.io" in sys.modules
assert module is sys.modules["scipy.io.wavfile"] is scipy.io.wavfile
assert module is not wavio.wavfile
"""


def test_a_leaf_not_where_scipy_puts_it_is_imported_the_usual_way(tmp_path):
    run_python("-c", FALLBACK, str(tmp_path))

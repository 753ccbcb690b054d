"""scipy's leaf modules without their packages' __init__.

The engine needs four leaves: lfilter's C loop from
scipy.signal._sigtools, one LAPACK wrapper from scipy.linalg._flapack,
the WAV codec scipy.io.wavfile and the FFT pair from
scipy.fft._pocketfft.pypocketfft. The filter loop and the FFT pair run
on every hop and load with the package; the LAPACK wrapper loads on
the first block solve and the codec on the first WAV read, so a
stream fed one hop at a time loads neither (2.8 MiB and one OpenBLAS
thread between them). Importing them by their usual names
runs scipy.signal's, scipy.linalg's, scipy.io's and scipy.fft's
__init__ first: scipy.signal alone takes about a second, and the
others load some 360 modules (scipy.sparse, scipy._lib._array_api and
through it numpy.f2py and numpy.testing) in about a quarter of one, a
cost a process that starts on demand pays before its first sample.
leaf loads the one file instead. Top-level scipy's own __init__ (23
modules, 11-17 ms and 1.3 MiB after numpy) is not run either, except
on Windows, whose wheels need it: scipy's directory is found without
importing it.
"""

import importlib
import os
import sys
import threading
from importlib.machinery import PathFinder
from importlib.util import find_spec, module_from_spec

if os.name == "nt":
    # Windows wheels set up scipy's shared libraries in its __init__,
    # which must run before any extension of it loads
    import scipy  # noqa: F401

# a top-level name's spec is found without importing the package
_SPEC = find_spec("scipy")
if _SPEC is None:
    raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
SCIPY_DIR = os.path.dirname(_SPEC.origin)

# a first use can come from several threads at once
_LOCK = threading.Lock()


def leaf(name: str):
    """The module name ("scipy.linalg._flapack"), loaded from its file
    in SCIPY_DIR without importing the package that holds it.

    It goes into sys.modules under its own name before it runs, so a
    later `import scipy.signal`, `scipy.linalg`, `scipy.io` or
    `scipy.fft` reuses this module object and every routine is the one
    scipy hands out. A module already imported is returned as it is;
    one not found where scipy's layout puts it is imported the usual
    way, package and all.

    Callers may call it on first use, from any thread: it holds a lock
    from the lookup to the end of the load, so threads that ask at once
    get one module object, and no caller sees it half run.
    """
    with _LOCK:
        module = sys.modules.get(name)
        if module is not None:
            return module
        # importlib.util.find_spec would import the parent package
        spec = PathFinder.find_spec(name, [os.path.join(SCIPY_DIR, *name.split(".")[1:-1])])
        if spec is None:
            return importlib.import_module(name)
        module = module_from_spec(spec)
        sys.modules[name] = module
        try:
            spec.loader.exec_module(module)
        except BaseException:
            del sys.modules[name]
            raise
        return module

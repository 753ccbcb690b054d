"""Start-up cost: running dualstage imports neither scipy.signal nor
scipy.stats, which together take most of a second to import."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_a_run_imports_neither_scipy_signal_nor_scipy_stats():
    """scripts/check_imports.py in a fresh interpreter: enhance a 1 s WAV
    through cli.main, evaluate one condition, then look in sys.modules."""
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "check_imports.py")],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr

"""scripts/compare_timing.py, run against HEAD with a small count."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("compare_timing", _ROOT / "scripts" / "compare_timing.py")
compare_timing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_timing)


def _in_git_checkout() -> bool:
    git = ["git", "-C", str(_ROOT), "rev-parse", "--verify", "HEAD"]
    try:
        return subprocess.run(git, capture_output=True).returncode == 0
    except OSError:  # no git at all
        return False


@pytest.mark.skipif(not _in_git_checkout(), reason="needs a git checkout to extract HEAD from")
def test_every_case_runs_against_head(tmp_path, capsys):
    """Each case alternates its batches between HEAD's package, imported
    as dualstage_rev, and the checkout's, and reports both clocks: each
    side's median, the ratio quartiles and the share of wins. The
    benchmark-like cases time what benchmarks/run.py's stream-hop does
    (one call, fresh streams, outputs kept) and the audio second of a
    stream fed 8 or 10 ms a call."""
    report = tmp_path / "timing.json"
    assert compare_timing.main(["HEAD", "--batches", "2", "--seconds", "2", "--json", str(report)]) == 0
    figures = json.loads(report.read_text())
    assert list(figures) == list(compare_timing.CASES)
    for case, clocks in figures.items():
        for clock in ("wall", "cpu"):
            f = clocks[clock]
            assert f["rev_median_us"] > 0 and f["checkout_median_us"] > 0
            low, mid, high = f["ratio_quartiles"]
            assert 0 < low <= mid <= high
            assert f["checkout_faster"].endswith("/2")
    # a call of one hop takes far less than an audio second of calls
    for clock in ("wall", "cpu"):
        hop = figures["stream-hop"][clock]["checkout_median_us"]
        for case in ("feed-128", "feed-160"):
            assert 10 * hop < figures[case][clock]["checkout_median_us"]
    out = capsys.readouterr().out
    assert out.count("ratio quartiles") == 2 * len(compare_timing.CASES)
    assert "stream-hop: 2 batches, times per call (a batch's median)" in out
    assert "feed-160: 2 batches, times per audio second" in out
    # the other side ran its own tree, not the checkout's modules
    rev = compare_timing.sys.modules["dualstage_rev"]
    assert not Path(rev.__file__).resolve().is_relative_to(_ROOT / "src")

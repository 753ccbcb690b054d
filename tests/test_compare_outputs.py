"""Run-to-run determinism, and scripts/compare_outputs.py's report."""

import importlib.util
from pathlib import Path

import numpy as np

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "compare_outputs.py"
_spec = importlib.util.spec_from_file_location("compare_outputs", _SCRIPT)
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)


class TestDeterminism:
    def test_a_subset_of_the_suite_repeats_its_bits(self):
        """The communication preset's cases, dual and single, with a
        97-sample feed and evaluate_condition (whose gains a worker
        thread replays) at 0 dB, run twice in one process: every array
        is bit-identical, as compare_outputs.py assumes of two runs."""

        def run():
            cases = compare_outputs.suite(presets=("communication",), chunks=(97,), snrs_db=(0.0,), files=False)
            return dict(cases)

        first, second = run(), run()
        assert "communication/single/evaluate_condition_0dB" in first
        lines = compare_outputs.differences(first, second)
        assert len(lines) == len(first) == 15
        assert all(line.endswith(": identical") for line in lines), lines


class TestDifferences:
    def test_each_way_a_case_can_differ(self):
        ours = {
            "same": {"y": np.arange(3.0)},
            "value": {"y": np.arange(3.0), "log": np.ones(2)},
            "nan": {"x": np.float64(np.nan)},
            "shape": {"y": np.zeros(3)},
            "header": {"bytes": np.frombuffer(b"ab", np.uint8), "values": np.zeros(1)},
            "ours": {"y": np.zeros(1)},
        }
        theirs = {
            "same": {"y": np.arange(3.0)},
            "value": {"y": np.arange(3.0) + [0.0, 0.5, -2.0], "log": np.ones(2)},
            "nan": {"x": np.float64(1.0)},
            "shape": {"y": np.zeros(4)},
            "header": {"bytes": np.frombuffer(b"aB", np.uint8), "values": np.zeros(1)},
            "theirs": {"y": np.zeros(1)},
        }
        assert compare_outputs.differences(ours, theirs) == [
            "header: bytes differ, values identical",
            "nan: largest absolute difference inf (x)",
            "ours: only in ours",
            "same: identical",
            "shape: y has shape (3,) vs (4,)",
            "theirs: only in theirs",
            "value: largest absolute difference 2 (y)",
        ]

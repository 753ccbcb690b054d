"""Self-test of the benchmark at a tiny duration.

usage: python3 benchmarks/smoke.py

Runs every workload untraced and traced on a few seconds of audio and
checks that each metric BENCHMARK.json names is emitted with its unit.
Then breaks the program's output on purpose, per workload, and checks
that the breakage is counted as failed operations without aborting the
run. Takes under a minute.
"""

import dataclasses
import json
import math
import sys
import unittest
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = {"seconds": 0.1, "audio_s": 6.0, "setup_runs": 1}


def tiny_run(workload, trace):
    return run.run(workload, seed=7, trace=trace, **TINY)


class MetricsEmitted(unittest.TestCase):
    def check_shape(self, result, specs):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        emitted = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(emitted, {s["name"]: s["unit"] for s in specs})
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)
            self.assertTrue(math.isfinite(m["value"]), name)
        json.dumps(result, allow_nan=False)

    def test_end_to_end(self):
        for workload in SPEC["workloads"]:
            with self.subTest(workload=workload["name"]):
                result, _ = tiny_run(workload["name"], trace=0)
                self.check_shape(result, SPEC["end_to_end"])
                for name, m in result["metrics"].items():
                    self.assertGreater(m["value"], 0.0, name)

    def test_per_layer(self):
        for workload in SPEC["workloads"]:
            with self.subTest(workload=workload["name"]):
                result, context = tiny_run(workload["name"], trace=1)
                self.check_shape(result, SPEC["per_layer"])
                self.assertEqual(context["trace_missing"], [])
                self.assertGreater(result["metrics"]["pipeline.frames"]["value"], 0)
                if workload["name"] == "enhance-file":
                    self.assertEqual(
                        result["metrics"]["pipeline.frames"]["value"],
                        context["frames_reported"],
                    )


class FailuresCounted(unittest.TestCase):
    def assert_failures_counted(self, workload):
        result, _ = tiny_run(workload, trace=0)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertLessEqual(result["failed"], result["attempted"])

    def test_truncated_enhance_output(self):
        write_wav = run.cli.write_wav

        def truncated(path, samples, *args, **kwargs):
            write_wav(path, samples[:-1], *args, **kwargs)

        with mock.patch.object(run.cli, "write_wav", truncated):
            self.assert_failures_counted("enhance-file")

    def test_corrupted_stream_block(self):
        process = run.pipeline.StreamProcessor.process

        def corrupted(self, samples):
            out = process(self, samples)
            # hop-sized calls only, so the whole-signal reference stays clean
            if len(samples) == self.cfg.frame.hop_len and out.size:
                out = out.copy()
                out[0] += 1.0
            return out

        with mock.patch.object(run.pipeline.StreamProcessor, "process", corrupted):
            self.assert_failures_counted("stream-hop")

    def test_raising_and_nan_evaluate(self):
        evaluate = run.metrics.evaluate_condition
        calls = []

        def flaky(*args, **kwargs):
            calls.append(1)
            if len(calls) % 2:
                raise ValueError("injected")
            return dataclasses.replace(evaluate(*args, **kwargs), snri_db=float("nan"))

        with mock.patch.object(run.metrics, "evaluate_condition", flaky):
            self.assert_failures_counted("evaluate-matrix")


class TracerRobustness(unittest.TestCase):
    def test_missing_name_reports_zero_calls(self):
        layers = tracer.LAYERS + (("framing.gone", ("framing.gone", "nomodule.gone")),)
        with mock.patch.object(tracer, "LAYERS", layers):
            tr = tracer.Tracer(hop_len=64)
            tr.install()
            tr.uninstall()
            values = tr.report(overhead_share=0.0)
        self.assertEqual(tr.missing, ["framing.gone"])
        self.assertEqual(values["framing.gone.calls"], 0)
        self.assertEqual(values["framing.analyze.calls"], 0)


if __name__ == "__main__":
    unittest.main()

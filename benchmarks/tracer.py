"""Span tracer that wraps dualstage's public functions from the outside.

The benchmark's traced run replaces each function named in LAYERS on
its module (or class) with a wrapper that records one span per call:
name, parent span, start and end. Nothing inside the package changes,
so the untraced runs execute exactly the shipped code.

A name that no longer resolves (a later refactor removed or renamed
it) is reported as missing with zero calls instead of failing the
run, so the per-layer counts show what a refactor stopped calling.
"""

import bisect
import importlib
import time
from array import array

import numpy as np

# (span name, attribute paths that must all carry the wrapper). A path
# is "<module>.<attr>[.<attr>]" under the dualstage package. cli binds
# read_wav, write_wav and load_preset at import, so those names are
# wrapped where cli looks them up.
LAYERS = (
    ("cli.main", ("cli.main",)),
    ("cli.cmd_enhance", ("cli.cmd_enhance",)),
    ("cli.read_wav", ("cli.read_wav",)),
    ("cli.write_wav", ("cli.write_wav",)),
    ("config.load_preset", ("config.load_preset", "cli.load_preset")),
    ("framing.hpf_process", ("framing.hpf_process",)),
    ("framing.analyze", ("framing.analyze",)),
    ("framing.synthesize", ("framing.synthesize",)),
    ("bands.pool_to_bands", ("bands.pool_to_bands",)),
    ("bands.expand_to_bins", ("bands.expand_to_bins",)),
    ("bands.apply_gains", ("bands.apply_gains",)),
    ("noise_tracking.update", ("noise_tracking.update",)),
    ("noise_tracking.track_raw", ("noise_tracking.track_raw",)),
    ("noise_tracking.smooth_noise", ("noise_tracking.smooth_noise",)),
    ("noise_tracking.effective_alpha", ("noise_tracking.effective_alpha",)),
    ("gain.compute_snr", ("gain.compute_snr",)),
    ("gain.compute_raw_gain", ("gain.compute_raw_gain",)),
    ("gain.smooth_gain", ("gain.smooth_gain",)),
    ("pipeline.process_stream", ("pipeline.process_stream",)),
    ("pipeline.StreamProcessor.process", ("pipeline.StreamProcessor.process",)),
    ("pipeline.StreamProcessor.process_frame", ("pipeline.StreamProcessor.process_frame",)),
    ("pipeline.replay_gains", ("pipeline.replay_gains",)),
    ("metrics.evaluate_condition", ("metrics.evaluate_condition",)),
    ("metrics.mix_at_snr", ("metrics.mix_at_snr",)),
    ("metrics.snri_by_gain_shadowing", ("metrics.snri_by_gain_shadowing",)),
)

# layers whose work is per analysis frame; they also get a per-frame
# self time
PER_FRAME_PREFIXES = ("framing.", "bands.", "noise_tracking.", "gain.", "pipeline.StreamProcessor.")

# span wrapped by the benchmark around each operation it times
ROOT = "bench.op"


def per_layer_names():
    """Every per-layer metric the traced run reports, with its unit."""
    names = [(f"{ROOT}.calls", "count"), (f"{ROOT}.self_s", "s")]
    for name, _ in LAYERS:
        names.append((f"{name}.calls", "count"))
        names.append((f"{name}.self_s", "s"))
        if name.startswith(PER_FRAME_PREFIXES):
            names.append((f"{name}.self_us_per_frame", "us/frame"))
    names += [
        ("pipeline.frames", "count"),
        ("pipeline.replay_gains.unity_share", "ratio"),
        ("trace.spans", "count"),
        ("trace.overhead_share", "ratio"),
    ]
    return names


class Tracer:
    """Records spans in flat arrays; self time is computed at the end."""

    def __init__(self, hop_len):
        self.hop_len = hop_len
        self.names = [ROOT] + [name for name, _ in LAYERS]
        self._ids = {name: i for i, name in enumerate(self.names)}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self._restore = []
        self.missing = []
        self.output_samples = 0
        self.replays = 0
        self.unity_replays = 0

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span named name and return its result."""
        return self._traced(self._ids[name], fn)(*args, **kwargs)

    def _traced(self, nid, fn, hook=None):
        name_a, parent_a, start_a, end_a = self._name, self._parent, self._start, self._end
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start_a)
            name_a.append(nid)
            parent_a.append(stack[-1])
            end_a.append(0.0)
            stack.append(idx)
            start_a.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end_a[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        return traced

    def _count_output(self, args, result):
        self.output_samples += len(result)

    def _count_replay(self, args, result):
        self.replays += 1
        gain_log = np.asarray(args[1])
        if gain_log.size and bool(np.all(gain_log == 1.0)):
            self.unity_replays += 1

    def install(self):
        """Wrap every resolvable name in LAYERS; note the rest as missing."""
        import dualstage  # noqa: F401  (loads every submodule)

        hooks = {
            "pipeline.StreamProcessor.process": self._count_output,
            "pipeline.replay_gains": self._count_replay,
        }
        for name, paths in LAYERS:
            found = False
            for path in paths:
                owner, attr = _resolve_owner(path)
                fn = getattr(owner, attr, None) if owner is not None else None
                if not callable(fn):
                    continue
                setattr(owner, attr, self._traced(self._ids[name], fn, hooks.get(name)))
                self._restore.append((owner, attr, fn))
                found = True
            if not found:
                self.missing.append(name)

    def uninstall(self):
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    def report(self, overhead_share, foreign=()):
        """Per-layer metrics as {metric name: value}.

        foreign holds (start, end) intervals of work that ran inside a
        span but belongs to no layer (the speed sampler's bursts); each
        is taken off the self time of the innermost span around it.
        """
        nids = np.array(self._name, dtype=np.intp)
        parent = np.array(self._parent, dtype=np.intp)
        dur = np.asarray(self._end, dtype=float) - np.asarray(self._start, dtype=float)
        child = np.zeros(dur.size)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        for start, end in foreign:
            i = bisect.bisect_right(self._start, start) - 1
            while i >= 0 and self._end[i] < end:
                i = self._parent[i]
            if i >= 0:
                self_time[i] -= end - start
        calls = np.bincount(nids, minlength=len(self.names))
        self_s = np.bincount(nids, weights=self_time, minlength=len(self.names))
        frames = self.output_samples // self.hop_len
        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.self_s"] = float(self_s[i])
            if name.startswith(PER_FRAME_PREFIXES):
                out[f"{name}.self_us_per_frame"] = float(self_s[i]) * 1e6 / frames if frames else 0.0
        out["pipeline.frames"] = int(frames)
        out["pipeline.replay_gains.unity_share"] = (
            self.unity_replays / self.replays if self.replays else 0.0
        )
        out["trace.spans"] = int(dur.size)
        out["trace.overhead_share"] = float(overhead_share)
        return out


def _resolve_owner(path):
    """Return (object holding the last attribute, attribute name)."""
    parts = path.split(".")
    try:
        owner = importlib.import_module(f"dualstage.{parts[0]}")
    except ImportError:
        return None, parts[-1]
    for part in parts[1:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, parts[-1]
    return owner, parts[-1]

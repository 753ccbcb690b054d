"""Fresh-interpreter probe: set-up time, then the peak RSS of one call.

Run by run.py in a child process, never imported. It times `import
dualstage` + `load_preset` + the first `StreamProcessor`, which is what
a user pays before the first sample is processed, in wall seconds and
scaled to the reference machine (see speed.py). With a workload
argument it then makes one call of that workload on inputs run.py
wrote beforehand and reports the process's peak resident memory, and
the error if the call failed. Prints one JSON object.

usage: setup_probe.py SRC_DIR [enhance-file IN.wav OUT.wav
                               | stream-hop MIX.npy
                               | evaluate-matrix SPEECH.npy NOISE.npy]
"""

import json
import resource
import sys
import time


def peak_rss_kib():
    """Peak resident set of this process image, in KiB.

    VmHWM belongs to the address space exec created; ru_maxrss on Linux
    also carries the parent's peak across fork and exec.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# numpy comes first: the speed sampler that scales set-up time to the
# reference machine needs it, and dualstage imports it anyway
import speed  # noqa: E402

with speed.Sampler() as sampler:
    t0 = time.perf_counter()
    sys.path.insert(0, sys.argv[1])
    import dualstage  # noqa: E402, F401
    from dualstage import cli, config, metrics, pipeline  # noqa: E402

    cfg = config.load_preset("communication")
    pipeline.StreamProcessor(cfg, log_gains=False)
    t1 = time.perf_counter()
result = {"setup_s": sampler.scale(t0, t1), "setup_wall_s": sampler.net(t0, t1)}

def call(workload, files):
    """One call of the workload; raises on failure."""
    import contextlib
    import io

    import numpy as np

    if workload == "enhance-file":
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["enhance", files[0], files[1]])
        if rc != 0:
            raise RuntimeError(f"enhance exited with {rc}")
    elif workload == "stream-hop":
        x = np.load(files[0])
        proc = pipeline.StreamProcessor(cfg, log_gains=False)
        hop = cfg.frame.hop_len
        for pos in range(0, x.size, hop):
            proc.process(x[pos : pos + hop])
    elif workload == "evaluate-matrix":
        metrics.evaluate_condition(np.load(files[0]), np.load(files[1]), 0.0, cfg, measure_start_s=3.0)
    else:
        raise ValueError(f"unknown workload {workload!r}")


if len(sys.argv) > 2:
    try:
        call(sys.argv[2], sys.argv[3:])
    except Exception as exc:  # the parent counts it as a failed operation
        result["error"] = repr(exc)
    result["peak_rss_mb"] = peak_rss_kib() / 1024.0

print(json.dumps(result))

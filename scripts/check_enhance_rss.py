"""Check that enhance and library streaming run in memory flat in
stream length.

Writes a 1 min and a 10 min float32 WAV of noise into a temporary
directory, runs `dualstage enhance` on each in a child process of its
own, and reads each child's peak resident set (ru_maxrss, KiB on Linux)
from wait4. A second pair, on the 1 min file and a 2 min one, runs with
the tracker dump and both spectrogram dumps sent to /dev/null. A third
pair streams 1 min and 10 min of noise through a default
`StreamProcessor.process` in 1024-sample calls, in child processes of
this interpreter, so it tests the package this interpreter imports.
Exits 1 if a run fails or the two peaks of a pair differ by more than
8 MiB. A last pair, again in child processes of this interpreter, runs
1 and then 32 default processors side by side, each fed one 64-sample
hop per call for two windows of the tracker's sliding minimum, and
exits 1 if the peak grows by more than 300 KiB per added stream. The
WAVs are written a second at a time, so this process stays
smaller than any child, whose peak would otherwise include it.

usage: python scripts/check_enhance_rss.py [DUALSTAGE]

DUALSTAGE is the command to run, split as a shell splits it (default:
dualstage on PATH), so a checkout with no installed package can pass
"python -m dualstage.cli" with src on PYTHONPATH.
"""

import os
import shlex
import sys
import tempfile

import numpy as np

from dualstage import write_wav

FS = 16000
LIMIT_MIB = 8.0
# peak RSS one more stream may add: a stream's state is about 215 KiB
STREAM_LIMIT_KIB = 300.0
STREAM_COUNTS = (1, 32)

# a realtime caller: argv[1] minutes of noise, 1024 samples per call
_STREAM = f"""
import sys
import numpy as np
import dualstage as ds
proc = ds.StreamProcessor(ds.load_preset("communication"))
rng = np.random.default_rng(0)
for _ in range(int(sys.argv[1]) * 60 * {FS} // 1024):
    proc.process(rng.normal(0.0, 0.1, 1024))
"""

# a conferencing host: argv[1] streams side by side, one hop per call,
# for two windows of the sliding minimum
_STREAMS = """
import sys
import numpy as np
import dualstage as ds
cfg = ds.load_preset("communication")
procs = [ds.StreamProcessor(cfg) for _ in range(int(sys.argv[1]))]
rng = np.random.default_rng(0)
for _ in range(2 * max(cfg.stage1.tracker.window_len, cfg.stage2.tracker.window_len)):
    for proc in procs:
        proc.process(rng.normal(0.0, 0.1, cfg.frame.hop_len))
"""


def peak_rss_mib(argv):
    """Run argv in a child process; return its peak RSS in MiB."""
    pid = os.posix_spawnp(argv[0], argv, os.environ)
    _, status, usage = os.wait4(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        sys.exit(f"{' '.join(argv)} exited with {code}")
    return usage.ru_maxrss / 1024.0


def main():
    command = shlex.split(sys.argv[1]) if len(sys.argv) > 1 else ["dualstage"]
    rng = np.random.default_rng(0)
    dumps = ["--tracker-dump", "--dump-spectrogram-in", "--dump-spectrogram-out"]
    dumps = [a for d in dumps for a in (d, os.devnull)]
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        wavs = {}
        for minutes in (1, 2, 10):
            wav = wavs[minutes] = os.path.join(tmp, f"{minutes}min.wav")
            seconds = (rng.normal(0.0, 0.1, FS) for _ in range(60 * minutes))
            write_wav(wav, seconds, FS, "float32", size=60 * minutes * FS)
        out = os.path.join(tmp, "out.wav")
        pairs = {
            "enhance, plain": ((1, 10), lambda m: [*command, "enhance", wavs[m], out]),
            "enhance, with all dumps": ((1, 2), lambda m: [*command, "enhance", wavs[m], out, *dumps]),
            "StreamProcessor.process": ((1, 10), lambda m: [sys.executable, "-c", _STREAM, str(m)]),
        }
        for name, ((short, long), argv) in pairs.items():
            peaks = [peak_rss_mib(argv(m)) for m in (short, long)]
            growth = peaks[1] - peaks[0]
            print(
                f"peak RSS, {name}: {short} min {peaks[0]:.1f} MiB, {long} min "
                f"{peaks[1]:.1f} MiB, difference {growth:+.1f} MiB (limit {LIMIT_MIB:g})"
            )
            failed |= abs(growth) > LIMIT_MIB
    few, many = STREAM_COUNTS
    peaks = [peak_rss_mib([sys.executable, "-c", _STREAMS, str(k)]) for k in STREAM_COUNTS]
    per_stream = (peaks[1] - peaks[0]) * 1024.0 / (many - few)
    print(
        f"peak RSS, StreamProcessor streams side by side: {few} {peaks[0]:.1f} MiB, "
        f"{many} {peaks[1]:.1f} MiB, {per_stream:+.0f} KiB per added stream "
        f"(limit {STREAM_LIMIT_KIB:g})"
    )
    failed |= per_stream > STREAM_LIMIT_KIB
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

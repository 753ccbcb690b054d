import struct
from types import SimpleNamespace

import numpy as np
import pytest

import dualstage as ds
from dualstage import framing
from dualstage.config import config_from_dict, config_to_dict
from dualstage.framing import FrameConfig


@pytest.fixture(scope="session")
def comm_cfg():
    return ds.load_preset("communication")


@pytest.fixture
def frame_cfg():
    return FrameConfig()


@pytest.fixture
def transform_rows(monkeypatch):
    """Rows sent through the forward ("fwd") and inverse ("inv")
    transform from here on: pocketfft's r2c and c2r, through the name
    framing calls them by. The engine transforms blocks of frames, so
    rows are counted, not calls."""
    counts = {"fwd": 0, "inv": 0}
    real = framing._pocketfft

    def counting(kind, transform):
        def counted(a, axes, *args):
            assert tuple(axes) in ((-1,), (a.ndim - 1,))
            counts[kind] += a.size // a.shape[-1]
            return transform(a, axes, *args)

        return counted

    monkeypatch.setattr(
        framing, "_pocketfft", SimpleNamespace(r2c=counting("fwd", real.r2c), c2r=counting("inv", real.c2r))
    )
    return counts


def no_hpf(cfg):
    """Copy of cfg with the high-pass stage disabled."""
    d = config_to_dict(cfg)
    d["frame"]["hpf_cutoff_hz"] = None
    return config_from_dict(d)


def with_mu(cfg, mu, stages=("stage1", "stage2")):
    """Copy of cfg with the given mu in the chosen stages."""
    d = config_to_dict(cfg)
    for stage in stages:
        d[stage]["gains"]["mu"] = mu
    return config_from_dict(d)


def run_blocks(proc, chunks):
    """Feed chunks through proc.blocks, one call per chunk as process
    takes them; return (the joined outputs, the joined bin gains, or
    None without log_gains, and the tracker rows). The rows are
    (frame, stage, raw, smoothed), one per frame and stage in frame,
    then stage order: whatever the blocks, the rows of a frame-by-frame
    run."""
    records = [record for chunk in chunks for record in proc.blocks(chunk)]
    y = np.concatenate([np.zeros(0)] + [r.out for r in records])
    gains = np.concatenate([r.gains for r in records]) if proc.log_gains else None
    rows = [
        (r.frame + i, stage, raw[i], smoothed[i])
        for r in records
        for i in range(len(r.out) // proc.cfg.frame.hop_len)
        for stage, (raw, smoothed) in enumerate(r.noise, start=1)
    ]
    return y, gains, rows


def pcm24_wav_bytes(n):
    """A mono 24-bit PCM WAV file of n zero samples, which scipy reads as
    int32 but writes in no form."""
    fmt = struct.pack("<HHIIHH", 1, 1, 16000, 48000, 3, 24)
    data = bytes(3 * n) + bytes(n % 2)  # chunks are padded to even length
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", 3 * n) + data
    return b"RIFF" + struct.pack("<I", len(body)) + body

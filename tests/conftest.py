import struct

import numpy as np
import pytest

import dualstage as ds
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
    """Rows sent through np.fft.rfft ("fwd") and np.fft.irfft ("inv")
    from here on. The engine transforms blocks of frames, so rows are
    counted, not calls."""
    counts = {"fwd": 0, "inv": 0}

    def counting(kind, real):
        def transform(a, *args, **k):
            assert k.get("axis", -1) in (-1, a.ndim - 1)
            counts[kind] += a.size // a.shape[-1]
            return real(a, *args, **k)

        return transform

    monkeypatch.setattr(np.fft, "rfft", counting("fwd", np.fft.rfft))
    monkeypatch.setattr(np.fft, "irfft", counting("inv", np.fft.irfft))
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


def pcm24_wav_bytes(n):
    """A mono 24-bit PCM WAV file of n zero samples, which scipy reads as
    int32 but writes in no form."""
    fmt = struct.pack("<HHIIHH", 1, 1, 16000, 48000, 3, 24)
    data = bytes(3 * n) + bytes(n % 2)  # chunks are padded to even length
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", 3 * n) + data
    return b"RIFF" + struct.pack("<I", len(body)) + body

"""Property tests: chunk invariance over random valid configurations."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import dualstage as ds
from dualstage.framing import WINDOW_KINDS
from dualstage.pipeline import BLOCK_FRAMES


@st.composite
def pipeline_configs(draw):
    """Valid configs: frame_len = k * hop for k = 2..4, every window
    kind, any band count, and tracker windows short enough that the
    streams below cross several sliding-minimum blocks."""
    hop = draw(st.sampled_from([8, 16, 32, 64]))
    frame_len = hop * draw(st.integers(2, 4))
    fft_len = (1 << (frame_len - 1).bit_length()) * draw(st.sampled_from([1, 2]))
    doc = ds.config_to_dict(ds.load_preset("communication"))
    doc["frame"].update(
        frame_len=frame_len,
        hop_len=hop,
        fft_len=fft_len,
        window_kind=draw(st.sampled_from(WINDOW_KINDS)),
        hpf_cutoff_hz=draw(st.sampled_from([None, 100.0])),
    )
    doc["num_bands"] = draw(st.integers(1, min(fft_len // 2 + 1, 40)))
    for stage in ("stage1", "stage2"):
        doc[stage]["tracker"]["subwindow_len"] = draw(st.integers(1, 16))
        doc[stage]["tracker"]["num_subwindows"] = draw(st.integers(1, 4))
    return ds.config_from_dict(doc)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    cfg=pipeline_configs(), single=st.booleans(), seed=st.integers(0, 2**32 - 1), data=st.data()
)
def test_chunking_never_changes_the_output(cfg, single, seed, data):
    """Chunks of 0 samples, of less than a hop and of about the internal
    block cap give the same samples and gain log as one whole call."""
    hop = cfg.frame.hop_len
    cap = BLOCK_FRAMES * hop
    x = np.random.default_rng(seed).normal(0.0, 0.1, int(2.5 * cap))
    whole = ds.StreamProcessor(cfg, single_stage=single)
    expected = whole.process(x)

    sizes = data.draw(
        st.lists(
            st.one_of(st.just(0), st.integers(1, hop - 1), st.integers(cap - hop, cap + hop)),
            min_size=1,
            max_size=10,
        )
    )
    proc = ds.StreamProcessor(cfg, single_stage=single)
    pieces = []
    pos = 0
    for size in sizes:
        pieces.append(proc.process(x[pos : pos + size]))
        pos += size
    pieces.append(proc.process(x[pos:]))
    np.testing.assert_array_equal(np.concatenate(pieces), expected)
    np.testing.assert_array_equal(np.concatenate(proc.gain_log), np.concatenate(whole.gain_log))

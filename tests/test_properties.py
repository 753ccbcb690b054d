"""Property tests: chunk invariance over random valid configurations,
exact block smoothers, gain bounds, mu=0 transparency, replay
linearity, shared-analysis replay, the stream framer and the streamed
spectrogram."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import dualstage as ds
from dualstage.config import config_from_dict, config_to_dict
from dualstage.framing import WINDOW_KINDS, analyze, bin_power
from dualstage.metrics import spectrogram_db, spectrogram_stream
from dualstage.gain import GainParams, MU_MAX, compute_raw_gain, smooth_gain
from dualstage.noise_tracking import frozen_array, smooth_rows
from dualstage.pipeline import BLOCK_FRAMES, _Framer, _Shadow

from conftest import no_hpf, run_blocks, with_mu

# alphas and gammas in [0, 1], with both ends drawn often
unit_floats = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@st.composite
def pipeline_configs(draw, window_kind=None):
    """Valid configs: frame_len = k * hop for k = 2..4, every window
    kind (or the one given), any band count, tracker windows short
    enough that the streams below cross several sliding-minimum blocks,
    and alpha, mu and gain_floor each one value or one per band, with
    the ends of their ranges (mu = 0 among them) drawn often."""
    hop = draw(st.sampled_from([8, 16, 32, 64]))
    frame_len = hop * draw(st.integers(2, 4))
    fft_len = (1 << (frame_len - 1).bit_length()) * draw(st.sampled_from([1, 2]))
    doc = config_to_dict(ds.load_preset("communication"))
    doc["frame"].update(
        frame_len=frame_len,
        hop_len=hop,
        fft_len=fft_len,
        window_kind=window_kind or draw(st.sampled_from(WINDOW_KINDS)),
        hpf_cutoff_hz=draw(st.sampled_from([None, 100.0])),
    )
    num_bands = doc["num_bands"] = draw(st.integers(1, min(fft_len // 2 + 1, 40)))

    def per_band(lo, hi):
        value = st.one_of(st.sampled_from([lo, hi]), st.floats(lo, hi))
        return draw(st.one_of(value, st.lists(value, min_size=num_bands, max_size=num_bands)))

    for stage in ("stage1", "stage2"):
        doc[stage]["tracker"]["window_len"] = draw(st.integers(1, 64))
        doc[stage]["tracker"]["alpha"] = per_band(0.0, 1.0)
        doc[stage]["gains"]["mu"] = per_band(0.0, MU_MAX)
        doc[stage]["gains"]["gain_floor"] = per_band(1e-3, 1.0)
    return config_from_dict(doc)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    cfg=pipeline_configs(), single=st.booleans(), seed=st.integers(0, 2**32 - 1), data=st.data()
)
def test_chunking_never_changes_the_output(cfg, single, seed, data):
    """Chunks of 0 samples, of less than a hop, of about the internal
    block cap, runs of one-hop calls (each a lone frame once the
    first call has filled the carry) and runs of calls of one to four
    hops (which process steps frame by frame) give the same samples,
    through process and through the block records, and the same gain
    log and tracker rows as one whole call."""
    hop = cfg.frame.hop_len
    cap = BLOCK_FRAMES * hop
    x = np.random.default_rng(seed).normal(0.0, 0.1, int(2.5 * cap))
    expected, expected_log, expected_rows = run_blocks(
        ds.StreamProcessor(cfg, single_stage=single, log_gains=True), [x]
    )

    chunks = st.one_of(
        st.sampled_from([[0]]),
        st.integers(1, hop - 1).map(lambda size: [size]),
        st.integers(cap - hop, cap + hop).map(lambda size: [size]),
        st.integers(1, 40).map(lambda calls: [hop] * calls),
        st.tuples(st.integers(hop + 1, 4 * hop - 1), st.integers(1, 20)).map(lambda run: [run[0]] * run[1]),
    )
    sizes = [size for run in data.draw(st.lists(chunks, min_size=1, max_size=10)) for size in run]
    chunks = np.split(x, np.cumsum(sizes))
    proc = ds.StreamProcessor(cfg, single_stage=single)
    np.testing.assert_array_equal(np.concatenate([proc.process(c) for c in chunks]), expected)
    proc = ds.StreamProcessor(cfg, single_stage=single, log_gains=True)
    y, log, rows = run_blocks(proc, chunks)
    np.testing.assert_array_equal(y, expected)
    np.testing.assert_array_equal(log, expected_log)
    assert len(rows) == len(expected_rows)
    for got, want in zip(rows, expected_rows):
        assert got[:2] == want[:2]
        np.testing.assert_array_equal(got[2], want[2])
        np.testing.assert_array_equal(got[3], want[3])


@settings(max_examples=200, deadline=None)
@given(
    n=st.sampled_from([1, 2, BLOCK_FRAMES + 3]),
    num_bands=st.sampled_from([1, 2, 3, 6, 33]),
    alpha_kind=st.sampled_from(["scalar", "scalar with c", "per band", "per frame", "per row"]),
    scalar_alpha=unit_floats,
    floor_kind=st.sampled_from([None, "scalar", "per band"]),
    seeded=st.booleans(),
    in_range_rows=st.booleans(),
    blowup=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_block_smoother_equals_frame_by_frame(
    n, num_bands, alpha_kind, scalar_alpha, floor_kind, seeded, in_range_rows, blowup, seed
):
    """One smooth_rows call over a block gives the bits of n successive
    one-frame calls, whichever path the block takes: lfilter's C loop
    for a 0-d alpha (a float, or a frozen array with c = 1 - alpha
    built ahead, as update passes them), the bidiagonal solve for a
    varying one (per frame, per band or per row), or lone frames
    stepped from the row where a kernel meets a non-finite value or
    the clamp. Every call's carry is its last row, bit for bit, in
    memory of its own. The inputs stay untouched, and an empty block
    gives an empty result and hands prev back as it is. One band and
    one row make a system too small for the bidiagonal solve;
    in_range_rows keeps clamped blocks inside [floor, 1] up to a random
    row, so the clamp starts part-way after a kernel; blowup puts an
    infinity in the block."""
    rng = np.random.default_rng(seed)

    def unit_values(shape):
        # uniform in [0, 1] with about a quarter of the entries at 0 or 1
        v = rng.uniform(0.0, 1.0, shape)
        ends = rng.random(shape) < 0.25
        v[ends] = rng.integers(0, 2, shape)[ends]
        return v

    c = None
    if alpha_kind == "scalar":
        alpha = scalar_alpha
    elif alpha_kind == "scalar with c":
        alpha, c = frozen_array(scalar_alpha), frozen_array(1.0 - scalar_alpha)
    elif alpha_kind == "per band":
        alpha = unit_values(num_bands)
    elif alpha_kind == "per frame":
        # one factor per row, shared by its bands, as effective_alpha
        # gives a scalar base alpha
        alpha = unit_values((n, 1))
    else:
        alpha = unit_values((n, num_bands))
        # whole rows at exactly 0 (hold) and 1 (follow the input)
        alpha[rng.random(n) < 0.1] = 0.0
        alpha[rng.random(n) < 0.1] = 1.0
    floor = {
        None: None,
        "scalar": float(rng.uniform(0.01, 1.0)),
        "per band": rng.uniform(0.01, 1.0, num_bands),
    }[floor_kind]
    x = rng.exponential(1.0, (n, num_bands)) * 10.0 ** rng.uniform(-300, 300, (n, 1))
    prev = None if seeded else rng.uniform(0.0, 1.0, num_bands)
    if floor is not None and in_range_rows:
        k = rng.integers(0, n + 1)
        x[:k] = rng.uniform(np.max(floor), 1.0, (k, num_bands))
        if prev is not None:
            prev = rng.uniform(np.max(floor), 1.0, num_bands)
    if blowup:
        x[rng.integers(n), rng.integers(num_bands)] = np.inf
    x_before = x.copy()
    prev_before = None if prev is None else prev.copy()

    def check_carry(rows, carry):
        np.testing.assert_array_equal(carry, rows if rows.ndim == 1 else rows[-1])
        assert not np.shares_memory(carry, rows)

    with np.errstate(invalid="ignore"):
        block, carry = smooth_rows(prev, alpha, x, floor, c)
        check_carry(block, carry)

        np.testing.assert_array_equal(x, x_before)
        if prev is not None:
            np.testing.assert_array_equal(prev, prev_before)
        p = prev
        for m in range(n):
            row, p = smooth_rows(p, alpha[m] if np.ndim(alpha) == 2 else alpha, x[m], floor)
            check_carry(row, p)
            np.testing.assert_array_equal(block[m], row)
    if floor is not None and not blowup:
        assert np.all(block >= floor) and np.all(block <= 1.0)
    empty_alpha = alpha[:0] if np.ndim(alpha) == 2 else alpha
    rows, carry = smooth_rows(prev, empty_alpha, x[:0], floor, c)
    assert rows.shape == (0, num_bands)
    assert carry is prev


@settings(max_examples=60, deadline=None)
@given(
    num_bands=st.integers(1, 6),
    per_band_floor=st.booleans(),
    gammas=st.tuples(unit_floats, unit_floats).map(sorted),
    block_sizes=st.lists(st.sampled_from([1, 2, 5, BLOCK_FRAMES + 3]), min_size=1, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
def test_smoothed_gain_blocks_stay_within_bounds(
    num_bands, per_band_floor, gammas, block_sizes, seed
):
    """smooth_gain keeps every frame of every block in [gain_floor, 1]
    for any floor and any 0 <= gamma_min <= gamma_max <= 1."""
    rng = np.random.default_rng(seed)
    floor = rng.uniform(1e-3, 1.0, num_bands if per_band_floor else None)
    params = GainParams(
        mu=float(rng.uniform(0.0, 1.5)),
        gain_floor=tuple(floor) if per_band_floor else float(floor),
        gamma_min=gammas[0],
        gamma_max=gammas[1],
    )
    prev = None
    for n in block_sizes:
        snr = rng.exponential(1.0, (n, num_bands)) * 10.0 ** rng.uniform(-2, 3, (n, 1))
        raw = compute_raw_gain(snr, params)
        out, prev = smooth_gain(raw if n > 1 else raw[0], prev, params)
        assert np.all(out >= floor) and np.all(out <= 1.0)


@pytest.mark.parametrize("window_kind", WINDOW_KINDS)
@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_mu_zero_is_transparent_for_every_window(window_kind, data, seed):
    """With mu = 0 in both stages and no high-pass, every frame that
    holds input samples passes unity gains and the output is the input,
    whatever the frame configuration."""
    cfg = with_mu(no_hpf(data.draw(pipeline_configs(window_kind))), 0.0)
    hop, frame_len = cfg.frame.hop_len, cfg.frame.frame_len
    x = np.random.default_rng(seed).normal(0.0, 0.1, hop * data.draw(st.integers(1, 600)))
    y, log = ds.process_stream(x, cfg, latency_aligned=True)
    assert np.sqrt(np.mean((y - x) ** 2) / np.mean(x**2)) < 1e-12
    # the frames past the input hold only the zero flush
    flush_frames = (frame_len + hop) // hop + 1
    np.testing.assert_array_equal(log[:-flush_frames], 1.0)


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    cfg=pipeline_configs(),
    scalars=st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_replay_is_linear(cfg, scalars, seed, data):
    """replay_gains with any fixed gain log is linear in the signal:
    replaying a*x + b*y gives a*replay(x) + b*replay(y) to within 1e-12
    of the inputs' scale, whatever the frame configuration."""
    a, b = scalars
    rng = np.random.default_rng(seed)
    size = cfg.frame.hop_len * data.draw(st.integers(1, 600))
    x = rng.normal(0.0, 0.1, size)
    y = rng.normal(0.0, 0.1, size) * 10.0 ** rng.uniform(-3, 3)
    frames = len(ds.process_stream(np.zeros(size), cfg, single_stage=True)[1])
    log = rng.uniform(0.0, 1.0, (frames, cfg.frame.num_bins))
    log[rng.random(frames) < 0.1] = 1.0

    rx, ry = ds.replay_gains(x, log, cfg), ds.replay_gains(y, log, cfg)
    both = ds.replay_gains(a * x + b * y, log, cfg)
    # relative to the inputs: a short stream's output can be all delay,
    # rounding residue only
    scale = abs(a) * np.linalg.norm(x) + abs(b) * np.linalg.norm(y)
    assert np.linalg.norm(both - (a * rx + b * ry)) <= 1e-12 * scale


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cfg=pipeline_configs(), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_shared_analysis_replay_equals_separate_replays(cfg, seed, data):
    """Several gain logs replayed from one analysis give each log the
    bytes of its own replay_gains call, and the unity output (bins left
    unmultiplied) the bytes of a replay with an all-ones log, for
    stream lengths short of, around and past the internal block cap."""
    hop = cfg.frame.hop_len
    size = data.draw(
        st.one_of(
            st.integers(1, 3 * hop),
            st.integers((BLOCK_FRAMES - 12) * hop, (BLOCK_FRAMES + 2) * hop),
            st.integers(1, 3 * BLOCK_FRAMES * hop),
        )
    )
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 0.1, size)
    frames = len(ds.process_stream(np.zeros(size), cfg, single_stage=True)[1])
    logs = [rng.uniform(0.0, 1.0, (frames, cfg.frame.num_bins)) for _ in range(2)]

    shadow = _Shadow(cfg, x.size, outputs=3)
    outs = [[], [], []]
    for piece in shadow.framer.stream(x):
        # None asks for unity gains
        gains = [None, *(log[shadow.framer.frames :] for log in logs)]
        for ys in shadow.push(piece, gains):
            for out, y in zip(outs, ys):
                out.append(y)
    unity, *shadowed = (np.concatenate(out) for out in outs)
    for out, log in zip(shadowed, logs):
        assert out.tobytes() == ds.replay_gains(x, log, cfg).tobytes()
    assert unity.tobytes() == ds.replay_gains(x, np.ones_like(logs[0]), cfg).tobytes()


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cfg=pipeline_configs(), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_framer_blocks_equal_one_whole_push(cfg, seed, data):
    """Pieces of 0, 1, hop - 1, hop and BLOCK_FRAMES * hop + 3 samples,
    and of random sizes, yield blocks whose frames, in order, are the
    frames of one whole push; no block exceeds BLOCK_FRAMES, the warm
    frames never share a block with later ones, and a lone frame comes
    1-D. The zero flush after the signal completes frames_of frames,
    and a shadow fed the engine's pieces frames each in the engine's
    blocks."""
    fcfg = cfg.frame
    hop, frame_len = fcfg.hop_len, fcfg.frame_len
    special = st.sampled_from([0, 1, hop - 1, hop, BLOCK_FRAMES * hop + 3])
    sizes = st.one_of(special, st.integers(0, 3000), st.integers(0, 3 * BLOCK_FRAMES * hop))
    sizes = data.draw(st.lists(sizes, min_size=1, max_size=8))
    x = np.random.default_rng(seed).normal(0.0, 0.1, sum(sizes))
    pieces = np.split(x, np.cumsum(sizes)[:-1])

    def blocks(framer, feed):
        # copies: a lone frame is a view of the carry, which the next
        # step shifts
        return [(frames.copy(), n) for piece in feed for frames, n in framer.push(piece)]

    def stacked(got):
        return np.vstack([np.zeros((0, frame_len))] + [np.atleast_2d(f) for f, _ in got])

    framer = _Framer(fcfg)
    got = blocks(framer, pieces)
    np.testing.assert_array_equal(stacked(got), stacked(blocks(_Framer(fcfg), [x])))
    first = 0
    for frames, n in got:
        assert 1 <= n <= BLOCK_FRAMES
        assert frames.shape == ((frame_len,) if n == 1 else (n, frame_len))
        assert first >= framer.warm_frames or first + n <= framer.warm_frames
        first += n
    blocks(framer, [np.zeros(framer.flush_len)])
    if x.size:  # an empty signal runs no frame, so its stream has no flush
        assert framer.frames == framer.frames_of(x.size)

    proc = ds.StreamProcessor(cfg, single_stage=True)
    shadow = _Shadow(cfg, x.size, outputs=1)
    push, shadow_blocks = shadow.framer.push, []

    def recording(piece):
        for frames, n in push(piece):
            shadow_blocks.append(n)
            yield frames, n

    shadow.framer.push = recording
    for piece in [*pieces, np.zeros(framer.flush_len)]:
        shadow_blocks[:] = []
        engine_blocks = [len(record.out) // hop for record in proc.blocks(piece)]
        assert len(list(shadow.push(piece, [None]))) == len(shadow_blocks)
        assert shadow_blocks == engine_blocks


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cfg=pipeline_configs(), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_spectrogram_stream_equals_whole_signal(cfg, seed, data):
    """Pieces of 0, 1, hop - 1 and hop samples, runs of one-hop pieces
    (each completing a lone frame) and random sizes give, concatenated,
    the spectrogram_db rows of the whole signal, and each piece back
    unchanged."""
    fcfg = cfg.frame
    hop = fcfg.hop_len
    special = st.sampled_from([0, 1, hop - 1, hop])
    runs = st.one_of(
        special.map(lambda size: [size]),
        st.integers(1, 12).map(lambda calls: [hop] * calls),
        st.integers(0, 3 * BLOCK_FRAMES * hop).map(lambda size: [size]),
    )
    sizes = [size for run in data.draw(st.lists(runs, min_size=1, max_size=8)) for size in run]
    x = np.random.default_rng(seed).normal(0.0, 0.1, sum(sizes))
    pieces = np.split(x, np.cumsum(sizes)[:-1])
    got = list(spectrogram_stream(pieces, fcfg))
    assert all(block is piece for (block, _), piece in zip(got, pieces))
    rows = np.concatenate([r for _, r in got])
    assert rows.tobytes() == spectrogram_db(x, fcfg).tobytes()
    want = max(0, (x.size - fcfg.frame_len) // hop + 1)
    assert rows.shape == (want, fcfg.num_bins)
    # row i is the frame of the raw samples from i * hop on, with no high-pass
    for i in range(0, want, 37):
        power = bin_power(analyze(x[i * hop : i * hop + fcfg.frame_len], fcfg))
        np.testing.assert_array_equal(rows[i], 10.0 * np.log10(np.maximum(power, 1e-12)))

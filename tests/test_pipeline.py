"""End-to-end pipeline behaviour: streaming, latency, gain replay."""

import numpy as np
import pytest

import dualstage as ds
from dualstage import gain, noise_tracking, pipeline
from dualstage.config import config_from_dict, config_to_dict
from dualstage.errors import InputError, UsageError
from dualstage.framing import algorithmic_latency_ms
from synth import FS, pink_noise, surrogate_speech, white_noise

from conftest import no_hpf, with_mu


class TestBypass:
    def test_mu_zero_is_transparent(self, comm_cfg):
        """With both suppression rules disabled and the high-pass off,
        the pipeline reduces to analysis/synthesis and passes audio
        through unchanged up to the fixed delay."""
        cfg = with_mu(no_hpf(comm_cfg), 0.0)
        rng = np.random.default_rng(7)
        x = rng.normal(0.0, 0.1, FS)
        y, log = ds.process_stream(x, cfg, latency_aligned=True)
        assert y.size == x.size
        err = np.sqrt(np.mean((y - x) ** 2) / np.mean(x**2))
        assert err < 1e-12
        # every frame holding real samples passes unity gains; the
        # all-zero flush frames at the end fall to the floor but only
        # shape output past the input length
        flush_frames = (cfg.frame.frame_len + cfg.frame.hop_len) // cfg.frame.hop_len + 1
        np.testing.assert_array_equal(log[:-flush_frames], 1.0)


class TestStreaming:
    def test_chunked_equals_whole(self, comm_cfg):
        rng = np.random.default_rng(8)
        x = rng.normal(0.0, 0.1, 3 * FS)
        whole, _ = ds.process_stream(x, comm_cfg)

        proc = ds.StreamProcessor(comm_cfg)
        pieces = []
        pos = 0
        for size in rng.integers(1, 700, 200):
            pieces.append(proc.process(x[pos : pos + size]))
            pos += size
        pieces.append(proc.process(x[pos:]))
        chunked = np.concatenate(pieces)
        # the raw stream runs ahead by up to a frame of seeded zeros;
        # process_stream trims to the input length
        assert chunked.size >= whole.size
        np.testing.assert_array_equal(chunked[: whole.size], whole)

    @pytest.mark.parametrize("single", [False, True])
    @pytest.mark.parametrize("preset", ["communication", "voice-trigger", "multimedia"])
    def test_one_hop_calls_equal_whole(self, preset, single):
        """A realtime caller's one-hop calls, each yielding a lone frame
        from the carry buffer after the first, give the samples, gain
        log and tracker rows of one whole-signal call."""
        cfg = ds.load_preset(preset)
        hop = cfg.frame.hop_len
        rng = np.random.default_rng(24)
        x = surrogate_speech(1.5, rng) + pink_noise(1.5, rng)

        def run(chunks):
            rows = []

            def sink(frame, stage, raw, noise):
                rows.append((frame, stage, raw.copy(), noise.copy()))

            proc = ds.StreamProcessor(cfg, single_stage=single, tracker_sink=sink)
            y = np.concatenate([proc.process(c) for c in chunks])
            return y, np.concatenate(proc.gain_log), rows

        y, log, rows = run([x[pos : pos + hop] for pos in range(0, x.size, hop)])
        y_whole, log_whole, rows_whole = run([x])
        np.testing.assert_array_equal(y, y_whole)
        np.testing.assert_array_equal(log, log_whole)
        assert [r[:2] for r in rows] == [r[:2] for r in rows_whole]
        np.testing.assert_array_equal([r[2:] for r in rows], [r[2:] for r in rows_whole])

    @pytest.mark.parametrize("aligned", [False, True])
    def test_run_stream_blocks_equal_whole(self, comm_cfg, aligned):
        """run_stream over any split of a signal yields, in pieces, the
        samples process_stream returns, and runs the same frames."""
        rng = np.random.default_rng(25)
        x = rng.normal(0.0, 0.1, FS // 2)
        whole, log = ds.process_stream(x, comm_cfg, latency_aligned=aligned)
        for cuts in ([], [1], [63, 64, 100], list(range(0, x.size, 977)), [x.size - 1]):
            edges = [0, *cuts, x.size]
            proc = ds.StreamProcessor(comm_cfg, log_gains=False)
            blocks = (x[a:b] for a, b in zip(edges, edges[1:]))
            pieces = list(pipeline.run_stream(proc, blocks, x.size, latency_aligned=aligned))
            assert all(p.size for p in pieces)
            np.testing.assert_array_equal(np.concatenate(pieces), whole)
            assert proc.frame_index == len(log)

    def test_output_matches_input_length(self, comm_cfg):
        for n in (1, 63, 64, 8191, FS):
            y, _ = ds.process_stream(np.zeros(n), comm_cfg)
            assert y.size == n

    def test_empty_input(self, comm_cfg):
        y, log = ds.process_stream(np.zeros(0), comm_cfg)
        assert y.size == 0
        assert log.shape[0] == 0

    def test_deterministic(self, comm_cfg):
        rng = np.random.default_rng(9)
        x = rng.normal(0.0, 0.1, FS)
        y1, log1 = ds.process_stream(x, comm_cfg)
        y2, log2 = ds.process_stream(x, comm_cfg)
        np.testing.assert_array_equal(y1, y2)
        np.testing.assert_array_equal(log1, log2)


class TestNonFiniteInput:
    """A NaN or infinity fails fast with the stream index of the first
    bad sample, in every mode, instead of poisoning the trackers."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_process_names_first_bad_sample(self, comm_cfg, bad):
        rng = np.random.default_rng(18)
        x = rng.normal(0.0, 0.1, 3000)
        proc = ds.StreamProcessor(comm_cfg)
        ref = ds.StreamProcessor(comm_cfg)
        assert np.array_equal(proc.process(x[:1000]), ref.process(x[:1000]))
        block = x[1000:2000].copy()
        block[[300, 700]] = bad
        with pytest.raises(InputError, match="stream index 1300"):
            proc.process(block)
        # the rejected block left no trace: the stream carries on as if
        # it had never been fed
        np.testing.assert_array_equal(proc.process(x[2000:]), ref.process(x[2000:]))

    @pytest.mark.parametrize("single", [False, True])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_whole_signal_and_replay(self, comm_cfg, single, bad):
        rng = np.random.default_rng(19)
        x = rng.normal(0.0, 0.1, FS // 2)
        _, log = ds.process_stream(x, comm_cfg, single_stage=single)
        x[1234] = bad
        with pytest.raises(InputError, match="stream index 1234"):
            ds.process_stream(x, comm_cfg, single_stage=single)
        with pytest.raises(InputError, match="stream index 1234"):
            ds.replay_gains(x, log, comm_cfg)

    def test_huge_sample_names_first_bad_sample(self, comm_cfg):
        """A finite sample too large for the transforms fails fast like a
        NaN, where it used to come out as non-finite output."""
        rng = np.random.default_rng(20)
        x = rng.normal(0.0, 0.1, 3000)
        proc = ds.StreamProcessor(comm_cfg)
        ref = ds.StreamProcessor(comm_cfg)
        assert np.array_equal(proc.process(x[:1000]), ref.process(x[:1000]))
        block = rng.normal(0.0, 1e306, 1000)
        block[:417] = x[1000:1417]
        block[417] = -1e307
        # the screen itself raises no overflow warning, which the test
        # settings would turn into an error
        with pytest.raises(InputError, match="sample magnitude above .* at stream index 1417"):
            proc.process(block)
        np.testing.assert_array_equal(proc.process(x[2000:]), ref.process(x[2000:]))

    @pytest.mark.parametrize("single", [False, True])
    def test_samples_just_under_the_bound_give_finite_output(self, comm_cfg, single):
        """Noise peaking just under max_abs_sample, and a constant at it
        through a rectangular window with no high-pass (the largest DC
        bin a frame can make), come out finite, and so does every noise
        estimate of every tracker."""
        limit = comm_cfg.frame.max_abs_sample
        # sqrt(max float / (256 * 128)) / 8
        assert 9.25e150 < limit < 9.26e150
        rng = np.random.default_rng(21)
        noise = rng.normal(0.0, 1.0, FS // 2)
        noise *= limit * (1 - 1e-12) / np.abs(noise).max()
        doc = config_to_dict(no_hpf(comm_cfg))
        doc["frame"]["window_kind"] = "rectangular"
        rect = config_from_dict(doc)
        assert rect.frame.max_abs_sample == limit
        with np.errstate(over="ignore", invalid="ignore"):
            for cfg, x in ((comm_cfg, noise), (rect, np.full(FS // 2, limit))):
                tracks = []
                y, log = ds.process_stream(
                    x, cfg, single_stage=single, tracker_sink=lambda *row: tracks.append(row[2:])
                )
                assert np.all(np.isfinite(y)) and np.all(np.isfinite(log))
                assert tracks and np.all(np.isfinite(tracks))

    def test_burst_that_would_overflow_a_band_power_is_rejected(self, comm_cfg):
        """A 200-sample burst at 1e160 in speech in noise, loud enough to
        overflow the band powers and leave both trackers non-finite for
        the rest of the stream, fails fast with its stream index; the
        same burst scaled to just under max_abs_sample keeps every
        tracker frame finite."""
        rng = np.random.default_rng(22)
        x = surrogate_speech(2.0, rng) + pink_noise(2.0, rng)
        burst = slice(12000, 12200)
        x[burst] *= 1e160
        with pytest.raises(InputError, match="sample magnitude above .* at stream index 12000"):
            ds.process_stream(x, comm_cfg)
        x[burst] *= comm_cfg.frame.max_abs_sample * (1 - 1e-12) / np.abs(x[burst]).max()
        tracks = []
        ds.process_stream(x, comm_cfg, tracker_sink=lambda *row: tracks.append(row[2:]))
        assert len(tracks) > 500 and np.all(np.isfinite(tracks))

    @pytest.mark.parametrize("level", [1e-3, 1e-6])
    @pytest.mark.parametrize("single", [False, True])
    def test_burst_over_a_quiet_background_gives_no_warning(self, comm_cfg, level, single):
        """The burst above, just under max_abs_sample, over pink noise at
        a low level: the burst's band SNRs would overflow a square, which
        the test settings turn into an error. Output and gains stay
        finite."""
        rng = np.random.default_rng(22)
        x = surrogate_speech(2.0, rng) + level * pink_noise(2.0, rng)
        burst = slice(12000, 12200)
        x[burst] *= comm_cfg.frame.max_abs_sample * (1 - 1e-12) / np.abs(x[burst]).max()
        y, log = ds.process_stream(x, comm_cfg, single_stage=single)
        assert np.all(np.isfinite(y)) and np.all(np.isfinite(log))

    @pytest.mark.parametrize("hop_calls", [False, True])
    def test_loud_frame_rescale_is_exact(self, comm_cfg, hop_calls):
        """The power-of-two rescale that keeps a loud frame's SNR weights
        from overflowing, forced onto every frame, changes no output bit
        of ordinary audio, one hop per call or a whole signal at once."""
        rng = np.random.default_rng(26)
        x = surrogate_speech(2.0, rng) + pink_noise(2.0, rng)
        hop = comm_cfg.frame.hop_len
        chunks = [x[p : p + hop] for p in range(0, x.size, hop)] if hop_calls else [x]
        outs = []
        for limit in (None, 0.0):
            proc = ds.StreamProcessor(comm_cfg)
            if limit is not None:
                proc.loud_weight = limit
            outs.append(np.concatenate([proc.process(c) for c in chunks]))
        np.testing.assert_array_equal(outs[0], outs[1])


class TestTransformBudget:
    @pytest.mark.parametrize("single", [False, True])
    def test_one_fft_pair_per_frame(self, comm_cfg, transform_rows, single):
        """Both stages share one spectrum: exactly one forward and one
        inverse transform per frame regardless of stage count."""
        rng = np.random.default_rng(10)
        x = rng.normal(0.0, 0.1, FS)
        _, log = ds.process_stream(x, comm_cfg, single_stage=single)
        frames = log.shape[0]
        assert frames > 0
        assert transform_rows["fwd"] == frames
        assert transform_rows["inv"] == frames


class TestLatency:
    def test_impulse_delay_exact(self, comm_cfg):
        cfg = with_mu(no_hpf(comm_cfg), 0.0)
        x = np.zeros(4096)
        x[1000] = 1.0
        y, _ = ds.process_stream(x, cfg)
        delay = cfg.frame.frame_len + cfg.frame.hop_len
        assert int(np.argmax(np.abs(y))) == 1000 + delay

    def test_latency_aligned_removes_delay(self, comm_cfg):
        cfg = with_mu(no_hpf(comm_cfg), 0.0)
        x = np.zeros(4096)
        x[1000] = 1.0
        y, _ = ds.process_stream(x, cfg, latency_aligned=True)
        assert int(np.argmax(np.abs(y))) == 1000

    def test_reported_latency(self, comm_cfg):
        assert algorithmic_latency_ms(comm_cfg.frame) == 12.0


class TestWarmup:
    def test_seeded_frames_pass_unity_gains(self, comm_cfg):
        """Frames whose analysis buffer still holds seeded zeros are
        logged with unity gains and do not disturb the trackers."""
        rng = np.random.default_rng(11)
        x = rng.normal(0.0, 0.1, FS // 2)
        _, log = ds.process_stream(x, comm_cfg)
        warm = comm_cfg.frame.frame_len // comm_cfg.frame.hop_len + 1
        np.testing.assert_array_equal(log[:warm], 1.0)
        assert np.any(log[warm:] < 1.0)


class TestGainShadowing:
    def test_replay_identity(self, comm_cfg):
        """Replaying a run's own gain log over the same input
        reproduces the run's output."""
        rng = np.random.default_rng(12)
        x = rng.normal(0.0, 0.1, FS)
        y, log = ds.process_stream(x, comm_cfg)
        again = ds.replay_gains(x, log, comm_cfg)
        np.testing.assert_allclose(again, y, atol=1e-12)

    def test_replay_is_linear_in_the_signal(self, comm_cfg):
        """Fixed gains make the replay path linear, so shadowing the
        mix components separately sums back to the processed mix."""
        rng = np.random.default_rng(13)
        a = rng.normal(0.0, 0.1, FS)
        b = rng.normal(0.0, 0.05, FS)
        y, log = ds.process_stream(a + b, comm_cfg)
        ya = ds.replay_gains(a, log, comm_cfg)
        yb = ds.replay_gains(b, log, comm_cfg)
        np.testing.assert_allclose(ya + yb, y, atol=1e-9)

    def test_replay_log_length_mismatch(self, comm_cfg):
        rng = np.random.default_rng(14)
        x = rng.normal(0.0, 0.1, FS // 2)
        _, log = ds.process_stream(x, comm_cfg)
        with pytest.raises(UsageError, match="frames"):
            ds.replay_gains(x, log[:-3], comm_cfg)
        with pytest.raises(UsageError, match="frames"):
            ds.replay_gains(x[: x.size // 2], log, comm_cfg)

    def test_replay_log_row_width_mismatch(self, comm_cfg):
        x = np.random.default_rng(23).normal(0.0, 0.1, FS // 4)
        _, log = ds.process_stream(x, comm_cfg)
        for bad in (log[:, :-1], log[:, 0]):
            with pytest.raises(UsageError, match=r"gain log rows have shape \(\d*,?\), expected \(129,\)"):
                ds.replay_gains(x, bad, comm_cfg)


class TestStageInteraction:
    def test_single_stage_differs_from_dual(self, comm_cfg):
        rng = np.random.default_rng(15)
        x = rng.normal(0.0, 0.1, FS)
        dual, _ = ds.process_stream(x, comm_cfg)
        single, _ = ds.process_stream(x, comm_cfg, single_stage=True)
        assert not np.allclose(dual, single)

    def test_single_stage_suppresses_less(self, comm_cfg):
        """Stage 2 multiplies further gains below unity on top of
        Stage 1, so the dual output cannot carry more noise power."""
        rng = np.random.default_rng(16)
        x = rng.normal(0.0, 0.1, 2 * FS)
        dual, _ = ds.process_stream(x, comm_cfg)
        single, _ = ds.process_stream(x, comm_cfg, single_stage=True)
        tail = slice(FS, None)  # past tracker convergence
        assert np.mean(dual[tail] ** 2) <= np.mean(single[tail] ** 2) + 1e-15

    def test_snr_feed_speeds_stage2_on_noise(self, comm_cfg):
        """On noise-only input the Stage-1 frame SNR sits low, which
        raises Stage 2's smoothing rate; the fed tracker must lag the
        raw minimum track less than the same tracker with the feed
        cut by a null alpha_snr_map. Stage 1 is identical in both runs,
        so the raw track is shared and only the smoothing rate differs."""
        rng = np.random.default_rng(17)
        x = white_noise(2.0, rng, level=0.1)

        def run(cfg):
            raws, smooths = [], []

            def sink(frame, stage, raw, smoothed):
                if stage == 2:
                    raws.append(raw.copy())
                    smooths.append(smoothed.copy())

            ds.process_stream(x, cfg, tracker_sink=sink)
            return np.asarray(raws), np.asarray(smooths)

        doc = config_to_dict(comm_cfg)
        doc["stage2"]["tracker"]["alpha_snr_map"] = None
        raw_u, unfed = run(config_from_dict(doc))
        raw_f, fed = run(comm_cfg)
        np.testing.assert_array_equal(raw_f, raw_u)

        lag_fed = np.mean(np.abs(fed - raw_f))
        lag_unfed = np.mean(np.abs(unfed - raw_u))
        assert lag_fed < lag_unfed


class TestLayerCalls:
    # every tracker and gain layer the engine runs per block
    LAYERS = (
        (noise_tracking, "update"),
        (noise_tracking, "track_raw"),
        (noise_tracking, "smooth_noise"),
        (noise_tracking, "effective_alpha"),
        (gain, "compute_snr"),
        (gain, "compute_raw_gain"),
        (gain, "smooth_gain"),
    )

    @pytest.mark.parametrize("snr_map", [True, False])
    def test_engine_calls_each_layer_by_its_module_name(self, comm_cfg, monkeypatch, snr_map):
        """A wrapper set on a layer's module attribute, as the
        benchmark's tracer sets one, sees the engine's calls, on the
        block path and on the lone-frame path alike; effective_alpha
        runs exactly when Stage 2 has an alpha map."""
        calls = dict.fromkeys((name for _, name in self.LAYERS), 0)
        for module, name in self.LAYERS:

            def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        doc = config_to_dict(comm_cfg)
        if not snr_map:
            doc["stage2"]["tracker"]["alpha_snr_map"] = None
        proc = pipeline.StreamProcessor(config_from_dict(doc))
        hop = comm_cfg.frame.hop_len
        x = white_noise(1.0, np.random.default_rng(18), level=0.1)
        feeds = {"blocks": [x[: 2 * pipeline.BLOCK_FRAMES * hop]], "hops": [x[:hop]] * 4}
        for path, blocks in feeds.items():
            calls.update(dict.fromkeys(calls, 0))
            for block in blocks:
                proc.process(block)
            expected = {name: 1 for name in calls}
            expected["effective_alpha"] = int(snr_map)
            assert {name: min(n, 1) for name, n in calls.items()} == expected, path

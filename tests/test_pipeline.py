"""End-to-end pipeline behaviour: streaming, latency, gain replay."""

import collections
import dataclasses
import sys
import tracemalloc

import numpy as np
import pytest

import dualstage as ds
from dualstage import framing, gain, metrics, noise_tracking, pipeline
from dualstage.config import config_from_dict, config_to_dict
from dualstage.errors import InputError, UsageError
from dualstage.framing import algorithmic_latency_ms
from synth import FS, pink_noise, surrogate_speech, white_noise

from conftest import no_hpf, run_blocks, with_mu

BLOCK = pipeline.BLOCK_FRAMES


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
        whole, log = ds.process_stream(x, comm_cfg)

        proc = ds.StreamProcessor(comm_cfg)
        edges = np.cumsum(rng.integers(1, 700, 200))
        chunks = np.split(x, edges[edges < x.size])
        chunked = np.concatenate([proc.process(c) for c in chunks])
        # the raw stream runs ahead by up to a frame of seeded zeros;
        # process_stream trims to the input length
        assert chunked.size >= whole.size
        np.testing.assert_array_equal(chunked[: whole.size], whole)
        # the same calls' block records carry the same output and, with
        # log_gains, the log's rows (process_stream also runs the flush)
        y, chunked_log, _ = run_blocks(ds.StreamProcessor(comm_cfg, log_gains=True), chunks)
        np.testing.assert_array_equal(y, chunked)
        np.testing.assert_array_equal(chunked_log, log[: len(chunked_log)])

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
            return run_blocks(ds.StreamProcessor(cfg, single_stage=single, log_gains=True), chunks)

        y, log, rows = run([x[pos : pos + hop] for pos in range(0, x.size, hop)])
        y_whole, log_whole, rows_whole = run([x])
        np.testing.assert_array_equal(y, y_whole)
        np.testing.assert_array_equal(log, log_whole)
        assert [r[:2] for r in rows] == [r[:2] for r in rows_whole]
        np.testing.assert_array_equal([r[2:] for r in rows], [r[2:] for r in rows_whole])

    @pytest.mark.parametrize("single", [False, True])
    def test_carries_are_the_same_whatever_the_feed(self, comm_cfg, single):
        """The same 3 s fed to process in 64-, 128- and 160-sample calls
        (one frame a call, two, and two or three, which process steps
        frame by frame) and in one push give the same output and leave
        every carry byte for byte the same: the framer's high-pass
        delays, unframed samples and counts, the overlap-add tail, and
        per stage the two smoother carries, the gain carry and the
        sliding minimum's buffer, position and prefix."""
        x = surrogate_speech(3.0, np.random.default_rng(43)) + pink_noise(3.0, np.random.default_rng(44))

        def carries(feed):
            proc = ds.StreamProcessor(comm_cfg, single_stage=single)
            y = np.concatenate([proc.process(x[pos : pos + feed]) for pos in range(0, x.size, feed)])
            f = proc.framer
            state = {"y": y, "zi": f.zi, "buf": f.buf[: f.fill], "fill": f.fill}
            state |= {"samples_in": f.samples_in, "frames": f.frames, "tail": proc.tail}
            for k, stage in enumerate(proc.stages):
                noise, window = stage.noise, stage.noise.window_min
                state |= {
                    f"{k}.presmoothed_mag": noise.presmoothed_mag,
                    f"{k}.smoothed": noise.smoothed,
                    f"{k}.prev_gain": stage.prev_gain,
                    f"{k}.window_buf": window.buf,
                    f"{k}.window_pos": window.pos,
                    f"{k}.prefix_min": window.prefix_min,
                }
            return {name: np.asarray(value) for name, value in state.items()}

        whole = carries(x.size)
        for feed in (64, 128, 160):
            fed = carries(feed)
            assert fed.keys() == whole.keys()
            for name, value in fed.items():
                assert (value.dtype, value.shape) == (whole[name].dtype, whole[name].shape), (feed, name)
                assert value.tobytes() == whole[name].tobytes(), (feed, name)

    @pytest.mark.parametrize("aligned", [False, True])
    def test_run_stream_blocks_equal_whole(self, comm_cfg, aligned):
        """run_stream over any split of a signal yields block records
        whose outs hold, in pieces, the samples process_stream returns,
        and whose frames are, in order, the frames of its log."""
        rng = np.random.default_rng(25)
        x = rng.normal(0.0, 0.1, FS // 2)
        whole, log = ds.process_stream(x, comm_cfg, latency_aligned=aligned)
        for cuts in ([], [1], [63, 64, 100], list(range(0, x.size, 977)), [x.size - 1]):
            edges = [0, *cuts, x.size]
            proc = ds.StreamProcessor(comm_cfg, log_gains=False)
            blocks = (x[a:b] for a, b in zip(edges, edges[1:]))
            records = list(pipeline.run_stream(proc, blocks, x.size, latency_aligned=aligned))
            np.testing.assert_array_equal(np.concatenate([r.out for r in records]), whole)
            starts = [r.frame for r in records]
            assert starts[0] == 0 and starts == sorted(set(starts))
            assert proc.frame_index == len(log)

    def test_whole_signal_memory_is_its_output(self, comm_cfg):
        """60 s peaks at the 22.1 MiB of output and gain log it returns
        plus one block's temporaries; pushing the whole signal at once
        and concatenating the pieces took 2.2 times that."""
        x = np.random.default_rng(31).normal(0.0, 0.1, 60 * FS)
        tracemalloc.start()
        try:
            y, log = ds.process_stream(x, comm_cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        returned = y.nbytes + log.nbytes
        assert peak < 1.25 * returned, peak / returned

    def test_one_push_equals_block_pieces(self, comm_cfg):
        """One push of 60 s gives the output, gain rows and noise rows of
        the same samples pushed in BLOCK_FRAMES-hop pieces: the framer
        runs a long push through its buffer a chunk of that size at a
        time, and the engine is chunk-invariant."""
        x = pink_noise(60.0, np.random.default_rng(41))
        feed = BLOCK * comm_cfg.frame.hop_len

        def run(chunks):
            return run_blocks(ds.StreamProcessor(comm_cfg, log_gains=True), chunks)

        y, log, rows = run([x])
        y_pieces, log_pieces, rows_pieces = run([x[i : i + feed] for i in range(0, x.size, feed)])
        assert y.tobytes() == y_pieces.tobytes() and log.tobytes() == log_pieces.tobytes()
        assert [r[:2] for r in rows] == [r[:2] for r in rows_pieces]
        np.testing.assert_array_equal([r[2:] for r in rows], [r[2:] for r in rows_pieces])

    def test_one_push_holds_one_block_beyond_its_output(self, comm_cfg):
        """Over 60 s of float64 noise, one blocks() pass of one push peaks
        within 0.5 MiB of the same samples pushed in BLOCK_FRAMES-hop
        pieces, and one process() call within 0.5 MiB of its output plus
        that streamed peak. Joining the carry and the whole high-passed
        push took 14.7 MiB against 2.2 MiB, and process() 16.6 MiB for a
        7.3 MiB output."""
        x = np.random.default_rng(40).normal(0.0, 0.1, 60 * FS)
        feed = BLOCK * comm_cfg.frame.hop_len
        ds.StreamProcessor(comm_cfg).process(x[: 4 * feed])  # whatever a first call loads

        def peak(run):
            proc = ds.StreamProcessor(comm_cfg)
            tracemalloc.start()
            try:
                result = run(proc)
                return tracemalloc.get_traced_memory()[1], result
            finally:
                tracemalloc.stop()

        def drain(records):
            for _ in records:
                pass

        def in_pieces(proc):
            for i in range(0, x.size, feed):
                drain(proc.blocks(x[i : i + feed]))

        whole, _ = peak(lambda proc: drain(proc.blocks(x)))
        pieces, _ = peak(in_pieces)
        called, y = peak(lambda proc: proc.process(x))
        assert whole <= pieces + 2**19, (whole, pieces)
        assert called <= y.nbytes + pieces + 2**19, (called, y.nbytes, pieces)

    def test_streaming_memory_stays_flat(self, comm_cfg):
        """A default processor fed 1 min, then 2 min, of noise in
        1024-sample process calls holds under 1 MiB after each run:
        nothing is kept per frame. A gain log kept by default held
        15.1 and 30.0 MiB."""
        rng = np.random.default_rng(36)
        for minutes in (1, 2):
            tracemalloc.start()
            try:
                proc = ds.StreamProcessor(comm_cfg)
                for _ in range(minutes * 60 * FS // 1024):
                    proc.process(rng.normal(0.0, 0.1, 1024))
                held = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            assert held < 2**20, (minutes, held)

    def test_stream_holds_one_window_per_stage(self, comm_cfg):
        """A processor stepped hop by hop past two tracker windows holds
        (window_len + 1) band rows per stage for its sliding minima and
        at most 64 KiB beside them: 262 KiB for the communication
        preset. A block buffer beside a suffix buffer per stage held
        413 KiB."""
        trackers = (comm_cfg.stage1.tracker, comm_cfg.stage2.tracker)
        bound = sum((t.window_len + 1) * comm_cfg.num_bands * 8 for t in trackers) + 64 * 1024
        hops = np.random.default_rng(37).normal(
            0.0, 0.1, (2 * max(t.window_len for t in trackers) + 32, comm_cfg.frame.hop_len)
        )
        ds.StreamProcessor(comm_cfg).process(hops[0])  # whatever a first call loads
        tracemalloc.start()
        try:
            proc = ds.StreamProcessor(comm_cfg)
            for hop in hops:
                proc.process(hop)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held <= bound, (held, bound)

    def test_kept_one_hop_outputs_hold_only_their_samples(self, comm_cfg):
        """A caller that keeps 1000 one-hop outputs of a warmed stream
        holds at most 1.1 times what 1000 fresh hop-sized arrays hold. A
        lone frame's output was a view of the inverse transform's
        buffer, 4 hops long, so they held 2,228 KiB for 500 KiB of
        samples."""
        hop = comm_cfg.frame.hop_len
        hops = np.random.default_rng(39).normal(0.0, 0.1, (1400, hop))
        proc = ds.StreamProcessor(comm_cfg)
        for h in hops[:400]:  # past the warm-up and a tracker window
            proc.process(h)

        def held(make):
            tracemalloc.start()
            try:
                kept = [make(h) for h in hops[400:]]
                return tracemalloc.get_traced_memory()[0], kept
            finally:
                tracemalloc.stop()

        fresh, _ = held(np.copy)
        outputs, kept = held(proc.process)
        assert {y.size for y in kept} == {hop}
        assert outputs <= 1.1 * fresh, (outputs, fresh)

    @pytest.mark.parametrize("feed", [97, 777])
    def test_kept_block_outputs_hold_only_their_samples(self, comm_cfg, feed):
        """A caller that keeps 1000 calls' outputs of a warmed stream fed
        97 or 777 samples a call, from process() or from every block
        record, holds at most 1.1 times fresh copies of them. A block's
        output was a view of the overlap-add sum, which holds the next
        tail's hops too, so a two-frame output kept 1.5 times its
        bytes."""
        pieces = np.random.default_rng(42).normal(0.0, 0.1, (1400, feed))
        proc = ds.StreamProcessor(comm_cfg)
        for piece in pieces[:400]:  # past the warm-up and a tracker window
            proc.process(piece)

        def held(make, items):
            tracemalloc.start()
            try:
                kept = [make(item) for item in items]
                return tracemalloc.get_traced_memory()[0], kept
            finally:
                tracemalloc.stop()

        outputs, kept = held(proc.process, pieces[400:900])
        records, kept_records = held(lambda p: [r.out for r in proc.blocks(p)], pieces[900:])
        fresh, _ = held(np.copy, kept)
        fresh_records, _ = held(lambda outs: [np.copy(y) for y in outs], kept_records)
        assert outputs <= 1.1 * fresh, (outputs, fresh)
        assert records <= 1.1 * fresh_records, (records, fresh_records)

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

    @pytest.mark.parametrize("feed", [64, 128, 160, 192])
    @pytest.mark.parametrize("bad", [np.nan, 1e200])
    def test_small_push_names_first_bad_sample(self, comm_cfg, feed, bad):
        """A push of one, two or three frames past the warm-up, which
        process steps frame by frame, is screened whole before any
        frame of it runs: a bad sample at its end raises with its
        stream index, and the stream carries on as if never fed it."""
        rng = np.random.default_rng(45)
        x = rng.normal(0.0, 0.1, 4000)
        proc = ds.StreamProcessor(comm_cfg)
        ref = ds.StreamProcessor(comm_cfg)
        for pos in range(0, 2000, feed):
            np.testing.assert_array_equal(proc.process(x[pos : pos + feed]), ref.process(x[pos : pos + feed]))
        start = len(range(0, 2000, feed)) * feed
        block = x[start : start + feed].copy()
        block[-1] = bad
        with pytest.raises(InputError, match=f"at stream index {start + feed - 1}"):
            proc.process(block)
        assert proc.frame_index == ref.frame_index
        for pos in range(start, x.size, feed):
            np.testing.assert_array_equal(proc.process(x[pos : pos + feed]), ref.process(x[pos : pos + feed]))

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
                proc = ds.StreamProcessor(cfg, single_stage=single, log_gains=True)
                y, log, rows = run_blocks(proc, proc.framer.stream(x))
                tracks = [row[2:] for row in rows]
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
        proc = ds.StreamProcessor(comm_cfg)
        _, _, rows = run_blocks(proc, proc.framer.stream(x))
        tracks = [row[2:] for row in rows]
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
    def test_loud_frame_rescale_is_exact(self, comm_cfg, monkeypatch, hop_calls):
        """The power-of-two rescale that keeps a loud frame's SNR weights
        from overflowing, forced onto every frame, changes no output bit
        of ordinary audio, one hop per call or a whole signal at once.
        The threshold is set where Stage 1's frame SNR reads it, through
        monkeypatch, which raises if that attribute is gone."""
        rng = np.random.default_rng(26)
        x = surrogate_speech(2.0, rng) + pink_noise(2.0, rng)
        hop = comm_cfg.frame.hop_len
        chunks = [x[p : p + hop] for p in range(0, x.size, hop)] if hop_calls else [x]
        outs = []
        for limit in (None, 0.0):
            proc = ds.StreamProcessor(comm_cfg)
            if limit is not None:
                monkeypatch.setattr(proc.stages[0], "loud_weight", limit)
            outs.append(np.concatenate([proc.process(c) for c in chunks]))
        np.testing.assert_array_equal(outs[0], outs[1])


class TestSampleType:
    """Complex or non-numeric samples raise UsageError naming their
    dtype at every entry point, where numpy would drop the imaginary
    part with a warning or raise a bare ValueError."""

    BAD = {"complex128": np.full(2000, 0.1 + 0.1j), "<U1": ["a"] * 2000}

    @pytest.mark.parametrize("dtype", BAD)
    def test_process(self, comm_cfg, dtype):
        x = np.random.default_rng(36).normal(0.0, 0.1, 3000)
        proc, ref = ds.StreamProcessor(comm_cfg), ds.StreamProcessor(comm_cfg)
        with pytest.raises(UsageError, match=f"got dtype {dtype}"):
            proc.process(self.BAD[dtype])
        np.testing.assert_array_equal(proc.process(x), ref.process(x))

    @pytest.mark.parametrize("dtype", BAD)
    def test_process_stream(self, comm_cfg, dtype):
        with pytest.raises(UsageError, match=f"got dtype {dtype}"):
            ds.process_stream(self.BAD[dtype], comm_cfg)

    @pytest.mark.parametrize("dtype", BAD)
    def test_replay_gains(self, comm_cfg, dtype):
        _, log = ds.process_stream(np.zeros(2000), comm_cfg)
        with pytest.raises(UsageError, match=f"got dtype {dtype}"):
            ds.replay_gains(self.BAD[dtype], log, comm_cfg)

    @pytest.mark.parametrize("dtype", BAD)
    @pytest.mark.parametrize("component", ["speech", "noise"])
    def test_evaluate_condition(self, comm_cfg, dtype, component):
        rng = np.random.default_rng(37)
        signals = {"speech": surrogate_speech(2.0, rng), "noise": white_noise(2.0, rng)}
        bad = self.BAD[dtype]
        signals[component] = np.resize(np.asarray(bad), signals[component].size)
        with pytest.raises(UsageError, match=f"{component} must be real numbers, got dtype {dtype}"):
            ds.evaluate_condition(signals["speech"], signals["noise"], 0.0, comm_cfg)


class TestRaggedInput:
    """A ragged nesting raises UsageError naming what it was passed as,
    where numpy would raise a bare ValueError."""

    RAGGED = [[0.1, 0.2], [0.3]]

    def test_process(self, comm_cfg):
        with pytest.raises(UsageError, match="samples must be a regular array"):
            ds.StreamProcessor(comm_cfg).process(self.RAGGED)

    def test_process_stream(self, comm_cfg):
        with pytest.raises(UsageError, match="samples must be a regular array"):
            ds.process_stream(self.RAGGED, comm_cfg)

    def test_replay_gains(self, comm_cfg):
        _, log = ds.process_stream(np.zeros(2000), comm_cfg)
        with pytest.raises(UsageError, match="samples must be a regular array"):
            ds.replay_gains(self.RAGGED, log, comm_cfg)

    @pytest.mark.parametrize("component", ["speech", "noise"])
    def test_evaluate_condition(self, comm_cfg, component):
        rng = np.random.default_rng(37)
        signals = {"speech": surrogate_speech(2.0, rng), "noise": white_noise(2.0, rng)}
        signals[component] = self.RAGGED
        with pytest.raises(UsageError, match=f"{component} must be a regular array"):
            ds.evaluate_condition(signals["speech"], signals["noise"], 0.0, comm_cfg)


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


class TestCallBudget:
    # Python-level calls a steady one-hop process call makes, dual and
    # single stage, communication preset: one per layer, each stage's
    # step and three smoothers (smooth_carried over smooth_rows), and
    # the framer's accept, load and shift; the block path made 57 and
    # 32, two generators and a BlockRecord among them
    BUDGET = {False: 50, True: 29}

    @pytest.mark.parametrize("single", [False, True])
    def test_calls_per_hop(self, comm_cfg, single):
        """sys.setprofile counts the "call" events (function calls and
        generator resumptions) of each of 100 one-hop calls of a warmed
        stream: the median call makes at most the budgeted count, so a
        new per-hop call (which costs stream-hop time) shows here
        first, and none makes more than one per stage beyond it, which
        a call that closes a sliding-minimum window adds."""
        hop = comm_cfg.frame.hop_len
        x = np.random.default_rng(46).normal(0.0, 0.1, 400 * hop)
        proc = ds.StreamProcessor(comm_cfg, single_stage=single)
        for pos in range(0, 300 * hop, hop):
            proc.process(x[pos : pos + hop])
        counts, names = [], collections.Counter()

        def count(frame, event, arg):
            if event == "call":
                counts[-1] += 1
                names[frame.f_code.co_name] += 1

        for pos in range(300 * hop, x.size, hop):
            counts.append(0)
            sys.setprofile(count)
            try:
                proc.process(x[pos : pos + hop])
            finally:
                sys.setprofile(None)
        budget = self.BUDGET[single] + len(proc.stages)
        assert max(counts) <= budget, (max(counts), names)
        assert sorted(counts)[50] <= self.BUDGET[single], (sorted(counts)[50], names)


class TestGainRowsPass:
    """StreamProcessor(gains_only=True), the engine pass evaluate_condition
    runs: its blocks carry gain rows and no output, and the rows are
    process_stream's gain log, byte for byte."""

    @pytest.mark.parametrize("single", [False, True])
    @pytest.mark.parametrize("hops", [10, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 7])
    def test_rows_are_the_log(self, comm_cfg, single, hops):
        rng = np.random.default_rng(hops)
        # an odd sample count, so the stream ends inside a hop
        size = hops * comm_cfg.frame.hop_len + 17
        seconds = max(1.0, size / FS)
        x = (surrogate_speech(seconds, rng) + white_noise(seconds, rng))[:size]
        _, log = ds.process_stream(x, comm_cfg, single_stage=single)
        proc = ds.StreamProcessor(comm_cfg, single_stage=single, gains_only=True)
        # the pieces evaluate_condition feeds
        records = [r for piece in proc.framer.stream(x) for r in proc.blocks(piece)]
        assert all(r.out is None for r in records)
        rows = np.concatenate([r.gains for r in records])
        starts = np.cumsum([0] + [len(r.gains) for r in records[:-1]])
        assert [r.frame for r in records] == list(starts)
        assert rows.dtype == log.dtype and rows.shape == log.shape
        assert rows.tobytes() == log.tobytes()

    def test_process_refuses(self, comm_cfg):
        proc = ds.StreamProcessor(comm_cfg, gains_only=True)
        with pytest.raises(UsageError, match="no output"):
            proc.process(np.zeros(4 * comm_cfg.frame.hop_len))
        assert proc.frame_index == 0


class TestBlockRecords:
    @pytest.mark.parametrize("feed", [64, 4096])
    @pytest.mark.parametrize("single", [False, True])
    def test_writing_into_records_changes_nothing(self, comm_cfg, single, feed):
        """A caller may write into every array of every record (out,
        gains and each stage's raw and smoothed noise rows): the stream
        then gives the bits of an untouched one. Each stage's smoothed
        noise carry was once a view of the record's last smoothed row,
        so writing into it changed the output that followed."""
        x = pink_noise(3.0, np.random.default_rng(38))

        def run(touch):
            proc = ds.StreamProcessor(comm_cfg, single_stage=single, log_gains=True)
            kept = []
            for pos in range(0, x.size, feed):
                for record in proc.blocks(x[pos : pos + feed]):
                    arrays = [record.out, record.gains, *(a for pair in record.noise for a in pair)]
                    kept += [a.tobytes() for a in arrays]
                    if touch:
                        for a in arrays:
                            a[...] = 7.0
            return kept

        assert run(touch=True) == run(touch=False)


class TestPowerBudget:
    """Only the code that pools or plots a spectrum computes its per-bin
    powers (framing.bin_power): the engine once per block past the
    warm-up, for Stage 1's pooling, and the spectrogram once per block
    of its framer. Replay only scales and synthesises bins. Once every
    analysis computed a power, which replay never read."""

    @pytest.fixture
    def power_shapes(self, monkeypatch):
        """Shapes of the spectra framing.bin_power is called on from here on."""
        shapes = []
        real = framing.bin_power

        def counted(bins):
            shapes.append(bins.shape)
            return real(bins)

        monkeypatch.setattr(framing, "bin_power", counted)
        return shapes

    def test_replay_computes_none(self, comm_cfg, power_shapes):
        x = white_noise(1.0, np.random.default_rng(33))
        _, log = ds.process_stream(x, comm_cfg)
        power_shapes.clear()
        ds.replay_gains(x, log, comm_cfg)
        assert power_shapes == []

    @pytest.mark.parametrize("single", [False, True])
    def test_engine_computes_one_per_block_past_the_warm_up(self, comm_cfg, power_shapes, single):
        hop, bins = comm_cfg.frame.hop_len, comm_cfg.frame.num_bins
        x = white_noise(1.0, np.random.default_rng(34))
        proc = ds.StreamProcessor(comm_cfg, single_stage=single)
        # lone hops, then blocks of many frames
        pieces = np.split(x, [hop, 2 * hop, 3 * hop, 4 * hop, 5 * hop, 3000])
        records = [r for piece in pieces for r in proc.blocks(piece)]
        past = [r.out.size // hop for r in records if r.frame >= proc.framer.warm_frames]
        assert len(past) < len(records) and max(past) > 1
        assert power_shapes == [(bins,) if n == 1 else (n, bins) for n in past]

    def test_spectrogram_computes_one_per_framer_block(self, comm_cfg, power_shapes):
        x = white_noise(3.0, np.random.default_rng(35))
        framer = pipeline._Framer(dataclasses.replace(comm_cfg.frame, hpf_cutoff_hz=None))
        past = [
            n
            for piece in framer.pieces(x)
            for _, n in framer.push(piece)
            if framer.frames >= framer.warm_frames
        ]
        rows = metrics.spectrogram_db(x, comm_cfg.frame)
        assert len(past) > 1 and sum(past) == len(rows)
        assert power_shapes == [(n, comm_cfg.frame.num_bins) for n in past]


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_replay_log_non_finite_gain(self, comm_cfg, bad):
        """A NaN or infinite gain would make the output non-finite (an
        infinity with RuntimeWarnings); it raises UsageError naming the
        first frame that holds one."""
        x = np.random.default_rng(38).normal(0.0, 0.1, FS // 4)
        _, log = ds.process_stream(x, comm_cfg)
        log[60, 0] = log[37, 128] = bad
        with pytest.raises(UsageError, match="gain log frame 37 holds a non-finite gain"):
            ds.replay_gains(x, log, comm_cfg)

    def test_replay_log_complex(self, comm_cfg):
        x = np.random.default_rng(39).normal(0.0, 0.1, FS // 4)
        _, log = ds.process_stream(x, comm_cfg)
        with pytest.raises(UsageError, match="gain log must be real numbers, got dtype complex128"):
            ds.replay_gains(x, log.astype(complex), comm_cfg)

    def test_replay_takes_gains_above_one_and_negative(self, comm_cfg):
        """Replay is linear in the gains, and -2 is a power of two, so
        the replay of -2 times a log is exactly -2 times its replay."""
        x = np.random.default_rng(40).normal(0.0, 0.1, FS // 4)
        _, log = ds.process_stream(x, comm_cfg)
        np.testing.assert_array_equal(
            ds.replay_gains(x, -2.0 * log, comm_cfg), -2.0 * ds.replay_gains(x, log, comm_cfg)
        )


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
            proc = ds.StreamProcessor(cfg)
            _, _, rows = run_blocks(proc, proc.framer.stream(x))
            raws = [raw for _, stage, raw, _ in rows if stage == 2]
            smooths = [smoothed for _, stage, _, smoothed in rows if stage == 2]
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
        (framing, "hpf_process"),
        (framing, "synthesize"),
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

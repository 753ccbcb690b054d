"""Mixing, activity masking and the gain-shadowing SNR measurement."""

import sys
import threading
import tracemalloc

import numpy as np
import pytest

import dualstage as ds
from dualstage import pipeline
from dualstage.errors import InputError, UsageError
from dualstage.metrics import (
    MixSpec,
    REPORT_COLUMNS,
    active_frame_mask,
    block_rms,
    mix_at_snr,
    noise_segment_reduction,
    relative_improvement,
    spectrogram_db,
    write_report_csv,
    write_spectrogram_csv,
)
from synth import FS, surrogate_speech, white_noise

from conftest import no_hpf

# 20*log10(1/0.178), evaluated independently
FLOOR_GAIN_DB = 14.99159995382212


class TestBlockRms:
    def test_hand_case(self):
        x = np.array([3.0, 4.0, 0.0, 0.0, 1.0])
        np.testing.assert_allclose(block_rms(x, 2), [np.sqrt(12.5), 0.0])

    def test_too_short_for_one_block(self):
        assert block_rms(np.ones(3), 4).size == 0


class TestActiveFrameMask:
    def test_marks_loud_blocks(self):
        x = np.concatenate([np.full(64, 1.0), np.full(64, 0.001), np.full(64, 0.5)])
        mask = active_frame_mask(x, 64, 35.0)
        np.testing.assert_array_equal(mask, [True, False, True])

    def test_silent_signal_has_no_active_blocks(self):
        assert not active_frame_mask(np.zeros(640), 64, 35.0).any()


class TestMixAtSnr:
    def _spec(self, speech, noise, snr, **kw):
        return MixSpec(
            speech=speech, noise=noise, target_snr_db=snr, sample_rate_hz=FS, **kw
        )

    def test_equal_levels_at_zero_db(self):
        rng = np.random.default_rng(20)
        speech = rng.normal(0.0, 0.2, 2 * FS)
        noise = rng.normal(0.0, 0.2, 2 * FS)
        mix, sp, nz = mix_at_snr(self._spec(speech, noise, 0.0))
        np.testing.assert_array_equal(mix, sp + nz)
        # a fully active speech signal: scale matches the RMS ratio
        expect = np.sqrt(np.mean(speech**2) / np.mean(noise**2))
        assert np.mean(nz**2) == pytest.approx(np.mean(noise**2) * expect**2, rel=1e-12)

    def test_target_snr_is_hit(self):
        rng = np.random.default_rng(21)
        speech = rng.normal(0.0, 0.2, 2 * FS)
        noise = rng.normal(0.0, 0.07, 2 * FS)
        for target in (-6.0, 0.0, 12.0):
            _, sp, nz = mix_at_snr(self._spec(speech, noise, target))
            got = 10.0 * np.log10(np.mean(sp**2) / np.mean(nz**2))
            assert got == pytest.approx(target, abs=1e-9)

    def test_pause_heavy_speech_measured_on_active_part(self):
        """Half the speech is silence; the activity rule must keep the
        level estimate on the voiced half, so the target SNR holds
        against the voiced level, not the long-term average."""
        rng = np.random.default_rng(22)
        speech = np.zeros(2 * FS)
        speech[: FS + FS // 2] = rng.normal(0.0, 0.2, FS + FS // 2)
        noise = rng.normal(0.0, 0.1, 2 * FS)
        _, sp, nz = mix_at_snr(self._spec(speech, noise, 0.0))
        voiced = sp[: FS + FS // 2]
        got = 10.0 * np.log10(np.mean(voiced**2) / np.mean(nz**2))
        assert got == pytest.approx(0.0, abs=0.05)

    def test_noise_longer_than_speech_is_truncated(self):
        rng = np.random.default_rng(23)
        speech = rng.normal(0.0, 0.2, FS + FS // 2)
        noise = rng.normal(0.0, 0.1, 4 * FS)
        mix, sp, nz = mix_at_snr(self._spec(speech, noise, 0.0))
        assert mix.size == sp.size == nz.size == speech.size

    def test_rejects_bad_inputs(self):
        rng = np.random.default_rng(24)
        speech = rng.normal(0.0, 0.2, 2 * FS)
        noise = rng.normal(0.0, 0.1, 2 * FS)
        with pytest.raises(InputError, match="finite"):
            mix_at_snr(self._spec(speech, noise, float("nan")))
        with pytest.raises(InputError, match="at least as long"):
            mix_at_snr(self._spec(speech, noise[: FS // 2], 0.0))
        with pytest.raises(InputError, match="1 s of active"):
            short = np.zeros(2 * FS)
            short[:1000] = 0.5
            mix_at_snr(self._spec(short, noise, 0.0))
        with pytest.raises(InputError, match="silent"):
            mix_at_snr(self._spec(speech, np.zeros(2 * FS), 0.0))


def _tone_and_noise(n_periods, rng):
    """Alternating tone/silence layout with noise gaps at the borders.

    Everything is aligned to the 64-sample hop so a hand-built gain
    log can hit exact values: within each 2 s period the tone occupies
    input samples [448, 15744), and the noise is zeroed over
    [128, 640) and [15616, 16128) so no measured sample mixes two
    different frame gains.
    """
    period = 32000
    n = n_periods * period
    t = np.arange(n) / FS
    tone = 0.3 * np.sin(2 * np.pi * 1000.0 * t)
    speech = np.zeros(n)
    noise = rng.normal(0.0, 0.1, n)
    for p in range(n_periods):
        base = p * period
        speech[base + 448 : base + 15744] = tone[base + 448 : base + 15744]
        noise[base + 128 : base + 640] = 0.0
        noise[base + 15616 : base + 16128] = 0.0
    return speech, noise


class TestGainShadowing:
    def _log_shape(self, n_samples, cfg):
        _, log = ds.process_stream(np.zeros(n_samples), cfg)
        return log.shape

    def test_unity_log_reports_zero(self, comm_cfg):
        cfg = no_hpf(comm_cfg)
        rng = np.random.default_rng(25)
        speech, noise = _tone_and_noise(1, rng)
        log = np.ones(self._log_shape(speech.size, cfg))
        rep = ds.snri_by_gain_shadowing(speech, noise, log, cfg)
        assert rep.snri_db == 0.0
        assert rep.noise_reduction_db == 0.0
        assert rep.speech_attenuation_db == 0.0

    def test_power_of_two_log_cancels_exactly(self, comm_cfg):
        """A flat 0.5 gain scales every sample by a power of two, so
        the SNR is untouched and the reduction is exactly 6.02 dB."""
        cfg = no_hpf(comm_cfg)
        rng = np.random.default_rng(26)
        speech, noise = _tone_and_noise(1, rng)
        log = np.full(self._log_shape(speech.size, cfg), 0.5)
        rep = ds.snri_by_gain_shadowing(speech, noise, log, cfg)
        assert rep.snri_db == 0.0
        assert rep.noise_reduction_db == pytest.approx(10.0 * np.log10(4.0), abs=1e-12)
        assert rep.speech_attenuation_db == pytest.approx(10.0 * np.log10(4.0), abs=1e-12)

    def test_alternating_gain_log_hits_exact_snri(self, comm_cfg):
        """Hop-aligned construction with a known-in-advance answer.

        Frames that touch the tone keep unity gain, all others get the
        0.178 floor. Scalar per-frame gains act pointwise on the
        delayed signal, and the noise gaps around each tone border
        remove every sample where two different gains blend, so the
        improvement must equal 20*log10(1/0.178) to float precision.
        """
        cfg = no_hpf(comm_cfg)
        rng = np.random.default_rng(27)
        speech, noise = _tone_and_noise(4, rng)
        shape = self._log_shape(speech.size, cfg)
        log = np.full(shape, 0.178)
        for p in range(4):
            log[500 * p + 9 : 500 * p + 249] = 1.0
        rep = ds.snri_by_gain_shadowing(
            speech, noise, log, cfg, measure_start_s=0.5
        )
        assert rep.snri_db == pytest.approx(FLOOR_GAIN_DB, abs=1e-9)
        assert rep.noise_reduction_db == pytest.approx(FLOOR_GAIN_DB, abs=1e-9)
        assert rep.snri_db == rep.output_snr_db - rep.input_snr_db

    def test_component_shape_mismatch(self, comm_cfg):
        with pytest.raises(UsageError, match="equal shape"):
            ds.snri_by_gain_shadowing(np.zeros(100), np.zeros(99), np.ones((1, 129)), comm_cfg)

    def test_measure_start_past_the_end(self, comm_cfg):
        cfg = no_hpf(comm_cfg)
        rng = np.random.default_rng(28)
        speech, noise = _tone_and_noise(1, rng)
        log = np.ones(self._log_shape(speech.size, cfg))
        with pytest.raises(InputError, match="measure_start_s"):
            ds.snri_by_gain_shadowing(speech, noise, log, cfg, measure_start_s=10.0)


def _voiced_tone(n):
    """A 440 Hz tone under a 3 Hz envelope after 350 samples of silence:
    active almost throughout, so an n just over 1 s passes mix_at_snr."""
    t = np.arange(n) / FS
    x = 0.3 * np.sin(2 * np.pi * 440.0 * t) * (1.0 + 0.5 * np.sin(2 * np.pi * 3.0 * t))
    x[:350] = 0.0
    return x


class TestStreamedShadowing:
    """evaluate_condition replays each block's gains on a worker thread
    as the engine produces them; the report must be the one the whole
    gain log gives, and the worker must not outlive the call."""

    # shorter than one feed block, not a multiple of the hop, and an
    # exact multiple of the feed block
    @pytest.mark.parametrize(
        "n", [pipeline.BLOCK_FRAMES * 64 - 1, 40037, 3 * pipeline.BLOCK_FRAMES * 64]
    )
    @pytest.mark.parametrize("single", [False, True])
    def test_equals_shadowing_the_gain_log(self, comm_cfg, n, single):
        rng = np.random.default_rng(32)
        speech = _voiced_tone(n) if n < 2 * FS else surrogate_speech(n / FS, rng)
        noise = white_noise(n / FS, rng)
        mix, sp, nz = mix_at_snr(MixSpec(speech, noise, 0.0, FS))
        log = ds.process_stream(mix, comm_cfg, single_stage=single)[1]
        before = set(threading.enumerate())
        # the engine and the worker trade the interpreter lock every
        # microsecond or so, which any state they shared would show
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = ds.evaluate_condition(speech, noise, 0.0, comm_cfg, single_stage=single)
        finally:
            sys.setswitchinterval(interval)
        assert set(threading.enumerate()) == before
        assert got == ds.snri_by_gain_shadowing(sp, nz, log, comm_cfg)

    def test_bad_mix_sample_stops_the_worker(self, comm_cfg):
        """Speech peaking at half max_abs_sample, with one sample three
        feed blocks in at 1.5 times it, makes one mix sample above the
        bound: InputError with its stream index, raised after the
        worker has been handed the blocks before it."""
        rng = np.random.default_rng(33)
        limit = comm_cfg.frame.max_abs_sample
        speech = surrogate_speech(4.0, rng)
        speech *= 0.5 * limit / np.abs(speech).max()
        speech[50000] = 1.5 * limit
        noise = white_noise(4.0, rng)
        before = set(threading.enumerate())
        with pytest.raises(InputError, match="sample magnitude above .* at stream index 50000"):
            ds.evaluate_condition(speech, noise, 12.0, comm_cfg)
        assert set(threading.enumerate()) == before

    def test_worker_exception_surfaces_as_itself(self, comm_cfg, monkeypatch):
        rng = np.random.default_rng(34)
        speech, noise = surrogate_speech(4.0, rng), white_noise(4.0, rng)
        boom = RuntimeError("shadow step failed")
        step = pipeline._Shadow.step
        calls = []

        def failing(self, n, gains):
            calls.append(n)
            if len(calls) == 3:
                raise boom
            step(self, n, gains)

        monkeypatch.setattr(pipeline._Shadow, "step", failing)
        before = set(threading.enumerate())
        with pytest.raises(RuntimeError) as caught:
            ds.evaluate_condition(speech, noise, 0.0, comm_cfg)
        assert caught.value is boom
        assert set(threading.enumerate()) == before

    def test_memory_holds_no_gain_log(self, comm_cfg):
        """A 60 s condition peaks at about 7 signal-length arrays (the
        mix, the scaled noise, each component's reference and shadowed
        output, and block temporaries); with a gain log of 129 bins per
        64-sample hop beside them it took 11.4."""
        rng = np.random.default_rng(35)
        speech, noise = surrogate_speech(60.0, rng, lead_in_s=2.5), white_noise(60.0, rng)
        tracemalloc.start()
        try:
            ds.evaluate_condition(speech, noise, 0.0, comm_cfg, measure_start_s=3.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * speech.nbytes, peak / speech.nbytes


class TestTransformBudget:
    @pytest.mark.parametrize("single", [False, True])
    def test_one_analysis_per_signal(self, comm_cfg, transform_rows, single):
        """evaluate_condition analyses the mix, the speech and the noise
        once each (3 forward transforms per frame) and synthesises the
        enhanced mix plus each component's unity-gain reference and
        shadowed output (5 inverse transforms per frame)."""
        rng = np.random.default_rng(31)
        speech, noise = surrogate_speech(3.0, rng), white_noise(3.0, rng)
        frames = len(ds.process_stream(np.zeros(speech.size), comm_cfg)[1])
        transform_rows.update(fwd=0, inv=0)
        ds.evaluate_condition(speech, noise, 0.0, comm_cfg, single_stage=single)
        assert transform_rows == {"fwd": 3 * frames, "inv": 5 * frames}


class TestNoiseSegmentReduction:
    def test_identity_is_zero(self):
        x = np.linspace(-1, 1, 500)
        assert noise_segment_reduction(x, x, [(0, 500)]) == 0.0

    def test_half_amplitude(self):
        x = np.linspace(-1, 1, 500)
        got = noise_segment_reduction(x, 0.5 * x, [(100, 400)])
        assert got == pytest.approx(6.020599913279624, abs=1e-12)

    def test_silence_caps(self):
        x = np.ones(100)
        assert noise_segment_reduction(x, np.zeros(100), [(0, 100)]) == 120.0
        assert noise_segment_reduction(np.zeros(100), x, [(0, 100)]) == -120.0
        assert noise_segment_reduction(np.zeros(100), np.zeros(100), [(0, 100)]) == 0.0

    def test_extreme_ratio_clipped_to_cap(self):
        x = np.ones(100)
        assert noise_segment_reduction(x, 1e-9 * x, [(0, 100)]) == 120.0

    def test_multiple_ranges_pool_power(self):
        x = np.ones(300)
        y = x.copy()
        y[:100] = 0.1
        y[200:] = 0.1
        got = noise_segment_reduction(x, y, [(0, 100), (200, 300)])
        assert got == pytest.approx(20.0, abs=1e-12)

    def test_range_validation(self):
        x = np.ones(100)
        with pytest.raises(InputError, match="not be empty"):
            noise_segment_reduction(x, x, [])
        with pytest.raises(InputError, match="within both signals"):
            noise_segment_reduction(x, x, [(50, 200)])
        with pytest.raises(InputError, match="within both signals"):
            noise_segment_reduction(x, x, [(60, 60)])


class TestRelativeImprovement:
    def test_examples(self):
        assert relative_improvement(2.0, 2.2) == pytest.approx(10.0)
        assert relative_improvement(3.7, 3.7) == 0.0
        assert relative_improvement(2.0, 1.75) == pytest.approx(-12.5)

    def test_rejects_nonpositive_baseline(self):
        with pytest.raises(InputError, match="positive"):
            relative_improvement(0.0, 1.0)
        with pytest.raises(InputError, match="positive"):
            relative_improvement(-1.0, 1.0)


class TestSpectrogram:
    def test_shape_and_tone_peak(self, frame_cfg):
        t = np.arange(FS) / FS
        x = 0.5 * np.sin(2 * np.pi * 1000.0 * t)
        rows = spectrogram_db(x, frame_cfg)
        assert rows.shape == ((FS - 128) // 64 + 1, 129)
        # 1 kHz sits at bin 16 of the 256-point transform
        assert np.argmax(np.median(rows, axis=0)) == 16

    def test_short_input_yields_no_rows(self, frame_cfg):
        assert spectrogram_db(np.zeros(100), frame_cfg).shape[0] == 0

    def test_csv_writers(self, tmp_path, frame_cfg):
        rng = np.random.default_rng(29)
        p = tmp_path / "spec.csv"
        write_spectrogram_csv(p, rng.normal(0.0, 0.1, 2000), frame_cfg)
        lines = p.read_text().strip().splitlines()
        assert len(lines) == (2000 - 128) // 64 + 1
        assert len(lines[0].split(",")) == 129

        rows = [
            {
                "noise_type": "white",
                "target_snr_db": 6.0,
                "preset": "communication",
                "snri_db": 12.34567,
                "noise_reduction_db": 15.0,
                "input_snr_db": 6.0,
                "output_snr_db": 18.34567,
                "variant": "dual",
                "speech_attenuation_db": 1.5,
            }
        ]
        rp = tmp_path / "report.csv"
        write_report_csv(rp, rows)
        text = rp.read_text().strip().splitlines()
        assert text[0] == ",".join(REPORT_COLUMNS)
        assert "12.3457" in text[1]
        assert ",6," in text[1]

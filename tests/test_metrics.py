"""Mixing, activity masking and the gain-shadowing SNR measurement."""

import dataclasses
import functools
import math
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import dualstage as ds
from dualstage import metrics, pipeline
from dualstage.errors import InputError, UsageError
from dualstage.metrics import (
    REPORT_COLUMNS,
    SnriReport,
    active_frame_mask,
    block_rms,
    mix_at_snr,
    relative_improvement,
    spectrogram_db,
    write_report_csv,
)
from synth import FS, am_noise, surrogate_speech, white_noise

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
        return dict(speech=speech, noise=noise, target_snr_db=snr, sample_rate_hz=FS, **kw)

    def test_equal_levels_at_zero_db(self):
        rng = np.random.default_rng(20)
        speech = rng.normal(0.0, 0.2, 2 * FS)
        noise = rng.normal(0.0, 0.2, 2 * FS)
        mix, sp, nz = mix_at_snr(**self._spec(speech, noise, 0.0))
        np.testing.assert_array_equal(mix, sp + nz)
        # a fully active speech signal: scale matches the RMS ratio
        expect = np.sqrt(np.mean(speech**2) / np.mean(noise**2))
        assert np.mean(nz**2) == pytest.approx(np.mean(noise**2) * expect**2, rel=1e-12)

    def test_target_snr_is_hit(self):
        rng = np.random.default_rng(21)
        speech = rng.normal(0.0, 0.2, 2 * FS)
        noise = rng.normal(0.0, 0.07, 2 * FS)
        for target in (-6.0, 0.0, 12.0):
            _, sp, nz = mix_at_snr(**self._spec(speech, noise, target))
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
        _, sp, nz = mix_at_snr(**self._spec(speech, noise, 0.0))
        voiced = sp[: FS + FS // 2]
        got = 10.0 * np.log10(np.mean(voiced**2) / np.mean(nz**2))
        assert got == pytest.approx(0.0, abs=0.05)

    def test_noise_longer_than_speech_is_truncated(self):
        rng = np.random.default_rng(23)
        speech = rng.normal(0.0, 0.2, FS + FS // 2)
        noise = rng.normal(0.0, 0.1, 4 * FS)
        mix, sp, nz = mix_at_snr(**self._spec(speech, noise, 0.0))
        assert mix.size == sp.size == nz.size == speech.size

    def test_rejects_bad_inputs(self):
        rng = np.random.default_rng(24)
        speech = rng.normal(0.0, 0.2, 2 * FS)
        noise = rng.normal(0.0, 0.1, 2 * FS)
        with pytest.raises(InputError, match="finite"):
            mix_at_snr(**self._spec(speech, noise, float("nan")))
        with pytest.raises(InputError, match="at least as long"):
            mix_at_snr(**self._spec(speech, noise[: FS // 2], 0.0))
        with pytest.raises(InputError, match="1 s of active"):
            short = np.zeros(2 * FS)
            short[:1000] = 0.5
            mix_at_snr(**self._spec(short, noise, 0.0))
        with pytest.raises(InputError, match="silent"):
            mix_at_snr(**self._spec(speech, np.zeros(2 * FS), 0.0))

    @pytest.mark.parametrize(
        "what, bad, entry",
        [
            (what, bad, entry)
            for entry in ("mix_at_snr", "evaluate_condition", "snri_by_gain_shadowing")
            for what, bad in [("noise", np.nan), ("speech", np.nan), ("speech", -np.inf), ("noise", 1e200), ("speech", 1e200)]
        ],
    )
    def test_bad_sample_is_named(self, comm_cfg, entry, what, bad):
        """A NaN or an infinity is named with its signal and index, and
        a power that overflows with its signal, before any mixing or
        replay; snri_by_gain_shadowing, which mixes nothing, names a
        finite sample too large for the engine with its signal and
        index. Once a NaN in the noise gave an all-NaN mix, or a report
        naming stream index 0; one in the speech reported no active
        speech; a 1e200 noise sample warned of an overflow (an error
        under the test settings) and then reported silent noise; and
        snri_by_gain_shadowing named only the stream index."""
        rng = np.random.default_rng(42)
        signals = {"speech": surrogate_speech(4.0, rng), "noise": white_noise(4.0, rng)}
        signals[what][20000] = bad
        message = "holds a non-finite sample at index 20000"
        if np.isfinite(bad):
            message = "power overflows the float range"
            if entry == "snri_by_gain_shadowing":
                limit = comm_cfg.frame.max_abs_sample
                message = re.escape(f"holds a sample magnitude above {limit:.3g} at index 20000")
        with pytest.raises(InputError, match=f"^{what} {message}$"):
            if entry == "mix_at_snr":
                mix_at_snr(**self._spec(signals["speech"], signals["noise"], 0.0))
            elif entry == "evaluate_condition":
                ds.evaluate_condition(signals["speech"], signals["noise"], 0.0, comm_cfg)
            else:
                frames = pipeline._Framer(comm_cfg.frame).frames_of(signals["speech"].size)
                log = np.ones((frames, comm_cfg.frame.num_bins))
                ds.snri_by_gain_shadowing(signals["speech"], signals["noise"], log, comm_cfg)

    @pytest.mark.parametrize("entry", ["mix_at_snr", "evaluate_condition"])
    @pytest.mark.parametrize("target, why", [(-7000.0, "overflows the float range"), (7000.0, "rounds to 0")])
    def test_target_that_cannot_scale_the_noise_is_named(self, comm_cfg, entry, target, why):
        """A target whose noise scale factor overflows (once a bare
        OverflowError from the float power) or rounds to 0 (once an
        all-zero scaled noise) raises InputError naming the target."""
        rng = np.random.default_rng(25)
        speech, noise = surrogate_speech(2.0, rng), white_noise(2.0, rng)
        message = f"^target_snr_db {target:g} cannot scale the noise: its scale factor {why}$"
        with pytest.raises(InputError, match=message):
            if entry == "mix_at_snr":
                mix_at_snr(**self._spec(speech, noise, target))
            else:
                ds.evaluate_condition(speech, noise, target, comm_cfg)

    @pytest.mark.parametrize("component", ["speech", "noise"])
    def test_two_dimensional_component_is_usage_error(self, component):
        """A 2-D signal is the shape fault process and process_stream
        report as UsageError, so mix_at_snr raises the same class."""
        rng = np.random.default_rng(24)
        signals = {"speech": rng.normal(0.0, 0.2, 2 * FS), "noise": rng.normal(0.0, 0.1, 2 * FS)}
        signals[component] = signals[component].reshape(2, -1)
        with pytest.raises(UsageError, match=f"{component} must be a mono 1-D signal, got shape"):
            mix_at_snr(**self._spec(signals["speech"], signals["noise"], 0.0))


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_log_names_its_frame(self, comm_cfg, bad):
        cfg = no_hpf(comm_cfg)
        speech, noise = _tone_and_noise(1, np.random.default_rng(41))
        log = np.ones(self._log_shape(speech.size, cfg))
        log[123, 7] = bad
        with pytest.raises(UsageError, match="gain log frame 123 "):
            ds.snri_by_gain_shadowing(speech, noise, log, cfg)
        with pytest.raises(UsageError, match="got dtype complex128"):
            ds.snri_by_gain_shadowing(speech, noise, log.astype(complex), cfg)

    @pytest.mark.parametrize(
        "flaw, message",
        [
            ("silent speech", "no speech-active frames in the measurement region"),
            ("unbroken speech", "no speech-free frames to measure the noise on"),
            ("silent noise", "noise component is silent over the measurement frames"),
        ],
    )
    def test_unmeasurable_components_are_refused(self, comm_cfg, flaw, message):
        """Speech with no active hop, speech with no pause, or noise with
        no power where it is measured raises InputError saying which.
        The measurement starts past the output's leading delay, whose
        hops are silent in every component."""
        cfg = no_hpf(comm_cfg)
        speech, noise = _tone_and_noise(1, np.random.default_rng(46))
        if flaw == "silent speech":
            speech[:] = 0.0
        elif flaw == "unbroken speech":
            speech = 0.3 * np.sin(2 * np.pi * 1000.0 * np.arange(speech.size) / FS)
        else:
            noise[:] = 0.0
        log = np.ones(self._log_shape(speech.size, cfg))
        with pytest.raises(InputError, match=f"^{message}$"):
            ds.snri_by_gain_shadowing(speech, noise, log, cfg, measure_start_s=0.1)

    def test_measure_start_past_the_end(self, comm_cfg):
        """A start past the end leaves no frame to measure, and a
        negative or non-finite one is refused, by either entry point:
        InputError naming measure_start_s. A negative start once
        measured only the signal's last hops; NaN and inf raised bare
        ValueError and OverflowError."""
        cfg = no_hpf(comm_cfg)
        rng = np.random.default_rng(28)
        # two periods hold the second of active speech a mix needs
        speech, noise = _tone_and_noise(2, rng)
        log = np.ones(self._log_shape(speech.size, cfg))
        for start in (10.0, -1.0, np.nan, np.inf):
            with pytest.raises(InputError, match="measure_start_s"):
                ds.snri_by_gain_shadowing(speech, noise, log, cfg, measure_start_s=start)
            with pytest.raises(InputError, match="measure_start_s"):
                ds.evaluate_condition(speech, noise, 0.0, cfg, measure_start_s=start)


def _voiced_tone(n):
    """A 440 Hz tone under a 3 Hz envelope after 350 samples of silence:
    active almost throughout, so an n just over 1 s passes mix_at_snr."""
    t = np.arange(n) / FS
    x = 0.3 * np.sin(2 * np.pi * 440.0 * t) * (1.0 + 0.5 * np.sin(2 * np.pi * 3.0 * t))
    x[:350] = 0.0
    return x


# the two ways into gain shadowing: a condition, or a given gain log
ENTRIES = ["evaluate_condition", "snri_by_gain_shadowing"]


class TestStreamedShadowing:
    """evaluate_condition replays each block's gains on a worker thread
    as the engine produces them, and snri_by_gain_shadowing a given
    log's on the same path; the report must be the one the whole gain
    log gives, and the worker must not outlive the call."""

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
        mix, sp, nz = mix_at_snr(speech, noise, 0.0, FS)
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

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_worker_exception_surfaces_as_itself(self, comm_cfg, monkeypatch, entry):
        rng = np.random.default_rng(34)
        call = _shadowing_call(entry, surrogate_speech(4.0, rng), white_noise(4.0, rng), comm_cfg)
        boom = RuntimeError("shadow push failed")
        push = pipeline._Shadow.push
        calls = []

        def failing(self, piece, gains):
            calls.append(piece.size)
            if len(calls) == 3:
                raise boom
            return push(self, piece, gains)

        monkeypatch.setattr(pipeline._Shadow, "push", failing)
        before = set(threading.enumerate())
        with pytest.raises(RuntimeError) as caught:
            call()
        assert caught.value is boom
        assert set(threading.enumerate()) == before

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_memory_holds_no_gain_log(self, comm_cfg, entry):
        """A 60 s condition peaks at about 1.15 times its speech array:
        the one signal-length transient the noise scale needs (the
        speech's active samples, squared in place, then the noise's
        squares), or the engine's and the worker's block temporaries
        beside the per-hop powers, 6 per 64-sample hop. Holding the mix,
        the scaled noise and each component's reference and shadowed
        output whole, it took 7.03; with a gain log beside them, 11.4.
        snri_by_gain_shadowing took 6.1 while it held each component's
        reference and shadowed output whole."""
        speech, peak = _condition_peak(60.0, comm_cfg, entry)
        assert peak < 1.5 * speech.nbytes, peak / speech.nbytes

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_memory_is_flat_in_length(self, comm_cfg, entry):
        """From a 30 s to a 60 s condition the peak grows by less than
        1.5 times the speech array's growth, the noise scale's
        transient; with every signal held whole it grew 22.1 MiB for
        3.7 MiB more speech."""
        (short, short_peak), (long, long_peak) = (
            _condition_peak(s, comm_cfg, entry) for s in (30.0, 60.0)
        )
        growth = long.nbytes - short.nbytes
        assert long_peak - short_peak < 1.5 * growth, (long_peak - short_peak) / growth

    def test_engine_is_fed_the_mix(self, comm_cfg, monkeypatch):
        """The mix formed piece by piece holds mix_at_snr's bits."""
        rng = np.random.default_rng(36)
        speech, noise = surrogate_speech(12.0, rng), white_noise(13.0, rng)
        fed = []
        blocks = pipeline.StreamProcessor.blocks

        def recording(self, samples):
            fed.append(samples.copy())
            return blocks(self, samples)

        monkeypatch.setattr(pipeline.StreamProcessor, "blocks", recording)
        ds.evaluate_condition(speech, noise, 12.0, comm_cfg)
        mix = mix_at_snr(speech, noise, 12.0, FS)[0]
        # the last piece is the zero flush
        assert np.concatenate(fed[:-1]).tobytes() == mix.tobytes()
        assert not fed[-1].any()


def _shadowing_call(entry, speech, noise, cfg, **kwargs):
    """A call of entry on speech in noise at 0 dB: evaluate_condition's,
    or snri_by_gain_shadowing's over the mix's components and the gain
    log process_stream gives for the mix, which are made here."""
    if entry == "evaluate_condition":
        return functools.partial(ds.evaluate_condition, speech, noise, 0.0, cfg, **kwargs)
    mix, sp, nz = mix_at_snr(speech, noise, 0.0, cfg.frame.sample_rate_hz)
    log = ds.process_stream(mix, cfg)[1]
    return functools.partial(ds.snri_by_gain_shadowing, sp, nz, log, cfg, **kwargs)


def _condition_peak(seconds, cfg, entry):
    """(speech, tracemalloc peak of entry's call on it; see _shadowing_call)."""
    rng = np.random.default_rng(35)
    speech, noise = surrogate_speech(seconds, rng, lead_in_s=2.5), white_noise(seconds, rng)
    call = _shadowing_call(entry, speech, noise, cfg, measure_start_s=3.0)
    tracemalloc.start()
    try:
        call()
        return speech, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestRegionPowers:
    """The report reads per-hop mean squares; its mask is
    active_frame_mask's to the bit, and its figures are those of mean
    squares over the regions' samples up to rounding."""

    def _condition(self, cfg, noise_kind, snr, single):
        rng = np.random.default_rng(43)
        speech = surrogate_speech(8.0, rng, lead_in_s=0.5)[:-37]  # not a whole number of hops
        noise = white_noise(8.0, rng) if noise_kind == "white" else am_noise(8.0, rng, 6.0, 0.7)
        _, sp, nz = mix_at_snr(speech, noise, snr, FS)
        log = ds.process_stream(sp + nz, cfg, single_stage=single)[1]
        pairs = [[ds.replay_gains(x, g, cfg) for g in (np.ones_like(log), log)] for x in (sp, nz)]
        return speech, noise, pairs

    @pytest.mark.parametrize("threshold", [20.0, 35.0, 50.0])
    def test_mask_is_active_frame_mask(self, comm_cfg, threshold):
        _, _, (speech_pair, noise_pair) = self._condition(comm_cfg, "am6", 0.0, False)
        hop = comm_cfg.frame.hop_len
        powers = pipeline._shadow_powers(speech_pair, noise_pair, hop)
        expected = active_frame_mask(speech_pair[0], hop, threshold)
        np.testing.assert_array_equal(metrics._active(np.sqrt(powers[0]), threshold), expected)

    @pytest.mark.parametrize("single", [False, True])
    @pytest.mark.parametrize("snr", [0.0, 12.0])
    @pytest.mark.parametrize("noise_kind", ["white", "am6"])
    def test_report_matches_sample_powers(self, comm_cfg, noise_kind, snr, single):
        speech, noise, pairs = self._condition(comm_cfg, noise_kind, snr, single)
        got = ds.evaluate_condition(speech, noise, snr, comm_cfg, single_stage=single, measure_start_s=3.0)
        expected = _sample_power_report(*pairs, comm_cfg, 35.0, 3.0)
        for field in dataclasses.fields(SnriReport):
            assert abs(getattr(got, field.name) - expected[field.name]) <= 1e-12, field.name


def _sample_power_report(speech_pair, noise_pair, cfg, threshold, measure_start_s):
    """The report's fields with each region power the mean square over
    the region's samples."""
    (ref_speech, out_speech), (ref_noise, out_noise) = speech_pair, noise_pair
    hop = cfg.frame.hop_len
    mask = active_frame_mask(ref_speech, hop, threshold)
    start = math.ceil(measure_start_s * cfg.frame.sample_rate_hz / hop)
    active, inactive = mask.copy(), ~mask
    active[:start] = inactive[:start] = False

    def power(x, region):
        picked = np.repeat(region, hop)
        return np.mean(x[: picked.size][picked] ** 2)

    speech_in, speech_out = power(ref_speech, active), power(out_speech, active)
    noise_in, noise_out = power(ref_noise, inactive), power(out_noise, inactive)
    mix_in, mix_out = power(ref_speech + ref_noise, inactive), power(out_speech + out_noise, inactive)
    input_snr, output_snr = (10.0 * np.log10(s / n) for s, n in ((speech_in, noise_in), (speech_out, noise_out)))
    return {
        "input_snr_db": input_snr,
        "output_snr_db": output_snr,
        "snri_db": output_snr - input_snr,
        "noise_reduction_db": 10.0 * np.log10(mix_in / mix_out),
        "speech_attenuation_db": 10.0 * np.log10(speech_in / speech_out),
    }


class TestTransformBudget:
    @pytest.mark.parametrize("single", [False, True])
    def test_one_analysis_per_signal(self, comm_cfg, transform_rows, single):
        """evaluate_condition analyses the mix, the speech and the noise
        once each (3 forward transforms per frame) and synthesises each
        component's unity-gain reference and shadowed output (4 inverse
        transforms per frame); the engine pass yields gain rows only, so
        nothing synthesises the enhanced mix."""
        rng = np.random.default_rng(31)
        speech, noise = surrogate_speech(3.0, rng), white_noise(3.0, rng)
        frames = len(ds.process_stream(np.zeros(speech.size), comm_cfg)[1])
        transform_rows.update(fwd=0, inv=0)
        ds.evaluate_condition(speech, noise, 0.0, comm_cfg, single_stage=single)
        assert transform_rows == {"fwd": 3 * frames, "inv": 4 * frames}


class TestNoiseSegmentReduction:
    """A report's noise_reduction_db over the speech-free hops,
    metrics._reduction_db of the mix's power before and after."""

    def test_identity_is_zero(self):
        p = float(np.mean(np.linspace(-1, 1, 500) ** 2))
        assert metrics._reduction_db(p, p) == 0.0

    def test_half_amplitude(self):
        p = float(np.mean(np.linspace(-1, 1, 500) ** 2))
        got = metrics._reduction_db(p, 0.25 * p)
        assert got == pytest.approx(6.020599913279624, abs=1e-12)

    def test_silence_caps(self):
        assert metrics._reduction_db(1.0, 0.0) == 120.0
        assert metrics._reduction_db(0.0, 1.0) == -120.0
        assert metrics._reduction_db(0.0, 0.0) == 0.0

    def test_extreme_ratio_clipped_to_cap(self):
        assert metrics._reduction_db(1.0, 1e-18) == 120.0
        assert metrics._reduction_db(1e-18, 1.0) == -120.0


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

    def test_non_finite_sample_is_rejected(self, frame_cfg):
        """A NaN sample raises the engine's InputError with its index
        rather than giving NaN rows."""
        x = np.random.default_rng(29).normal(0.0, 0.1, 2000)
        x[1500] = np.nan
        with pytest.raises(InputError, match="non-finite sample at stream index 1500"):
            spectrogram_db(x, frame_cfg)

    def test_ragged_input_is_usage_error(self, frame_cfg):
        with pytest.raises(UsageError, match="samples must be a regular array"):
            spectrogram_db([[0.1, 0.2], [0.3]], frame_cfg)

    def test_whole_signal_memory_is_its_rows(self, frame_cfg):
        """60 s peaks at its 14.8 MiB of rows plus a framer block's
        temporaries; gathering the rows in a list and concatenating them
        took twice the rows."""
        x = np.random.default_rng(30).normal(0.0, 0.1, 60 * FS)
        tracemalloc.start()
        try:
            rows = spectrogram_db(x, frame_cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows.shape == ((x.size - 128) // 64 + 1, 129)
        assert peak < 1.25 * rows.nbytes, peak / rows.nbytes

    def test_csv_writers(self, tmp_path):
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

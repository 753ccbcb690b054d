"""Acceptance checks for the packaged pipeline.

Every test prints one `criterion N: PASS/FAIL` verdict line (run with
-s to see them on passing runs as well) and then asserts it, so a
plain pytest run doubles as the acceptance report.
"""

import json
import re
import statistics

import numpy as np
import pytest

import dualstage as ds
from dualstage import cli, framing, gain, noise_tracking
from dualstage.bands import apply_gains, build_band_plan, expand_to_bins
from dualstage.framing import algorithmic_latency_ms
from dualstage.metrics import mix_at_snr, relative_improvement
from synth import FS, am_noise, pink_noise, surrogate_speech, white_noise

from conftest import no_hpf, with_mu


def _verdict(n: int, ok: bool, detail: str = ""):
    tail = f"  ({detail})" if detail else ""
    print(f"criterion {n:2d}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {n} failed{tail}"


@pytest.fixture(scope="module")
def comm():
    return ds.load_preset("communication")


@pytest.fixture(scope="module")
def matrix_signals():
    """Shared evaluation material: surrogate speech and four noises."""
    speech = surrogate_speech(8.0, np.random.default_rng(77), lead_in_s=2.5)
    noises = {
        "white": white_noise(8.0, np.random.default_rng(101)),
        "pink": pink_noise(8.0, np.random.default_rng(102)),
        "am2": am_noise(8.0, np.random.default_rng(103), mod_hz=2.0, depth=0.5),
        "am6": am_noise(8.0, np.random.default_rng(104), mod_hz=6.0, depth=0.7),
    }
    return speech, noises


@pytest.fixture(scope="module")
def matrix_reports(comm, matrix_signals):
    """Dual and single-stage reports over all 12 matrix conditions."""
    speech, noises = matrix_signals
    out = {}
    for name, nz in noises.items():
        for snr in (0.0, 6.0, 12.0):
            dual = ds.evaluate_condition(speech, nz, snr, comm, measure_start_s=3.0)
            single = ds.evaluate_condition(
                speech, nz, snr, comm, single_stage=True, measure_start_s=3.0
            )
            out[(name, snr)] = (dual, single)
    return out


class TestCriterion01BypassIdentity:
    def test_bypass_identity(self, comm):
        cfg = with_mu(no_hpf(comm), 0.0)
        worst = 0.0
        for seed in range(10):
            rng = np.random.default_rng(9000 + seed)
            x = rng.normal(0.0, 0.1, 5 * FS)
            y, _ = ds.process_stream(x, cfg, latency_aligned=True)
            err = float(np.sqrt(np.mean((y - x) ** 2) / np.mean(x**2)))
            worst = max(worst, err)
        _verdict(1, worst < 1e-6, f"worst relative RMS error {worst:.2e}")


class TestCriterion02LatencyBudget:
    def test_latency_budget(self, comm):
        ms = algorithmic_latency_ms(comm.frame)
        _verdict(2, ms < 16.0, f"{ms:.1f} ms")


class TestCriterion03Throughput:
    def test_throughput(self, tmp_path, capsys):
        rng = np.random.default_rng(33)
        src = tmp_path / "sixty.wav"
        ds.write_wav(src, rng.normal(0.0, 0.1, 60 * FS), FS, "float32")
        factors = []
        for i in range(3):
            assert cli.main(["enhance", str(src), str(tmp_path / f"o{i}.wav")]) == 0
            msg = capsys.readouterr().out
            factors.append(float(re.search(r"realtime factor ([0-9.]+)", msg).group(1)))
        med = statistics.median(factors)
        _verdict(3, med < 0.05, f"median realtime factor {med:.4f} of {factors}")


class TestCriterion04GainBounds:
    def test_gain_bounds(self):
        """1e6 frames: 20 smoothing configs x 50 parameter rows each,
        1000 frames per group, every row with its own mu and floor."""
        rng = np.random.default_rng(44)
        rows, width, frames_per_group, groups = 50, 33, 1000, 20
        n = rows * width
        total_frames = 0
        violations = 0
        for _ in range(groups):
            gmin = rng.uniform(0.0, 0.9)
            params = gain.GainParams(
                mu=tuple(rng.uniform(0.0, 1.5, n)),
                gain_floor=tuple(rng.uniform(0.005, 1.0, n)),
                gamma_min=gmin,
                gamma_max=rng.uniform(gmin, 1.0),
            )
            floor = np.asarray(params.gain_floor)
            prev = None
            for _ in range(frames_per_group):
                mags = np.abs(rng.normal(0.0, 1.0, n))
                mags[rng.random(n) < 0.05] = 0.0
                noise = np.abs(rng.normal(0.0, rng.uniform(0.05, 2.0), n))
                noise[rng.random(n) < 0.02] = 0.0
                snr = gain.compute_snr(mags, noise, params)
                raw = gain.compute_raw_gain(snr, params)
                g, prev = gain.smooth_gain(raw, prev, params)
                violations += int(np.count_nonzero(g < floor) + np.count_nonzero(g > 1.0))
                total_frames += rows
        _verdict(4, violations == 0 and total_frames >= 10**6,
                 f"{total_frames} frames, {violations} violations")


class TestCriterion05TrackerOracle:
    def test_tracker_oracle(self):
        rng = np.random.default_rng(55)
        n_frames, bands_wide = 10**5, 4
        params = noise_tracking.TrackerParams(bias_factor=1.0)
        window = params.window_len
        frames = rng.uniform(0.0, 1.0, (n_frames, bands_wide))
        frames[rng.random((n_frames, bands_wide)) < 0.01] *= 100.0

        state = noise_tracking.NoiseState.for_params(params, bands_wide)
        got = np.empty_like(frames)
        for m in range(n_frames):
            got[m] = noise_tracking.track_raw(frames[m], params, state)

        expect = np.empty_like(frames)
        expect[0] = frames[0]
        for m in range(1, min(window, n_frames)):
            expect[m] = np.minimum(expect[m - 1], frames[m])
        if n_frames > window:
            sw = np.lib.stride_tricks.sliding_window_view(frames, window, axis=0)
            expect[window - 1 :] = sw.min(axis=2)

        mismatches = int(np.count_nonzero(got != expect))
        _verdict(5, mismatches == 0, f"{n_frames} frames, {mismatches} mismatches")


class TestCriterion06TrackerConvergence:
    def test_tracker_convergence(self, frame_cfg, comm):
        """Default tracker on 3 s of real framed white noise."""
        rng = np.random.default_rng(66)
        x = white_noise(3.0, rng, level=0.1)
        plan = build_band_plan(frame_cfg.fft_len, frame_cfg.sample_rate_hz, 33)
        params = noise_tracking.TrackerParams()
        state = noise_tracking.NoiseState.for_params(params, 33)
        hop, flen = frame_cfg.hop_len, frame_cfg.frame_len
        from dualstage.bands import pool_to_bands

        mags = []
        smoothed = None
        for i in range((x.size - flen) // hop + 1):
            bins = framing.analyze(x[i * hop : i * hop + flen], frame_cfg)
            band_mags = pool_to_bands(framing.bin_power(bins), plan)
            mags.append(band_mags)
            _, smoothed = noise_tracking.update(band_mags, params, state)
        true_level = np.mean(mags, axis=0)
        err_db = 20.0 * np.log10(smoothed / true_level)
        frac = float(np.mean(np.abs(err_db) <= 3.0))
        _verdict(6, frac >= 0.9,
                 f"{frac:.0%} of bands within +/-3 dB, worst {err_db[np.argmax(np.abs(err_db))]:+.2f} dB")


class TestCriterion07StationarySnri:
    def test_stationary_snri(self, matrix_reports):
        fails = []
        for name in ("white", "pink"):
            for snr in (0.0, 6.0, 12.0):
                rep, _ = matrix_reports[(name, snr)]
                if not (rep.snri_db >= 10.0 and 10.0 <= rep.noise_reduction_db <= 20.0):
                    fails.append((name, snr, rep.snri_db, rep.noise_reduction_db))
        snris = [matrix_reports[(n, s)][0].snri_db for n in ("white", "pink") for s in (0.0, 6.0, 12.0)]
        _verdict(7, not fails,
                 f"SNRI {min(snris):.2f}..{max(snris):.2f} dB over 6 conditions" if not fails else str(fails))


class TestCriterion08DualBeatsSingle:
    def test_dual_beats_single(self, matrix_reports):
        wins = sum(
            dual.snri_db >= single.snri_db
            for dual, single in matrix_reports.values()
        )
        total = len(matrix_reports)
        _verdict(8, wins >= np.ceil(0.9 * total), f"dual >= single in {wins}/{total} conditions")


class TestCriterion09MuMonotonicity:
    def test_mu_monotonicity(self, comm, matrix_signals):
        """Residual shadowed noise power must not grow as mu rises;
        both stages sweep together with everything else fixed."""
        speech, noises = matrix_signals
        start = int(3.0 * FS)
        bad = []
        for name, nz in noises.items():
            for snr in (0.0, 6.0, 12.0):
                powers = []
                for mu in (0.5, 1.0, 1.49):
                    cfg = with_mu(comm, mu)
                    mix, _, nzs = mix_at_snr(speech, nz, snr, FS)
                    _, log = ds.process_stream(mix, cfg)
                    shadow = ds.replay_gains(nzs, log, cfg)
                    powers.append(float(np.mean(shadow[start:] ** 2)))
                if not (powers[0] >= powers[1] >= powers[2]):
                    bad.append((name, snr, powers))
        _verdict(9, not bad, "non-increasing on 12/12 conditions" if not bad else str(bad))


class TestCriterion10AlphaSnrMonotonicity:
    def test_alpha_snr_monotonicity(self, comm):
        snr_map = comm.stage2.tracker.alpha_snr_map
        params = noise_tracking.TrackerParams(alpha=0.3, alpha_snr_map=snr_map)
        grid = np.arange(-10.0, 30.0 + 1e-9, 0.25)
        alphas = np.array([noise_tracking.effective_alpha(params, s) for s in grid])
        ok = bool(np.all(np.diff(alphas) <= 0.0))
        _verdict(10, ok, f"alpha {alphas[0]:.2f} -> {alphas[-1]:.2f} over {grid.size} points")


class TestCriterion11RelativeImprovement:
    def test_relative_improvement(self):
        up = relative_improvement(4.0, 4.4152)
        down = relative_improvement(2.0, 1.75)
        ok = abs(up - 10.38) < 5e-5 and abs(down - (-12.50)) < 5e-5
        _verdict(11, ok, f"{up:+.4f}% and {down:+.4f}%")


class TestCriterion12PhasePreservation:
    def test_phase_preservation(self, frame_cfg):
        rng = np.random.default_rng(122)
        plan = build_band_plan(frame_cfg.fft_len, frame_cfg.sample_rate_hz, 33)
        worst = 0.0
        for _ in range(1000):
            frame = rng.normal(0.0, 0.3, frame_cfg.frame_len)
            bins = framing.analyze(frame, frame_cfg)
            gains = expand_to_bins(rng.uniform(0.05, 1.0, 33), plan)
            # apply_gains scales in place: hand it a copy, keep the original
            out = bins.copy()
            apply_gains(out, framing.bin_power(bins), gains)
            assert out is not bins
            keep = np.abs(bins) > 1e-12
            diff = np.abs(np.angle(out[keep]) - np.angle(bins[keep]))
            if diff.size:
                worst = max(worst, float(diff.max()))
        _verdict(12, worst < 1e-12, f"worst phase shift {worst:.2e} rad")

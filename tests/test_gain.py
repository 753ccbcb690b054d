"""Subband SNR, suppression gain rule and adaptive gain smoothing."""

import numpy as np
import pytest

import dualstage as ds
from dualstage.errors import ConfigError
from dualstage.gain import GainConstants, _raw_gain


class TestGainParams:
    def test_defaults_match_communication_tuning(self):
        p = ds.GainParams()
        assert p.mu == 1.49
        assert p.gain_floor == 0.178

    def test_mu_range(self):
        ds.GainParams(mu=0.0)
        ds.GainParams(mu=1.5)
        with pytest.raises(ConfigError, match="mu"):
            ds.GainParams(mu=1.51)
        with pytest.raises(ConfigError, match="mu"):
            ds.GainParams(mu=-0.1)

    def test_floor_range(self):
        with pytest.raises(ConfigError, match="gain_floor"):
            ds.GainParams(gain_floor=0.0)
        with pytest.raises(ConfigError, match="gain_floor"):
            ds.GainParams(gain_floor=1.1)

    def test_gamma_ordering(self):
        with pytest.raises(ConfigError, match="gamma"):
            ds.GainParams(gamma_min=0.8, gamma_max=0.2)


class TestComputeSnr:
    def test_hand_values(self):
        snr = ds.compute_snr(np.array([2.0, 1.0, 1.0]), np.array([1.0, 1.0, 0.0]), 1e-10)
        np.testing.assert_allclose(snr[:2], [4.0, 1.0], rtol=1e-12)
        assert snr[2] == pytest.approx(1e20, rel=1e-9)

    def test_non_negative_and_finite(self):
        rng = np.random.default_rng(41)
        mags = rng.uniform(0.0, 3.0, 200)
        noise = rng.uniform(0.0, 2.0, 200)
        snr = ds.compute_snr(mags, noise, 1e-10)
        assert np.all(snr >= 0.0)
        assert np.all(np.isfinite(snr))

    def test_huge_ratio_is_capped_without_overflow(self):
        """A band near the largest magnitude a screened input makes, over
        a silent noise estimate, would square to infinity with an
        overflow warning; its SNR stops at 2**1022, where the raw gain
        is 1 as it is at infinity."""
        snr = ds.compute_snr(np.array([4e153, 1e80]), np.array([0.0, 1e-3]), 1e-10)
        assert snr[0] == 2.0**1022
        assert snr[1] == pytest.approx(1e166, rel=1e-12)
        np.testing.assert_array_equal(ds.compute_raw_gain(snr, 1.49, 0.178), [1.0, 1.0])


class TestComputeRawGain:
    def test_frozen_value(self):
        """sqrt(1 - 1.49/4), independently evaluated."""
        g = ds.compute_raw_gain(np.array([4.0]), 1.49, 0.178)
        assert float(g[0]) == 0.7921489758877429

    def test_mu_zero_is_unity(self):
        snr = np.array([0.01, 1.0, 1e6])
        np.testing.assert_array_equal(ds.compute_raw_gain(snr, 0.0, 0.178), 1.0)

    def test_floor_engages_on_nonpositive_radicand(self):
        g = ds.compute_raw_gain(np.array([1.0, 1.49, 0.5]), 1.49, 0.178)
        np.testing.assert_array_equal(g, 0.178)

    def test_silent_band_takes_the_floor(self):
        g = ds.compute_raw_gain(np.array([0.0]), 1.49, 0.178)
        assert float(g[0]) == 0.178

    def test_bounds_always_hold(self):
        rng = np.random.default_rng(42)
        snr = rng.uniform(0.0, 100.0, 10000)
        g = ds.compute_raw_gain(snr, 1.49, 0.178)
        assert np.all(g >= 0.178)
        assert np.all(g <= 1.0)

    def test_monotone_non_increasing_in_mu(self):
        rng = np.random.default_rng(43)
        snr = rng.uniform(0.0, 20.0, 500)
        mus = np.linspace(0.0, 1.5, 16)
        prev = None
        for mu in mus:
            g = ds.compute_raw_gain(snr, mu, 0.178)
            if prev is not None:
                assert np.all(g <= prev + 1e-15)
            prev = g

    def test_per_band_mu_and_floor(self):
        snr = np.array([4.0, 4.0])
        g = ds.compute_raw_gain(snr, np.array([1.49, 0.0]), np.array([0.5, 0.9]))
        assert float(g[0]) == 0.7921489758877429
        assert float(g[1]) == 1.0
        g = ds.compute_raw_gain(np.array([1.0, 1.0]), np.array([1.49, 1.49]), np.array([0.5, 0.9]))
        np.testing.assert_array_equal(g, [0.5, 0.9])

    @pytest.mark.parametrize(
        "mu",
        [0.0, 5e-324, np.finfo(float).tiny, 1e-300, 1.49, (1.49, 0.0, 0.7, 1e-310)],
    )
    def test_engine_rule_skips_the_snap_only_where_it_changes_nothing(self, mu):
        """The engine's constants leave out the silent-band snap unless
        some mu is below the smallest normal float, and its gains then
        equal compute_raw_gain's bit for bit, silent bands included."""
        tiny = np.finfo(float).tiny
        params = ds.GainParams(mu=mu, gain_floor=0.178)
        k = GainConstants(params)
        assert k.snap_silent == bool(np.any(np.asarray(mu) < tiny))
        rows = np.array([0.0, 5e-324, tiny, 1e-300, 0.5, 1.49, 4.0, 1e300, np.inf])
        snr = np.repeat(rows[:, None], 4, axis=1)
        expected = ds.compute_raw_gain(snr, np.broadcast_to(mu, 4), params.gain_floor)
        got = _raw_gain(snr, np.broadcast_to(k.mu, 4), k.floor, k.snap_silent)
        np.testing.assert_array_equal(got, expected)
        # a silent band takes the floor, whatever mu
        np.testing.assert_array_equal(got[0], 0.178)


class TestSmoothingFactor:
    def test_endpoints(self):
        assert ds.smoothing_factor_of(np.array([0.0]), 0.2, 0.95)[0] == 0.2
        assert ds.smoothing_factor_of(np.array([1.0]), 0.2, 0.95)[0] == 0.95

    def test_midpoint(self):
        assert ds.smoothing_factor_of(np.array([0.5]), 0.2, 0.8)[0] == pytest.approx(0.5)

    def test_strictly_increasing(self):
        g = np.linspace(0.0, 1.0, 101)
        gamma = ds.smoothing_factor_of(g, 0.2, 0.95)
        assert np.all(np.diff(gamma) > 0)


class TestSmoothGain:
    def test_frozen_step_value(self):
        """From unity toward a floored raw gain of 0.178 with
        gamma 0.2..0.8: one step lands at 1 + 0.3068*(0.178-1)."""
        params = ds.GainParams(gamma_min=0.2, gamma_max=0.8)
        state = ds.GainState(1)
        out = ds.smooth_gain(np.array([0.178]), state, params)
        assert float(out[0]) == pytest.approx(0.7478104, abs=1e-7)

    def test_gamma_one_tracks_exactly(self):
        params = ds.GainParams(gamma_min=1.0, gamma_max=1.0)
        state = ds.GainState(3)
        raw = np.array([0.3, 0.9, 0.5])
        # prev + 1.0*(raw - prev) costs one rounding step, not bit equality
        np.testing.assert_allclose(ds.smooth_gain(raw, state, params), raw, rtol=1e-15)

    def test_fixed_point(self):
        params = ds.GainParams()
        state = ds.GainState(1)
        state.prev_gain = np.array([0.6])
        out = ds.smooth_gain(np.array([0.6]), state, params)
        np.testing.assert_allclose(out, 0.6, rtol=1e-15)

    def test_geometric_convergence(self):
        """Constant raw input: the error shrinks by (1-gamma) each frame."""
        params = ds.GainParams(gamma_min=0.4, gamma_max=0.4)
        state = ds.GainState(1)
        target = 0.5
        errs = []
        for _ in range(10):
            out = ds.smooth_gain(np.array([target]), state, params)
            errs.append(abs(float(out[0]) - target))
        ratios = [b / a for a, b in zip(errs, errs[1:]) if a > 1e-14]
        np.testing.assert_allclose(ratios, 0.6, rtol=1e-9)

    def test_attack_faster_than_release(self):
        """Rising toward unity (large gamma) settles in fewer frames
        than falling toward the floor (small gamma)."""
        params = ds.GainParams(gamma_min=0.2, gamma_max=0.95)

        def frames_to_90pct(start, target):
            state = ds.GainState(1)
            state.prev_gain = np.array([start])
            for n in range(1, 200):
                out = ds.smooth_gain(np.array([target]), state, params)
                if abs(float(out[0]) - target) <= 0.1 * abs(target - start):
                    return n
            return 200

        rise = frames_to_90pct(0.178, 1.0)
        fall = frames_to_90pct(1.0, 0.178)
        assert rise < fall

    def test_output_stays_in_bounds(self):
        rng = np.random.default_rng(44)
        params = ds.GainParams()
        state = ds.GainState(33)
        for _ in range(500):
            raw = ds.compute_raw_gain(rng.uniform(0.0, 30.0, 33), params.mu, params.gain_floor)
            out = ds.smooth_gain(raw, state, params)
            assert np.all(out >= params.gain_floor)
            assert np.all(out <= 1.0)

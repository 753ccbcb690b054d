"""Subband SNR, suppression gain rule and adaptive gain smoothing."""

import numpy as np
import pytest

from dualstage.errors import ConfigError
from dualstage.gain import (
    GainParams,
    compute_raw_gain,
    compute_snr,
    smooth_gain,
    smoothing_factor_of,
)


def raw_gain(snr, mu, gain_floor):
    """compute_raw_gain with mu and the floor given as scalars or per
    band."""
    per_band = {"mu": mu, "gain_floor": gain_floor}
    per_band = {k: tuple(v) if np.ndim(v) else v for k, v in per_band.items()}
    return compute_raw_gain(np.asarray(snr, dtype=float), GainParams(**per_band))


def gamma_of(g, gamma_min, gamma_max):
    return smoothing_factor_of(g, GainParams(gamma_min=gamma_min, gamma_max=gamma_max))


class TestGainParams:
    def test_defaults_match_communication_tuning(self):
        p = GainParams()
        assert p.mu == 1.49
        assert p.gain_floor == 0.178

    def test_mu_range(self):
        GainParams(mu=0.0)
        GainParams(mu=1.5)
        with pytest.raises(ConfigError, match="mu"):
            GainParams(mu=1.51)
        with pytest.raises(ConfigError, match="mu"):
            GainParams(mu=-0.1)

    def test_floor_range(self):
        with pytest.raises(ConfigError, match="gain_floor"):
            GainParams(gain_floor=0.0)
        with pytest.raises(ConfigError, match="gain_floor"):
            GainParams(gain_floor=1.1)

    def test_gamma_ordering(self):
        with pytest.raises(ConfigError, match="gamma"):
            GainParams(gamma_min=0.8, gamma_max=0.2)


class TestComputeSnr:
    def test_hand_values(self):
        snr = compute_snr(np.array([2.0, 1.0, 1.0]), np.array([1.0, 1.0, 0.0]), GainParams())
        np.testing.assert_allclose(snr[:2], [4.0, 1.0], rtol=1e-12)
        assert snr[2] == pytest.approx(1e20, rel=1e-9)

    def test_non_negative_and_finite(self):
        rng = np.random.default_rng(41)
        mags = rng.uniform(0.0, 3.0, 200)
        noise = rng.uniform(0.0, 2.0, 200)
        snr = compute_snr(mags, noise, GainParams())
        assert np.all(snr >= 0.0)
        assert np.all(np.isfinite(snr))

    def test_huge_ratio_is_capped_without_overflow(self):
        """A band near the largest magnitude a screened input makes, over
        a silent noise estimate, would square to infinity with an
        overflow warning; its SNR stops at 2**1022, where the raw gain
        is 1 as it is at infinity."""
        snr = compute_snr(np.array([4e153, 1e80]), np.array([0.0, 1e-3]), GainParams())
        assert snr[0] == 2.0**1022
        assert snr[1] == pytest.approx(1e166, rel=1e-12)
        np.testing.assert_array_equal(raw_gain(snr, 1.49, 0.178), [1.0, 1.0])


class TestComputeRawGain:
    def test_frozen_value(self):
        """sqrt(1 - 1.49/4), independently evaluated."""
        g = raw_gain(np.array([4.0]), 1.49, 0.178)
        assert float(g[0]) == 0.7921489758877429

    def test_mu_zero_is_unity(self):
        snr = np.array([0.01, 1.0, 1e6])
        np.testing.assert_array_equal(raw_gain(snr, 0.0, 0.178), 1.0)

    def test_floor_engages_on_nonpositive_radicand(self):
        g = raw_gain(np.array([1.0, 1.49, 0.5]), 1.49, 0.178)
        np.testing.assert_array_equal(g, 0.178)

    def test_silent_band_takes_the_floor(self):
        g = raw_gain(np.array([0.0]), 1.49, 0.178)
        assert float(g[0]) == 0.178

    def test_bounds_always_hold(self):
        rng = np.random.default_rng(42)
        snr = rng.uniform(0.0, 100.0, 10000)
        g = raw_gain(snr, 1.49, 0.178)
        assert np.all(g >= 0.178)
        assert np.all(g <= 1.0)

    def test_monotone_non_increasing_in_mu(self):
        rng = np.random.default_rng(43)
        snr = rng.uniform(0.0, 20.0, 500)
        mus = np.linspace(0.0, 1.5, 16)
        prev = None
        for mu in mus:
            g = raw_gain(snr, mu, 0.178)
            if prev is not None:
                assert np.all(g <= prev + 1e-15)
            prev = g

    def test_per_band_mu_and_floor(self):
        snr = np.array([4.0, 4.0])
        g = raw_gain(snr, np.array([1.49, 0.0]), np.array([0.5, 0.9]))
        assert float(g[0]) == 0.7921489758877429
        assert float(g[1]) == 1.0
        g = raw_gain(np.array([1.0, 1.0]), np.array([1.49, 1.49]), np.array([0.5, 0.9]))
        np.testing.assert_array_equal(g, [0.5, 0.9])

    @pytest.mark.parametrize(
        "mu",
        [0.0, 5e-324, np.finfo(float).tiny, 1e-300, 1.49, (1.49, 0.0, 0.7, 1e-310)],
    )
    def test_engine_rule_skips_the_snap_only_where_it_changes_nothing(self, mu):
        """compute_raw_gain leaves out the silent-band snap unless some
        mu is below the smallest normal float, and its gains then equal
        the rule with the snap forced bit for bit, silent bands
        included."""
        tiny = np.finfo(float).tiny
        params = GainParams(mu=mu, gain_floor=0.178)
        assert params._snap_silent == bool(np.any(np.asarray(mu) < tiny))
        rows = np.array([0.0, 5e-324, tiny, 1e-300, 0.5, 1.49, 4.0, 1e300, np.inf])
        snr = np.repeat(rows[:, None], 4, axis=1)
        radicand = 1.0 - np.asarray(mu) / np.maximum(snr, tiny)
        forced = np.where(snr > 0.0, np.sqrt(np.maximum(radicand, 0.0)), 0.0)
        got = compute_raw_gain(snr, params)
        np.testing.assert_array_equal(got, np.maximum(forced, 0.178))
        # a silent band takes the floor, whatever mu
        np.testing.assert_array_equal(got[0], 0.178)


class TestSmoothingFactor:
    def test_endpoints(self):
        assert gamma_of(np.array([0.0]), 0.2, 0.95)[0] == 0.2
        assert gamma_of(np.array([1.0]), 0.2, 0.95)[0] == 0.95

    def test_midpoint(self):
        assert gamma_of(np.array([0.5]), 0.2, 0.8)[0] == pytest.approx(0.5)

    def test_strictly_increasing(self):
        g = np.linspace(0.0, 1.0, 101)
        gamma = gamma_of(g, 0.2, 0.95)
        assert np.all(np.diff(gamma) > 0)


class TestSmoothGain:
    def test_frozen_step_value(self):
        """From unity toward a floored raw gain of 0.178 with
        gamma 0.2..0.8: one step lands at 1 + 0.3068*(0.178-1)."""
        params = GainParams(gamma_min=0.2, gamma_max=0.8)
        out, _ = smooth_gain(np.array([0.178]), None, params)
        assert float(out[0]) == pytest.approx(0.7478104, abs=1e-7)

    def test_gamma_one_tracks_exactly(self):
        params = GainParams(gamma_min=1.0, gamma_max=1.0)
        raw = np.array([0.3, 0.9, 0.5])
        # prev + 1.0*(raw - prev) costs one rounding step, not bit equality
        np.testing.assert_allclose(smooth_gain(raw, None, params)[0], raw, rtol=1e-15)

    def test_fixed_point(self):
        params = GainParams()
        out, prev = smooth_gain(np.array([0.6]), np.array([0.6]), params)
        np.testing.assert_allclose(out, 0.6, rtol=1e-15)
        np.testing.assert_array_equal(prev, out)

    @pytest.mark.parametrize("shape", [(3,), (4, 3)])
    def test_carry_shares_no_memory_with_the_gains(self, shape):
        """The carry is a copy of the last row: writing into the gains
        handed back leaves it as it was."""
        raw = np.random.default_rng(45).uniform(0.2, 1.0, shape)
        out, prev = smooth_gain(raw, None, GainParams())
        last = out.reshape(-1, 3)[-1].copy()
        out[...] = 7.0
        np.testing.assert_array_equal(prev, last)

    def test_geometric_convergence(self):
        """Constant raw input: the error shrinks by (1-gamma) each frame."""
        params = GainParams(gamma_min=0.4, gamma_max=0.4)
        prev = None
        target = 0.5
        errs = []
        for _ in range(10):
            out, prev = smooth_gain(np.array([target]), prev, params)
            errs.append(abs(float(out[0]) - target))
        ratios = [b / a for a, b in zip(errs, errs[1:]) if a > 1e-14]
        np.testing.assert_allclose(ratios, 0.6, rtol=1e-9)

    def test_attack_faster_than_release(self):
        """Rising toward unity (large gamma) settles in fewer frames
        than falling toward the floor (small gamma)."""
        params = GainParams(gamma_min=0.2, gamma_max=0.95)

        def frames_to_90pct(start, target):
            prev = np.array([start])
            for n in range(1, 200):
                out, prev = smooth_gain(np.array([target]), prev, params)
                if abs(float(out[0]) - target) <= 0.1 * abs(target - start):
                    return n
            return 200

        rise = frames_to_90pct(0.178, 1.0)
        fall = frames_to_90pct(1.0, 0.178)
        assert rise < fall

    def test_output_stays_in_bounds(self):
        rng = np.random.default_rng(44)
        params = GainParams()
        prev = None
        for _ in range(500):
            raw = compute_raw_gain(rng.uniform(0.0, 30.0, 33), params)
            out, prev = smooth_gain(raw, prev, params)
            assert np.all(out >= params.gain_floor)
            assert np.all(out <= 1.0)

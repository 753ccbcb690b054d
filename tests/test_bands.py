"""Bin-to-band partition, pooling, expansion, gain application."""

import numpy as np
import pytest

from dualstage.bands import apply_gains, bark_of_hz, build_band_plan, expand_to_bins, pool_to_bands
from dualstage.errors import ConfigError

# frozen output of an independent reimplementation of the partition
# rule (equal perceptual-scale intervals, first-crossing edges, repair
# passes) for the default 256-pt FFT at 16 kHz with 33 bands
EDGES_33 = [
    0, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12, 13, 15, 16, 18, 20, 22,
    24, 26, 29, 31, 35, 38, 43, 47, 53, 59, 66, 74, 83, 92, 103, 115, 129,
]


class TestBandPlan:
    def test_default_plan_matches_frozen_edges(self):
        plan = build_band_plan(256, 16000, 33)
        assert plan.edges.tolist() == EDGES_33

    def test_widths_cover_half_spectrum(self):
        plan = build_band_plan(256, 16000, 33)
        assert int(plan.widths.sum()) == 129
        assert int(plan.widths.min()) >= 1

    def test_widths_grow_toward_high_bands(self):
        """Perceptual spacing: the upper third is non-decreasing in
        width and the last band is the widest. (Quantization makes
        single-bin widths oscillate lower down, so the trend is
        asserted where it is exact.)"""
        plan = build_band_plan(256, 16000, 33)
        w = plan.widths
        assert np.all(np.diff(w[23:]) >= 0)
        assert int(np.argmax(w)) == 32

    def test_single_band_covers_everything(self):
        plan = build_band_plan(256, 16000, 1)
        assert plan.edges.tolist() == [0, 129]

    def test_one_band_per_bin_is_identity(self):
        plan = build_band_plan(256, 16000, 129)
        assert np.all(plan.widths == 1)
        assert plan.edges.tolist() == list(range(130))

    def test_perceptual_scale_is_monotone(self):
        f = np.linspace(0.0, 8000.0, 500)
        z = bark_of_hz(f)
        assert np.all(np.diff(z) > 0)

    def test_band_count_bounds(self):
        with pytest.raises(ConfigError, match="num_bands"):
            build_band_plan(256, 16000, 0)
        with pytest.raises(ConfigError, match="num_bands"):
            build_band_plan(256, 16000, 130)

    def test_plan_arrays_read_only(self):
        plan = build_band_plan(256, 16000, 33)
        with pytest.raises(ValueError):
            plan.edges[0] = 1


class TestPooling:
    def test_rms_pooling_hand_case(self):
        """Band magnitude is sqrt(mean bin power) within the band."""
        plan = build_band_plan(256, 16000, 2)
        mags = pool_to_bands(np.arange(129, dtype=float), plan)
        lo, mid = plan.edges[0], plan.edges[1]
        np.testing.assert_allclose(
            mags,
            [
                np.sqrt(np.arange(lo, mid).mean()),
                np.sqrt(np.arange(mid, 129).mean()),
            ],
            rtol=1e-12,
        )

    def test_flat_power_pools_flat(self):
        plan = build_band_plan(256, 16000, 33)
        np.testing.assert_allclose(pool_to_bands(np.full(129, 4.0), plan), 2.0, rtol=1e-12)


class TestExpansion:
    def test_two_band_ramp_is_monotone_and_clamped(self):
        """Gains ramp between the two band centers and hold flat
        outside them."""
        plan = build_band_plan(256, 16000, 2)
        gains = expand_to_bins(np.array([0.2, 1.0]), plan)
        c0, c1 = plan.center_bins
        lo = int(np.floor(c0))
        hi = int(np.ceil(c1))
        assert np.all(gains[: lo + 1] == 0.2)
        assert np.all(gains[hi:] == 1.0)
        assert np.all(np.diff(gains) >= 0)

    def test_band_centers_map_to_their_gains(self):
        """Integer-center bands reproduce their gain exactly."""
        plan = build_band_plan(256, 16000, 33)
        rng = np.random.default_rng(21)
        gains = rng.uniform(0.2, 1.0, 33)
        bins = expand_to_bins(gains, plan)
        for k in range(33):
            c = plan.center_bins[k]
            if c == int(c):
                assert abs(bins[int(c)] - gains[k]) < 1e-12

    def test_monotone_band_gains_stay_monotone(self):
        plan = build_band_plan(256, 16000, 33)
        rng = np.random.default_rng(22)
        for _ in range(20):
            gains = np.sort(rng.uniform(0.1, 1.0, 33))
            bins = expand_to_bins(gains, plan)
            assert np.all(np.diff(bins) >= -1e-15)


class TestApplyGains:
    def test_bins_scale_and_power_squares(self):
        rng = np.random.default_rng(23)
        bins = rng.standard_normal(129) + 1j * rng.standard_normal(129)
        power = np.abs(bins) ** 2
        gains = rng.uniform(0.1, 1.0, 129)
        before_bins, before_power = bins.copy(), power.copy()
        assert apply_gains(bins, power, gains) is None
        np.testing.assert_allclose(bins, before_bins * gains, rtol=1e-12)
        np.testing.assert_allclose(power, before_power * gains**2, rtol=1e-12)

    def test_none_is_left_alone(self):
        """Either array may be None; the other scales exactly as when
        both are given."""
        rng = np.random.default_rng(25)
        bins = rng.standard_normal(129) + 1j * rng.standard_normal(129)
        power, gains = np.abs(bins) ** 2, rng.uniform(0.1, 1.0, 129)
        both_bins, both_power = bins.copy(), power.copy()
        apply_gains(both_bins, both_power, gains)
        apply_gains(bins, None, gains)
        apply_gains(None, power, gains)
        apply_gains(None, None, gains)
        assert bins.tobytes() == both_bins.tobytes()
        assert power.tobytes() == both_power.tobytes()

    def test_phase_is_preserved(self):
        rng = np.random.default_rng(24)
        bins = rng.standard_normal(129) + 1j * rng.standard_normal(129)
        out = bins.copy()
        apply_gains(out, np.abs(bins) ** 2, rng.uniform(0.05, 1.0, 129))
        np.testing.assert_allclose(np.angle(out), np.angle(bins), atol=1e-13)

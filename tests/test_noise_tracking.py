"""Sliding-minimum noise tracking and SNR-adaptive smoothing."""

import numpy as np
import pytest

import dualstage as ds
from dualstage.errors import ConfigError, UsageError
from dualstage.noise_tracking import update


def brute_force_min(history, window_len):
    """Trailing-window minimum the slow, obviously correct way."""
    tail = history[-window_len:]
    return np.min(np.stack(tail), axis=0)


class TestTrackerParams:
    def test_defaults(self):
        p = ds.TrackerParams()
        assert p.subwindow_len == 48
        assert p.num_subwindows == 8
        assert p.bias_factor == 1.2
        assert p.window_len == 384

    def test_validation(self):
        with pytest.raises(ConfigError, match="subwindow_len"):
            ds.TrackerParams(subwindow_len=0)
        with pytest.raises(ConfigError, match="num_subwindows"):
            ds.TrackerParams(num_subwindows=0)
        with pytest.raises(ConfigError, match="bias_factor"):
            ds.TrackerParams(bias_factor=0.9)
        with pytest.raises(ConfigError, match="alpha"):
            ds.TrackerParams(alpha=1.5)
        with pytest.raises(ConfigError, match="mag_smooth_alpha"):
            ds.TrackerParams(mag_smooth_alpha=0.0)

    def test_alpha_map_validation(self):
        with pytest.raises(ConfigError, match="two points"):
            ds.TrackerParams(alpha_snr_map=((0.0, 2.0),))
        with pytest.raises(ConfigError, match="increasing"):
            ds.TrackerParams(alpha_snr_map=((10.0, 2.0), (0.0, 1.0)))
        with pytest.raises(ConfigError, match="non-increasing"):
            ds.TrackerParams(alpha_snr_map=((0.0, 1.0), (20.0, 2.0)))
        with pytest.raises(ConfigError, match="positive"):
            ds.TrackerParams(alpha_snr_map=((0.0, 2.0), (20.0, 0.0)))

    def test_window_scaling_knob_is_reserved(self):
        """Faster tracking is alpha scaling only; the per-frame window
        rescale stays switched off until it has defined semantics."""
        with pytest.raises(ConfigError, match="scale_window_with_snr"):
            ds.TrackerParams(scale_window_with_snr=True)


class TestTrackRaw:
    def test_constant_input_tracks_the_constant(self):
        p = ds.TrackerParams(subwindow_len=4, num_subwindows=3, bias_factor=1.0)
        state = ds.NoiseState.for_params(p, 2)
        c = np.array([3.0, 0.5])
        for _ in range(20):
            raw = ds.track_raw(c, p, state)
            np.testing.assert_array_equal(raw, c)

    def test_window_min_hand_case(self):
        """5,3,7,4 in one window: the running minimum is 3 at frame 4."""
        p = ds.TrackerParams(subwindow_len=4, num_subwindows=1, bias_factor=1.0)
        state = ds.NoiseState.for_params(p, 1)
        outs = [
            float(ds.track_raw(np.array([v]), p, state)[0]) for v in (5.0, 3.0, 7.0, 4.0)
        ]
        assert outs == [5.0, 3.0, 3.0, 3.0]

    def test_bias_factor_scales_linearly(self):
        rng = np.random.default_rng(31)
        p1 = ds.TrackerParams(subwindow_len=6, num_subwindows=4, bias_factor=1.0)
        p2 = ds.TrackerParams(subwindow_len=6, num_subwindows=4, bias_factor=2.0)
        s1 = ds.NoiseState.for_params(p1, 3)
        s2 = ds.NoiseState.for_params(p2, 3)
        for _ in range(100):
            mags = rng.uniform(0.1, 2.0, 3)
            r1 = ds.track_raw(mags, p1, s1)
            r2 = ds.track_raw(mags, p2, s2)
            np.testing.assert_array_equal(r2, 2.0 * r1)

    @pytest.mark.parametrize(
        "sub_len,num_subs,bands,frames",
        [(4, 3, 2, 400), (1, 5, 3, 200), (7, 1, 2, 150), (48, 8, 4, 900)],
    )
    def test_equals_brute_force(self, sub_len, num_subs, bands, frames):
        """Exact trailing-window minimum at every frame, all geometries."""
        rng = np.random.default_rng(32 + sub_len)
        p = ds.TrackerParams(
            subwindow_len=sub_len, num_subwindows=num_subs, bias_factor=1.0
        )
        state = ds.NoiseState.for_params(p, bands)
        history = []
        for _ in range(frames):
            mags = rng.uniform(0.0, 1.0, bands)
            history.append(mags)
            raw = ds.track_raw(mags, p, state)
            np.testing.assert_array_equal(raw, brute_force_min(history, p.window_len))

    def test_short_burst_does_not_raise_the_track(self):
        """A high-energy burst shorter than the window leaves the raw
        estimate at the pre-burst minimum, exactly."""
        p = ds.TrackerParams(subwindow_len=10, num_subwindows=5, bias_factor=1.0)
        state = ds.NoiseState.for_params(p, 1)
        c = np.array([0.2])
        for _ in range(50):
            ds.track_raw(c, p, state)
        for _ in range(30):  # burst shorter than the 50-frame window
            raw = ds.track_raw(np.array([2.0]), p, state)
            assert float(raw[0]) == 0.2

    @pytest.mark.parametrize("sub_len,num_subs", [(4, 3), (1, 1), (48, 8)])
    def test_blocks_straddling_the_window_match_brute_force(self, sub_len, num_subs):
        """Frames pushed in random block sizes, many of them crossing
        the W-frame alignment of the running minimum, still give the
        exact trailing-window minimum for every frame."""
        rng = np.random.default_rng(34 + sub_len)
        p = ds.TrackerParams(subwindow_len=sub_len, num_subwindows=num_subs, bias_factor=1.0)
        w = p.window_len
        state = ds.NoiseState.for_params(p, 3)
        history = []
        while len(history) < 6 * w + 50:
            n = int(rng.integers(1, 2 * w + 3))
            block = rng.uniform(0.0, 1.0, (n, 3))
            got = state.window_min.push(block)
            for row, mins in zip(block, got):
                history.append(row)
                np.testing.assert_array_equal(mins, brute_force_min(history, w))


class TestSmoothNoise:
    def test_full_and_frozen_update(self):
        p = ds.TrackerParams()
        state = ds.NoiseState.for_params(p, 1)
        state.frame_count = 1  # skip seeding
        state.smoothed = np.array([2.0])
        out = ds.smooth_noise(np.array([4.0]), state, 1.0)
        np.testing.assert_array_equal(out, [4.0])
        state.smoothed = np.array([2.0])
        out = ds.smooth_noise(np.array([4.0]), state, 0.0)
        np.testing.assert_array_equal(out, [2.0])

    def test_halfway_hand_case(self):
        p = ds.TrackerParams()
        state = ds.NoiseState.for_params(p, 1)
        state.frame_count = 1
        state.smoothed = np.array([2.0])
        out = ds.smooth_noise(np.array([4.0]), state, 0.5)
        np.testing.assert_array_equal(out, [3.0])

    def test_first_frame_seeds_with_raw(self):
        p = ds.TrackerParams()
        state = ds.NoiseState.for_params(p, 2)
        out = ds.smooth_noise(np.array([0.7, 0.9]), state, 0.3)
        np.testing.assert_array_equal(out, [0.7, 0.9])

    def test_alpha_out_of_range_rejected(self):
        p = ds.TrackerParams()
        state = ds.NoiseState.for_params(p, 1)
        with pytest.raises(UsageError, match="alpha_eff"):
            ds.smooth_noise(np.array([1.0]), state, 1.5)
        with pytest.raises(UsageError, match="alpha_eff"):
            ds.smooth_noise(np.array([1.0]), state, np.array([-0.1]))


class TestEffectiveAlpha:
    MAP = ((0.0, 2.0), (20.0, 1.0))

    def test_frozen_map_values(self):
        assert ds.effective_alpha(0.3, 0.0, self.MAP) == pytest.approx(0.6, abs=1e-15)
        assert ds.effective_alpha(0.3, 20.0, self.MAP) == pytest.approx(0.3, abs=1e-15)
        assert ds.effective_alpha(0.3, 10.0, self.MAP) == pytest.approx(0.45, abs=1e-15)
        # flat extrapolation outside the map's breakpoints
        assert ds.effective_alpha(0.3, -5.0, self.MAP) == pytest.approx(0.6, abs=1e-15)
        assert ds.effective_alpha(0.3, 25.0, self.MAP) == pytest.approx(0.3, abs=1e-15)

    def test_clamped_to_one(self):
        assert ds.effective_alpha(0.9, 0.0, self.MAP) == 1.0

    def test_no_map_passes_base_through(self):
        assert float(ds.effective_alpha(0.4, 5.0, None)) == 0.4

    def test_monotone_in_snr(self):
        grid = np.arange(-10.0, 30.5, 0.5)
        vals = [ds.effective_alpha(0.3, s, self.MAP) for s in grid]
        assert all(b <= a for a, b in zip(vals, vals[1:]))


class TestUpdate:
    def test_first_frame_seeds_presmoothing(self):
        p = ds.TrackerParams(subwindow_len=4, num_subwindows=2)
        state = ds.NoiseState.for_params(p, 2)
        mags = np.array([0.5, 1.5])
        raw, smoothed = update(mags, p, state)
        np.testing.assert_array_equal(state.presmoothed_mag, mags)
        np.testing.assert_allclose(raw, p.bias_factor * mags, rtol=1e-12)
        np.testing.assert_allclose(smoothed, raw, rtol=1e-12)

    def test_snr_feed_speeds_tracking(self):
        """Identical inputs, lower reported SNR: the noise estimate
        moves at least as fast toward a raised floor."""
        p = ds.TrackerParams(
            subwindow_len=2, num_subwindows=2, alpha=0.3,
            alpha_snr_map=((0.0, 2.0), (20.0, 1.0)),
        )
        lo = ds.NoiseState.for_params(p, 1)
        hi = ds.NoiseState.for_params(p, 1)
        for v in (0.1, 0.1, 0.1, 0.1):
            update(np.array([v]), p, lo, stage1_snr_db=0.0)
            update(np.array([v]), p, hi, stage1_snr_db=20.0)
        for v in (1.0, 1.0, 1.0, 1.0, 1.0, 1.0):
            _, n_lo = update(np.array([v]), p, lo, stage1_snr_db=0.0)
            _, n_hi = update(np.array([v]), p, hi, stage1_snr_db=20.0)
            assert n_lo[0] >= n_hi[0] - 1e-15

    def test_stationary_convergence(self):
        """On i.i.d. Rayleigh magnitudes (a complex-Gaussian bin's
        natural magnitude law) the biased minimum track settles within
        3 dB of the true mean level in at least 90% of bands."""
        rng = np.random.default_rng(33)
        p = ds.TrackerParams()
        bands = 33
        state = ds.NoiseState.for_params(p, bands)
        level = rng.uniform(0.02, 0.5, bands)
        frames = 750  # 3 s at the default hop
        mags = rng.rayleigh(1.0, (frames, bands)) * level
        for m in mags:
            _, smoothed = update(m, p, state)
        true_level = mags.mean(axis=0)
        err_db = 20.0 * np.log10(smoothed / true_level)
        assert np.mean(np.abs(err_db) <= 3.0) >= 0.9

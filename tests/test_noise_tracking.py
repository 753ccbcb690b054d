"""Sliding-minimum noise tracking and SNR-adaptive smoothing."""

import numpy as np
import pytest

from dualstage.errors import ConfigError
from dualstage.noise_tracking import (
    NoiseState,
    TrackerParams,
    effective_alpha,
    smooth_noise,
    track_raw,
    update,
)


def brute_force_min(history, window_len):
    """Trailing-window minimum the slow, obviously correct way."""
    tail = history[-window_len:]
    return np.min(np.stack(tail), axis=0)


class TestTrackerParams:
    def test_defaults(self):
        p = TrackerParams()
        assert p.window_len == 384
        assert p.bias_factor == 1.2

    def test_validation(self):
        with pytest.raises(ConfigError, match="window_len"):
            TrackerParams(window_len=0)
        with pytest.raises(ConfigError, match="bias_factor"):
            TrackerParams(bias_factor=0.9)
        with pytest.raises(ConfigError, match="alpha"):
            TrackerParams(alpha=1.5)
        with pytest.raises(ConfigError, match="mag_smooth_alpha"):
            TrackerParams(mag_smooth_alpha=0.0)

    def test_alpha_map_validation(self):
        with pytest.raises(ConfigError, match="two points"):
            TrackerParams(alpha_snr_map=((0.0, 2.0),))
        with pytest.raises(ConfigError, match="increasing"):
            TrackerParams(alpha_snr_map=((10.0, 2.0), (0.0, 1.0)))
        with pytest.raises(ConfigError, match="non-increasing"):
            TrackerParams(alpha_snr_map=((0.0, 1.0), (20.0, 2.0)))
        with pytest.raises(ConfigError, match="positive"):
            TrackerParams(alpha_snr_map=((0.0, 2.0), (20.0, 0.0)))
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ConfigError, match="finite"):
                TrackerParams(alpha_snr_map=((bad, 2.0), (20.0, 1.0)))
            with pytest.raises(ConfigError, match="finite"):
                TrackerParams(alpha_snr_map=((0.0, bad), (20.0, 1.0)))


class TestTrackRaw:
    def test_constant_input_tracks_the_constant(self):
        p = TrackerParams(window_len=12, bias_factor=1.0)
        state = NoiseState.for_params(p, 2)
        c = np.array([3.0, 0.5])
        for _ in range(20):
            raw = track_raw(c, p, state)
            np.testing.assert_array_equal(raw, c)

    def test_window_min_hand_case(self):
        """5,3,7,4 in one window: the running minimum is 3 at frame 4."""
        p = TrackerParams(window_len=4, bias_factor=1.0)
        state = NoiseState.for_params(p, 1)
        outs = [
            float(track_raw(np.array([v]), p, state)[0]) for v in (5.0, 3.0, 7.0, 4.0)
        ]
        assert outs == [5.0, 3.0, 3.0, 3.0]

    def test_bias_factor_scales_linearly(self):
        rng = np.random.default_rng(31)
        p1 = TrackerParams(window_len=24, bias_factor=1.0)
        p2 = TrackerParams(window_len=24, bias_factor=2.0)
        s1 = NoiseState.for_params(p1, 3)
        s2 = NoiseState.for_params(p2, 3)
        for _ in range(100):
            mags = rng.uniform(0.1, 2.0, 3)
            r1 = track_raw(mags, p1, s1)
            r2 = track_raw(mags, p2, s2)
            np.testing.assert_array_equal(r2, 2.0 * r1)

    # window_len = a * b; the factor pairs keep the test ids of the
    # schema that set the window as subwindow length times count
    @pytest.mark.parametrize(
        "a,b,bands,frames",
        [(4, 3, 2, 400), (1, 5, 3, 200), (7, 1, 2, 150), (48, 8, 4, 900)],
    )
    def test_equals_brute_force(self, a, b, bands, frames):
        """Exact trailing-window minimum at every frame, all geometries."""
        rng = np.random.default_rng(32 + a)
        p = TrackerParams(window_len=a * b, bias_factor=1.0)
        state = NoiseState.for_params(p, bands)
        history = []
        for _ in range(frames):
            mags = rng.uniform(0.0, 1.0, bands)
            history.append(mags)
            raw = track_raw(mags, p, state)
            np.testing.assert_array_equal(raw, brute_force_min(history, p.window_len))

    def test_short_burst_does_not_raise_the_track(self):
        """A high-energy burst shorter than the window leaves the raw
        estimate at the pre-burst minimum, exactly."""
        p = TrackerParams(window_len=50, bias_factor=1.0)
        state = NoiseState.for_params(p, 1)
        c = np.array([0.2])
        for _ in range(50):
            track_raw(c, p, state)
        for _ in range(30):  # burst shorter than the 50-frame window
            raw = track_raw(np.array([2.0]), p, state)
            assert float(raw[0]) == 0.2

    @pytest.mark.parametrize("a,b", [(4, 3), (1, 1), (48, 8)])  # window_len = a * b
    def test_blocks_straddling_the_window_match_brute_force(self, a, b):
        """Frames pushed in random block sizes, many of them crossing
        the W-frame alignment of the running minimum, still give the
        exact trailing-window minimum for every frame."""
        rng = np.random.default_rng(34 + a)
        p = TrackerParams(window_len=a * b, bias_factor=1.0)
        w = p.window_len
        state = NoiseState.for_params(p, 3)
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
        out, prev = smooth_noise(np.array([4.0]), np.array([2.0]), 1.0)
        np.testing.assert_array_equal(out, [4.0])
        np.testing.assert_array_equal(prev, [4.0])
        out, prev = smooth_noise(np.array([4.0]), np.array([2.0]), 0.0)
        np.testing.assert_array_equal(out, [2.0])
        np.testing.assert_array_equal(prev, [2.0])

    def test_halfway_hand_case(self):
        out, _ = smooth_noise(np.array([4.0]), np.array([2.0]), 0.5)
        np.testing.assert_array_equal(out, [3.0])

    def test_first_frame_seeds_with_raw(self):
        out, prev = smooth_noise(np.array([0.7, 0.9]), None, 0.3)
        np.testing.assert_array_equal(out, [0.7, 0.9])
        np.testing.assert_array_equal(prev, [0.7, 0.9])

    def test_block_carries_its_last_row(self):
        raw = np.array([[4.0], [8.0], [6.0]])
        out, prev = smooth_noise(raw, np.array([2.0]), 0.5)
        np.testing.assert_array_equal(out, [[3.0], [5.5], [5.75]])
        np.testing.assert_array_equal(prev, [5.75])


class TestEffectiveAlpha:
    MAP = ((0.0, 2.0), (20.0, 1.0))

    def alpha_at(self, alpha, snr_db):
        return effective_alpha(TrackerParams(alpha=alpha, alpha_snr_map=self.MAP), snr_db)

    def test_frozen_map_values(self):
        assert self.alpha_at(0.3, 0.0) == pytest.approx(0.6, abs=1e-15)
        assert self.alpha_at(0.3, 20.0) == pytest.approx(0.3, abs=1e-15)
        assert self.alpha_at(0.3, 10.0) == pytest.approx(0.45, abs=1e-15)
        # flat extrapolation outside the map's breakpoints
        assert self.alpha_at(0.3, -5.0) == pytest.approx(0.6, abs=1e-15)
        assert self.alpha_at(0.3, 25.0) == pytest.approx(0.3, abs=1e-15)

    def test_clamped_to_one(self):
        assert self.alpha_at(0.9, 0.0) == 1.0

    def test_per_band_and_per_frame(self):
        """A per-band base and a vector of frame SNRs give one row per
        frame, each the scalar case band by band."""
        snrs = np.array([-5.0, 10.0, 30.0])
        got = self.alpha_at((0.3, 0.9), snrs)
        assert got.shape == (3, 2)
        for row, s in zip(got, snrs):
            assert list(row) == [self.alpha_at(0.3, s), self.alpha_at(0.9, s)]

    def test_monotone_in_snr(self):
        grid = np.arange(-10.0, 30.5, 0.5)
        vals = [self.alpha_at(0.3, s) for s in grid]
        assert all(b <= a for a, b in zip(vals, vals[1:]))


class TestUpdate:
    def test_first_frame_seeds_presmoothing(self):
        p = TrackerParams(window_len=8)
        state = NoiseState.for_params(p, 2)
        mags = np.array([0.5, 1.5])
        raw, smoothed = update(mags, p, state)
        np.testing.assert_array_equal(state.presmoothed_mag, mags)
        np.testing.assert_allclose(raw, p.bias_factor * mags, rtol=1e-12)
        np.testing.assert_allclose(smoothed, raw, rtol=1e-12)

    @pytest.mark.parametrize("shape", [(3,), (5, 3)])
    def test_carries_share_no_memory_with_the_rows(self, shape):
        """Writing into the rows update returns changes nothing the
        tracker reads next: its carries are copies."""
        p = TrackerParams(window_len=4, alpha=0.4)
        rng = np.random.default_rng(36)
        touched, untouched = NoiseState.for_params(p, 3), NoiseState.for_params(p, 3)
        for mags in rng.uniform(0.1, 1.0, (4, *shape)):
            for rows in update(mags, p, touched):
                rows[...] = 7.0
            update(mags, p, untouched)
        np.testing.assert_array_equal(touched.smoothed, untouched.smoothed)
        np.testing.assert_array_equal(touched.presmoothed_mag, untouched.presmoothed_mag)

    def test_no_map_passes_base_through(self):
        """Without an alpha map a frame SNR changes nothing: the base
        alpha smooths the noise either way."""
        p = TrackerParams(window_len=4, alpha=0.4)
        fed = NoiseState.for_params(p, 2)
        unfed = NoiseState.for_params(p, 2)
        rng = np.random.default_rng(35)
        for mags in rng.uniform(0.0, 1.0, (12, 2)):
            got = update(mags, p, fed, stage1_snr_db=0.0)
            want = update(mags, p, unfed, stage1_snr_db=None)
            np.testing.assert_array_equal(got, want)

    def test_snr_feed_speeds_tracking(self):
        """Identical inputs, lower reported SNR: the noise estimate
        moves at least as fast toward a raised floor."""
        p = TrackerParams(
            window_len=4, alpha=0.3,
            alpha_snr_map=((0.0, 2.0), (20.0, 1.0)),
        )
        lo = NoiseState.for_params(p, 1)
        hi = NoiseState.for_params(p, 1)
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
        p = TrackerParams()
        bands = 33
        state = NoiseState.for_params(p, bands)
        level = rng.uniform(0.02, 0.5, bands)
        frames = 750  # 3 s at the default hop
        mags = rng.rayleigh(1.0, (frames, bands)) * level
        for m in mags:
            _, smoothed = update(m, p, state)
        true_level = mags.mean(axis=0)
        err_db = 20.0 * np.log10(smoothed / true_level)
        assert np.mean(np.abs(err_db) <= 3.0) >= 0.9

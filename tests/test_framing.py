"""Framing layer: windows, COLA, transforms, high-pass, latency."""

import numpy as np
import pytest

from dualstage import framing
from dualstage.errors import ConfigError, UsageError
from dualstage.framing import (
    WINDOW_KINDS,
    FrameConfig,
    MAX_FFT_LEN,
    algorithmic_latency_ms,
    analyze,
    bin_power,
    design_hpf,
    hpf_process,
    synthesize,
)
from dualstage.pipeline import BLOCK_FRAMES


class TestWindows:
    def test_sqrt_hann_pair_is_cola_at_half_overlap(self, frame_cfg):
        """Analysis*synthesis products shifted by hop sum to exactly 1."""
        analysis, synthesis = frame_cfg.windows
        product = analysis * synthesis
        cola = product.reshape(frame_cfg.frame_len // frame_cfg.hop_len, -1).sum(axis=0)
        assert float(cola.mean()) == 1.0
        assert float(np.max(np.abs(cola - 1.0))) < 5e-16

    def test_hann_analysis_gets_unit_synthesis(self):
        """Periodic hann alone satisfies COLA, so synthesis is flat ones."""
        cfg = FrameConfig(window_kind="hann")
        analysis, synthesis = cfg.windows
        assert np.all(synthesis == 1.0)
        product = analysis * synthesis
        cola = product.reshape(2, -1).sum(axis=0)
        np.testing.assert_allclose(cola, 1.0, rtol=1e-12)

    def test_rectangular_overlap_level_is_two(self):
        """Two overlapping flat frames sum to 2; synthesis divides it out."""
        cfg = FrameConfig(window_kind="rectangular")
        analysis, synthesis = cfg.windows
        assert np.all(analysis == 1.0)
        np.testing.assert_allclose(synthesis, 0.5, rtol=1e-12)

    def test_windows_are_read_only(self, frame_cfg):
        analysis, synthesis = frame_cfg.windows
        with pytest.raises(ValueError):
            analysis[0] = 2.0
        with pytest.raises(ValueError):
            synthesis[0] = 2.0

    def test_unknown_window_kind_rejected(self):
        with pytest.raises(ConfigError, match="window_kind"):
            FrameConfig(window_kind="blackman")


class TestFrameConfig:
    def test_defaults(self, frame_cfg):
        assert frame_cfg.sample_rate_hz == 16000
        assert frame_cfg.frame_len == 128
        assert frame_cfg.hop_len == 64
        assert frame_cfg.fft_len == 256
        assert frame_cfg.num_bins == 129

    def test_hop_must_divide_frame(self):
        with pytest.raises(ConfigError, match="hop_len"):
            FrameConfig(frame_len=128, hop_len=48)

    def test_fft_len_must_be_power_of_two(self):
        with pytest.raises(ConfigError, match="fft_len"):
            FrameConfig(fft_len=200)

    def test_fft_len_is_bounded(self):
        assert FrameConfig(fft_len=MAX_FFT_LEN).num_bins == MAX_FFT_LEN // 2 + 1
        with pytest.raises(ConfigError, match=f"fft_len must be at most {MAX_FFT_LEN}"):
            FrameConfig(fft_len=2 * MAX_FFT_LEN)

    def test_fft_len_must_cover_frame(self):
        with pytest.raises(ConfigError, match="fft_len"):
            FrameConfig(frame_len=128, hop_len=64, fft_len=64)

    def test_cutoff_must_be_below_nyquist(self):
        with pytest.raises(ConfigError, match="hpf_cutoff_hz"):
            FrameConfig(hpf_cutoff_hz=9000.0)


class TestAnalyzeSynthesize:
    def test_analyze_shape_and_power(self, frame_cfg):
        rng = np.random.default_rng(11)
        frame = rng.standard_normal(frame_cfg.frame_len)
        bins = analyze(frame, frame_cfg)
        assert bins.shape == (129,)
        np.testing.assert_array_equal(bin_power(bins), bins.real**2 + bins.imag**2)

    def test_analyze_rejects_wrong_length(self, frame_cfg):
        with pytest.raises(UsageError, match="128 samples"):
            analyze(np.zeros(64), frame_cfg)

    def test_sinusoid_lands_on_its_bin(self, frame_cfg):
        """A bin-centered tone concentrates at that rfft bin."""
        k = 16  # 16 * 16000 / 256 = 1000 Hz
        n = np.arange(frame_cfg.frame_len)
        frame = np.cos(2.0 * np.pi * k * n / frame_cfg.fft_len)
        power = bin_power(analyze(frame, frame_cfg))
        assert int(np.argmax(power[1:])) + 1 == k

    def test_unity_chain_reconstructs_input(self, frame_cfg):
        """analyze->synthesize with unity gains reconstructs the input
        perfectly once two frames overlap each output block."""
        rng = np.random.default_rng(12)
        hop, flen = frame_cfg.hop_len, frame_cfg.frame_len
        x = rng.standard_normal(hop * 40)
        tail = None
        out = []
        for f in range((x.size - flen) // hop + 1):
            bins = analyze(x[f * hop : f * hop + flen], frame_cfg)
            y, tail = synthesize(bins, tail, frame_cfg)
            out.append(y)
        y = np.concatenate(out)
        # output block f sums the two windowed copies of input block f,
        # complete from block 1 on
        np.testing.assert_allclose(y[hop:], x[hop : y.size], atol=1e-12)

    @pytest.mark.parametrize("fft_len", [2**k for k in range(1, 14)])
    def test_transforms_equal_numpys_bit_for_bit(self, fft_len):
        """analyze and synthesize run pocketfft's r2c and c2r from
        scipy.fft's extension; they give np.fft.rfft's and
        np.fft.irfft's bits, lone frame and block, over 300 decades of
        magnitude. No engine contract rests on this: a numpy or scipy
        that rounds differently fails here first, by name."""
        flen = max(2, fft_len // 2)  # zero-padded from fft_len 4 on
        cfg = FrameConfig(frame_len=flen, hop_len=flen // 2, fft_len=fft_len)
        analysis, synthesis = cfg.windows
        rng = np.random.default_rng(fft_len)
        scale = 10.0 ** rng.uniform(-150, 150, (5, 1))
        frames = rng.standard_normal((5, flen)) * scale
        for x in (frames[0], frames):
            bins = analyze(x, cfg)
            np.testing.assert_array_equal(bins, np.fft.rfft(x * analysis, n=fft_len))
        bins = bins * rng.uniform(0.0, 1.0, bins.shape)
        # the reference runs frame by frame, which the block form rounds as
        tail = rng.standard_normal(flen - cfg.hop_len) * scale[0]
        ref_tail = tail
        expected = []
        for row in bins:
            frame = np.fft.irfft(row, n=fft_len)[:flen] * synthesis
            frame[: -cfg.hop_len] += ref_tail
            ref_tail = frame[cfg.hop_len :]
            expected.append(frame[: cfg.hop_len])
        np.testing.assert_array_equal(synthesize(bins[0], tail, cfg)[0], expected[0])
        y, got_tail = synthesize(bins, tail, cfg)
        np.testing.assert_array_equal(y, np.concatenate(expected))
        np.testing.assert_array_equal(got_tail, ref_tail)


def _joined_synthesize(bins, tail, cfg):
    """synthesize's block form as it was before it wrote the first add
    into its output: join the carried tail and the frames' last hops,
    then add every other hop into the join; returns (output, tail)."""
    frames = framing._pocketfft.c2r(bins, (-1,), cfg.fft_len, False, 2)[..., : cfg.frame_len]
    frames *= cfg.windows[1]
    hop = cfg.hop_len
    n = len(frames)
    acc = np.concatenate((tail, frames[:, -hop:].reshape(-1)))
    rows = acc.reshape(-1, hop)
    for j in range(cfg.frame_len // hop - 2, -1, -1):
        rows[j : j + n] += frames[:, j * hop : (j + 1) * hop]
    return acc[: n * hop], acc[n * hop :]


def _cola_configs():
    """A FrameConfig for every frame_len // hop_len of 1 to 4 and every
    window kind that is constant-overlap-add at it."""
    for ratio in (1, 2, 3, 4):
        for kind in WINDOW_KINDS:
            try:
                yield FrameConfig(frame_len=32 * ratio, hop_len=32, fft_len=128, window_kind=kind)
            except ConfigError:
                pass


class TestOverlapAdd:
    @pytest.mark.parametrize(
        "cfg", list(_cola_configs()), ids=lambda c: f"{c.frame_len // c.hop_len}x-{c.window_kind}"
    )
    def test_equals_the_joined_copy(self, cfg):
        """Outputs and carried tails are byte for byte those of the
        joined-copy form, over blocks of 1, 2, 7 and BLOCK_FRAMES frames
        in turn, a lone frame between them. A lone frame's output owns
        its hop_len samples; it was once a view of the inverse
        transform's fft_len-sample buffer."""
        rng = np.random.default_rng(cfg.frame_len + len(cfg.window_kind))
        tail = ref = rng.standard_normal(cfg.frame_len - cfg.hop_len)
        for n in (1, 2, 7, BLOCK_FRAMES, 2, 1):
            for shape in ((n, cfg.frame_len), cfg.frame_len):
                block = rng.standard_normal(shape)
                bins = analyze(block, cfg) * rng.uniform(0.0, 1.0, cfg.num_bins)
                expected, ref = _joined_synthesize(bins.reshape(-1, cfg.num_bins), ref, cfg)
                got, tail = synthesize(bins, tail, cfg)
                assert got.tobytes() == expected.tobytes()
                assert tail.tobytes() == ref.tobytes()
                if block.ndim == 1:
                    assert got.base is None and got.nbytes == cfg.hop_len * 8


class TestHighPass:
    def test_design_blocks_dc_exactly(self):
        b, a = design_hpf(100.0, 16000)
        assert float(np.sum(b)) == 0.0

    def test_minus_three_db_at_cutoff(self):
        from scipy.signal import freqz

        b, a = design_hpf(100.0, 16000)
        w, h = freqz(b, a, worN=[100.0], fs=16000)
        assert abs(20.0 * np.log10(abs(h[0])) - (-3.0103)) < 0.01

    def test_passband_is_flat_at_1khz(self):
        from scipy.signal import freqz

        b, a = design_hpf(100.0, 16000)
        w, h = freqz(b, a, worN=[1000.0], fs=16000)
        assert 20.0 * np.log10(abs(h[0])) > -0.01

    def test_constant_input_decays_to_zero(self):
        hpf = design_hpf(100.0, 16000)
        y, _ = hpf_process(np.ones(16000), hpf, None)
        assert float(np.max(np.abs(y[-100:]))) < 1.2e-15

    def test_chunked_equals_whole(self):
        """Streaming state carries across arbitrary block splits, down to
        empty, 1- and 2-sample calls."""
        rng = np.random.default_rng(13)
        x = rng.standard_normal(40000)
        hpf = design_hpf(100.0, 16000)
        whole, _ = hpf_process(x, hpf, None)
        zi = None
        parts = []
        pos = 0
        for size in (0, 1, 2, 1, 0, 7, 300, 64, 2, 1000, 2000, 623, 1000, 35000):
            y, zi = hpf_process(x[pos : pos + size], hpf, zi)
            parts.append(y)
            pos += size
        assert pos == x.size
        np.testing.assert_array_equal(np.concatenate(parts), whole)

    @pytest.mark.parametrize(
        "cutoff_hz,sample_rate_hz",
        [(100.0, 16000), (50.0, 8000), (3000.0, 16000), (100.0, 48000),
         (1.0, 8000), (7000.0, 16000), (20.0, 48000)],
    )
    def test_design_matches_scipy_butter(self, cutoff_hz, sample_rate_hz):
        """The closed form gives scipy's coefficients to within rounding,
        from a 1 Hz cutoff to one near Nyquist."""
        from scipy.signal import butter

        b, a = design_hpf(cutoff_hz, sample_rate_hz)
        ref_b, ref_a = butter(2, cutoff_hz, btype="highpass", fs=sample_rate_hz)
        np.testing.assert_allclose(b, ref_b, rtol=0, atol=1e-15)
        np.testing.assert_allclose(a, ref_a, rtol=0, atol=1e-15)
        assert float(np.sum(b)) == 0.0

    def test_matches_a_direct_form_loop_bit_for_bit(self):
        """Direct form II transposed, rounded step by step in
        scipy.signal.lfilter's C order: y = z1 + b0 x,
        z1 = (z2 + b1 x) - a1 y, z2 = b2 x - a2 y."""
        rng = np.random.default_rng(14)
        x = rng.standard_normal(3000) * 10.0 ** rng.uniform(-3, 3, 3000)
        b, a = design_hpf(100.0, 16000)
        expected = np.empty_like(x)
        z1 = z2 = 0.0
        for i, xi in enumerate(x):
            y = z1 + b[0] * xi
            z1 = (z2 + b[1] * xi) - a[1] * y
            z2 = b[2] * xi - a[2] * y
            expected[i] = y
        np.testing.assert_array_equal(hpf_process(x, (b, a), None)[0], expected)

    def test_matches_lfilter_on_a_minute_of_noise(self):
        from scipy.signal import lfilter

        rng = np.random.default_rng(15)
        x = rng.standard_normal(60 * 16000)
        b, a = design_hpf(100.0, 16000)
        y, zi = hpf_process(x, (b, a), None)
        np.testing.assert_array_equal(y, lfilter(b, a, x))
        np.testing.assert_array_equal(zi, lfilter(b, a, x, zi=np.zeros(2))[1])

    def test_bad_cutoff_rejected(self):
        with pytest.raises(ConfigError):
            design_hpf(-5.0, 16000)
        with pytest.raises(ConfigError):
            design_hpf(8000.0, 16000)


class TestLatency:
    def test_default_preset_budget(self, frame_cfg):
        """8 ms frame + 4 ms hop of buffering stays under 16 ms."""
        ms = algorithmic_latency_ms(frame_cfg)
        assert ms == 12.0
        assert ms < 16.0

    def test_scales_with_frame_geometry(self):
        cfg = FrameConfig(frame_len=256, hop_len=128, fft_len=256)
        assert algorithmic_latency_ms(cfg) == 24.0

"""Framing layer: windows, COLA, transforms, high-pass, latency."""

import numpy as np
import pytest

from dualstage.errors import ConfigError, UsageError
from dualstage.framing import (
    FrameConfig,
    HpfState,
    MAX_FFT_LEN,
    OlaState,
    algorithmic_latency_ms,
    analyze,
    design_hpf,
    hpf_process,
    synthesize,
    windows_for,
)


class TestWindows:
    def test_sqrt_hann_pair_is_cola_at_half_overlap(self, frame_cfg):
        """Analysis*synthesis products shifted by hop sum to exactly 1."""
        analysis, synthesis = windows_for(frame_cfg)
        product = analysis * synthesis
        cola = product.reshape(frame_cfg.frame_len // frame_cfg.hop_len, -1).sum(axis=0)
        assert float(cola.mean()) == 1.0
        assert float(np.max(np.abs(cola - 1.0))) < 5e-16

    def test_hann_analysis_gets_unit_synthesis(self):
        """Periodic hann alone satisfies COLA, so synthesis is flat ones."""
        cfg = FrameConfig(window_kind="hann")
        analysis, synthesis = windows_for(cfg)
        assert np.all(synthesis == 1.0)
        product = analysis * synthesis
        cola = product.reshape(2, -1).sum(axis=0)
        np.testing.assert_allclose(cola, 1.0, rtol=1e-12)

    def test_rectangular_overlap_level_is_two(self):
        """Two overlapping flat frames sum to 2; synthesis divides it out."""
        cfg = FrameConfig(window_kind="rectangular")
        analysis, synthesis = windows_for(cfg)
        assert np.all(analysis == 1.0)
        np.testing.assert_allclose(synthesis, 0.5, rtol=1e-12)

    def test_windows_are_read_only(self, frame_cfg):
        analysis, synthesis = windows_for(frame_cfg)
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
        spec = analyze(frame, frame_cfg)
        assert spec.bins.shape == (129,)
        np.testing.assert_allclose(
            spec.power, spec.bins.real**2 + spec.bins.imag**2, rtol=1e-12
        )

    def test_analyze_rejects_wrong_length(self, frame_cfg):
        with pytest.raises(UsageError, match="128 samples"):
            analyze(np.zeros(64), frame_cfg)

    def test_sinusoid_lands_on_its_bin(self, frame_cfg):
        """A bin-centered tone concentrates at that rfft bin."""
        k = 16  # 16 * 16000 / 256 = 1000 Hz
        n = np.arange(frame_cfg.frame_len)
        frame = np.cos(2.0 * np.pi * k * n / frame_cfg.fft_len)
        spec = analyze(frame, frame_cfg)
        assert int(np.argmax(spec.power[1:])) + 1 == k

    def test_unity_chain_reconstructs_input(self, frame_cfg):
        """analyze->synthesize with unity gains reconstructs the input
        perfectly once two frames overlap each output block."""
        rng = np.random.default_rng(12)
        hop, flen = frame_cfg.hop_len, frame_cfg.frame_len
        x = rng.standard_normal(hop * 40)
        ola = OlaState.for_config(frame_cfg)
        out = []
        for f in range((x.size - flen) // hop + 1):
            spec = analyze(x[f * hop : f * hop + flen], frame_cfg)
            out.append(synthesize(spec, ola, frame_cfg))
        y = np.concatenate(out)
        # output block f sums the two windowed copies of input block f,
        # complete from block 1 on
        np.testing.assert_allclose(y[hop:], x[hop : y.size], atol=1e-12)


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
        state = HpfState()
        y = hpf_process(np.ones(16000), hpf, state)
        assert float(np.max(np.abs(y[-100:]))) < 1.2e-15

    def test_chunked_equals_whole(self):
        """Streaming state carries across arbitrary block splits."""
        rng = np.random.default_rng(13)
        x = rng.standard_normal(5000)
        hpf = design_hpf(100.0, 16000)
        whole = hpf_process(x, hpf, HpfState())
        state = HpfState()
        parts = []
        pos = 0
        for size in (1, 7, 300, 64, 1000, 2000, 628, 1000):
            parts.append(hpf_process(x[pos : pos + size], hpf, state))
            pos += size
        np.testing.assert_array_equal(np.concatenate(parts), whole)

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

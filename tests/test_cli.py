"""Command-line interface: verbs, exit codes, file outputs."""

import csv
import dataclasses
import itertools
import json
import os
import threading
import tracemalloc

import numpy as np
import pytest
from scipy.io import wavfile

import dualstage as ds
from dualstage import cli, pipeline
from dualstage.cli import main
from dualstage.config import config_dumps, config_to_dict
from dualstage.metrics import REPORT_COLUMNS, SnriReport
from conftest import pcm24_wav_bytes


def _numeric_leaves(doc, prefix=""):
    for key, value in doc.items():
        if isinstance(value, dict):
            yield from _numeric_leaves(value, f"{prefix}{key}.")
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            yield prefix + key


NUMERIC_LEAVES = list(_numeric_leaves(config_to_dict(ds.load_preset("communication"))))


def run(*argv):
    return main(list(argv))


def write_tone_wav(path, seconds=2.0, freq=440.0, fs=16000, subtype="pcm16"):
    t = np.arange(int(seconds * fs)) / fs
    ds.write_wav(path, 0.3 * np.sin(2 * np.pi * freq * t), fs, subtype)
    return path


def write_noise_wav(path, seconds=2.0, fs=16000, seed=0, level=0.1):
    rng = np.random.default_rng(seed)
    ds.write_wav(path, rng.normal(0.0, level, int(seconds * fs)), fs, "float32")
    return path


class TestExitCodes:
    def test_unknown_verb_is_usage_error(self, capsys):
        assert run("frobnicate") == 1
        assert "error" in capsys.readouterr().err

    def test_missing_input_file_is_io_error(self, tmp_path, capsys):
        assert run("enhance", str(tmp_path / "no.wav"), str(tmp_path / "o.wav")) == 2

    def test_stereo_input_is_validation_error(self, tmp_path, capsys):
        p = tmp_path / "st.wav"
        wavfile.write(p, 16000, np.zeros((1000, 2), dtype=np.int16))
        assert run("enhance", str(p), str(tmp_path / "o.wav")) == 1
        assert "mono" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_sample_is_input_error(self, tmp_path, capsys, bad):
        x = np.random.default_rng(1).normal(0.0, 0.1, 16000).astype(np.float32)
        x[4321] = bad
        p = tmp_path / "bad.wav"
        wavfile.write(p, 16000, x)
        assert run("enhance", str(p), str(tmp_path / "o.wav")) == 1
        assert "non-finite sample at stream index 4321" in capsys.readouterr().err
        assert not (tmp_path / "o.wav").exists()

    def test_preset_and_config_conflict(self, tmp_path, capsys):
        wav = write_tone_wav(tmp_path / "in.wav")
        cfg = tmp_path / "c.json"
        cfg.write_text(config_dumps(ds.load_preset("communication")))
        code = run(
            "enhance", str(wav), str(tmp_path / "o.wav"),
            "--preset", "communication", "--config", str(cfg),
        )
        assert code == 1

    def test_bad_override_value(self, tmp_path, capsys):
        wav = write_tone_wav(tmp_path / "in.wav")
        code = run(
            "enhance", str(wav), str(tmp_path / "o.wav"), "--set", "stage2.gains.mu=7"
        )
        assert code == 1
        assert "mu" in capsys.readouterr().err

    def test_wrong_sample_rate(self, tmp_path, capsys):
        p = tmp_path / "hi.wav"
        wavfile.write(p, 48000, np.zeros(48000, dtype=np.int16))
        assert run("enhance", str(p), str(tmp_path / "o.wav")) == 1
        assert "sample rate" in capsys.readouterr().err


class TestEnhance:
    def test_basic_run_reports_and_writes(self, tmp_path, capsys):
        wav = write_noise_wav(tmp_path / "in.wav")
        out = tmp_path / "out.wav"
        assert run("enhance", str(wav), str(out)) == 0
        msg = capsys.readouterr().out
        assert "realtime factor" in msg
        assert "latency 12.0 ms" in msg
        y, rate, subtype = ds.read_wav(out)
        assert (rate, subtype) == (16000, "float32")
        x, _, _ = ds.read_wav(wav)
        assert y.size == x.size
        # the reported count is that of the library call's gain log
        _, log = ds.process_stream(x, ds.load_preset("communication"), latency_aligned=True)
        assert f": {len(log)} frames," in msg

    def test_output_keeps_pcm16(self, tmp_path):
        wav = write_tone_wav(tmp_path / "in.wav", subtype="pcm16")
        out = tmp_path / "out.wav"
        assert run("enhance", str(wav), str(out)) == 0
        _, _, subtype = ds.read_wav(out)
        assert subtype == "pcm16"

    def test_deterministic_output(self, tmp_path):
        wav = write_noise_wav(tmp_path / "in.wav")
        a, b = tmp_path / "a.wav", tmp_path / "b.wav"
        assert run("enhance", str(wav), str(a)) == 0
        assert run("enhance", str(wav), str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_print_config_skips_processing(self, tmp_path, capsys):
        wav = tmp_path / "in.wav"  # deliberately absent
        out = tmp_path / "out.wav"
        code = run(
            "enhance", str(wav), str(out), "--print-config",
            "--set", "stage2.gains.mu=1.2",
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["stage2"]["gains"]["mu"] == 1.2
        assert not out.exists()

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("key", NUMERIC_LEAVES)
    def test_non_finite_leaf_is_config_error(self, tmp_path, capsys, key, value):
        """No numeric setting takes NaN or an infinity, whatever the
        JSON number type it holds."""
        code = run(
            "enhance", str(tmp_path / "in.wav"), str(tmp_path / "out.wav"),
            "--print-config", "--set", f"{key}={value}",
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("digits", [401, 5000])
    @pytest.mark.parametrize("key", NUMERIC_LEAVES)
    def test_huge_integer_leaf_is_config_error(self, tmp_path, capsys, key, digits):
        """An integer beyond the float range, or too long for Python to
        convert to a string, is refused like any other bad value."""
        code = run(
            "enhance", str(tmp_path / "in.wav"), str(tmp_path / "out.wav"),
            "--print-config", "--set", f"{key}=1{'0' * (digits - 1)}",
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_no_latency_compensation_shifts_output(self, tmp_path):
        wav = write_noise_wav(tmp_path / "in.wav")
        a, b = tmp_path / "a.wav", tmp_path / "b.wav"
        assert run("enhance", str(wav), str(a)) == 0
        assert run("enhance", str(wav), str(b), "--no-latency-compensation") == 0
        ya, _, _ = ds.read_wav(a)
        yb, _, _ = ds.read_wav(b)
        np.testing.assert_array_equal(yb[192 : ya.size], ya[: ya.size - 192])

    def test_tracker_dump(self, tmp_path):
        wav = write_noise_wav(tmp_path / "in.wav", seconds=0.5)
        out = tmp_path / "out.wav"
        dump = tmp_path / "trk.csv"
        assert run("enhance", str(wav), str(out), "--tracker-dump", str(dump)) == 0
        lines = dump.read_text().strip().splitlines()
        assert lines[0] == "frame,band,raw_noise,smoothed_noise"
        frames, bands = set(), set()
        for line in lines[1:]:
            f, b, raw, smooth = line.split(",")
            frames.add(int(f))
            bands.add(int(b))
            assert float(raw) >= 0.0 and float(smooth) >= 0.0
        assert bands == set(range(33))

    def test_spectrogram_dumps(self, tmp_path):
        wav = write_noise_wav(tmp_path / "in.wav", seconds=0.5)
        si, so = tmp_path / "in.csv", tmp_path / "out.csv"
        code = run(
            "enhance", str(wav), str(tmp_path / "o.wav"),
            "--dump-spectrogram-in", str(si), "--dump-spectrogram-out", str(so),
        )
        assert code == 0
        assert len(si.read_text().strip().splitlines()) > 50
        assert len(so.read_text().strip().splitlines()) > 50


FEED = cli._FEED_BLOCKS * pipeline.BLOCK_FRAMES * 64


def scipy_wav_bytes(path, y, subtype):
    """The file bytes scipy.io.wavfile.write makes of float64 samples y
    converted as write_wav converts them."""
    if subtype == "pcm16":
        data = np.clip(np.round(y * 32768.0), -32768, 32767).astype(np.int16)
    else:
        data = y.astype(np.float32)
    wavfile.write(path, 16000, data)
    return path.read_bytes()


class TestStreamedEnhance:
    """enhance reads, processes and writes block by block; its files are
    those of a whole-signal process_stream written by scipy."""

    @pytest.mark.parametrize("n", [0, 1, 63, FEED - 1, FEED, FEED + 1, 3 * FEED + 17])
    def test_output_is_process_stream_byte_for_byte(self, tmp_path, comm_cfg, n):
        x = 0.3 * np.random.default_rng(40).standard_normal(n)
        out, ref = tmp_path / "out.wav", tmp_path / "ref.wav"
        for subtype in ("pcm16", "float32"):
            src = tmp_path / f"in_{subtype}.wav"
            ds.write_wav(src, x, 16000, subtype)
            samples, _, _ = ds.read_wav(src)
            for single, aligned in itertools.product((False, True), (False, True)):
                flags = ["--single-stage"] * single + ["--no-latency-compensation"] * (not aligned)
                assert run("enhance", str(src), str(out), *flags) == 0
                y, _ = ds.process_stream(
                    samples, comm_cfg, single_stage=single, latency_aligned=aligned
                )
                assert out.read_bytes() == scipy_wav_bytes(ref, y, subtype)

    def test_in_place_equals_separate_output(self, tmp_path):
        wav = write_noise_wav(tmp_path / "a.wav", seconds=FEED * 2.5 / 16000)
        assert run("enhance", str(wav), str(tmp_path / "b.wav")) == 0
        assert run("enhance", str(wav), str(wav)) == 0
        assert wav.read_bytes() == (tmp_path / "b.wav").read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.wav", "b.wav"]

    def test_late_nan_leaves_existing_outputs_untouched(self, tmp_path, capsys):
        x = np.random.default_rng(41).normal(0.0, 0.1, 2 * FEED + 100).astype(np.float32)
        x[FEED + 1234] = np.nan
        src = tmp_path / "bad.wav"
        wavfile.write(src, 16000, x)
        out, dump = tmp_path / "o.wav", tmp_path / "trk.csv"
        out.write_bytes(b"earlier output")
        dump.write_bytes(b"earlier dump")
        assert run("enhance", str(src), str(out), "--tracker-dump", str(dump)) == 1
        err = capsys.readouterr().err
        assert err == f"error: non-finite sample at stream index {FEED + 1234}\n"
        assert out.read_bytes() == b"earlier output"
        assert dump.read_bytes() == b"earlier dump"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.wav", "o.wav", "trk.csv"]

    def test_unreadable_inputs_keep_their_exit_codes(self, tmp_path, capsys):
        """Each input rejected before an output is opened, with the exit
        code and message of a whole-file read."""
        stereo = tmp_path / "stereo.wav"
        wavfile.write(stereo, 16000, np.zeros((100, 2), dtype=np.int16))
        u8 = tmp_path / "u8.wav"
        wavfile.write(u8, 16000, np.full(100, 128, dtype=np.uint8))
        # scipy cannot memory-map 3-byte samples; they read as int32
        pcm24 = tmp_path / "pcm24.wav"
        pcm24.write_bytes(pcm24_wav_bytes(100))
        junk = tmp_path / "junk.wav"
        junk.write_bytes(b"not a wav at all")
        supported = "expected 16-bit PCM or 32-bit float"
        cases = [
            (stereo, 1, f"{stereo}: expected mono audio, file has 2 channels\n"),
            (u8, 1, f"{u8}: unsupported sample format uint8; {supported}\n"),
            (pcm24, 1, f"{pcm24}: unsupported sample format int32; {supported}\n"),
            (junk, 2, f"{junk}: not a readable WAV file (File format b'not '"),
            (tmp_path / "absent.wav", 2, "[Errno 2] No such file or directory"),
        ]
        out = tmp_path / "o.wav"
        for path, code, message in cases:
            assert run("enhance", str(path), str(out)) == code
            assert capsys.readouterr().err.startswith(f"error: {message}")
            assert not out.exists()

    def test_tracker_dump_rows_are_those_of_the_sink(self, tmp_path, comm_cfg):
        wav = write_noise_wav(tmp_path / "in.wav", seconds=(FEED + 500) / 16000)
        dump = tmp_path / "trk.csv"
        assert run("enhance", str(wav), str(tmp_path / "o.wav"), "--tracker-dump", str(dump)) == 0
        lines = ["frame,band,raw_noise,smoothed_noise"]

        def sink(frame, stage, raw, smoothed):
            if stage == 2:
                for band, (r, s) in enumerate(zip(raw, smoothed)):
                    lines.append(f"{frame},{band},{r:.8g},{s:.8g}")

        ds.process_stream(ds.read_wav(wav)[0], comm_cfg, latency_aligned=True, tracker_sink=sink)
        assert dump.read_text().splitlines() == lines

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_failed_tracker_dump_names_the_dump(self, tmp_path, capsys):
        """A dump that cannot be written (here a pipe whose reader has
        gone) fails with its own path, not the output's."""
        wav = write_noise_wav(tmp_path / "in.wav", seconds=2.0)
        dump = tmp_path / "trk.csv"
        os.mkfifo(dump)
        reader = threading.Thread(target=lambda: open(dump, "rb").close(), daemon=True)
        reader.start()
        try:
            code = run("enhance", str(wav), str(tmp_path / "o.wav"), "--tracker-dump", str(dump))
        finally:
            reader.join(timeout=10)
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {dump}: cannot write tracker dump (")
        assert not (tmp_path / "o.wav").exists()

    def test_memory_is_flat_in_file_length(self, tmp_path):
        """Peak traced allocation of enhance on a 10 min file is within
        2 MiB of that on a 1 min file."""
        rng = np.random.default_rng(42)
        peaks = []
        for minutes in (1, 10):
            wav = tmp_path / f"{minutes}min.wav"
            seconds = (rng.normal(0.0, 0.1, 16000) for _ in range(60 * minutes))
            ds.write_wav(wav, seconds, 16000, "float32", size=60 * minutes * 16000)
            tracemalloc.start()
            try:
                assert run("enhance", str(wav), str(tmp_path / "out.wav")) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < 2 * 2**20, peaks


class TestMix:
    def test_mix_writes_sidecars_that_sum(self, tmp_path, capsys):
        speech = write_tone_wav(tmp_path / "sp.wav")
        noise = write_noise_wav(tmp_path / "nz.wav")
        out = tmp_path / "mix.wav"
        assert run("mix", str(speech), str(noise), str(out), "--snr-db", "6") == 0
        mix, _, subtype = ds.read_wav(out)
        assert subtype == "float32"
        sp, _, _ = ds.read_wav(tmp_path / "mix.speech.wav")
        nz, _, _ = ds.read_wav(tmp_path / "mix.noise.wav")
        # float32 quantization is the only error budget
        np.testing.assert_allclose(sp + nz, mix, atol=1e-6)

    def test_short_noise_needs_loop_flag(self, tmp_path, capsys):
        speech = write_tone_wav(tmp_path / "sp.wav", seconds=2.0)
        noise = write_noise_wav(tmp_path / "nz.wav", seconds=0.5)
        out = tmp_path / "mix.wav"
        assert run("mix", str(speech), str(noise), str(out), "--snr-db", "0") == 1
        assert "--loop-noise" in capsys.readouterr().err
        assert run(
            "mix", str(speech), str(noise), str(out), "--snr-db", "0", "--loop-noise"
        ) == 0

    def test_rate_mismatch(self, tmp_path):
        speech = write_tone_wav(tmp_path / "sp.wav")
        p = tmp_path / "nz.wav"
        wavfile.write(p, 8000, np.zeros(32000, dtype=np.int16))
        assert run("mix", str(speech), str(p), str(tmp_path / "m.wav"), "--snr-db", "0") == 1


class TestEvaluate:
    def _matrix(self, tmp_path, **over):
        speech = write_tone_wav(tmp_path / "sp.wav", seconds=3.0)
        noise = write_noise_wav(tmp_path / "nz.wav", seconds=3.0)
        doc = {
            "speech": [str(speech)],
            "noise": [str(noise)],
            "snr_db": [0.0, 6.0],
            "presets": ["communication"],
        }
        doc.update(over)
        p = tmp_path / "matrix.json"
        p.write_text(json.dumps(doc))
        return p

    def test_row_count_is_the_product(self, tmp_path, capsys):
        m = self._matrix(tmp_path, snr_db=[0.0, 6.0], variants=["dual", "single"])
        out = tmp_path / "report.csv"
        assert run("evaluate", str(m), str(out)) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == ",".join(REPORT_COLUMNS)
        assert len(lines) == 1 + 1 * 1 * 2 * 1 * 2
        assert "4 rows" in capsys.readouterr().out

    def test_every_report_field_is_a_finite_column(self, tmp_path):
        m = self._matrix(tmp_path, variants=["dual", "single"])
        out = tmp_path / "report.csv"
        assert run("evaluate", str(m), str(out)) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        for row in rows:
            for field in dataclasses.fields(SnriReport):
                assert np.isfinite(float(row[field.name])), (field.name, row)

    def test_empty_matrix_writes_header_only(self, tmp_path):
        m = self._matrix(tmp_path, snr_db=[])
        out = tmp_path / "report.csv"
        assert run("evaluate", str(m), str(out)) == 0
        assert out.read_text().strip() == ",".join(REPORT_COLUMNS)

    def test_missing_wavs_fail_fast(self, tmp_path, capsys):
        m = self._matrix(tmp_path)
        doc = json.loads(m.read_text())
        doc["noise"].append(str(tmp_path / "ghost.wav"))
        m.write_text(json.dumps(doc))
        assert run("evaluate", str(m), str(tmp_path / "r.csv")) == 2
        assert "ghost.wav" in capsys.readouterr().err

    def test_unknown_matrix_key(self, tmp_path, capsys):
        m = self._matrix(tmp_path, extra_knob=1)
        assert run("evaluate", str(m), str(tmp_path / "r.csv")) == 1
        assert "extra_knob" in capsys.readouterr().err

    def test_missing_matrix_key(self, tmp_path, capsys):
        m = self._matrix(tmp_path)
        doc = json.loads(m.read_text())
        del doc["presets"]
        m.write_text(json.dumps(doc))
        assert run("evaluate", str(m), str(tmp_path / "r.csv")) == 1
        assert "presets" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key,value",
        [
            ("active_threshold_db", "loud"),
            ("active_threshold_db", [1]),
            ("active_threshold_db", float("nan")),
            ("measure_start_s", None),
            ("measure_start_s", float("inf")),
            ("loop_noise", "yes"),
            ("loop_noise", 1),
            ("overrides", ["stage2.gains.mu=1.2"]),
            ("variants", "dual"),
            ("snr_db", [True]),
        ],
    )
    def test_mistyped_matrix_value_is_a_usage_error(self, tmp_path, capsys, key, value):
        """Each mistyped or non-finite value exits 1 with one line that
        names its key, before any file is processed."""
        m = self._matrix(tmp_path, **{key: value})
        assert run("evaluate", str(m), str(tmp_path / "r.csv")) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and key in err, err
        assert not (tmp_path / "r.csv").exists()

    def test_overrides_change_results(self, tmp_path):
        m1 = self._matrix(tmp_path, snr_db=[0.0])
        out1 = tmp_path / "r1.csv"
        assert run("evaluate", str(m1), str(out1)) == 0

        doc = json.loads(m1.read_text())
        doc["overrides"] = {"stage2.gains.mu": 0.2}
        m2 = tmp_path / "matrix2.json"
        m2.write_text(json.dumps(doc))
        out2 = tmp_path / "r2.csv"
        assert run("evaluate", str(m2), str(out2)) == 0
        assert out1.read_text() != out2.read_text()


class TestBandplanAndPresets:
    def test_bandplan_csv(self, tmp_path):
        out = tmp_path / "bands.csv"
        assert run("bandplan", str(out)) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "band_index,low_bin,high_bin,center_hz"
        assert len(lines) == 34
        first = lines[1].split(",")
        assert (first[0], first[1], first[2]) == ("0", "0", "1")
        last = lines[-1].split(",")
        assert (last[0], last[2]) == ("32", "128")

    def test_bandplan_stdout(self, capsys):
        assert run("bandplan") == 0
        assert "band_index" in capsys.readouterr().out

    def test_presets_list(self, capsys):
        assert run("presets") == 0
        out = capsys.readouterr().out
        for name in ("communication", "voice-trigger", "multimedia"):
            assert name in out

    def test_presets_show(self, capsys):
        assert run("presets", "--show", "communication") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["num_bands"] == 33

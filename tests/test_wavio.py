"""WAV read/write round trips, block I/O and input rejection."""

import io
import os
import stat
import struct
import threading

import numpy as np
import pytest
from scipy.io import wavfile

import dualstage as ds
from conftest import pcm24_wav_bytes
from dualstage.errors import AudioIOError, InputError, InternalError
from dualstage.wavio import WavReader, wav_header


class TestRoundTrip:
    def test_pcm16(self, tmp_path):
        rng = np.random.default_rng(30)
        x = rng.integers(-32768, 32768, 5000).astype(np.int16) / 32768.0
        p = tmp_path / "a.wav"
        ds.write_wav(p, x, 16000, "pcm16")
        y, rate, subtype = ds.read_wav(p)
        assert (rate, subtype) == (16000, "pcm16")
        np.testing.assert_array_equal(y, x)

    def test_float32(self, tmp_path):
        rng = np.random.default_rng(31)
        x = rng.normal(0.0, 0.3, 5000).astype(np.float32).astype(np.float64)
        p = tmp_path / "a.wav"
        ds.write_wav(p, x, 16000, "float32")
        y, rate, subtype = ds.read_wav(p)
        assert (rate, subtype) == (16000, "float32")
        np.testing.assert_array_equal(y, x)

    def test_pcm16_clips_out_of_range(self, tmp_path):
        p = tmp_path / "a.wav"
        ds.write_wav(p, np.array([2.0, -2.0]), 16000, "pcm16")
        y, _, _ = ds.read_wav(p)
        assert y[0] == 32767 / 32768.0
        assert y[1] == -1.0

    @pytest.mark.parametrize("blocks", [False, True])
    def test_pcm16_refuses_nan(self, tmp_path, blocks):
        """A NaN once became a 0 sample on disk with only numpy's cast
        warning. Now it raises InputError naming the file and its index
        in the file, and the old file stays; infinities still clip."""
        p = tmp_path / "a.wav"
        p.write_bytes(b"old")
        x = np.zeros(300)
        x[240], x[250], x[270] = np.inf, np.nan, np.nan
        samples = (x[:200], x[200:]) if blocks else x
        with pytest.raises(InputError) as err:
            ds.write_wav(p, samples, 16000, "pcm16", size=300 if blocks else None)
        assert str(err.value) == f"{p}: sample 250 is nan, which a PCM16 WAV cannot hold"
        assert p.read_bytes() == b"old"
        assert [q.name for q in tmp_path.iterdir()] == ["a.wav"]
        ds.write_wav(p, np.array([np.inf, -np.inf, 0.5]), 16000, "pcm16")
        np.testing.assert_array_equal(ds.read_wav(p)[0], [32767 / 32768.0, -1.0, 0.5])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e39, -3.5e38])
    @pytest.mark.parametrize("blocks", [False, True])
    def test_float32_refuses_what_it_cannot_hold(self, tmp_path, bad, blocks):
        """A sample float32 cannot hold once became an infinity (or a
        NaN) on disk with only numpy's cast warning. Now it raises
        InputError naming the file and its index in the file, and the
        old file stays."""
        p = tmp_path / "a.wav"
        p.write_bytes(b"old")
        x = np.zeros(300)
        x[250] = x[270] = bad
        samples = (x[:200], x[200:]) if blocks else x
        with pytest.raises(InputError) as err:
            ds.write_wav(p, samples, 16000, "float32", size=300 if blocks else None)
        assert str(err.value) == f"{p}: sample 250 is {bad:g}, which a 32-bit float WAV cannot hold"
        assert p.read_bytes() == b"old"
        assert [q.name for q in tmp_path.iterdir()] == ["a.wav"]

    def test_float32_holds_its_largest_value(self, tmp_path):
        big = float(np.finfo(np.float32).max)
        p = tmp_path / "a.wav"
        ds.write_wav(p, np.array([big, -big, 0.5]), 16000, "float32")
        np.testing.assert_array_equal(ds.read_wav(p)[0], [big, -big, 0.5])


class TestRejection:
    def test_stereo(self, tmp_path):
        p = tmp_path / "stereo.wav"
        wavfile.write(p, 16000, np.zeros((100, 2), dtype=np.int16))
        with pytest.raises(InputError, match="expected mono audio, file has 2"):
            ds.read_wav(p)

    def test_unsupported_dtype(self, tmp_path):
        p = tmp_path / "i32.wav"
        wavfile.write(p, 16000, np.zeros(100, dtype=np.int32))
        with pytest.raises(InputError, match="unsupported sample format"):
            ds.read_wav(p)

    def test_pcm24_and_8_bit(self, tmp_path):
        p24 = tmp_path / "p24.wav"
        p24.write_bytes(pcm24_wav_bytes(101))
        with pytest.raises(InputError, match="unsupported sample format int32"):
            ds.read_wav(p24)
        u8 = tmp_path / "u8.wav"
        wavfile.write(u8, 16000, np.zeros(100, dtype=np.uint8))
        with pytest.raises(InputError, match="unsupported sample format uint8"):
            ds.read_wav(u8)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ds.read_wav(tmp_path / "nope.wav")

    def test_garbage_file(self, tmp_path):
        p = tmp_path / "junk.wav"
        p.write_bytes(b"not a wav at all")
        with pytest.raises(AudioIOError, match="not a readable WAV"):
            ds.read_wav(p)


class TestBlocks:
    @pytest.mark.parametrize("dtype", [np.int16, np.float32])
    @pytest.mark.parametrize("n", [0, 1, 1001])
    def test_file_equals_scipy_write(self, tmp_path, dtype, n):
        """Header and samples, written whole or in blocks, are the bytes
        scipy.io.wavfile.write produces."""
        rng = np.random.default_rng(32)
        x = rng.normal(0.0, 0.3, n)
        subtype = "pcm16" if dtype == np.int16 else "float32"
        data = np.clip(np.round(x * 32768), -32768, 32767) if dtype == np.int16 else x
        ref = tmp_path / "ref.wav"
        wavfile.write(ref, 16000, data.astype(dtype))
        whole, blocks = tmp_path / "whole.wav", tmp_path / "blocks.wav"
        ds.write_wav(whole, x, 16000, subtype)
        ds.write_wav(blocks, (x[i : i + 300] for i in range(0, n, 300)), 16000, subtype, size=n)
        assert whole.read_bytes() == ref.read_bytes()
        assert blocks.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize("dtype", [np.int16, np.float32])
    def test_rf64_header_equals_scipy(self, monkeypatch, dtype):
        """Both switch to RF64 at the same length, once the RIFF size
        field would overflow, and both fail alike where scipy's RIFF size
        leaves out the float fact chunk; only headers are compared, so
        scipy's sample writer is stubbed out."""
        monkeypatch.setattr(wavfile, "_array_tofile", lambda fid, data: fid.seek(data.nbytes, 1))

        def outcome(write):
            try:
                return write()
            except struct.error as exc:
                return str(exc)

        def scipy_header(n):
            buf = io.BytesIO()
            wavfile.write(buf, 16000, np.broadcast_to(np.zeros(1, dtype), (n,)))
            return buf.getvalue()

        width = np.dtype(dtype).itemsize
        last_riff = (0xFFFFFFFF - 12 - (24 if dtype == np.int16 else 26)) // width
        forms = set()
        for n in range(last_riff - 3, last_riff + 2):
            head = outcome(lambda: scipy_header(n))
            assert outcome(lambda: wav_header(16000, np.dtype(dtype).newbyteorder("<"), n)) == head
            forms.add(head[:4])
        assert {b"RIFF", b"RF64"} <= forms

    def test_reader_blocks_equal_whole_read(self, tmp_path):
        x = np.random.default_rng(33).normal(0.0, 0.3, 1001)
        p = tmp_path / "a.wav"
        ds.write_wav(p, x, 16000, "pcm16")
        whole, _, _ = ds.read_wav(p)
        with WavReader(p) as src:
            assert (src.rate, src.subtype, src.size) == (16000, "pcm16", 1001)
            blocks = list(src.blocks(300))
        assert [b.size for b in blocks] == [300, 300, 300, 101]
        np.testing.assert_array_equal(np.concatenate(blocks), whole)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_pipe_is_read_whole(self, tmp_path):
        """A pipe cannot be memory-mapped; it reads as a whole file."""
        src = tmp_path / "a.wav"
        ds.write_wav(src, np.random.default_rng(34).normal(0.0, 0.3, 1001), 16000, "pcm16")
        fifo = tmp_path / "pipe.wav"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(src.read_bytes(),), daemon=True)
        writer.start()
        try:
            y, rate, subtype = ds.read_wav(fifo)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        assert (rate, subtype) == (16000, "pcm16")
        np.testing.assert_array_equal(y, ds.read_wav(src)[0])

    def test_failed_write_leaves_the_old_file(self, tmp_path):
        p = tmp_path / "a.wav"
        p.write_bytes(b"old")

        def failing():
            yield np.zeros(10)
            raise InputError("bad block")

        with pytest.raises(InputError, match="bad block"):
            ds.write_wav(p, failing(), 16000, "float32", size=20)
        with pytest.raises(InternalError, match="10 samples written, header says 20"):
            ds.write_wav(p, [np.zeros(10)], 16000, "float32", size=20)
        assert p.read_bytes() == b"old"
        assert [q.name for q in tmp_path.iterdir()] == ["a.wav"]

    def test_unwritable_path_is_audio_io_error(self, tmp_path):
        with pytest.raises(AudioIOError, match="cannot write WAV file"):
            ds.write_wav(tmp_path / "absent" / "a.wav", np.zeros(10), 16000, "float32")

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_pipe_output_is_written_directly(self, tmp_path):
        """A path that is not a regular file (a pipe, a device) is
        written through, not replaced by a file."""
        x = np.random.default_rng(35).normal(0.0, 0.3, 1001)
        ref = tmp_path / "ref.wav"
        ds.write_wav(ref, x, 16000, "float32")
        fifo = tmp_path / "pipe.wav"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        try:
            ds.write_wav(fifo, x, 16000, "float32")
        finally:
            reader.join(timeout=10)
        assert got == [ref.read_bytes()]
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert sorted(q.name for q in tmp_path.iterdir()) == ["pipe.wav", "ref.wav"]

    def test_symlink_output_is_written_through(self, tmp_path):
        target, link = tmp_path / "target.wav", tmp_path / "link.wav"
        target.write_bytes(b"old")
        link.symlink_to(target)
        ds.write_wav(link, np.zeros(10), 16000, "float32")
        assert link.is_symlink()
        assert ds.read_wav(target)[0].tolist() == [0.0] * 10
        assert sorted(q.name for q in tmp_path.iterdir()) == ["link.wav", "target.wav"]

    def test_replaced_file_keeps_its_mode(self, tmp_path):
        p = tmp_path / "a.wav"
        p.write_bytes(b"old")
        p.chmod(0o640)
        ds.write_wav(p, np.zeros(10), 16000, "float32")
        assert stat.S_IMODE(p.stat().st_mode) == 0o640

    def test_cut_data_chunk_reads_what_it_holds(self, tmp_path):
        """A data chunk running past the end of the file cannot be
        memory-mapped; it reads as scipy reads it, warning included."""
        p = tmp_path / "a.wav"
        ds.write_wav(p, np.arange(100) / 128.0, 16000, "float32")
        p.write_bytes(p.read_bytes()[:-41])
        with pytest.warns(wavfile.WavFileWarning, match="Reached EOF prematurely"):
            y, _, _ = ds.read_wav(p)
        np.testing.assert_array_equal(y, np.arange(89) / 128.0)

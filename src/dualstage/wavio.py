"""Mono WAV read/write, whole or block by block.

Accepts 16-bit PCM and 32-bit float files, hands samples around as
float64 in [-1, 1), and writes back in the subtype that came in so a
pass-through run is bit exact. WavReader parses the header once and
reads the samples in blocks; write_wav writes the header for the known
length, then each block as it comes, so neither holds more than a block
of a long file. read_wav and a one-array write_wav are their one-block
case. Reading parses the header with scipy.io.wavfile, loaded on the
first read (its import builds a 260-member IntEnum); writing needs no
codec.
"""

import contextlib
import io
import os
import stat
import struct

import numpy as np

from ._scipy import leaf
from .errors import AudioIOError, InputError, InternalError, UsageError

PCM16 = "pcm16"
FLOAT32 = "float32"

_PCM_SCALE = 32768.0
_FLOAT32_MAX = float(np.finfo(np.float32).max)

# little-endian sample types on disk, as scipy.io.wavfile writes them
_DISK_DTYPES = {PCM16: np.dtype("<i2"), FLOAT32: np.dtype("<f4")}


class WavReader:
    """A mono 16-bit PCM or 32-bit float WAV file open for block reads.

    The header is parsed once, by scipy.io.wavfile, so a file reads the
    way scipy reads it; rate, subtype and size (the sample count) are
    known from then on. read(n) returns the next n samples as float64.
    Normally the samples come from the file at the data offset, and
    memory does not grow with the file's length; a file scipy cannot
    memory-map (24-bit samples, a data chunk cut short, a pipe) is read
    whole once, which names the first's format and keeps what the
    others hold.
    """

    def __init__(self, path):
        self.path = path
        try:
            # scipy maps regular files only
            rate, data = leaf("scipy.io.wavfile").read(path, mmap=os.path.isfile(path))
        except FileNotFoundError:
            raise
        except (ValueError, OSError):
            rate, data = _read_whole(path)
        if data.ndim != 1:
            raise InputError(f"{path}: expected mono audio, file has {data.shape[1]} channels")
        for subtype, dtype in _DISK_DTYPES.items():
            if data.dtype == dtype:
                break
        else:
            raise InputError(
                f"{path}: unsupported sample format {data.dtype}; "
                f"expected 16-bit PCM or 32-bit float"
            )
        self.rate, self.subtype, self.size = int(rate), subtype, data.size
        self._dtype = dtype
        self._left = data.size
        if isinstance(data, np.memmap):
            # only the layout is kept: pages a map touches count as resident
            offset = data.offset
            del data
            self._fh = open(path, "rb")
            self._fh.seek(offset)
        else:
            self._fh = io.BytesIO(data.tobytes())

    def read(self, n: int) -> np.ndarray:
        """The next n samples (fewer at the end) as float64."""
        n = min(n, self._left)
        try:
            raw = self._fh.read(n * self._dtype.itemsize)
        except OSError as exc:
            raise AudioIOError(f"{self.path}: cannot read WAV samples ({exc})") from exc
        if len(raw) != n * self._dtype.itemsize:
            raise AudioIOError(f"{self.path}: file ended before its {self.size} samples")
        self._left -= n
        x = np.frombuffer(raw, dtype=self._dtype).astype(np.float64)
        if self.subtype == PCM16:
            x /= _PCM_SCALE
        return x

    def blocks(self, n: int):
        """Yield the remaining samples in blocks of n (the last shorter)."""
        while self._left:
            yield self.read(n)

    def close(self) -> None:
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


def _read_whole(path):
    try:
        return leaf("scipy.io.wavfile").read(path)
    except FileNotFoundError:
        raise
    except (ValueError, OSError) as exc:
        raise AudioIOError(f"{path}: not a readable WAV file ({exc})") from exc


def read_wav(path):
    """Read a mono WAV file.

    Returns (samples as float64, sample rate, subtype), where subtype
    is "pcm16" or "float32".
    """
    with WavReader(path) as src:
        return src.read(src.size), src.rate, src.subtype


def write_wav(path, samples, sample_rate_hz: int, subtype: str = PCM16, *, size=None) -> None:
    """Write mono float64 samples as 16-bit PCM or 32-bit float.

    samples is one array or, with size given, an iterable of 1-D blocks
    of size samples in all, each converted and written as it comes. The
    file is written beside path and replaces it only once complete, so a
    failed write leaves path as it was. The bytes are those
    scipy.io.wavfile.write produces for the whole signal. A NaN, or a
    float32 sample that float32 cannot hold (an infinity or a magnitude
    beyond its largest value), raises InputError naming its index.
    """
    if size is None:
        x = np.asarray(samples, dtype=np.float64)
        if x.ndim != 1:
            raise UsageError(f"{path}: expected mono audio, got shape {x.shape}")
        samples, size = (x,), x.size
    if subtype not in _DISK_DTYPES:
        raise UsageError(f"unsupported output subtype {subtype!r}")
    header = wav_header(int(sample_rate_hz), _DISK_DTYPES[subtype], size)
    with replacing(path, "wb", "WAV file") as fh:
        write = guarded(fh.write, path, "WAV file")
        write(header)
        written = 0
        for block in samples:
            payload = _encode(block, subtype, path, written)
            write(payload.data)
            written += payload.size
        if written != size:
            raise InternalError(f"{path}: {written} samples written, header says {size}")


def _encode(samples, subtype: str, path, start: int) -> np.ndarray:
    """samples in subtype's disk type, PCM16 clipped to its range. A
    NaN, or a float32 sample beyond float32's range, raises InputError
    naming path and its index in the file, start being that of samples[0]."""
    x = np.asarray(samples, dtype=np.float64)
    if subtype == PCM16:
        x = np.clip(np.round(x * _PCM_SCALE), -32768, 32767)
        if (nan := np.isnan(x)).any():
            i = int(np.argmax(nan))
            raise InputError(f"{path}: sample {start + i} is nan, which a PCM16 WAV cannot hold")
    else:
        held = np.abs(x) <= _FLOAT32_MAX  # False for NaN as well
        if not held.all():
            i = int(np.argmin(held))
            raise InputError(
                f"{path}: sample {start + i} is {x[i]:g}, which a 32-bit float WAV cannot hold"
            )
    return x.astype(_DISK_DTYPES[subtype])


def wav_header(rate: int, dtype: np.dtype, size: int) -> bytes:
    """Every byte scipy.io.wavfile.write puts before the samples of a
    mono signal of size samples of dtype; RF64 above 4 GiB, as there."""
    float_data = dtype.kind == "f"
    width = dtype.itemsize
    fmt = struct.pack("<HHIIHH", 3 if float_data else 1, 1, rate, rate * width, width, 8 * width)
    if float_data:
        fmt += b"\x00\x00"  # cbSize, for non-PCM formats
    nbytes = size * width
    fact = b"fact" + struct.pack("<II", 4, size) if float_data else b""
    fmt_chunk = b"fmt " + struct.pack("<I", len(fmt)) + fmt
    data_chunk = b"data" + struct.pack("<I", min(nbytes, 0xFFFFFFFF))
    # scipy picks RF64 by the RIFF size without the fact chunk
    if 12 + len(fmt_chunk) + nbytes <= 0xFFFFFFFF:
        riff_size = 12 + len(fmt_chunk) + len(fact) + len(data_chunk) + nbytes - 8
        return b"RIFF" + struct.pack("<I", riff_size) + b"WAVE" + fmt_chunk + fact + data_chunk
    ds64 = b"ds64" + struct.pack("<I", 28)
    head = 12 + len(ds64) + 28 + len(fmt_chunk) + len(fact) + len(data_chunk)
    ds64 += struct.pack("<QQQI", head + nbytes - 8, nbytes, size, 0)
    return b"RF64\xff\xff\xff\xffWAVE" + ds64 + fmt_chunk + fact + data_chunk


@contextlib.contextmanager
def replacing(path, mode: str, what: str, **kwargs):
    """Open path for writing what (say "WAV file").

    A regular file, or one not there yet, is written beside path, through
    any symlink, and replaces it, with its mode and owner, once the block
    completes; on any error it is removed, so path is either the whole
    new file or as it was before. Anything else (a pipe, a device) is
    written directly. An OSError of the open, close or replace is raised
    as an AudioIOError naming path.
    """
    try:
        old = os.stat(path)
    except OSError:
        old = None  # not there yet, or the open below reports why
    regular = old is None or stat.S_ISREG(old.st_mode)
    target = os.path.realpath(path) if regular else path
    tmp = f"{target}.{os.getpid()}.part" if regular else None
    try:
        fh = open(tmp or target, mode, **kwargs)
    except OSError as exc:
        raise AudioIOError(f"{path}: cannot write {what} ({exc})") from exc
    try:
        yield fh
    except BaseException:
        with contextlib.suppress(OSError):
            fh.close()
        _remove(tmp)
        raise
    try:
        fh.close()
        if tmp is not None:
            if old is not None:
                os.chmod(tmp, stat.S_IMODE(old.st_mode))
                with contextlib.suppress(OSError):  # only root may give a file away
                    os.chown(tmp, old.st_uid, old.st_gid)
            os.replace(tmp, target)
    except OSError as exc:
        _remove(tmp)
        raise AudioIOError(f"{path}: cannot write {what} ({exc})") from exc


def guarded(write, path, what: str):
    """write, raising an OSError as an AudioIOError naming path and what."""

    def guarded_write(data):
        try:
            write(data)
        except OSError as exc:
            raise AudioIOError(f"{path}: cannot write {what} ({exc})") from exc

    return guarded_write


def _remove(tmp) -> None:
    if tmp is not None:
        with contextlib.suppress(OSError):
            os.unlink(tmp)

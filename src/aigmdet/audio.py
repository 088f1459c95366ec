"""Waveform ingestion and rate/channel normalization: WAV I/O, to_mono
and a polyphase resampler.

WAV support is deliberately narrow: RIFF/WAVE with PCM 16-bit or IEEE
float32 on read, PCM 16-bit on write.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .dsp import ANALYSIS_RATE, log_mel
from .errors import InputError


MIN_RATE, MAX_RATE = 8000, 192000
# the largest float32 WAV sample magnitude load_wav reads: int16 scale, some
# 3e12 times below the 1e17 or so at which log_mel's float32 power overflows
MAX_FLOAT_SAMPLE = 2.0 ** 15
# the largest sample magnitude an AudioBuffer holds: 4 x MAX_FLOAT_SAMPLE, over
# the up to 2.83 x by which resample raises a WAV's peak, and far below that overflow
MAX_BUFFER_SAMPLE = 2.0 ** 17


@dataclass
class AudioBuffer:
    """Sampled waveform, [channels x frames] in [-1, 1]: a float32 or
    float64 array is kept in its dtype, and anything else is cast to
    float64; a sample that is not finite or above MAX_BUFFER_SAMPLE in
    magnitude is an InputError.  load_wav gives float32 rows, and to_mono
    and resample keep their input's dtype, so a WAV stays float32 up to
    dsp.stft, which reads float32; a rendered track stays float64 up to
    save_wav."""

    samples: np.ndarray
    sample_rate: int
    # the row's log-mel, filled by log_mel
    _log_mel: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        samples = np.asarray(self.samples)
        if samples.dtype not in (np.float32, np.float64):
            samples = samples.astype(np.float64)
        self.samples = np.atleast_2d(samples)
        if not (MIN_RATE <= self.sample_rate <= MAX_RATE):
            raise InputError(f"sample rate {self.sample_rate} outside [{MIN_RATE}, {MAX_RATE}]")
        if self.samples.ndim != 2 or self.samples.shape[0] < 1:
            raise InputError("samples must be [channels x frames] with >= 1 channel")
        # a NaN, which min and max propagate, fails these tests, as an infinity does
        if self.samples.size and not (-MAX_BUFFER_SAMPLE <= self.samples.min()
                                      and self.samples.max() <= MAX_BUFFER_SAMPLE):
            raise InputError(f"samples must be finite and lie in "
                             f"[-{MAX_BUFFER_SAMPLE:g}, {MAX_BUFFER_SAMPLE:g}]")

    @property
    def channels(self) -> int:
        return self.samples.shape[0]

    @property
    def frames(self) -> int:
        return self.samples.shape[1]

    @property
    def duration(self) -> float:
        return self.frames / self.sample_rate

    def log_mel(self) -> np.ndarray:
        """dsp.log_mel of a 16 kHz mono buffer's row, computed once and
        read-only; InputError for any other rate or channel count.  Beat
        analysis and the segment features share it."""
        if self.sample_rate != ANALYSIS_RATE or self.channels != 1:
            raise InputError(f"log-mel needs {ANALYSIS_RATE} Hz mono, got "
                             f"{self.sample_rate} Hz with {self.channels} channel(s)")
        if self._log_mel is None:
            self._log_mel = log_mel(self.samples[0])
            self._log_mel.setflags(write=False)
        return self._log_mel


# ----------------------------------------------------------------------
# RIFF/WAVE
def load_wav(path) -> AudioBuffer:
    """Read a PCM16 or float32 RIFF/WAVE file into float32 rows, PCM16 in
    [-1, 1] (int16 / 32768 is exact in float32), float32 samples as they
    are: finite, and within MAX_FLOAT_SAMPLE."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise InputError(str(exc)) from exc
    except ValueError as exc:  # a NUL byte in the path
        raise InputError(f"{path!r}: {exc}") from exc

    if len(blob) < 12 or blob[:4] != b"RIFF" or blob[8:12] != b"WAVE":
        raise InputError("not a RIFF/WAVE file")

    fmt = None
    data = None
    pos = 12
    view = memoryview(blob)  # chunks are slices of the file, not copies
    while pos + 8 <= len(blob):
        cid = blob[pos:pos + 4]
        (size,) = struct.unpack_from("<I", blob, pos + 4)
        body = view[pos + 8:pos + 8 + size]
        if cid == b"fmt ":
            if len(body) < 16:
                raise InputError("fmt chunk too small")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
        elif cid == b"data":
            if len(body) < size:
                raise InputError("data chunk shorter than declared")
            data = body
        pos += 8 + size + (size & 1)

    if fmt is None or data is None:
        raise InputError("missing fmt or data chunk")

    audio_fmt, channels, rate, _, _, bits = fmt
    if channels < 1:
        raise InputError("zero channels")
    if (audio_fmt, bits) not in ((1, 16), (3, 32)):
        raise InputError(f"format {audio_fmt}/{bits}-bit not supported")
    if len(data) % (channels * bits // 8):
        raise InputError("data length not a multiple of frame size")
    raw = np.frombuffer(data, dtype="<i2" if audio_fmt == 1 else "<f4")
    if audio_fmt == 3:
        # checked before the cast, which warns on a signalling NaN, and
        # before the bound, which a NaN would pass
        if not np.isfinite(raw).all():
            raise InputError("float32 samples must be finite")
        peak = max(-raw.min(initial=0), raw.max(initial=0))
        if peak > MAX_FLOAT_SAMPLE:
            raise InputError(f"float32 samples must lie in [-{MAX_FLOAT_SAMPLE:g}, "
                             f"{MAX_FLOAT_SAMPLE:g}], got {peak:g}")
    # deinterleaved as it is cast: one contiguous row per channel
    samples = raw.reshape(-1, channels).T.astype(np.float32, order="C")
    if audio_fmt == 1:
        samples /= 32768.0
    return AudioBuffer(samples, rate)


def save_wav(buf: AudioBuffer, path):
    """Write 16-bit PCM; samples clamped to [-1, 1] before quantization."""
    scaled = np.clip(buf.samples, -1.0, 1.0)
    scaled *= 32768.0
    np.round(scaled, out=scaled)
    np.clip(scaled, -32768, 32767, out=scaled)
    interleaved = np.ascontiguousarray(scaled.T, dtype="<i2")
    channels, rate = buf.channels, buf.sample_rate
    byte_rate = rate * channels * 2
    header = (
        b"RIFF" + struct.pack("<I", 36 + interleaved.nbytes) + b"WAVE"
        + b"fmt " + struct.pack("<IHHIIHH", 16, 1, channels, rate, byte_rate, channels * 2, 16)
        + b"data" + struct.pack("<I", interleaved.nbytes)
    )
    try:
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(interleaved)
    except OSError as exc:
        raise InputError(str(exc)) from exc


def to_mono(buf: AudioBuffer) -> AudioBuffer:
    """The channel mean, in the input's dtype (the mean of two PCM16
    channels is exact in float32), as one pass over the rows and an
    in-place divide; a mono buffer is returned as it is."""
    if buf.channels == 1:
        return buf
    mono = np.add.reduce(buf.samples, axis=0, keepdims=True)
    mono /= buf.channels
    return AudioBuffer(mono, buf.sample_rate)


# ----------------------------------------------------------------------
# polyphase windowed-sinc resampler (J. O. Smith, "Digital Audio
# Resampling", CCRMA).  The rate ratio is an exact fraction up/down, so
# output n reads the input at n*down/up and its kernel depends only on the
# phase n mod up.  The kernel is a Kaiser (beta=8) windowed sinc with 32
# zero crossings per side and cutoff min(1, up/down).
# The output is cut into blocks of k*up samples, k = ceil(_GROUP/up), and
# block j reads the input from j*k*down on, so output j*k*up + p has the
# same kernel and the same offset into its block's input for every j.  The
# block's phases p are split into groups of at most _GROUP, and a group's
# outputs in every block are a matrix product: the rows of input it reads,
# k*down samples apart, times a banded [span x phases] matrix that holds
# each phase's kernel at its offset.  The rows overlap, so numpy copies
# them for BLAS; taking _ROW_CHUNK rows at a time bounds that copy.  The
# rows are read from the input itself; a chunk that reaches before its
# first sample or past its last is copied into zeros first.
# The bands, the zero-filled chunks and the output are in the input's
# dtype, so float32 rows (load_wav's) run sgemm and float64 rows dgemm.
# They are built once per rate pair and dtype in a process and shared
# read-only: at 44.1 -> 16 kHz the build took 2.8 ms of a 14 s clip's 8.8.
# The output rows are padded to whole chunks, and each product takes at
# most _K_PIECE rows of the band; the partial products of a span are added
# in numpy in a fixed order.  Both rules are there so that BLAS threads
# split each product into whole kernel tiles and never split its sums, so
# the output bytes do not depend on the thread count.  _ROW_CHUNK is
# 3 x 128 rows: at 256, the Haswell and Zen sgemm kernels gave other bytes
# on 2 threads than on 1.  OpenBLAS's x86-64 sgemm and dgemm kernels,
# Prescott to Cooperlake, give the same bytes on 1 and 2 threads, and
# without either rule some of them do not.  The sums run in another order
# than the direct form's, so the output matches it to about 1e-15 in
# float64 and 1e-6 in float32, not bit for bit.
_KAISER_BETA = 8.0
_SINC_TAPS = 32
_GROUP = 64
_K_PIECE = 128
_ROW_CHUNK = 384


@functools.lru_cache(maxsize=8)
def _phase_bands(up: int, down: int, phases: int, dtype: np.dtype):
    """The kernel's half width, and (first phase, input offset, band) for
    each group of consecutive phases among the first `phases` of a block,
    at rate ratio up/down, each band in `dtype` and read-only."""
    cutoff = min(1.0, up / down)
    half = int(np.ceil(_SINC_TAPS / cutoff))
    # output p of a block sits base[p] + frac/up input samples past its
    # start, where frac, and so the kernel, depends only on p mod up
    base = np.arange(phases) * down // up
    frac = np.arange(min(up, phases)) * down % up
    t = frac[:, None] / up - np.arange(-half + 1, half + 1)[None, :]
    window = np.i0(_KAISER_BETA * np.sqrt(1.0 - (t / half) ** 2)) / np.i0(_KAISER_BETA)
    table = cutoff * np.sinc(cutoff * t) * window
    groups = []
    for group in np.array_split(np.arange(phases), -(-phases // _GROUP)):
        offsets = base[group] - base[group[0]]
        band = np.zeros((offsets[-1] + 2 * half, len(group)), dtype=dtype)
        band[offsets[:, None] + np.arange(2 * half), np.arange(len(group))[:, None]] = table[group % up]
        band.setflags(write=False)
        groups.append((int(group[0]), int(base[group[0]]), band))
    return half, tuple(groups)


def _input_rows(samples: np.ndarray, lo: int, count: int, span: int, step: int) -> np.ndarray:
    """[channels x count x span]: row i holds samples lo + i*step onwards,
    zero before the first sample and past the last; a view of `samples`
    unless it reaches outside them, else a copy in their dtype."""
    channels, frames = samples.shape
    hi = lo + (count - 1) * step + span
    if 0 <= lo and hi <= frames:
        part = samples[:, lo:hi]
    else:
        part = np.zeros((channels, hi - lo), dtype=samples.dtype)
        a, b = max(lo, 0), min(hi, frames)
        if a < b:
            part[:, a - lo:b - lo] = samples[:, a:b]
    return np.lib.stride_tricks.sliding_window_view(part, span, axis=1)[:, ::step]


def _resample(samples: np.ndarray, up: int, down: int) -> np.ndarray:
    """[channels x frames] at rate ratio up/down (coprime), in the dtype
    of `samples` (float32 or float64)."""
    channels, frames = samples.shape
    n_out = round(frames * up / down)
    if n_out == 0:
        return np.zeros((channels, 0), dtype=samples.dtype)
    k = -(-_GROUP // up)
    phases = min(k * up, n_out)
    blocks = -(-n_out // (phases * _ROW_CHUNK)) * _ROW_CHUNK
    half, groups = _phase_bands(up, down, phases, samples.dtype)
    out = np.empty((channels, blocks, phases), dtype=samples.dtype)
    for first, offset, band in groups:
        span, width = band.shape
        for r in range(0, blocks, _ROW_CHUNK):
            # the window for base b starts at input sample b + 1 - half
            chunk = _input_rows(samples, offset + 1 - half + r * k * down, _ROW_CHUNK,
                                span, k * down)
            acc = chunk[..., :_K_PIECE] @ band[:_K_PIECE]
            for s in range(_K_PIECE, span, _K_PIECE):
                acc += chunk[..., s:s + _K_PIECE] @ band[s:s + _K_PIECE]
            out[:, r:r + _ROW_CHUNK, first:first + width] = acc
    return np.ascontiguousarray(out.reshape(channels, -1)[:, :n_out])


# the kernel table has a row per phase; 16000/44101 would need 16000 rows
_MAX_PHASES = 1000


def resample(buf: AudioBuffer, target_rate: int) -> AudioBuffer:
    """Polyphase resampling at the reduced ratio up/down = target/source rate.
    Where up > _MAX_PHASES, source/target is replaced by its closest fraction
    with a denominator <= _MAX_PHASES; the true output rate is then within
    0.05% of target_rate.  A buffer already at target_rate is returned as
    it is."""
    if not (MIN_RATE <= target_rate <= MAX_RATE):
        raise InputError(f"target rate {target_rate}")
    if target_rate == buf.sample_rate:
        return buf
    ratio = Fraction(buf.sample_rate, target_rate).limit_denominator(_MAX_PHASES)
    return AudioBuffer(_resample(buf.samples, ratio.denominator, ratio.numerator),
                       target_rate)

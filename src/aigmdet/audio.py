"""Waveform ingestion and rate/channel normalization: WAV I/O, to_mono
and a polyphase resampler.

WAV support is deliberately narrow: RIFF/WAVE with PCM 16-bit or IEEE
float32 on read, PCM 16-bit on write.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


class AudioError(Exception):
    pass


class MalformedHeader(AudioError):
    pass


class UnsupportedEncoding(AudioError):
    pass


class TruncatedData(AudioError):
    pass


class IoFailure(AudioError):
    pass


class InvalidRate(AudioError):
    pass


MIN_RATE, MAX_RATE = 8000, 192000


@dataclass
class AudioBuffer:
    """Sampled waveform, [channels x frames] float64 in [-1, 1]."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = np.atleast_2d(np.asarray(self.samples, dtype=np.float64))
        if not (MIN_RATE <= self.sample_rate <= MAX_RATE):
            raise InvalidRate(f"sample rate {self.sample_rate} outside [{MIN_RATE}, {MAX_RATE}]")
        if self.samples.ndim != 2 or self.samples.shape[0] < 1:
            raise AudioError("samples must be [channels x frames] with >= 1 channel")
        if self.samples.size and not np.isfinite(self.samples).all():
            raise AudioError("samples must be finite")

    @property
    def channels(self) -> int:
        return self.samples.shape[0]

    @property
    def frames(self) -> int:
        return self.samples.shape[1]

    @property
    def duration(self) -> float:
        return self.frames / self.sample_rate

    def slice_seconds(self, start_s: float, end_s: float) -> "AudioBuffer":
        """A view of [start_s, end_s): it shares the samples of this buffer."""
        i0 = int(round(start_s * self.sample_rate))
        i1 = int(round(end_s * self.sample_rate))
        return AudioBuffer(self.samples[:, i0:i1], self.sample_rate)


# ----------------------------------------------------------------------
# RIFF/WAVE
def load_wav(path) -> AudioBuffer:
    """Read a PCM16 or float32 RIFF/WAVE file, scaled to [-1, 1]."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise IoFailure(str(exc)) from exc
    except ValueError as exc:  # a NUL byte in the path
        raise IoFailure(f"{path!r}: {exc}") from exc

    if len(blob) < 12 or blob[:4] != b"RIFF" or blob[8:12] != b"WAVE":
        raise MalformedHeader("not a RIFF/WAVE file")

    fmt = None
    data = None
    pos = 12
    while pos + 8 <= len(blob):
        cid = blob[pos:pos + 4]
        (size,) = struct.unpack_from("<I", blob, pos + 4)
        body = blob[pos + 8:pos + 8 + size]
        if cid == b"fmt ":
            if len(body) < 16:
                raise MalformedHeader("fmt chunk too small")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
        elif cid == b"data":
            if len(body) < size:
                raise TruncatedData("data chunk shorter than declared")
            data = body
        pos += 8 + size + (size & 1)

    if fmt is None or data is None:
        raise MalformedHeader("missing fmt or data chunk")

    audio_fmt, channels, rate, _, _, bits = fmt
    if channels < 1:
        raise MalformedHeader("zero channels")
    if (audio_fmt, bits) not in ((1, 16), (3, 32)):
        raise UnsupportedEncoding(f"format {audio_fmt}/{bits}-bit not supported")
    if len(data) % (channels * bits // 8):
        raise TruncatedData("data length not a multiple of frame size")
    if audio_fmt == 1:
        raw = np.frombuffer(data, dtype="<i2").astype(np.float64) / 32768.0
    else:
        raw = np.frombuffer(data, dtype="<f4").astype(np.float64)
    samples = raw.reshape(-1, channels).T
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
        raise IoFailure(str(exc)) from exc


def to_mono(buf: AudioBuffer) -> AudioBuffer:
    """The channel mean; a mono buffer is returned as it is."""
    if buf.channels == 1:
        return buf
    return AudioBuffer(buf.samples.mean(axis=0, keepdims=True), buf.sample_rate)


# ----------------------------------------------------------------------
# polyphase windowed-sinc resampler (J. O. Smith, "Digital Audio
# Resampling", CCRMA).  The rate ratio is an exact fraction up/down, so
# output n reads the input at n*down/up and its kernel depends only on the
# phase n mod up.  The kernel (Kaiser beta=8, 32 zero crossings per side,
# cutoff min(1, up/down)) is tabulated once per call as [phases x 2*half];
# the outputs of one phase read input windows `down` samples apart, so each
# phase is one strided matrix-vector product.
_KAISER_BETA = 8.0
_SINC_TAPS = 32


def _resample(samples: np.ndarray, up: int, down: int) -> np.ndarray:
    """[channels x frames] at rate ratio up/down (coprime)."""
    n_out = round(samples.shape[1] * up / down)
    if n_out == 0:
        return np.zeros((samples.shape[0], 0))
    cutoff = min(1.0, up / down)
    half = int(np.ceil(_SINC_TAPS / cutoff))
    # output n0 + m*up sits at input position b0 + m*down + frac/up
    b0, frac = np.divmod(np.arange(min(up, n_out)) * down, up)
    t = frac[:, None] / up - np.arange(-half + 1, half + 1)[None, :]
    window = np.i0(_KAISER_BETA * np.sqrt(1.0 - (t / half) ** 2)) / np.i0(_KAISER_BETA)
    table = cutoff * np.sinc(cutoff * t) * window
    # with `half` zeros in front, the window for base b starts at index b+1
    padded = np.pad(samples, ((0, 0), (half, half)))
    windows = np.lib.stride_tricks.sliding_window_view(padded, 2 * half, axis=1)
    out = np.empty((samples.shape[0], n_out))
    for n0, (b, kernel) in enumerate(zip(b0, table)):
        count = len(range(n0, n_out, up))
        out[:, n0::up] = windows[:, b + 1::down][:, :count] @ kernel
    return out


# the kernel table has a row per phase; 16000/44101 would need 16000 rows
_MAX_PHASES = 1000


def resample(buf: AudioBuffer, target_rate: int) -> AudioBuffer:
    """Polyphase resampling at the reduced ratio up/down = target/source rate.
    Where up > _MAX_PHASES, source/target is replaced by its closest fraction
    with a denominator <= _MAX_PHASES; the true output rate is then within
    0.05% of target_rate.  A buffer already at target_rate is returned as
    it is."""
    if not (MIN_RATE <= target_rate <= MAX_RATE):
        raise InvalidRate(f"target rate {target_rate}")
    if target_rate == buf.sample_rate:
        return buf
    ratio = Fraction(buf.sample_rate, target_rate).limit_denominator(_MAX_PHASES)
    return AudioBuffer(_resample(buf.samples, ratio.denominator, ratio.numerator),
                       target_rate)

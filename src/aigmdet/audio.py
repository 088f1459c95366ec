"""Waveform ingestion, rate/channel normalization, and pitch shift and
time stretch (phase vocoder) for perturbing test audio.

WAV support is deliberately narrow: RIFF/WAVE with PCM 16-bit or IEEE
float32 on read, PCM 16-bit on write.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

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


class OutOfRangeShift(AudioError):
    pass


class OutOfRangeFactor(AudioError):
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

    def copy(self) -> "AudioBuffer":
        return AudioBuffer(self.samples.copy(), self.sample_rate)

    def slice_seconds(self, start_s: float, end_s: float) -> "AudioBuffer":
        i0 = int(round(start_s * self.sample_rate))
        i1 = int(round(end_s * self.sample_rate))
        return AudioBuffer(self.samples[:, i0:i1].copy(), self.sample_rate)


# ----------------------------------------------------------------------
# RIFF/WAVE
def load_wav(path) -> AudioBuffer:
    """Read a PCM16 or float32 RIFF/WAVE file, scaled to [-1, 1]."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise IoFailure(str(exc)) from exc

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
    if audio_fmt == 1 and bits == 16:
        raw = np.frombuffer(data, dtype="<i2").astype(np.float64) / 32768.0
    elif audio_fmt == 3 and bits == 32:
        raw = np.frombuffer(data, dtype="<f4").astype(np.float64)
    else:
        raise UnsupportedEncoding(f"format {audio_fmt}/{bits}-bit not supported")

    if raw.size % channels:
        raise TruncatedData("data length not a multiple of frame size")
    samples = raw.reshape(-1, channels).T
    return AudioBuffer(samples, rate)


def save_wav(buf: AudioBuffer, path):
    """Write 16-bit PCM; samples clamped to [-1, 1] before quantization."""
    clamped = np.clip(buf.samples, -1.0, 1.0)
    quantized = np.clip(np.round(clamped * 32768.0), -32768, 32767).astype("<i2")
    interleaved = quantized.T.reshape(-1).tobytes()
    channels, rate = buf.channels, buf.sample_rate
    byte_rate = rate * channels * 2
    header = (
        b"RIFF" + struct.pack("<I", 36 + len(interleaved)) + b"WAVE"
        + b"fmt " + struct.pack("<IHHIIHH", 16, 1, channels, rate, byte_rate, channels * 2, 16)
        + b"data" + struct.pack("<I", len(interleaved))
    )
    try:
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(interleaved)
    except OSError as exc:
        raise IoFailure(str(exc)) from exc


def to_mono(buf: AudioBuffer) -> AudioBuffer:
    if buf.channels == 1:
        return buf.copy()
    return AudioBuffer(buf.samples.mean(axis=0, keepdims=True), buf.sample_rate)


# ----------------------------------------------------------------------
# windowed-sinc resampler (Kaiser beta=8, 32 zero crossings per side)
_KAISER_BETA = 8.0
_SINC_TAPS = 32


def _resample_channel(x: np.ndarray, ratio: float) -> np.ndarray:
    n_out = int(round(len(x) * ratio))
    if n_out == 0 or len(x) == 0:
        return np.zeros(n_out)
    cutoff = min(1.0, ratio)
    half = int(np.ceil(_SINC_TAPS / cutoff))
    offsets = np.arange(-half + 1, half + 1)
    out = np.empty(n_out)
    # block the output so the [block x taps] workspace stays small
    block = max(1, (1 << 22) // (2 * half))
    for lo in range(0, n_out, block):
        hi = min(lo + block, n_out)
        pos = np.arange(lo, hi) / ratio
        base = np.floor(pos).astype(np.int64)
        idx = base[:, None] + offsets[None, :]
        t = pos[:, None] - idx
        window = np.zeros_like(t)
        inside = np.abs(t) <= half
        arg = np.clip(1.0 - (t[inside] / half) ** 2, 0.0, None)
        window[inside] = np.i0(_KAISER_BETA * np.sqrt(arg)) / np.i0(_KAISER_BETA)
        kernel = cutoff * np.sinc(cutoff * t) * window
        valid = (idx >= 0) & (idx < len(x))
        gathered = np.where(valid, x[np.clip(idx, 0, len(x) - 1)], 0.0)
        out[lo:hi] = (gathered * kernel).sum(axis=1)
    return out


def resample(buf: AudioBuffer, target_rate: int) -> AudioBuffer:
    if not (MIN_RATE <= target_rate <= MAX_RATE):
        raise InvalidRate(f"target rate {target_rate}")
    if target_rate == buf.sample_rate:
        return buf.copy()
    ratio = target_rate / buf.sample_rate
    out = np.stack([_resample_channel(ch, ratio) for ch in buf.samples])
    return AudioBuffer(out, target_rate)


# ----------------------------------------------------------------------
# phase vocoder (frame 1024, hop 256, Hann)
_PV_FRAME = 1024
_PV_HOP = 256


def _stretch_channel(x: np.ndarray, factor: float) -> np.ndarray:
    """Stretch one channel; factor is a playback-speed multiplier."""
    n_out = int(round(len(x) / factor))
    if len(x) < _PV_FRAME * 2:
        # too short for vocoding; fall back to linear interpolation
        src = np.linspace(0, len(x) - 1, n_out) if len(x) else np.zeros(0)
        return np.interp(src, np.arange(len(x)), x) if len(x) else np.zeros(n_out)

    syn_hop = _PV_HOP
    ana_hop = max(1, int(round(_PV_HOP * factor)))
    window = np.hanning(_PV_FRAME)
    n_frames = 1 + (len(x) - _PV_FRAME) // ana_hop

    starts = np.arange(n_frames) * ana_hop
    frames = np.stack([x[s:s + _PV_FRAME] for s in starts]) * window
    spectra = np.fft.rfft(frames, axis=1)
    mags = np.abs(spectra)
    phases = np.angle(spectra)

    bin_freqs = 2.0 * np.pi * np.arange(_PV_FRAME // 2 + 1) / _PV_FRAME
    out_len = (n_frames - 1) * syn_hop + _PV_FRAME
    out = np.zeros(out_len)
    norm = np.zeros(out_len)

    syn_phase = phases[0].copy()
    win_sq = window * window
    for i in range(n_frames):
        if i == 0:
            frame_spec = mags[0] * np.exp(1j * syn_phase)
        else:
            delta = phases[i] - phases[i - 1] - bin_freqs * ana_hop
            delta = delta - 2.0 * np.pi * np.round(delta / (2.0 * np.pi))
            true_freq = bin_freqs + delta / ana_hop
            syn_phase = syn_phase + true_freq * syn_hop
            frame_spec = mags[i] * np.exp(1j * syn_phase)
        seg = np.fft.irfft(frame_spec) * window
        s = i * syn_hop
        out[s:s + _PV_FRAME] += seg
        norm[s:s + _PV_FRAME] += win_sq

    out = out / np.maximum(norm, 1e-8)
    if len(out) >= n_out:
        return out[:n_out]
    return np.concatenate([out, np.zeros(n_out - len(out))])


def time_stretch(buf: AudioBuffer, factor: float) -> AudioBuffer:
    """Change duration by 1/factor while preserving pitch."""
    if not 0.5 <= factor <= 2.0:
        raise OutOfRangeFactor(f"factor {factor} outside [0.5, 2.0]")
    if factor == 1.0:
        return buf.copy()
    out = np.stack([_stretch_channel(ch, factor) for ch in buf.samples])
    return AudioBuffer(out, buf.sample_rate)


def pitch_shift(buf: AudioBuffer, semitones: int) -> AudioBuffer:
    """Shift pitch by resampling then stretching back to original length."""
    if abs(semitones) > 12:
        raise OutOfRangeShift(f"|semitones| must be <= 12, got {semitones}")
    if semitones == 0:
        return buf.copy()
    ratio = 2.0 ** (-semitones / 12.0)
    resampled = np.stack([_resample_channel(ch, ratio) for ch in buf.samples])
    shifted = AudioBuffer(resampled, buf.sample_rate)
    return time_stretch(shifted, ratio)


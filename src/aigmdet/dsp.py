"""Spectral front-end: STFT, HTK log-mel, onset envelope, and the
deterministic DSP segment embedder used when no external embeddings are
available.

One fixed analysis setting (Hann, frame 1024, hop 256 at 16 kHz) is used
throughout so downstream oracles stay stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .audio import AudioBuffer

FRAME_LEN = 1024
HOP = 256
LOG_EPS = 1e-10
EMBED_SEED = 42
EMBED_MELS = 40


class DspError(Exception):
    pass


class BadFrameParams(DspError):
    pass


class BadBand(DspError):
    pass


class TooShort(DspError):
    pass


@dataclass
class Spectrogram:
    magnitudes: np.ndarray  # [frames x bins], nonnegative
    frame_len: int
    hop: int
    sample_rate: int

    @property
    def bins(self) -> int:
        return self.frame_len // 2 + 1


@dataclass
class MelSpectrogram:
    values: np.ndarray  # [frames x n_mels], log-compressed
    n_mels: int
    fmin: float
    fmax: float
    hop_s: float


def stft(mono: AudioBuffer, frame_len: int = FRAME_LEN, hop: int = HOP) -> Spectrogram:
    """Hann-windowed magnitude STFT of a mono buffer."""
    if mono.channels != 1:
        raise BadFrameParams("stft expects a mono buffer")
    if frame_len & (frame_len - 1) or frame_len <= 0:
        raise BadFrameParams("frame_len must be a power of two")
    if not 0 < hop <= frame_len:
        raise BadFrameParams("need 0 < hop <= frame_len")
    x = mono.samples[0]
    n = len(x)
    if n < frame_len:
        mags = np.zeros((0, frame_len // 2 + 1))
    else:
        n_frames = 1 + (n - frame_len) // hop
        starts = np.arange(n_frames) * hop
        window = np.hanning(frame_len)
        frames = np.lib.stride_tricks.as_strided(
            x, shape=(n_frames, frame_len),
            strides=(x.strides[0] * hop, x.strides[0]),
        ) * window
        mags = np.abs(np.fft.rfft(frames, axis=1))
    return Spectrogram(mags, frame_len, hop, mono.sample_rate)


def _hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def _mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@lru_cache(maxsize=16)
def mel_filterbank(n_mels: int, frame_len: int, rate: int,
                   fmin: float = 0.0, fmax: float | None = None) -> np.ndarray:
    """Triangular HTK-scale filters, [n_mels x bins]."""
    if fmax is None:
        fmax = rate / 2.0
    if n_mels < 8:
        raise BadBand("n_mels must be >= 8")
    if not fmin < fmax <= rate / 2.0:
        raise BadBand(f"need fmin < fmax <= rate/2, got [{fmin}, {fmax}] at {rate} Hz")
    bins = frame_len // 2 + 1
    freqs = np.arange(bins) * rate / frame_len
    mel_points = np.linspace(_hz_to_mel(fmin), _hz_to_mel(fmax), n_mels + 2)
    hz_points = _mel_to_hz(mel_points)
    fb = np.zeros((n_mels, bins))
    for i in range(n_mels):
        left, center, right = hz_points[i], hz_points[i + 1], hz_points[i + 2]
        up = (freqs - left) / max(center - left, 1e-12)
        down = (right - freqs) / max(right - center, 1e-12)
        fb[i] = np.clip(np.minimum(up, down), 0.0, None)
    fb.setflags(write=False)
    return fb


def mel_center_freqs(n_mels: int, fmin: float, fmax: float) -> np.ndarray:
    mel_points = np.linspace(_hz_to_mel(fmin), _hz_to_mel(fmax), n_mels + 2)
    return _mel_to_hz(mel_points[1:-1])


def log_mel(spec: Spectrogram, fb: np.ndarray) -> MelSpectrogram:
    """values = ln(fb @ power + eps)."""
    if fb.shape[1] != spec.bins:
        raise BadFrameParams(f"filterbank bins {fb.shape[1]} vs spectrogram {spec.bins}")
    power = spec.magnitudes**2
    values = np.log(power @ fb.T + LOG_EPS)
    rate = spec.sample_rate
    return MelSpectrogram(values, fb.shape[0], 0.0, rate / 2.0, spec.hop / rate)


def onset_envelope(mel: MelSpectrogram) -> np.ndarray:
    """Half-wave-rectified, mean-subtracted spectral flux of a log-mel."""
    v = mel.values
    if v.shape[0] < 2:
        raise TooShort("need at least 2 frames")
    flux = np.clip(v[1:] - v[:-1], 0.0, None).sum(axis=1)
    env = np.concatenate([[0.0], flux])
    env = env - env.mean()
    return np.clip(env, 0.0, None)


@lru_cache(maxsize=8)
def _projection(dim: int, stat_dim: int) -> np.ndarray:
    rng = np.random.default_rng(EMBED_SEED)
    mat = rng.normal(0.0, 1.0 / np.sqrt(stat_dim), size=(stat_dim, dim))
    mat.setflags(write=False)
    return mat


def dsp_embed(segment: AudioBuffer, dim: int) -> np.ndarray:
    """Fixed-seed embedding of a mono segment: per-band log-mel statistics
    (mean, std, max, mean positive flux) projected to `dim`, L2-normalized."""
    if segment.channels != 1:
        raise BadFrameParams("dsp_embed expects a mono segment")
    if segment.duration < 0.2:
        raise TooShort(f"segment of {segment.duration:.3f} s is below 0.2 s")
    spec = stft(segment)
    fb = mel_filterbank(EMBED_MELS, spec.frame_len, segment.sample_rate)
    mel = log_mel(spec, fb).values  # [frames x mels]
    flux = np.clip(np.diff(mel, axis=0), 0.0, None)
    stats = np.concatenate([
        mel.mean(axis=0),
        mel.std(axis=0),
        mel.max(axis=0),
        flux.mean(axis=0) if len(flux) else np.zeros(EMBED_MELS),
    ])
    vec = stats @ _projection(dim, stats.size)
    norm = np.linalg.norm(vec)
    return vec / norm if norm > 0 else vec

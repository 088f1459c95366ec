"""Spectral front end: STFT, HTK log-mel, onset envelope, and the
deterministic DSP segment embedder used when no external embeddings are
available.

Every input is brought to 16 kHz mono (ANALYSIS_RATE) once, by
`pipeline.analysis_buffer`, before it reaches this module.  `log_mel` is
the one STFT -> power -> mel -> log recipe (Hann window, hop 256, N_MELS
bands); onset analysis and `dsp_embed` run it at frame 1024, the sequence
extractor at frame 512.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .audio import AudioBuffer

ANALYSIS_RATE = 16000
FRAME_LEN = 1024
HOP = 256
N_MELS = 40
LOG_EPS = 1e-10
EMBED_SEED = 42


class BadFrameParams(Exception):
    pass


class TooShort(Exception):
    pass


@dataclass
class Spectrogram:
    magnitudes: np.ndarray  # [frames x bins], nonnegative


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
        window = np.hanning(frame_len)
        frames = np.lib.stride_tricks.as_strided(
            x, shape=(n_frames, frame_len),
            strides=(x.strides[0] * hop, x.strides[0]),
        ) * window
        mags = np.abs(np.fft.rfft(frames, axis=1))
    return Spectrogram(mags)


def _hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def _mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@lru_cache(maxsize=16)
def mel_filterbank(frame_len: int, rate: int) -> np.ndarray:
    """N_MELS triangular HTK-scale filters from 0 Hz to rate/2, [N_MELS x bins]."""
    bins = frame_len // 2 + 1
    freqs = np.arange(bins) * rate / frame_len
    mel_points = np.linspace(_hz_to_mel(0.0), _hz_to_mel(rate / 2.0), N_MELS + 2)
    hz_points = _mel_to_hz(mel_points)
    fb = np.zeros((N_MELS, bins))
    for i in range(N_MELS):
        left, center, right = hz_points[i], hz_points[i + 1], hz_points[i + 2]
        up = (freqs - left) / max(center - left, 1e-12)
        down = (right - freqs) / max(right - center, 1e-12)
        fb[i] = np.clip(np.minimum(up, down), 0.0, None)
    fb.setflags(write=False)
    return fb


def log_mel(mono: AudioBuffer, frame_len: int = FRAME_LEN, hop: int = HOP) -> np.ndarray:
    """ln(|STFT|^2 @ mel_filterbank.T + LOG_EPS), [frames x N_MELS]."""
    power = stft(mono, frame_len, hop).magnitudes**2
    return np.log(power @ mel_filterbank(frame_len, mono.sample_rate).T + LOG_EPS)


def onset_envelope(mel: np.ndarray) -> np.ndarray:
    """Half-wave-rectified, mean-subtracted spectral flux of a log-mel."""
    if mel.shape[0] < 2:
        raise TooShort("need at least 2 frames")
    flux = np.clip(mel[1:] - mel[:-1], 0.0, None).sum(axis=1)
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
    if segment.duration < 0.2:
        raise TooShort(f"segment of {segment.duration:.3f} s is below 0.2 s")
    mel = log_mel(segment)
    flux = np.clip(np.diff(mel, axis=0), 0.0, None)
    stats = np.concatenate([
        mel.mean(axis=0),
        mel.std(axis=0),
        mel.max(axis=0),
        flux.mean(axis=0) if len(flux) else np.zeros(N_MELS),
    ])
    vec = stats @ _projection(dim, stats.size)
    norm = np.linalg.norm(vec)
    return vec / norm if norm > 0 else vec

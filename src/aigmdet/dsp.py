"""Spectral front end: STFT, HTK log-mel, onset envelope, and dsp_embed,
a segment's 160 per-band log-mel statistics, which stand in for the
fixed-length embedding of a pretrained encoder.

Every input is brought to 16 kHz mono (ANALYSIS_RATE) once, by
`pipeline.analysis_buffer`; this module reads that buffer's sample row.
`log_mel` is the one STFT -> power -> mel -> log recipe (Hann window of
FRAME_LEN samples, hop HOP, N_MELS bands), and `AudioBuffer.log_mel` runs
it once per track.  Onset analysis and every extractor read that one
log-mel; a segment is a range of its frames (`segment_frames`).  It works
through the row in fixed blocks of LOG_MEL_BLOCK frames into a
preallocated output, so beyond that [frames x N_MELS] output its memory
does not grow with track length.

Precision: a WAV's samples are float32 from `audio.load_wav` through
`to_mono` and the resampler, so `stft` reads that 16 kHz row without a
copy; a float64 row (a rendered track) is cast a block at a time.  The
window, the framed samples, the rFFT (scipy.fft, which keeps float32 input
in float32), the power and the mel product are float32; each block's mel
power is cast to float64 before LOG_EPS is added and the log taken, so
`log_mel` and everything that reads it is float64.  int16 / 32768 is exact
in float32, so a 16 kHz PCM16 WAV gives the log-mel bytes of its float64
row; a 44.1 kHz WAV is resampled in float32, so its log-mel, and its
score, move by rounding against a float64 resampler.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np
import scipy.fft

from .errors import AnalysisError

ANALYSIS_RATE = 16000
FRAME_LEN = 1024
HOP = 256
N_MELS = 40
LOG_EPS = 1e-10
MIN_SEGMENT_S = 0.2
# frames per STFT block of log_mel: one block's float32 spectra take about
# 3 MB, and the last block, which takes the remainder, at most twice that
LOG_MEL_BLOCK = 256


@dataclass
class Spectrogram:
    magnitudes: np.ndarray  # [frames x bins], float32, nonnegative


def _frame_count(samples: int) -> int:
    """Number of whole frames stft takes from a row of `samples`."""
    return max(0, 1 + (samples - FRAME_LEN) // HOP)


@cache
def hann_window() -> np.ndarray:
    """np.hanning(FRAME_LEN) in float32, computed once; read-only."""
    window = np.hanning(FRAME_LEN).astype(np.float32)
    window.setflags(write=False)
    return window


def stft(x: np.ndarray) -> Spectrogram:
    """Hann-windowed magnitude STFT of a 16 kHz sample row, frame FRAME_LEN,
    hop HOP, in float32."""
    x = np.asarray(x, dtype=np.float32)
    frames = np.lib.stride_tricks.as_strided(
        x, shape=(_frame_count(len(x)), FRAME_LEN),
        strides=(x.strides[0] * HOP, x.strides[0]),
    ) * hann_window()
    return Spectrogram(np.abs(scipy.fft.rfft(frames, axis=1)))


def _hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def _mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@cache
def mel_filterbank() -> np.ndarray:
    """N_MELS triangular HTK-scale filters up to ANALYSIS_RATE/2, [N_MELS x bins],
    computed in float64 and stored in float32; read-only."""
    bins = FRAME_LEN // 2 + 1
    freqs = np.arange(bins) * ANALYSIS_RATE / FRAME_LEN
    mel_points = np.linspace(_hz_to_mel(0.0), _hz_to_mel(ANALYSIS_RATE / 2.0), N_MELS + 2)
    hz_points = _mel_to_hz(mel_points)
    fb = np.zeros((N_MELS, bins), dtype=np.float32)
    for i in range(N_MELS):
        left, center, right = hz_points[i], hz_points[i + 1], hz_points[i + 2]
        up = (freqs - left) / max(center - left, 1e-12)
        down = (right - freqs) / max(right - center, 1e-12)
        fb[i] = np.clip(np.minimum(up, down), 0.0, None)
    fb.setflags(write=False)
    return fb


def log_mel(x: np.ndarray) -> np.ndarray:
    """ln(|STFT|^2 @ mel_filterbank.T + LOG_EPS), [frames x N_MELS], float64.

    The float32 mel power is cast to float64 before LOG_EPS is added.
    Computed LOG_MEL_BLOCK frames at a time; the last block also takes the
    remainder, so no mel product has fewer rows than a block.  OpenBLAS
    takes another path for a product of a few rows and rounds it
    differently, and no output row may depend on where the blocks fall."""
    n_frames = _frame_count(len(x))
    fb_t = mel_filterbank().T
    out = np.empty((n_frames, N_MELS))
    starts = range(0, max(n_frames - LOG_MEL_BLOCK, 0) + 1, LOG_MEL_BLOCK)
    for start, stop in zip(starts, [*starts[1:], n_frames]):
        power = stft(x[start * HOP:(stop - 1) * HOP + FRAME_LEN]).magnitudes**2
        block = out[start:stop]
        np.add(power @ fb_t, LOG_EPS, out=block, dtype=np.float64)
        np.log(block, out=block)
    return out


def segment_frames(start: int, stop: int) -> slice:
    """The frames of a whole row's log_mel that lie wholly inside its
    samples [start, stop): [ceil(start/HOP), (stop - FRAME_LEN)//HOP + 1).
    AnalysisError if they are fewer than a row of MIN_SEGMENT_S holds."""
    first, end = -(-start // HOP), (stop - FRAME_LEN) // HOP + 1
    need = _frame_count(round(MIN_SEGMENT_S * ANALYSIS_RATE))
    if end - first < need:
        raise AnalysisError(f"segment of {max(end - first, 0)} frames is below the {need} "
                            f"frames of {MIN_SEGMENT_S} s")
    return slice(first, end)


def onset_envelope(mel: np.ndarray) -> np.ndarray:
    """Half-wave-rectified, mean-subtracted spectral flux of a log-mel."""
    if mel.shape[0] < 2:
        raise AnalysisError("need at least 2 frames")
    flux = np.clip(mel[1:] - mel[:-1], 0.0, None).sum(axis=1)
    env = np.concatenate([[0.0], flux])
    env = env - env.mean()
    return np.clip(env, 0.0, None)


def dsp_embed(mel: np.ndarray) -> np.ndarray:
    """Whole-segment statistics of a segment's log-mel frames (at least
    the MIN_SEGMENT_S that segment_frames asks for): the mean, std, max and
    mean positive flux of each band, [4 N_MELS], L2-normalized."""
    flux = np.clip(np.diff(mel, axis=0), 0.0, None)
    stats = np.concatenate([mel.mean(axis=0), mel.std(axis=0), mel.max(axis=0),
                            flux.mean(axis=0)])
    norm = np.linalg.norm(stats)
    return stats / norm if norm > 0 else stats

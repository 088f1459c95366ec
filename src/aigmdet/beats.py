"""Tempo estimation, dynamic-programming beat tracking, downbeat phase
selection, arithmetic-grid quantization, and 4-bar segmentation.

A classical onset/autocorrelation/DP tracker; meter is fixed to 4/4.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .audio import AudioBuffer
from .dsp import TooShort

BPM_MIN, BPM_MAX = 60.0, 200.0
TEMPO_PRIOR_BPM = 120.0
TEMPO_PRIOR_OCTAVES = 1.0
DP_TIGHTNESS = 100.0
BEAT_TRIM_FRACTION = 0.02
PERIODICITY_FLOOR = 0.1


class BeatError(Exception):
    pass


class NoPeriodicity(BeatError):
    pass


class TooFewBeats(BeatError):
    pass


class DegenerateFit(BeatError):
    pass


class GridTooSparse(BeatError):
    pass


@dataclass
class BeatGrid:
    """Exactly periodic downbeat grid: downbeat i = start + i*period."""

    start: float
    period: float  # one bar, downbeat to downbeat
    count: int
    residual_rms: float = 0.0

    def __post_init__(self):
        if self.period <= 0:
            raise DegenerateFit(f"period {self.period} <= 0")
        if self.count < 2:
            raise BeatError("grid needs at least 2 downbeats")
        if self.start < 0:
            raise BeatError("grid start must be >= 0")

    def downbeats(self) -> np.ndarray:
        return self.start + np.arange(self.count) * self.period


@dataclass
class SegmentSet:
    segments: list  # AudioBuffer slices
    boundaries: list  # (start_s, end_s)

    def __len__(self):
        return len(self.segments)


# ----------------------------------------------------------------------
def _autocorrelate(x: np.ndarray) -> np.ndarray:
    n = len(x)
    padded = np.zeros(2 * n)
    padded[:n] = x - x.mean()
    spectrum = np.fft.rfft(padded)
    ac = np.fft.irfft(spectrum * np.conj(spectrum))[:n]
    return ac


def _parabolic_peak(y: np.ndarray, i: int) -> float:
    if i <= 0 or i >= len(y) - 1:
        return float(i)
    denom = y[i - 1] - 2 * y[i] + y[i + 1]
    if denom == 0:
        return float(i)
    return i + 0.5 * (y[i - 1] - y[i + 1]) / denom


def estimate_tempo(onset: np.ndarray, hop_s: float) -> float:
    """Tempo from the log-Gaussian-weighted autocorrelation of the onset
    envelope, refined at a harmonic lag for sub-frame precision."""
    onset = np.asarray(onset, dtype=np.float64)
    if len(onset) * hop_s < 4.0:
        raise TooShort("need at least 4 s of onset frames")
    ac = _autocorrelate(onset)
    if ac[0] <= 0:
        raise NoPeriodicity("flat onset envelope")
    ac = ac / ac[0]

    lag_min = max(2, int(np.floor(60.0 / (BPM_MAX * hop_s))))
    lag_max = min(len(ac) - 2, int(np.ceil(60.0 / (BPM_MIN * hop_s))))
    if lag_max <= lag_min:
        raise TooShort("onset envelope too short for the tempo range")

    lags = np.arange(lag_min, lag_max + 1)
    bpm = 60.0 / (lags * hop_s)
    prior = np.exp(-0.5 * (np.log2(bpm / TEMPO_PRIOR_BPM) / TEMPO_PRIOR_OCTAVES) ** 2)
    weighted = ac[lags] * prior
    best = int(np.argmax(weighted))
    if ac[lags[best]] < PERIODICITY_FLOOR:
        raise NoPeriodicity("no significant periodicity in the onset envelope")

    lag = _parabolic_peak(ac, lags[best])
    # refine at the highest harmonic multiple that still fits
    k = max(1, int((len(ac) - 2) // lags[best]) )
    k = min(k, 4)
    if k > 1:
        target = int(round(lag * k))
        lo = max(1, target - lags[best] // 2)
        hi = min(len(ac) - 1, target + lags[best] // 2 + 1)
        local = lo + int(np.argmax(ac[lo:hi]))
        refined = _parabolic_peak(ac, local) / k
        if abs(refined - lag) < 1.5:
            lag = refined

    tempo = 60.0 / (lag * hop_s)
    while tempo > BPM_MAX:
        tempo /= 2.0
    while tempo < BPM_MIN:
        tempo *= 2.0
    return float(tempo)


def track_beats(onset: np.ndarray, bpm: float, hop_s: float) -> np.ndarray:
    """Dynamic-programming beat placement (Ellis-style).

    Maximizes sum(onset[b_i]) - tightness * sum(log(delta_i/tau)^2) with
    tau = 60/bpm; weak leading/trailing beats are trimmed.
    """
    onset = np.asarray(onset, dtype=np.float64)
    if len(onset) < 2:
        raise TooShort("onset envelope too short")
    peak = onset.max()
    env = onset / peak if peak > 0 else onset

    tau = 60.0 / (bpm * hop_s)  # frames per beat
    if len(env) < tau:
        raise TooShort("fewer frames than one beat period")

    score, backlink = beat_dp(env, tau)
    tail_start = max(0, len(env) - int(np.ceil(tau)))
    end = tail_start + int(np.argmax(score[tail_start:]))
    beats = [end]
    while backlink[beats[-1]] >= 0:
        beats.append(int(backlink[beats[-1]]))
    beats = np.array(beats[::-1], dtype=np.int64)

    # trim beats landing on near-silent frames (score thresholding)
    strengths = env[beats]
    keep = strengths >= BEAT_TRIM_FRACTION * max(strengths.max(), 1e-12)
    if keep.any():
        first, last = np.argmax(keep), len(keep) - np.argmax(keep[::-1]) - 1
        beats = beats[first:last + 1]
    return beats * hop_s


def beat_dp(env: np.ndarray, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """Best cumulative score of a beat at each frame, and its predecessor.

    score[t] = env[t] + max over predecessors p = t - w, w in
    [floor(tau/2), ceil(2 tau)], of score[p] - tightness * ln(w/tau)^2;
    backlink[t] = the argmax p (the nearest on ties), or -1 before the
    first predecessor exists.  A frame's predecessors lie at least
    lo = floor(tau/2) frames back, so each block of lo frames is one
    [block x window] candidate matrix (Ellis 2007, "Beat Tracking by
    Dynamic Programming").
    """
    lo, hi = int(np.floor(tau / 2)), int(np.ceil(tau * 2)) + 1
    score = env.copy()
    backlink = np.full(len(env), -1, dtype=np.int64)
    window = np.arange(lo, hi)
    penalty = -DP_TIGHTNESS * np.log(window / tau) ** 2
    step = max(lo, 1)
    for start in range(lo, len(env), step):
        t = np.arange(start, min(start + step, len(env)))
        prev = t[:, None] - window[None, :]
        candidates = np.where(prev >= 0, score[np.maximum(prev, 0)] + penalty, -np.inf)
        best = np.argmax(candidates, axis=1)
        rows = np.arange(len(t))
        score[t] = env[t] + candidates[rows, best]
        backlink[t] = prev[rows, best]
    return score, backlink


def pick_downbeats(beats: np.ndarray, onset: np.ndarray, hop_s: float) -> np.ndarray:
    """Pick the 4/4 phase whose beats carry the most onset energy."""
    beats = np.asarray(beats, dtype=np.float64)
    if len(beats) < 8:
        raise TooFewBeats(f"need >= 8 beats, got {len(beats)}")
    onset = np.asarray(onset, dtype=np.float64)
    frames = np.clip(np.round(beats / hop_s).astype(np.int64), 0, len(onset) - 1)
    strengths = onset[frames]
    means = [strengths[p::4].mean() for p in range(4)]
    phase = int(np.argmax(means))  # argmax takes the lowest index on ties
    return beats[phase::4]


def quantize_grid(downbeats: np.ndarray) -> BeatGrid:
    """Least-squares fit d_i ~ start + i*period."""
    d = np.asarray(downbeats, dtype=np.float64)
    if len(d) < 2:
        raise TooFewBeats("need >= 2 downbeats")
    i = np.arange(len(d), dtype=np.float64)
    # normal equations for [1, i] @ [start, period]
    period, start = np.polyfit(i, d, 1)
    if period <= 0:
        raise DegenerateFit(f"fitted period {period} <= 0")
    residual = d - (start + i * period)
    rms = float(np.sqrt((residual**2).mean()))
    return BeatGrid(start=max(start, 0.0), period=float(period),
                    count=len(d), residual_rms=rms)


def segment_bars(track: AudioBuffer, grid: BeatGrid) -> SegmentSet:
    """Slice consecutive non-overlapping 4-bar windows from grid.start;
    the incomplete tail is dropped."""
    seg_len = 4 * grid.period
    duration = track.duration
    segments, boundaries = [], []
    t = grid.start
    while t + seg_len <= duration + 1e-9:
        segments.append(track.slice_seconds(t, t + seg_len))
        boundaries.append((t, t + seg_len))
        t += seg_len
    if not segments:
        raise GridTooSparse(
            f"track of {duration:.1f} s holds no 4-bar window "
            f"({seg_len:.1f} s) from {grid.start:.2f} s")
    return SegmentSet(segments, boundaries)


def export_boundaries_csv(boundaries, path):
    """CSV with columns index, start_s, end_s."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "start_s", "end_s"])
        for i, (s, e) in enumerate(boundaries):
            writer.writerow([i, f"{s:.6f}", f"{e:.6f}"])

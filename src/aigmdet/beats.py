"""Beat analysis of a 16 kHz track's log-mel: tempo estimation,
dynamic-programming beat tracking, downbeat phase selection, bar-grid fit,
and 4-bar segmentation.

A classical onset/autocorrelation/DP tracker; meter is fixed to 4/4.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dsp import ANALYSIS_RATE, FRAME_LEN, HOP, onset_envelope
from .errors import AnalysisError

BPM_MIN, BPM_MAX = 60.0, 200.0
TEMPO_PRIOR_BPM = 120.0
TEMPO_PRIOR_OCTAVES = 1.0
DP_TIGHTNESS = 100.0
BEAT_TRIM_FRACTION = 0.02
PERIODICITY_FLOOR = 0.1
HOP_S = HOP / ANALYSIS_RATE  # seconds per onset frame
# flux at frame i is driven by the newly-covered samples
# [i*hop + frame - hop, i*hop + frame); beat times shift by this much
ONSET_DELAY_S = (FRAME_LEN - HOP) / ANALYSIS_RATE
PHASE_SNAP_S = 0.06


@dataclass
class BeatGrid:
    """Exactly periodic downbeat grid: downbeat i = start + i*period."""

    start: float
    period: float  # one bar, downbeat to downbeat
    count: int
    residual_rms: float = 0.0

    def __post_init__(self):
        if self.period <= 0:
            raise AnalysisError(f"period {self.period} <= 0")
        if self.count < 2:
            raise AnalysisError("grid needs at least 2 downbeats")
        if self.start < 0:
            raise AnalysisError("grid start must be >= 0")

    def downbeats(self) -> np.ndarray:
        return self.start + np.arange(self.count) * self.period


@dataclass
class BeatAnalysis:
    bpm: float
    beats: np.ndarray
    downbeats: np.ndarray
    grid: BeatGrid


def analyze(mel: np.ndarray, duration: float) -> BeatAnalysis:
    """onset -> tempo -> beats -> downbeats -> arithmetic grid of a track
    of `duration` seconds, from the frame-FRAME_LEN log-mel of its 16 kHz
    row (AudioBuffer.log_mel); beat times are in seconds from the row's
    first sample.  Tempo and beats read the log-mel's flux; the bar phase
    reads the flux of the linear mel power, in which an accented downbeat
    gives a larger peak than the plain beats (on the synthetic corpus's
    bars the log flux gives it a smaller one)."""
    onset = onset_envelope(mel)
    bpm = estimate_tempo(onset)
    beats = track_beats(onset, bpm)
    downbeats = pick_downbeats(beats, onset_envelope(np.exp(mel)))
    grid = quantize_grid(downbeats + ONSET_DELAY_S, duration)
    return BeatAnalysis(bpm, beats + ONSET_DELAY_S, downbeats + ONSET_DELAY_S, grid)


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


def estimate_tempo(onset: np.ndarray) -> float:
    """Tempo from the log-Gaussian-weighted autocorrelation of the onset
    envelope, refined at a harmonic lag for sub-frame precision."""
    onset = np.asarray(onset, dtype=np.float64)
    need = -(-4 * ANALYSIS_RATE // HOP)  # 250 frames, 4 s of envelope
    if len(onset) < need:
        samples = FRAME_LEN + (need - 1) * HOP  # the fewest that give them
        raise AnalysisError(f"need at least {need} onset frames (4 s) for the tempo, got "
                            f"{len(onset)}: a track needs {samples / ANALYSIS_RATE:.3f} s "
                            f"({samples} samples at 16 kHz)")
    ac = _autocorrelate(onset)
    if ac[0] <= 0:
        raise AnalysisError("flat onset envelope")
    ac = ac / ac[0]

    lag_min = max(2, int(np.floor(60.0 / (BPM_MAX * HOP_S))))
    lag_max = min(len(ac) - 2, int(np.ceil(60.0 / (BPM_MIN * HOP_S))))
    if lag_max <= lag_min:
        raise AnalysisError("onset envelope too short for the tempo range")

    lags = np.arange(lag_min, lag_max + 1)
    bpm = 60.0 / (lags * HOP_S)
    prior = np.exp(-0.5 * (np.log2(bpm / TEMPO_PRIOR_BPM) / TEMPO_PRIOR_OCTAVES) ** 2)
    weighted = ac[lags] * prior
    best = int(np.argmax(weighted))
    if ac[lags[best]] < PERIODICITY_FLOOR:
        raise AnalysisError("no significant periodicity in the onset envelope")

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

    tempo = 60.0 / (lag * HOP_S)
    while tempo > BPM_MAX:
        tempo /= 2.0
    while tempo < BPM_MIN:
        tempo *= 2.0
    return float(tempo)


def track_beats(onset: np.ndarray, bpm: float) -> np.ndarray:
    """Dynamic-programming beat placement (Ellis-style).

    Maximizes sum(onset[b_i]) - tightness * sum(log(delta_i/tau)^2) with
    tau = 60/bpm; weak leading/trailing beats are trimmed.
    """
    onset = np.asarray(onset, dtype=np.float64)
    if len(onset) < 2:
        raise AnalysisError("onset envelope too short")
    peak = onset.max()
    env = onset / peak if peak > 0 else onset

    tau = 60.0 / (bpm * HOP_S)  # frames per beat
    if len(env) < tau:
        raise AnalysisError("fewer frames than one beat period")

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
    return beats * HOP_S


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


def pick_downbeats(beats: np.ndarray, onset: np.ndarray) -> np.ndarray:
    """Pick the 4/4 phase whose beats carry the most onset energy."""
    beats = np.asarray(beats, dtype=np.float64)
    if len(beats) < 8:
        raise AnalysisError(f"need >= 8 beats, got {len(beats)}")
    onset = np.asarray(onset, dtype=np.float64)
    frames = np.clip(np.round(beats / HOP_S).astype(np.int64), 0, len(onset) - 1)
    strengths = onset[frames]
    means = [strengths[p::4].mean() for p in range(4)]
    phase = int(np.argmax(means))  # argmax takes the lowest index on ties
    return beats[phase::4]


def quantize_grid(downbeats: np.ndarray, duration: float) -> BeatGrid:
    """Least-squares fit d_i ~ start + i*period, extended over a track of
    `duration` seconds.  Bars before the first detected downbeat are still
    bars, so the grid starts at the fitted phase within one period; a phase
    within PHASE_SNAP_S of a bar line (detection jitter) snaps to zero."""
    d = np.asarray(downbeats, dtype=np.float64)
    if len(d) < 2:
        raise AnalysisError("need >= 2 downbeats")
    i = np.arange(len(d), dtype=np.float64)
    # normal equations for [1, i] @ [start, period]
    period, start = np.polyfit(i, d, 1)
    if period <= 0:
        raise AnalysisError(f"fitted period {period} <= 0")
    residual = d - (start + i * period)
    rms = float(np.sqrt((residual**2).mean()))
    phase = start % period
    if phase < PHASE_SNAP_S or period - phase < PHASE_SNAP_S:
        phase = 0.0
    count = max(2, int((duration - phase) // period) + 1)
    return BeatGrid(start=phase, period=float(period), count=count, residual_rms=rms)


def segment_bars(track: np.ndarray, grid: BeatGrid) -> list[tuple[int, int]]:
    """(start, stop) sample ranges of consecutive non-overlapping 4-bar
    windows of a 16 kHz sample row, from grid.start; the incomplete tail
    is dropped."""
    seg_len = 4 * grid.period
    duration = len(track) / ANALYSIS_RATE
    ranges = []
    t = grid.start
    while t + seg_len <= duration + 1e-9:
        ranges.append((round(t * ANALYSIS_RATE), round((t + seg_len) * ANALYSIS_RATE)))
        t += seg_len
    if not ranges:
        raise AnalysisError(
            f"track of {duration:.1f} s holds no 4-bar window "
            f"({seg_len:.1f} s) from {grid.start:.2f} s")
    return ranges


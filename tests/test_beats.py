import csv
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aigmdet import cli
from aigmdet.audio import AudioBuffer
from aigmdet.beats import (ONSET_DELAY_S, PHASE_SNAP_S, BeatAnalysis, BeatGrid, analyze,
                           estimate_tempo, beat_dp, pick_downbeats, quantize_grid,
                           segment_bars, track_beats)
from aigmdet.data import _SYNTH_TEMPI, render_track
from aigmdet.dsp import log_mel, onset_envelope, segment_frames
from aigmdet.errors import AnalysisError
from aigmdet.models import segment_features

from util import RandomStubExtractor, click_track, loop_beat_dp

HOP_S = 256 / 16000


def onset_of(buf):
    return onset_envelope(log_mel(buf.samples[0]))


# ---------------------------------------------------------------- tempo
@pytest.mark.parametrize("bpm", [90, 120, 150])
def test_tempo_on_clean_clicks(bpm):
    env = onset_of(click_track(bpm, 12.0))
    assert abs(estimate_tempo(env) - bpm) <= 2.0


def test_tempo_synthetic_impulse_train():
    # oracle envelope built directly: impulse every 25 frames = 150 BPM
    env = np.zeros(800)
    env[::25] = 1.0
    assert abs(estimate_tempo(env) - 150.0) <= 2.0


def test_tempo_octave_folds_into_range():
    # impulses every 13 frames -> 288 BPM raw, should fold to 144
    env = np.zeros(800)
    env[::13] = 1.0
    tempo = estimate_tempo(env)
    assert 60.0 <= tempo <= 200.0
    assert abs(tempo - 60.0 / (13 * HOP_S) / 2) <= 3.0


def test_tempo_rejects_noise():
    rng = np.random.default_rng(0)
    env = rng.uniform(0, 1, 800)
    with pytest.raises(AnalysisError, match="no significant periodicity"):
        estimate_tempo(env)


def test_tempo_rejects_silence():
    with pytest.raises(AnalysisError, match="flat onset envelope"):
        estimate_tempo(np.zeros(400))


def test_tempo_too_short():
    with pytest.raises(AnalysisError):
        estimate_tempo(np.ones(100))  # 1.6 s of frames


# ---------------------------------------------------------------- beats
@pytest.mark.parametrize("bpm", [90, 120, 150])
def test_beat_positions_on_clicks(bpm):
    buf = click_track(bpm, 12.0, phase_s=0.25)
    env = onset_of(buf)
    beats = track_beats(env, bpm)
    period = 60.0 / bpm
    assert len(beats) >= 12.0 / period - 3
    # beat times are window-start referenced, so a constant offset up to one
    # analysis window (64 ms) is allowed; deviation around it must be tiny
    offsets = (beats - 0.25) / period
    frac = offsets - np.round(offsets)
    assert abs(np.median(frac)) * period <= 0.064
    assert np.abs(frac - np.median(frac)).max() * period <= 0.04


def test_beat_intervals_near_period():
    env = onset_of(click_track(120, 12.0))
    beats = track_beats(env, 120)
    intervals = np.diff(beats)
    assert np.abs(intervals - 0.5).max() <= 0.05


def test_beats_tolerate_jitter():
    rng = np.random.default_rng(1)
    buf = click_track(120, 12.0, jitter_s=0.01, rng=rng)
    env = onset_of(buf)
    beats = track_beats(env, 120)
    intervals = np.diff(beats)
    assert abs(intervals.mean() - 0.5) <= 0.02


def test_beats_on_direct_envelope_within_20ms():
    # clicks at 0.5k s encoded straight into the envelope (120 BPM)
    env = np.zeros(int(12.0 / HOP_S))
    true_beats = np.arange(0.0, 12.0, 0.5)
    env[np.round(true_beats / HOP_S).astype(int)] = 1.0
    beats = track_beats(env, 120)
    assert abs(len(beats) - 24) <= 1
    frac = beats / 0.5
    assert np.abs(frac - np.round(frac)).max() * 0.5 <= 0.02


def test_single_click_keeps_at_most_one_beat():
    env = np.zeros(400)
    env[200] = 1.0
    beats = track_beats(env, 120)
    assert len(beats) <= 1
    if len(beats):
        assert abs(beats[0] - 200 * HOP_S) <= 0.02


def test_track_beats_too_short():
    with pytest.raises(AnalysisError):
        track_beats(np.ones(10), 60)


@pytest.mark.parametrize("tau", [1.5, 2.5, 60 / (92 * HOP_S), 60 / (120 * HOP_S),
                                 60 / (140 * HOP_S), 60 / (200 * HOP_S), 40.0])
@pytest.mark.parametrize("n", [1, 12, 40, 81, 82, 700, 3001])
def test_blocked_dp_matches_frame_loop_bit_for_bit(tau, n):
    # n spans envelopes shorter than lo and than hi = ceil(2 tau) + 1
    env = np.random.default_rng(n).random(n) ** 4
    with np.errstate(divide="ignore"):  # tau < 2: a zero lag, penalty -inf
        score, backlink = beat_dp(env, tau)
        want_score, want_backlink = loop_beat_dp(env, tau)
    assert np.array_equal(score, want_score)
    assert np.array_equal(backlink, want_backlink)


def test_blocked_dp_matches_frame_loop_on_clicks():
    onset = onset_of(click_track(128, 30.0))
    env = onset / onset.max()
    tau = 60 / (128 * HOP_S)
    score, backlink = beat_dp(env, tau)
    want_score, want_backlink = loop_beat_dp(env, tau)
    assert np.array_equal(score, want_score)
    assert np.array_equal(backlink, want_backlink)


# ---------------------------------------------------------------- downbeats
def test_downbeat_phase_from_accents():
    buf = click_track(120, 16.0, accent_every=4, accent_amp=1.0, base_amp=0.3)
    env = onset_of(buf)
    beats = track_beats(env, 120)
    downs = pick_downbeats(beats, env)
    # accented clicks sit at multiples of 2 s (4 beats at 120 BPM)
    offsets = downs / 2.0
    assert np.abs(offsets - np.round(offsets)).max() * 2.0 <= 0.06


def test_downbeat_tie_breaks_to_lowest_phase():
    beats = np.arange(16) * 0.5
    onset = np.ones(1000)  # all phases tie
    downs = pick_downbeats(beats, onset)
    assert np.allclose(downs, beats[0::4])


@pytest.mark.parametrize("bpm", _SYNTH_TEMPI)
def test_grid_starts_on_a_bar_line_of_class0_renders(bpm):
    """Class-0 renders accent beat 1 of every bar, and their bars are a
    whole number of samples long, so the true bar lines are the multiples
    of that length.  Class 0 draws nothing from the rng."""
    row = render_track(0, float(bpm), 64.0, 16000, np.random.default_rng(0)).samples[0]
    bar = round(4 * 60 / bpm * 16000) / 16000
    phase = analyze(log_mel(row), len(row) / 16000).grid.start % bar
    assert min(phase, bar - phase) <= PHASE_SNAP_S


def test_downbeats_need_eight_beats():
    with pytest.raises(AnalysisError, match="need >= 8 beats, got 7"):
        pick_downbeats(np.arange(7) * 0.5, np.ones(100))


# ---------------------------------------------------------------- grid
def test_quantize_exact_grid():
    downs = 0.3 + np.arange(8) * 2.0
    grid = quantize_grid(downs, 15.0)
    assert abs(grid.start - 0.3) < 1e-9
    assert abs(grid.period - 2.0) < 1e-9
    assert grid.residual_rms < 1e-9
    assert np.allclose(grid.downbeats(), downs)


def test_quantize_least_squares_oracle():
    # oracle: compare against an independent normal-equation solve
    rng = np.random.default_rng(2)
    downs = 0.5 + np.arange(10) * 1.9 + rng.normal(0, 0.02, 10)
    grid = quantize_grid(downs, 19.0)
    i = np.arange(10.0)
    A = np.stack([np.ones(10), i], axis=1)
    start, period = np.linalg.lstsq(A, downs, rcond=None)[0]
    assert abs(grid.start - start) < 1e-9
    assert abs(grid.period - period) < 1e-9
    expected_rms = np.sqrt(((downs - (start + i * period)) ** 2).mean())
    assert abs(grid.residual_rms - expected_rms) < 1e-9


def test_quantize_negative_start_keeps_phase():
    # a fitted line that starts before the track: the grid starts at the
    # first bar line inside it, not at 0
    downs = -0.2 + np.arange(8) * 2.0
    grid = quantize_grid(downs, 16.0)
    assert abs(grid.start - 1.8) < 1e-9
    assert np.allclose(grid.downbeats(), 1.8 + np.arange(8) * 2.0)


NOISE_S = 0.005


@settings(max_examples=200, deadline=None)
@given(st.floats(1.2, 4.0), st.floats(-3.0, 3.0), st.integers(4, 40), st.integers(0, 2**32 - 1))
def test_quantize_grid_phase_is_start_mod_period(period, bars, n, seed):
    # downbeats start + period*i, jittered; start anywhere in [-3, 3] bars
    start = bars * period
    downs = (start + np.arange(n) * period
             + np.random.default_rng(seed).uniform(-NOISE_S, NOISE_S, n))
    grid = quantize_grid(downs, start + n * period)
    phase = start % period
    to_bar_line = min(phase, period - phase)
    tol = 4 * NOISE_S  # bounds the fitted start's error
    if grid.start == 0.0:
        assert to_bar_line < PHASE_SNAP_S + tol
    else:
        assert to_bar_line > PHASE_SNAP_S - tol
        assert abs(grid.start - phase) < tol
    # each downbeat is at most its residual (<= sqrt(n) * rms) from a grid
    # line, plus the phase snap
    off = (downs - grid.start) % grid.period
    distance = np.minimum(off, grid.period - off)
    snap = PHASE_SNAP_S if grid.start == 0.0 else 0.0
    assert distance.max() <= np.sqrt(n) * grid.residual_rms + snap + 1e-9


def test_quantize_degenerate():
    with pytest.raises(AnalysisError, match="fitted period -1.0"):
        quantize_grid(np.array([3.0, 2.0, 1.0]), 4.0)
    with pytest.raises(AnalysisError, match="need >= 2 downbeats"):
        quantize_grid(np.array([1.0]), 4.0)


def test_grid_validation():
    with pytest.raises(AnalysisError, match="period 0.0 <= 0"):
        BeatGrid(start=0.0, period=0.0, count=4)


# ---------------------------------------------------------------- segmentation
def test_segment_bars_counts_and_boundaries():
    grid = BeatGrid(start=0.5, period=2.0, count=10)
    ranges = segment_bars(np.zeros(16000 * 20), grid)
    # 4-bar window = 8 s from 0.5: [0.5,8.5], [8.5,16.5]; tail dropped
    assert ranges == [(8000, 136000), (136000, 264000)]


def test_segments_are_views_of_the_track():
    rng = np.random.default_rng(0)
    buf = AudioBuffer(rng.uniform(-0.5, 0.5, (1, 16000 * 20)), 16000)
    grid = BeatGrid(start=0.5, period=2.0, count=10)
    seen = []
    extractor = RandomStubExtractor(4)
    extractor._extract = lambda segment: seen.append(segment) or np.zeros(4)
    list(segment_features(buf, grid, extractor))
    ranges = segment_bars(buf.samples[0], grid)
    mel = buf.log_mel()
    assert len(seen) == len(ranges) == 2
    for seg, (start, stop) in zip(seen, ranges):
        assert np.shares_memory(seg, mel)
        assert np.array_equal(seg, mel[segment_frames(start, stop)])


def test_segment_bars_exact_fit_keeps_last_window():
    grid = BeatGrid(start=0.0, period=2.0, count=8)
    assert len(segment_bars(np.zeros(16000 * 16), grid)) == 2


def test_segment_bars_sparse():
    grid = BeatGrid(start=0.0, period=2.0, count=2)
    with pytest.raises(AnalysisError, match="holds no 4-bar window"):
        segment_bars(np.zeros(16000 * 4), grid)


def test_export_boundaries_csv(tmp_path, monkeypatch, capsys):
    """beats writes the whole bars of the grid, one csv row each."""
    grid = BeatGrid(start=0.5, period=8.0, count=2)
    analysis = BeatAnalysis(120.0, np.zeros(0), grid.downbeats(), grid)
    monkeypatch.setattr(cli, "_beat_analysis", lambda path: (analysis, 16.5))
    path = tmp_path / "bounds.csv"
    assert cli.main(["beats", "track.wav", "--out", str(path)]) == 0
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["index", "start_s", "end_s"]
    assert rows[1] == ["0", "0.500000", "8.500000"]
    assert rows[2] == ["1", "8.500000", "16.500000"]
    assert len(rows) == 3
    assert "downbeats=2" in capsys.readouterr().out


# ---------------------------------------------------------------- pipeline property
@settings(max_examples=8, deadline=None)
@given(st.sampled_from([92, 100, 116, 132, 150]), st.integers(0, 3))
def test_full_chain_recovers_tempo(bpm, seed):
    rng = np.random.default_rng(seed)
    buf = click_track(bpm, 12.0, jitter_s=0.004, rng=rng)
    env = onset_of(buf)
    tempo = estimate_tempo(env)
    assert abs(tempo - bpm) <= 2.0
    beats = track_beats(env, tempo)
    assert len(beats) >= 8


# ---------------------------------------------------------------- corpus grids
# The beat analysis of a 180 s render at each corpus tempo and class (rng
# seed bpm * 10 + label), as the float64 front end gave it: (bpm, beat
# count, first and last beat frame, SHA-256 prefix of the int64 beat
# frames, grid start, period and count).  The front end's float32 spectra
# may move the bpm by rounding, but no beat frame and no grid.  The grids
# are those of the bar phase that the linear mel power's flux picks, which
# starts every class-0 grid at 0.0, on a bar line.
CORPUS_GRIDS = {
    (92, 0): (92.01508884730967, 276, 38, 11246, "fac85b37b854bdb9",
                0.0, 2.6086424552429666, 70),
    (92, 1): (92.01496926265376, 276, 38, 11246, "bafd5dfc56f8a2e6",
                0.6468306418219432, 2.6086652539276582, 69),
    (100, 0): (99.99992866772126, 300, 34, 11246, "e934aeab185ad149",
                0.0, 2.3999831578947366, 76),
    (100, 1): (100.00009138332004, 300, 34, 11246, "e934aeab185ad149",
                1.1999999999999817, 2.3999999999999995, 75),
    (108, 0): (107.94915289638422, 323, 32, 11212, "72fa62bdf374f316",
                0.0, 2.222255227379278, 81),
    (108, 1): (107.94966388740896, 323, 32, 11212, "f2478c8a767046f3",
                0.5491598915989244, 2.222256187895213, 81),
    (116, 0): (116.12351426401737, 348, 29, 11246, "96ebf012f81ba837",
                0.0, 2.0689287745133775, 88),
    (116, 1): (116.12200777035633, 348, 29, 11246, "e2f4597e11c99425",
                1.0277742946708555, 2.068941896916235, 87),
    (124, 0): (123.97930251269143, 372, 27, 11246, "87bf64d52f4af4fd",
                0.0, 1.9355065500880306, 93),
    (124, 1): (123.9797518396277, 372, 27, 11246, "ff832bb37067c7ff",
                0.4785687485701222, 1.9354738444092985, 93),
    (132, 0): (131.84900428430788, 395, 54, 11246, "6eeb58cd664bb10f",
                0.0, 1.8181739022881882, 100),
    (132, 1): (131.8505098538416, 395, 54, 11246, "7456f4fd214bcc9c",
                0.9030012121212264, 1.8181873593073596, 99),
    (140, 0): (140.10426715182098, 418, 50, 11220, "4d1bf942729de5d7",
                0.0, 1.7143130267790463, 105),
    (140, 1): (140.10380921287222, 418, 50, 11220, "c9c97a112579acba",
                0.4226168782673694, 1.7143061986557135, 105),
}


@pytest.mark.parametrize("bpm, label", CORPUS_GRIDS)
def test_corpus_beat_grids_are_pinned(bpm, label):
    tempo, n, first, last, digest, start, period, count = CORPUS_GRIDS[bpm, label]
    buf = render_track(label, float(bpm), 180.0, 16000, np.random.default_rng(bpm * 10 + label))
    got = analyze(buf.log_mel(), buf.duration)
    frames = np.rint((got.beats - ONSET_DELAY_S) / HOP_S).astype(np.int64)
    assert np.array_equal(frames * HOP_S + ONSET_DELAY_S, got.beats)
    assert (len(frames), frames[0], frames[-1]) == (n, first, last)
    assert hashlib.sha256(frames.tobytes()).hexdigest()[:16] == digest
    assert (got.grid.start, got.grid.period, got.grid.count) == (start, period, count)
    assert abs(got.bpm - tempo) <= 1e-6 * tempo

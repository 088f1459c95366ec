import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aigmdet.dsp import (ANALYSIS_RATE, FRAME_LEN, HOP, LOG_EPS, MIN_SEGMENT_S, N_MELS,
                         dsp_embed, hann_window, log_mel, mel_filterbank,
                         onset_envelope, segment_frames, stft)
from aigmdet.errors import AnalysisError, InputError

from util import click_track, sine_buffer


# ---------------------------------------------------------------- stft
def test_frame_count_formula():
    x = sine_buffer(440, 5.0).samples[0]  # 80000 samples
    spec = stft(x)
    assert spec.magnitudes.shape == (1 + (80000 - 1024) // 256, 513)


def test_short_input_yields_zero_frames():
    spec = stft(np.zeros(1000))
    assert spec.magnitudes.shape == (0, 513)


def test_hann_window_is_cached_and_read_only():
    window = hann_window()
    assert window is hann_window()
    assert window.tobytes() == np.hanning(FRAME_LEN).astype(np.float32).tobytes()
    assert not window.flags.writeable


def test_stft_matches_direct_fft():
    # oracle: windowed rfft of the first frame computed independently in
    # float64; the float32 STFT keeps within 8 float32 epsilons of the
    # frame's peak magnitude
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, 4096)
    spec = stft(x)
    expected = np.abs(np.fft.rfft(x[:1024] * np.hanning(1024)))
    tol = 8 * np.finfo(np.float32).eps * expected.max()
    assert np.abs(spec.magnitudes[0] - expected).max() <= tol


def test_stft_sine_peak_bin():
    # 440 Hz at 16 kHz -> bin 440*1024/16000 = 28.16, peak at 28
    spec = stft(sine_buffer(440, 1.0).samples[0])
    assert np.argmax(spec.magnitudes[0]) == 28


def test_magnitudes_nonnegative():
    rng = np.random.default_rng(1)
    spec = stft(rng.uniform(-1, 1, 8192))
    assert (spec.magnitudes >= 0).all()


# ---------------------------------------------------------------- mel
def test_filterbank_shape_and_range():
    fb = mel_filterbank()
    assert fb.shape == (40, 513)
    assert (fb >= 0).all() and fb.max() <= 1.0 + 1e-12


def test_filterbank_triangle_peak_location():
    fb = mel_filterbank()
    # HTK formula: centers are N_MELS points evenly spaced on the mel axis
    # from 0 Hz to 8 kHz, without the end points
    mels = np.linspace(0.0, 2595.0 * np.log10(1 + 8000.0 / 700.0), N_MELS + 2)[1:-1]
    centers = 700.0 * (10 ** (mels / 2595.0) - 1)
    freqs = np.arange(513) * 16000 / 1024
    for i in (5, 20, 35):
        peak_hz = freqs[np.argmax(fb[i])]
        # peak bin within one bin of the analytic center frequency
        assert abs(peak_hz - centers[i]) <= 16000 / 1024 + 1e-9


def test_filterbank_cached_and_readonly():
    a = mel_filterbank()
    b = mel_filterbank()
    assert a is b
    with pytest.raises(ValueError):
        a[0, 0] = 1.0


def test_log_mel_silence_floor():
    mel = log_mel(np.zeros(4096))
    assert np.allclose(mel, np.log(LOG_EPS))


def test_log_mel_oracle_single_band():
    # oracle: hand-computed fb @ power for one frame, in float64 from the
    # float32 magnitudes; the float32 mel product keeps the band's power
    # within 8 float32 epsilons of it, relative, so its log within that
    rng = np.random.default_rng(2)
    x = rng.uniform(-0.5, 0.5, 1024)
    fb = mel_filterbank().astype(np.float64)
    mel = log_mel(x)
    expected = np.log(fb[7] @ (stft(x).magnitudes[0].astype(np.float64) ** 2) + LOG_EPS)
    assert mel.shape == (1, N_MELS)
    assert abs(mel[0, 7] - expected) < 8 * np.finfo(np.float32).eps


def test_front_end_dtypes():
    """The spectra and the filterbank are float32; the log-mel, which the
    onset DP, the extractors and the tape read, and dsp_embed are float64."""
    x = sine_buffer(440, 1.0)
    assert stft(x.samples[0]).magnitudes.dtype == np.float32
    fb = mel_filterbank()
    assert fb.dtype == np.float32 and not fb.flags.writeable
    for mel in (log_mel(x.samples[0]), x.log_mel()):
        assert mel.dtype == np.float64 and mel.flags.c_contiguous
    assert dsp_embed(x.log_mel()).dtype == np.float64


def test_log_mel_hop_seconds():
    env, hop_s = onset_envelope(log_mel(sine_buffer(440, 0.5).samples[0])), HOP / ANALYSIS_RATE
    assert abs(hop_s - 256 / 16000) < 1e-15
    assert env.shape == (1 + (8000 - 1024) // 256,)


# ---------------------------------------------------------------- onset
def test_onset_envelope_nonnegative_and_shape():
    mel = log_mel(click_track(120, 4.0).samples[0])
    env = onset_envelope(mel)
    assert env.shape == (mel.shape[0],)
    assert (env >= 0).all()


def test_onset_envelope_peaks_at_clicks():
    buf = click_track(120, 4.0)  # beats every 0.5 s
    env = onset_envelope(log_mel(buf.samples[0]))
    hop_s = 256 / 16000
    # each click should dominate a small neighborhood around its frame
    for beat_t in (0.5, 1.0, 1.5, 2.0):
        frame = int(round(beat_t / hop_s))
        local = env[frame - 4:frame + 5]
        assert local.max() > 2 * np.median(env)


def test_onset_envelope_flat_on_steady_tone():
    tone = onset_envelope(log_mel(sine_buffer(440, 2.0).samples[0]))
    clicks = onset_envelope(log_mel(click_track(120, 2.0).samples[0]))
    # a steady tone carries far less onset energy than percussive clicks
    assert tone[5:].max() < 0.1 * clicks.max()


def test_onset_envelope_too_short():
    mel = log_mel(np.zeros(1024))
    with pytest.raises(AnalysisError):
        onset_envelope(mel)


# ---------------------------------------------------------------- dsp_embed
def test_embed_shape_and_norm():
    """dsp_embed is the mean, std, max and mean positive flux of each band,
    concatenated and scaled to unit norm, and nothing else."""
    mel = log_mel(sine_buffer(440, 1.0).samples[0])
    vec = dsp_embed(mel)
    flux = np.clip(mel[1:] - mel[:-1], 0.0, None)
    stats = np.concatenate([mel.mean(axis=0), mel.std(axis=0), mel.max(axis=0),
                            flux.mean(axis=0)])
    assert vec.shape == (4 * N_MELS,)
    assert abs(np.linalg.norm(vec) - 1.0) < 1e-9
    assert np.abs(vec * np.linalg.norm(stats) - stats).max() < 1e-12


def test_embed_deterministic():
    mel = log_mel(sine_buffer(440, 1.0).samples[0])
    assert np.array_equal(dsp_embed(mel), dsp_embed(mel))


def test_embed_discriminates_content():
    a = dsp_embed(log_mel(sine_buffer(330, 1.0).samples[0]))
    b = dsp_embed(log_mel(sine_buffer(660, 1.0).samples[0]))
    assert float(a @ b) < 0.999


def test_segment_frames_lie_inside_the_segment():
    # 4800 samples is 18.75 hops: the first whole frame starts at hop 19
    frames = segment_frames(4800, 4800 + 16000)
    assert frames == slice(19, (20800 - FRAME_LEN) // HOP + 1)
    assert frames.start * HOP >= 4800
    assert (frames.stop - 1) * HOP + FRAME_LEN <= 20800 < frames.stop * HOP + FRAME_LEN


def test_segment_frames_need_min_segment_s():
    """A segment holds at least the frames of a MIN_SEGMENT_S row: a row of
    that length passes, and one hop less is AnalysisError."""
    need = round(MIN_SEGMENT_S * ANALYSIS_RATE)
    frames = segment_frames(0, need)
    assert frames.stop == 1 + (need - FRAME_LEN) // HOP
    with pytest.raises(AnalysisError):
        segment_frames(0, need - HOP)
    with pytest.raises(AnalysisError):
        segment_frames(HOP, need)


def test_embed_rejects_short_and_stereo():
    """A segment's frames are counted before dsp_embed reads them (see
    segment_frames); a stereo track has no log-mel (AudioBuffer.log_mel)."""
    with pytest.raises(AnalysisError):
        segment_frames(0, round(0.1 * ANALYSIS_RATE))
    with pytest.raises(InputError, match="log-mel needs 16000 Hz mono, got 16000 Hz with 2"):
        sine_buffer(440, 1.0, channels=2).log_mel()


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 1000))
def test_embed_unit_norm_property(seed):
    rng = np.random.default_rng(seed)
    vec = dsp_embed(log_mel(rng.uniform(-1, 1, 8000)))
    assert vec.shape == (4 * N_MELS,)
    assert abs(np.linalg.norm(vec) - 1.0) < 1e-9
    assert np.isfinite(vec).all()

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aigmdet.audio import AudioBuffer
from aigmdet.dsp import (ANALYSIS_RATE, HOP, LOG_EPS, N_MELS, BadFrameParams, TooShort,
                         dsp_embed, log_mel, mel_filterbank, onset_envelope, stft)

from util import click_track, sine_buffer


# ---------------------------------------------------------------- stft
def test_frame_count_formula():
    buf = sine_buffer(440, 5.0)  # 80000 samples
    spec = stft(buf)
    assert spec.magnitudes.shape == (1 + (80000 - 1024) // 256, 513)


def test_short_input_yields_zero_frames():
    buf = AudioBuffer(np.zeros((1, 1000)), 16000)
    spec = stft(buf)
    assert spec.magnitudes.shape == (0, 513)


def test_stft_matches_direct_fft():
    # oracle: windowed rfft of the first frame computed independently
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, 4096)
    spec = stft(AudioBuffer(x[None, :], 16000))
    expected = np.abs(np.fft.rfft(x[:1024] * np.hanning(1024)))
    assert np.allclose(spec.magnitudes[0], expected, atol=1e-12)


def test_stft_sine_peak_bin():
    # 440 Hz at 16 kHz -> bin 440*1024/16000 = 28.16, peak at 28
    spec = stft(sine_buffer(440, 1.0))
    assert np.argmax(spec.magnitudes[0]) == 28


def test_stft_rejects_bad_params():
    buf = sine_buffer(440, 0.5)
    with pytest.raises(BadFrameParams):
        stft(buf, frame_len=1000)
    with pytest.raises(BadFrameParams):
        stft(buf, hop=0)
    with pytest.raises(BadFrameParams):
        stft(AudioBuffer(np.zeros((2, 4096)), 16000))


def test_magnitudes_nonnegative():
    rng = np.random.default_rng(1)
    spec = stft(AudioBuffer(rng.uniform(-1, 1, (1, 8192)), 16000))
    assert (spec.magnitudes >= 0).all()


# ---------------------------------------------------------------- mel
def test_filterbank_shape_and_range():
    fb = mel_filterbank(1024, 16000)
    assert fb.shape == (40, 513)
    assert (fb >= 0).all() and fb.max() <= 1.0 + 1e-12


def test_filterbank_triangle_peak_location():
    fb = mel_filterbank(1024, 16000)
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
    a = mel_filterbank(1024, 16000)
    b = mel_filterbank(1024, 16000)
    assert a is b
    with pytest.raises(ValueError):
        a[0, 0] = 1.0


def test_log_mel_silence_floor():
    mel = log_mel(AudioBuffer(np.zeros((1, 4096)), 16000))
    assert np.allclose(mel, np.log(LOG_EPS))


def test_log_mel_oracle_single_band():
    # oracle: hand-computed fb @ power for one frame
    rng = np.random.default_rng(2)
    x = rng.uniform(-0.5, 0.5, 1024)
    buf = AudioBuffer(x[None, :], 16000)
    fb = mel_filterbank(1024, 16000)
    mel = log_mel(buf)
    expected = np.log(fb[7] @ (stft(buf).magnitudes[0] ** 2) + LOG_EPS)
    assert mel.shape == (1, N_MELS)
    assert abs(mel[0, 7] - expected) < 1e-12


def test_log_mel_hop_seconds():
    env, hop_s = onset_envelope(log_mel(sine_buffer(440, 0.5))), HOP / ANALYSIS_RATE
    assert abs(hop_s - 256 / 16000) < 1e-15
    assert env.shape == (1 + (8000 - 1024) // 256,)


# ---------------------------------------------------------------- onset
def test_onset_envelope_nonnegative_and_shape():
    mel = log_mel(click_track(120, 4.0))
    env = onset_envelope(mel)
    assert env.shape == (mel.shape[0],)
    assert (env >= 0).all()


def test_onset_envelope_peaks_at_clicks():
    buf = click_track(120, 4.0)  # beats every 0.5 s
    env = onset_envelope(log_mel(buf))
    hop_s = 256 / 16000
    # each click should dominate a small neighborhood around its frame
    for beat_t in (0.5, 1.0, 1.5, 2.0):
        frame = int(round(beat_t / hop_s))
        local = env[frame - 4:frame + 5]
        assert local.max() > 2 * np.median(env)


def test_onset_envelope_flat_on_steady_tone():
    tone = onset_envelope(log_mel(sine_buffer(440, 2.0)))
    clicks = onset_envelope(log_mel(click_track(120, 2.0)))
    # a steady tone carries far less onset energy than percussive clicks
    assert tone[5:].max() < 0.1 * clicks.max()


def test_onset_envelope_too_short():
    mel = log_mel(AudioBuffer(np.zeros((1, 1024)), 16000))
    with pytest.raises(TooShort):
        onset_envelope(mel)


# ---------------------------------------------------------------- dsp_embed
def test_embed_shape_and_norm():
    vec = dsp_embed(sine_buffer(440, 1.0), 512)
    assert vec.shape == (512,)
    assert abs(np.linalg.norm(vec) - 1.0) < 1e-9


def test_embed_deterministic():
    buf = sine_buffer(440, 1.0)
    assert np.array_equal(dsp_embed(buf, 512), dsp_embed(buf, 512))


def test_embed_discriminates_content():
    a = dsp_embed(sine_buffer(330, 1.0), 512)
    b = dsp_embed(sine_buffer(660, 1.0), 512)
    assert float(a @ b) < 0.999


def test_embed_rejects_short_and_stereo():
    with pytest.raises(TooShort):
        dsp_embed(sine_buffer(440, 0.1), 512)
    with pytest.raises(BadFrameParams):
        dsp_embed(AudioBuffer(np.zeros((2, 16000)), 16000), 512)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 1000), st.sampled_from([512, 768, 2048]))
def test_embed_unit_norm_property(seed, dim):
    rng = np.random.default_rng(seed)
    buf = AudioBuffer(rng.uniform(-1, 1, (1, 8000)), 16000)
    vec = dsp_embed(buf, dim)
    assert vec.shape == (dim,)
    assert abs(np.linalg.norm(vec) - 1.0) < 1e-9
    assert np.isfinite(vec).all()

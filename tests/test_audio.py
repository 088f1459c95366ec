import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aigmdet import audio
from aigmdet.audio import (AudioBuffer, InvalidRate, MalformedHeader,
                           OutOfRangeFactor, OutOfRangeShift, UnsupportedEncoding,
                           load_wav, pitch_shift, resample, save_wav, time_stretch,
                           to_mono)

from util import fft_peak_hz, sine_buffer


# ---------------------------------------------------------------- wav io
def test_load_silence(tmp_path):
    path = tmp_path / "silence.wav"
    save_wav(AudioBuffer(np.zeros((1, 16000)), 16000), path)
    buf = load_wav(path)
    assert buf.frames == 16000
    assert buf.channels == 1
    assert buf.sample_rate == 16000
    assert np.array_equal(buf.samples, np.zeros((1, 16000)))


def test_pcm16_full_scale_mapping(tmp_path):
    import struct
    path = tmp_path / "fs.wav"
    data = struct.pack("<h", 32767)
    header = (b"RIFF" + struct.pack("<I", 36 + len(data)) + b"WAVE"
              + b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, 16000, 32000, 2, 16)
              + b"data" + struct.pack("<I", len(data)))
    path.write_bytes(header + data)
    buf = load_wav(path)
    assert abs(buf.samples[0, 0] - 32767 / 32768) < 1e-12


def test_float32_wav_read(tmp_path):
    import struct
    path = tmp_path / "f32.wav"
    values = np.array([0.25, -0.5, 1.0], dtype="<f4")
    data = values.tobytes()
    header = (b"RIFF" + struct.pack("<I", 36 + len(data)) + b"WAVE"
              + b"fmt " + struct.pack("<IHHIIHH", 16, 3, 1, 16000, 64000, 4, 32)
              + b"data" + struct.pack("<I", len(data)))
    path.write_bytes(header + data)
    buf = load_wav(path)
    assert np.allclose(buf.samples[0], values, atol=1e-7)


def test_round_trip_sine(tmp_path):
    buf = sine_buffer(440, 1.0)
    path = tmp_path / "sine.wav"
    save_wav(buf, path)
    loaded = load_wav(path)
    assert loaded.frames == buf.frames
    assert np.abs(loaded.samples - buf.samples).max() <= 1.0 / 32768


def test_empty_buffer_writes_44_byte_file(tmp_path):
    path = tmp_path / "empty.wav"
    save_wav(AudioBuffer(np.zeros((1, 0)), 16000), path)
    assert path.stat().st_size == 44
    assert load_wav(path).frames == 0


def test_clamp_on_save(tmp_path):
    path = tmp_path / "hot.wav"
    save_wav(AudioBuffer(np.array([[2.0, -2.0]]), 16000), path)
    loaded = load_wav(path)
    assert abs(loaded.samples[0, 0] - 32767 / 32768) < 1e-9
    assert abs(loaded.samples[0, 1] + 1.0) < 1e-9


def test_malformed_header(tmp_path):
    path = tmp_path / "bad.wav"
    path.write_bytes(b"not a wav file at all, definitely")
    with pytest.raises(MalformedHeader):
        load_wav(path)


def test_unsupported_encoding(tmp_path):
    import struct
    path = tmp_path / "ulaw.wav"
    header = (b"RIFF" + struct.pack("<I", 40) + b"WAVE"
              + b"fmt " + struct.pack("<IHHIIHH", 16, 7, 1, 8000, 8000, 1, 8)
              + b"data" + struct.pack("<I", 4) + b"\x00" * 4)
    path.write_bytes(header)
    with pytest.raises(UnsupportedEncoding):
        load_wav(path)


def test_stereo_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    buf = AudioBuffer(rng.uniform(-0.9, 0.9, size=(2, 500)), 44100)
    path = tmp_path / "st.wav"
    save_wav(buf, path)
    loaded = load_wav(path)
    assert loaded.channels == 2
    assert np.abs(loaded.samples - buf.samples).max() <= 1.0 / 32768


# ---------------------------------------------------------------- to_mono
def test_to_mono_identity():
    buf = sine_buffer(440, 0.1)
    out = to_mono(buf)
    assert np.array_equal(out.samples, buf.samples)


def test_to_mono_mean():
    buf = AudioBuffer(np.array([[1.0, 0.5], [-1.0, 0.1]]), 16000)
    out = to_mono(buf)
    assert np.allclose(out.samples, [[0.0, 0.3]])


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 4), st.integers(0, 64))
def test_to_mono_idempotent(channels, frames):
    rng = np.random.default_rng(channels * 100 + frames)
    buf = AudioBuffer(rng.uniform(-1, 1, size=(channels, frames)), 16000)
    once = to_mono(buf)
    twice = to_mono(once)
    assert np.array_equal(once.samples, twice.samples)


# ---------------------------------------------------------------- resample
def test_resample_identity():
    buf = sine_buffer(440, 0.25)
    out = resample(buf, 16000)
    assert np.array_equal(out.samples, buf.samples)


def test_resample_length_exact():
    buf = sine_buffer(440, 1.0, rate=44100)
    out = resample(buf, 16000)
    assert out.frames == 16000
    assert out.sample_rate == 16000


def test_resample_preserves_tone():
    buf = sine_buffer(1000, 1.0, rate=44100)
    out = resample(buf, 16000)
    peak = fft_peak_hz(out)
    assert abs(peak - 1000) <= 16000 / out.frames + 0.5
    # passband amplitude loss < 1 dB
    rms_in = np.sqrt((buf.samples**2).mean())
    rms_out = np.sqrt((out.samples[:, 1000:-1000] ** 2).mean())
    assert 20 * np.log10(rms_in / rms_out) < 1.0


def test_resample_invalid_rate():
    with pytest.raises(InvalidRate):
        resample(sine_buffer(440, 0.1), 1000)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([8000, 16000, 22050, 44100]),
       st.sampled_from([8000, 16000, 22050, 44100]),
       st.integers(100, 5000))
def test_resample_length_formula(src, dst, frames):
    buf = AudioBuffer(np.zeros((1, frames)), src)
    out = resample(buf, dst)
    assert out.frames == round(frames * dst / src)


# ---------------------------------------------------------------- stretch/shift
def test_time_stretch_identity_bit_exact():
    buf = sine_buffer(440, 0.5)
    out = time_stretch(buf, 1.0)
    assert np.array_equal(out.samples, buf.samples)


def test_time_stretch_length():
    buf = sine_buffer(440, 1.0)
    out = time_stretch(buf, 0.8)
    assert abs(out.frames - 20000) <= 1024


def test_time_stretch_preserves_pitch():
    buf = sine_buffer(440, 1.0)
    out = time_stretch(buf, 1.25)
    assert abs(out.frames - 12800) <= 1024
    assert abs(fft_peak_hz(out) - 440) <= 5


def test_time_stretch_range():
    with pytest.raises(OutOfRangeFactor):
        time_stretch(sine_buffer(440, 0.5), 2.5)


def test_pitch_shift_identity_bit_exact():
    buf = sine_buffer(440, 0.5)
    assert np.array_equal(pitch_shift(buf, 0).samples, buf.samples)


@pytest.mark.parametrize("semitones,expected", [(2, 493.88), (-2, 392.0)])
def test_pitch_shift_moves_tone(semitones, expected):
    buf = sine_buffer(440, 1.0)
    out = pitch_shift(buf, semitones)
    assert abs(fft_peak_hz(out) - expected) <= 5
    assert abs(out.frames - buf.frames) <= 1024


def test_pitch_shift_range():
    with pytest.raises(OutOfRangeShift):
        pitch_shift(sine_buffer(440, 0.5), 13)


def test_outputs_stay_finite():
    rng = np.random.default_rng(3)
    buf = AudioBuffer(rng.uniform(-1, 1, size=(1, 8000)), 16000)
    for out in (time_stretch(buf, 0.8), pitch_shift(buf, 2), resample(buf, 22050)):
        assert np.isfinite(out.samples).all()

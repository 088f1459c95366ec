import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aigmdet import audio
from aigmdet.audio import (AudioBuffer, InvalidRate, MalformedHeader, TruncatedData,
                           UnsupportedEncoding, load_wav, resample, save_wav, to_mono)

from util import direct_resample_channel, fft_peak_hz, raw_wav, sine_buffer


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


@pytest.mark.parametrize("fmt,channels,bits,size", [
    (1, 1, 16, 201), (3, 1, 32, 202), (1, 2, 16, 402)], ids=["pcm16", "float32", "pcm16_stereo"])
def test_data_chunk_not_whole_frames(fmt, channels, bits, size, tmp_path):
    path = tmp_path / "odd.wav"
    path.write_bytes(raw_wav(fmt, channels, bits, b"\x00" * size))
    with pytest.raises(TruncatedData):
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


RATES = [8000, 16000, 22050, 44100, 48000]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(RATES), st.sampled_from(RATES), st.integers(1, 5000))
@example(44100, 16000, 1)  # shorter than the 178-tap kernel
@example(44100, 16000, 150)
@example(16000, 48000, 40)  # shorter than the 64-tap kernel
def test_resample_matches_direct_form(src, dst, frames):
    x = np.random.default_rng(frames).uniform(-1, 1, frames)
    out = resample(AudioBuffer(np.stack([x, -0.5 * x]), src), dst)
    for ch, scale in enumerate([1.0, -0.5]):
        want = direct_resample_channel(scale * x, dst / src)
        assert out.samples[ch].shape == want.shape
        assert np.abs(out.samples[ch] - want).max(initial=0.0) <= 1e-9


def test_resample_repeatable_bit_for_bit():
    x = np.random.default_rng(0).uniform(-1, 1, (2, 44100))
    first = resample(AudioBuffer(x, 44100), 16000)
    # a fresh copy of the input sits at another address
    second = resample(AudioBuffer(x.copy(), 44100), 16000)
    assert first.samples.tobytes() == second.samples.tobytes()


@pytest.mark.parametrize("src", [44101, 191999])
def test_resample_rare_rate_bounds_phases(src, monkeypatch):
    # reduced, 16000/44101 and 16000/191999 would each need 16000 phases
    ups = []
    inner = audio._resample

    def recording(samples, up, down):
        ups.append(up)
        return inner(samples, up, down)

    monkeypatch.setattr(audio, "_resample", recording)
    buf = sine_buffer(1000, 0.25, rate=src)
    out = resample(buf, 16000)
    assert ups and max(ups) <= 1000
    assert abs(out.frames - round(buf.frames * 16000 / src)) <= 1
    assert abs(fft_peak_hz(out) - 1000) <= 16000 / out.frames


def test_outputs_stay_finite():
    rng = np.random.default_rng(3)
    buf = AudioBuffer(rng.uniform(-1, 1, size=(1, 8000)), 16000)
    assert np.isfinite(resample(buf, 22050).samples).all()

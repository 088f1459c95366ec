import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from aigmdet import audio
from aigmdet.audio import AudioBuffer, load_wav, resample, save_wav, to_mono
from aigmdet.data import render_track
from aigmdet.dsp import log_mel
from aigmdet.errors import InputError

from util import (direct_resample_channel, fft_peak_hz, padded_resample, phase_loop_resample,
                  raw_wav, sine_buffer)


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
    with pytest.raises(InputError, match="not a RIFF/WAVE file"):
        load_wav(path)


def test_unsupported_encoding(tmp_path):
    import struct
    path = tmp_path / "ulaw.wav"
    header = (b"RIFF" + struct.pack("<I", 40) + b"WAVE"
              + b"fmt " + struct.pack("<IHHIIHH", 16, 7, 1, 8000, 8000, 1, 8)
              + b"data" + struct.pack("<I", 4) + b"\x00" * 4)
    path.write_bytes(header)
    with pytest.raises(InputError, match="format 7/8-bit not supported"):
        load_wav(path)


@pytest.mark.parametrize("fmt,channels,bits,size", [
    (1, 1, 16, 201), (3, 1, 32, 202), (1, 2, 16, 402)], ids=["pcm16", "float32", "pcm16_stereo"])
def test_data_chunk_not_whole_frames(fmt, channels, bits, size, tmp_path):
    path = tmp_path / "odd.wav"
    path.write_bytes(raw_wav(fmt, channels, bits, b"\x00" * size))
    with pytest.raises(InputError, match="data length not a multiple of frame size"):
        load_wav(path)


def test_stereo_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    buf = AudioBuffer(rng.uniform(-0.9, 0.9, size=(2, 500)), 44100)
    path = tmp_path / "st.wav"
    save_wav(buf, path)
    loaded = load_wav(path)
    assert loaded.channels == 2
    assert np.abs(loaded.samples - buf.samples).max() <= 1.0 / 32768


@pytest.mark.parametrize("channels", [1, 2, 3])
@pytest.mark.parametrize("fmt", ["pcm16", "float32"])
def test_load_wav_gives_contiguous_channel_rows(fmt, channels, tmp_path):
    """float32 rows, which hold int16 / 32768 (or the file's float32
    samples) exactly: their float64 values are the float64 decode's."""
    rng = np.random.default_rng(channels)
    if fmt == "pcm16":
        raw = rng.integers(-32768, 32768, size=1001 * channels).astype("<i2")
        want = raw.astype(np.float64) / 32768.0
    else:
        raw = rng.uniform(-1, 1, size=1001 * channels).astype("<f4")
        want = raw.astype(np.float64)
    path = tmp_path / "x.wav"
    path.write_bytes(raw_wav(1 if fmt == "pcm16" else 3, channels, 8 * raw.itemsize, raw.tobytes()))
    samples = load_wav(path).samples
    assert samples.dtype == np.float32
    assert samples.flags.c_contiguous
    want = np.ascontiguousarray(want.reshape(-1, channels).T)
    assert samples.astype(np.float64).tobytes() == want.tobytes()


# ---------------------------------------------------------------- to_mono
def test_to_mono_identity():
    buf = sine_buffer(440, 0.1)
    out = to_mono(buf)
    assert np.array_equal(out.samples, buf.samples)


def test_to_mono_mean():
    buf = AudioBuffer(np.array([[1.0, 0.5], [-1.0, 0.1]]), 16000)
    out = to_mono(buf)
    assert np.allclose(out.samples, [[0.0, 0.3]])


def test_to_mono_of_loaded_stereo_is_the_interleaved_mean(tmp_path):
    """The float32 fold of two PCM16 channels is exact: its float64 values
    are the float64 mean of the float64 decode."""
    raw = np.random.default_rng(0).integers(-32768, 32768, size=2 * 44100).astype("<i2")
    path = tmp_path / "st.wav"
    path.write_bytes(raw_wav(1, 2, 16, raw.tobytes(), rate=44100))
    # the mean over the strided channel view of the interleaved decode
    want = (raw.astype(np.float64) / 32768.0).reshape(-1, 2).T.mean(axis=0, keepdims=True)
    mono = to_mono(load_wav(path)).samples
    assert mono.dtype == np.float32
    assert mono.astype(np.float64).tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_to_mono_and_resample_keep_the_dtype(dtype):
    buf = AudioBuffer(np.random.default_rng(0).uniform(-1, 1, (2, 4410)).astype(dtype), 44100)
    assert buf.samples.dtype == dtype
    assert to_mono(buf).samples.dtype == dtype
    assert resample(buf, 16000).samples.dtype == dtype
    assert resample(AudioBuffer(buf.samples[:, :0], 44100), 16000).samples.dtype == dtype


def test_audio_buffer_casts_other_dtypes_to_float64():
    assert AudioBuffer(np.zeros((1, 4), dtype=np.int16), 16000).samples.dtype == np.float64
    assert AudioBuffer([[0.0, 0.5]], 16000).samples.dtype == np.float64
    assert AudioBuffer(np.zeros((1, 4), dtype=np.float16), 16000).samples.dtype == np.float64


def test_audio_buffer_refuses_samples_past_the_bound():
    """A buffer made in code is held to MAX_BUFFER_SAMPLE as a WAV is to
    MAX_FLOAT_SAMPLE: a render scaled by 1e18 would overflow log_mel's
    float32 power.  A NaN or an infinity fails the same test."""
    row = render_track(0, 120.0, 4.0, 16000, np.random.default_rng(0)).samples
    at_bound = row / np.abs(row).max() * audio.MAX_BUFFER_SAMPLE
    AudioBuffer(at_bound, 16000)
    for samples in (-2 * at_bound, row * 1e18, np.where(row > 0.5, np.nan, row),
                    np.where(row < -0.5, -np.inf, row)):
        with pytest.raises(InputError, match=r"samples must be finite and lie in \[-131072, 131072\]"):
            AudioBuffer(samples, 16000)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 4), st.integers(0, 64))
def test_to_mono_idempotent(channels, frames):
    rng = np.random.default_rng(channels * 100 + frames)
    buf = AudioBuffer(rng.uniform(-1, 1, size=(channels, frames)), 16000)
    once = to_mono(buf)
    twice = to_mono(once)
    assert np.array_equal(once.samples, twice.samples)


@st.composite
def _channel_rows(draw):
    """1-4 float32 or float64 rows of samples within MAX_BUFFER_SAMPLE."""
    dtype = np.dtype(draw(st.sampled_from([np.float32, np.float64])))
    bound = audio.MAX_BUFFER_SAMPLE
    return draw(arrays(dtype, (draw(st.integers(1, 4)), draw(st.integers(0, 64))),
                       elements=st.floats(-bound, bound, width=8 * dtype.itemsize)))


@settings(max_examples=200, deadline=None)
@given(_channel_rows())
def test_to_mono_is_the_channel_mean_bit_for_bit(samples):
    """One pass over the rows and an in-place divide give the bytes of
    numpy's mean, whose divide runs in float64 for float32 rows; one row
    is returned as it is (its mean would turn -0.0 into 0.0)."""
    mono = to_mono(AudioBuffer(samples, 44100)).samples
    want = samples if len(samples) == 1 else samples.mean(axis=0, keepdims=True)
    assert mono.dtype == want.dtype
    assert mono.tobytes() == want.tobytes()


# ---------------------------------------------------------------- log_mel
def test_log_mel_is_computed_once():
    buf = AudioBuffer(np.random.default_rng(5).uniform(-0.5, 0.5, (1, 3 * 16000)), 16000)
    mel = buf.log_mel()
    assert buf.log_mel() is mel
    assert mel.tobytes() == log_mel(buf.samples[0]).tobytes()
    assert not mel.flags.writeable
    assert "log_mel" not in repr(buf)


@pytest.mark.parametrize("rate,channels", [(44100, 1), (16000, 2), (8000, 1)])
def test_log_mel_needs_16k_mono(rate, channels):
    """Only the analysis format (16 kHz mono) has a log-mel: an InputError
    (exit 2 from the CLI) names the rate and channels."""
    buf = AudioBuffer(np.zeros((channels, rate)), rate)
    with pytest.raises(InputError,
                       match=f"log-mel needs 16000 Hz mono, got {rate} Hz with {channels} channel"):
        buf.log_mel()


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
    with pytest.raises(InputError, match="target rate 1000"):
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


def _ratio(src, dst):
    ratio = Fraction(src, dst).limit_denominator(audio._MAX_PHASES)
    return ratio.denominator, ratio.numerator


def _frames_for(n_out, src, dst):
    """The fewest input frames that resample to at least n_out outputs."""
    up, down = _ratio(src, dst)
    frames = max(1, n_out * down // up - 2)
    while round(frames * up / down) < n_out:
        frames += 1
    return frames


def _boundary_lengths(src, dst):
    """Input lengths whose output ends one short of, on and one past the
    end of the first row chunk, and of the first phase group of the block
    after it (an output sample apart, or an input frame when upsampling)."""
    up, _ = _ratio(src, dst)
    block = -(-audio._GROUP // up) * up
    first_group = -(-block // -(-block // audio._GROUP))
    lengths = set()
    for end in (audio._ROW_CHUNK * block, audio._ROW_CHUNK * block + first_group):
        lengths |= {_frames_for(end, src, dst) - 1, _frames_for(end, src, dst),
                    _frames_for(end + 1, src, dst)}
    return sorted(lengths)


RESAMPLE_PAIRS = [(44100, 16000), (48000, 16000), (22050, 16000), (32000, 16000),
                  (8000, 16000), (16000, 48000)]


# float32 rows (load_wav's) are resampled in float32: the sums of up to
# 178 taps round to about 1e-6 of outputs that reach about 1.7 here (9.3e-7
# seen), against 1e-15 in float64
F32_RESAMPLE_TOL = 2e-6


@pytest.mark.parametrize("channels", [1, 2], ids=["mono", "stereo"])
@pytest.mark.parametrize("src,dst", RESAMPLE_PAIRS)
def test_resample_matches_phase_loop(src, dst, channels):
    up, down = _ratio(src, dst)
    for frames in _boundary_lengths(src, dst):
        x = np.random.default_rng(frames).uniform(-1, 1, (channels, frames))
        for rows, tol in ((x, 1e-12), (x.astype(np.float32), F32_RESAMPLE_TOL)):
            got = resample(AudioBuffer(rows, src), dst).samples
            want = phase_loop_resample(rows.astype(np.float64), up, down)
            assert got.shape == want.shape
            assert got.dtype == rows.dtype
            assert got.flags.c_contiguous
            assert np.abs(got - want).max() <= tol, f"{rows.dtype}, {frames} frames"


@pytest.mark.parametrize("channels", [1, 2, 3])
@pytest.mark.parametrize("src", [44100, 48000, 96000])
def test_resample_matches_padded_input_bit_for_bit(src, channels):
    """Rows are read from the input itself, and zeros are filled in only
    for the chunks that reach before its first sample or past its last."""
    up, down = _ratio(src, 16000)
    chunk_frames = _frames_for(audio._ROW_CHUNK * -(-audio._GROUP // up) * up, src, 16000)
    # shorter than one kernel and one block, a few blocks, one frame short
    # of a row chunk, and over three chunks (the middle ones read no zeros)
    for frames in (1, 100, 5000, chunk_frames - 1, 3 * chunk_frames + 17):
        x = np.random.default_rng(frames).uniform(-1, 1, (channels, frames))
        got = resample(AudioBuffer(x, src), 16000).samples
        assert got.tobytes() == padded_resample(x, up, down).tobytes(), f"{frames} frames"


# float64 rows run dgemm, and float32 rows, which load_wav gives, sgemm
_DIGEST = """
import hashlib
import numpy as np
from aigmdet.audio import AudioBuffer, resample
digest = hashlib.sha256()
for dtype in (np.float64, np.float32):
    for rate in (44100, 48000, 96000):
        x = np.random.default_rng(rate).uniform(-1, 1, (2, 14 * rate)).astype(dtype)
        digest.update(resample(AudioBuffer(x, rate), 16000).samples.tobytes())
print(digest.hexdigest())
"""


def _has_avx2() -> bool:
    try:
        with open("/proc/cpuinfo") as fh:
            return " avx2" in fh.read()
    except OSError:
        return False


@pytest.mark.parametrize("coretype", ["", "Prescott", "Haswell"],
                         ids=["detected", "prescott", "haswell"])
def test_resample_bytes_do_not_depend_on_blas_threads(coretype):
    """The kernel a DYNAMIC_ARCH OpenBLAS detects, its oldest x86-64
    kernel, whose tiles differ, and Haswell's (Zen's too), whose sgemm gave
    other bytes on 2 threads with row chunks of 256; other builds ignore
    OPENBLAS_CORETYPE."""
    if coretype == "Haswell" and not _has_avx2():
        pytest.skip("the Haswell kernel needs AVX2")
    src = str(Path(audio.__file__).resolve().parent.parent)
    digests = set()
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OPENBLAS_CORETYPE": coretype,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        run = subprocess.run([sys.executable, "-c", _DIGEST], env=env, capture_output=True,
                             text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        digests.add(run.stdout.strip())
    assert len(digests) == 1


def test_resample_builds_its_bands_once(monkeypatch):
    """A second resample at the same rates reads the cached bands, without
    building the Kaiser table again, and gives the bytes of a fresh build
    (and, in float64, of padded_resample)."""
    x = np.random.default_rng(0).uniform(-1, 1, (2, 44100))
    i0, calls = np.i0, []
    monkeypatch.setattr(np, "i0", lambda v: calls.append(1) or i0(v))
    for rows in (x, x.astype(np.float32)):
        audio._phase_bands.cache_clear()
        calls.clear()
        first = resample(AudioBuffer(rows, 44100), 16000).samples
        built = len(calls)
        assert built > 0
        second = resample(AudioBuffer(rows, 44100), 16000).samples
        assert len(calls) == built
        audio._phase_bands.cache_clear()
        fresh = resample(AudioBuffer(rows, 44100), 16000).samples
        assert second.tobytes() == first.tobytes() == fresh.tobytes()
        if rows.dtype == np.float64:
            assert second.tobytes() == padded_resample(x, 160, 441).tobytes()
            # padded_resample reads the entry resample built, not one of its own
            assert audio._phase_bands.cache_info().currsize == 1


def test_cached_bands_are_read_only():
    for dtype in (np.float32, np.float64):
        resample(AudioBuffer(np.zeros((1, 4410), dtype=dtype), 44100), 16000)
        _, groups = audio._phase_bands(160, 441, 160, np.dtype(dtype))
        for _, _, band in groups:
            assert band.dtype == dtype
            with pytest.raises(ValueError, match="read-only"):
                band[0, 0] = 1.0


def test_phase_band_cache_is_bounded():
    bound = audio._phase_bands.cache_info().maxsize
    audio._phase_bands.cache_clear()
    for rate in range(9000, 9000 + 1000 * (bound + 3), 1000):
        resample(AudioBuffer(np.zeros((1, rate // 10)), rate), 16000)
        assert audio._phase_bands.cache_info().currsize <= bound
    assert audio._phase_bands.cache_info().currsize == bound


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

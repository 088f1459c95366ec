"""The bounded-memory front end: blocked log-mel, lean track rendering and
WAV writing, and one segment at a time through stage 1.  Each matches its
whole-array form in tests/util.py bit for bit, and its tracemalloc peak on
a 3-minute 16 kHz track stays under a fixed bound (the whole-array forms
peak at about 121, 89, 66 and 67 MB).  WAV decoding and resampling of
3-minute 44.1 and 48 kHz input are bounded too, and so is the analysis
buffer of a long 44.1 kHz stereo WAV, a bound per input frame."""

import tracemalloc

import numpy as np
import pytest

from aigmdet import models, pipeline
from aigmdet.audio import AudioBuffer, load_wav, resample, save_wav
from aigmdet.beats import BeatGrid
from aigmdet.data import render_track
from aigmdet.dsp import FRAME_LEN, HOP, LOG_MEL_BLOCK, N_MELS, log_mel
from aigmdet.extractors import get_extractor

from util import concatenated_render_track, raw_wav, wav_bytes, whole_log_mel

RATE = 16000
BPM = 92.0


def traced_peak_mb(fn, *args):
    """(fn(*args), the peak of the memory it allocated in MB)."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def long_track():
    return render_track(0, BPM, 180.0, RATE, np.random.default_rng(0))


# ---------------------------------------------------------------- bit for bit
@pytest.mark.parametrize("n_frames", [0, 1, LOG_MEL_BLOCK - 1, LOG_MEL_BLOCK,
                                      LOG_MEL_BLOCK + 1, 2 * LOG_MEL_BLOCK + 1])
def test_blocked_log_mel_matches_whole_array(n_frames, long_track):
    # HOP - 1 samples short of one frame more; 0 frames is a sub-frame input
    n = (n_frames - 1) * HOP + FRAME_LEN + HOP - 1
    x = long_track.samples[0, :n]
    got = log_mel(x)
    assert got.shape == (n_frames, N_MELS)
    assert got.tobytes() == whole_log_mel(x).tobytes()


@pytest.mark.parametrize("label, bpm, duration_s, rate", [
    (0, 92, 64.0, 16000), (1, 92, 64.0, 16000), (0, 117, 180.0, 16000),
    (1, 140, 180.0, 16000), (1, 117, 14.0, 44100), (0, 140, 0.01, 16000)])
def test_render_track_matches_concatenated_bars(label, bpm, duration_s, rate):
    got = render_track(label, bpm, duration_s, rate, np.random.default_rng(7))
    want = concatenated_render_track(label, bpm, duration_s, rate, np.random.default_rng(7))
    assert got.samples.tobytes() == want.samples.tobytes()


@pytest.mark.parametrize("samples", [
    np.zeros((1, 0)),
    np.stack([np.linspace(-3.0, 3.0, 1001), 1.7 * np.sin(np.arange(1001))]),
    np.array([[-1.0, -1.0 + 2**-17, -0.5 / 32768, 0.5 / 32768, 1.0 - 2**-16, 1.0]])],
    ids=["empty", "stereo_out_of_range", "rounding_edges"])
def test_save_wav_matches_whole_array_bytes(samples, tmp_path):
    buf = AudioBuffer(samples, 22050)
    save_wav(buf, tmp_path / "x.wav")
    assert (tmp_path / "x.wav").read_bytes() == wav_bytes(buf)


# ---------------------------------------------------------------- memory
def test_log_mel_memory_is_bounded(long_track):
    mel, peak = traced_peak_mb(log_mel, long_track.samples[0])
    assert peak <= 12, f"log_mel peaked at {peak:.1f} MB"
    assert mel.tobytes() == whole_log_mel(long_track.samples[0]).tobytes()


def test_render_track_memory_is_bounded():
    _, peak = traced_peak_mb(render_track, 0, BPM, 180.0, RATE, np.random.default_rng(0))
    assert peak <= 40, f"render_track peaked at {peak:.1f} MB"


def test_save_wav_memory_is_bounded(long_track, tmp_path):
    _, peak = traced_peak_mb(save_wav, long_track, tmp_path / "long.wav")
    assert peak <= 40, f"save_wav peaked at {peak:.1f} MB"
    assert (tmp_path / "long.wav").read_bytes() == wav_bytes(long_track)


def test_track_to_sequence_memory_is_bounded(long_track):
    """Stage 1 runs on each segment's feature map before the next is
    extracted, so its activations are live for one segment, not 22; a
    seq-512 map is a view of the track's log-mel (about 160 kB a segment)."""
    extractor = get_extractor("seq-512")
    stage1 = pipeline.build_model("audiocat", extractor=extractor, seed=0)
    period = 240.0 / BPM
    grid = BeatGrid(start=0.0, period=period, count=int(180.0 // period))
    seq, peak = traced_peak_mb(models.track_to_sequence, long_track, grid, stage1, extractor)
    assert peak <= 40, f"track_to_sequence peaked at {peak:.1f} MB"
    assert seq.length == int(180.0 // (4 * period))


def test_load_wav_memory_is_bounded(tmp_path):
    """The file (29 MB) and its float32 rows (61 MB) are live at once; a
    copy of the data chunk, of the interleaved samples, or a finiteness
    mask as large as the buffer (15 MB) is not."""
    raw = np.random.default_rng(0).integers(-32768, 32768, size=2 * 180 * 44100, dtype="<i2")
    path = tmp_path / "long.wav"
    path.write_bytes(raw_wav(1, 2, 16, raw.tobytes(), rate=44100))
    buf, peak = traced_peak_mb(load_wav, path)
    assert peak <= 165, f"load_wav peaked at {peak:.1f} MB"
    assert buf.samples.shape == (2, 180 * 44100)


def test_analysis_buffer_of_a_long_wav_is_bounded_per_frame(tmp_path):
    """60 s of 44.1 kHz stereo PCM16 read and brought to 16 kHz mono: the
    float32 rows take 8 bytes an input frame, their fold 4 and the 16 kHz
    row 1.5 (about 14 seen); float64 rows and fold would take 24 (27.6 seen)."""
    frames = 60 * 44100
    raw = np.random.default_rng(0).integers(-32768, 32768, size=2 * frames, dtype="<i2")
    path = tmp_path / "long.wav"
    path.write_bytes(raw_wav(1, 2, 16, raw.tobytes(), rate=44100))
    del raw
    mono, peak = traced_peak_mb(lambda: pipeline.analysis_buffer(load_wav(path)))
    per_frame = peak * 2**20 / frames
    assert per_frame <= 18, f"analysis_buffer(load_wav) peaked at {per_frame:.1f} B a frame"
    assert mono.frames == 60 * 16000


def test_resample_memory_is_bounded():
    """180 s of 48 kHz mono (66 MB) to 16 kHz: the output alone is 22 MB.
    Rows are read from the input itself, and only the row chunks that reach
    past either end of it are copied, so no padded copy of the whole input
    (66 MB more) is made."""
    buf = AudioBuffer(np.random.default_rng(0).uniform(-1, 1, (1, 180 * 48000)), 48000)
    out, peak = traced_peak_mb(resample, buf, 16000)
    assert peak <= 32, f"resample peaked at {peak:.1f} MB"
    assert out.frames == 180 * 16000

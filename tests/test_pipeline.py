import numpy as np
import pytest

from aigmdet import audio, dsp, experiment, nn, pipeline
from aigmdet.audio import AudioBuffer, load_wav, resample, save_wav
from aigmdet.data import Manifest, ManifestEntry, render_track
from aigmdet.dsp import FRAME_LEN, HOP, N_MELS, stft
from aigmdet.errors import InputError
from aigmdet.extractors import DspVectorExtractor, EmbeddingSequence, get_extractor
from aigmdet.models import (AudioCAT, FXSegment, segment_features,
                            track_to_sequence)
from aigmdet.nn import AttentionConfig

from util import click_track

SMALL = AttentionConfig(d_model=16, heads=2, ffn_dim=32)


# ---------------------------------------------------------------- beat analysis
def test_analyze_beats_full_chain():
    buf = click_track(120, 16.0, accent_every=4, accent_amp=1.0, base_amp=0.3)
    analysis = pipeline.analyze_beats(buf)
    assert abs(analysis.bpm - 120) <= 2.0
    # beats within 20 ms of the true 0.5 s grid
    frac = analysis.beats / 0.5
    assert np.abs(frac - np.round(frac)).max() * 0.5 <= 0.02
    # downbeats on the accented (phase-0) beats, bar period 2 s +- 2%
    dfrac = analysis.downbeats / 2.0
    assert np.abs(dfrac - np.round(dfrac)).max() * 2.0 <= 0.02
    assert abs(analysis.grid.period - 2.0) <= 0.04


def test_beat_analysis_holds_no_log_mel():
    """The log-mel stays on the buffer: a caller that keeps every analysis
    (as the benchmark's corpus check does) keeps no array larger than the
    beat list."""
    analysis = pipeline.analyze_beats(click_track(120, 16.0, accent_every=4))
    fields = [*vars(analysis).values(), *vars(analysis.grid).values()]
    arrays = [v for v in fields if isinstance(v, np.ndarray)]
    assert arrays and max(a.size for a in arrays) <= len(analysis.beats)


def test_analysis_buffer_normalizes():
    rng = np.random.default_rng(0)
    buf = AudioBuffer(rng.uniform(-0.5, 0.5, (2, 44100)), 44100)
    mono = pipeline.analysis_buffer(buf)
    assert mono.channels == 1 and mono.sample_rate == 16000


def test_analysis_buffer_of_16k_mono_is_the_track():
    buf = AudioBuffer(np.random.default_rng(0).uniform(-0.5, 0.5, (1, 16000)), 16000)
    assert pipeline.analysis_buffer(buf) is buf


def test_16k_pcm16_analysis_is_that_of_the_float64_row(tmp_path):
    """A 16 kHz mono PCM16 WAV is read into a float32 row holding int16 /
    32768 exactly, and dsp.stft reads float32: its log-mel bytes and beat
    grid are those of the float64 row that load_wav gave before."""
    path = tmp_path / "t16.wav"
    save_wav(render_track(0, 120.0, 24.0, 16000, np.random.default_rng(0)), path)
    mono = pipeline.analysis_buffer(load_wav(path))
    assert mono.samples.dtype == np.float32
    row64 = np.frombuffer(path.read_bytes()[44:], dtype="<i2").astype(np.float64) / 32768.0
    ref = AudioBuffer(row64[None, :], 16000)
    assert mono.log_mel().tobytes() == ref.log_mel().tobytes()
    got, want = pipeline.analyze_beats(mono), pipeline.analyze_beats(ref)
    assert got.grid == want.grid
    assert got.beats.tobytes() == want.beats.tobytes()
    assert got.downbeats.tobytes() == want.downbeats.tobytes()


# ---------------------------------------------------------------- model input
def test_model_input_of_a_stage1_model(tmp_path):
    """A stage-1 model reads the extractor's features of the whole clip."""
    path = tmp_path / "clip.wav"
    save_wav(render_track(0, 120, 4.0, 16000, np.random.default_rng(0)), path)
    read = pipeline.model_input("audiocat", "seq-512", None, "c.aigm")
    feats = read(path)
    assert feats.shape[1] == N_MELS
    want = pipeline.stage1_features(path, get_extractor("seq-512"))
    assert feats.tobytes() == want.tobytes()


def test_model_input_of_a_segtr(tmp_path):
    """A segtr reads the track's sequence over the stage 1 in its file."""
    path, ckpt = tmp_path / "long.wav", tmp_path / "s1.aigm"
    save_wav(render_track(0, 120, 24.0, 16000, np.random.default_rng(0)), path)
    stage1 = pipeline.build_model("fxseg", extractor=get_extractor("stats-160"), seed=0)
    pipeline.save_model(ckpt, stage1, "fxseg", "stats-160")
    seq = pipeline.model_input("segtr", "", ckpt, "s2.aigm")(path)
    want = pipeline.track_sequence_for_path(path, stage1, get_extractor("stats-160"))
    assert seq.vectors.tobytes() == want.vectors.tobytes()


def test_model_input_states_each_stage1_ckpt_rule(tmp_path):
    ckpt = tmp_path / "s2.aigm"
    pipeline.save_model(ckpt, pipeline.build_model("segtr", seed=0), "segtr")
    with pytest.raises(InputError, match=r"^--arch segtr: a segtr model needs --stage1-ckpt$"):
        pipeline.model_input("segtr", "", None, "--arch segtr")
    with pytest.raises(InputError,
                       match=r"^c\.aigm: a stage-1 \(fxseg\) model takes no --stage1-ckpt$"):
        pipeline.model_input("fxseg", "stats-160", ckpt, "c.aigm")
    with pytest.raises(InputError, match="a segtr checkpoint is not a stage-1 model$"):
        pipeline.model_input("segtr", "", ckpt, "--arch segtr")


def test_track_sequence_for_path(tmp_path):
    path = tmp_path / "long.wav"
    save_wav(render_track(0, 120, 24.0, 16000, np.random.default_rng(0)), path)
    stage1 = AudioCAT(d_enc=N_MELS, cfg=SMALL, seed=0)
    seq = pipeline.track_sequence_for_path(path, stage1, get_extractor("seq-512"))
    # 24 s track, 8 s four-bar windows -> about 3 segments, unpadded
    assert 2 <= len(seq.vectors) <= 3 and seq.vectors.shape[1] == SMALL.d_model


def test_experiment_features_are_the_pipeline_features(tmp_path):
    """extract_corpus and _stage2_examples build what segment_features and
    track_to_sequence build over the stats-160 preset, bit for bit."""
    path = tmp_path / "track.wav"
    save_wav(render_track(1, 120, 24.0, 16000, np.random.default_rng(3)), path)
    (track,) = experiment.extract_corpus(Manifest([ManifestEntry(str(path), 1)]))
    buf = load_wav(path)
    mono, grid = pipeline.analysis_buffer(buf), pipeline.analyze_beats(buf).grid
    extractor = get_extractor("stats-160")
    assert isinstance(extractor, DspVectorExtractor)
    expected = np.stack(list(segment_features(mono, grid, extractor)))
    assert track.vectors.tobytes() == expected.tobytes()

    stage1 = AudioCAT(d_enc=extractor.d_enc, cfg=SMALL, seed=0)
    ((seq, label),) = experiment._stage2_examples([track], stage1)
    want = track_to_sequence(mono, grid, stage1, extractor)
    assert label == 1
    assert seq.vectors.tobytes() == want.vectors.tobytes()


def test_one_stft_pass_per_track(tmp_path, monkeypatch):
    """Beat analysis and the segment features read one log-mel: the STFT
    takes each frame of the track once, in the experiment and in the
    stats-160 and seq-512 stage-2 paths alike."""
    path = tmp_path / "track.wav"
    save_wav(render_track(0, 120, 24.0, 16000, np.random.default_rng(6)), path)
    frames = []

    def counting_stft(x):
        spec = stft(x)
        frames.append(len(spec.magnitudes))
        return spec

    monkeypatch.setattr(dsp, "stft", counting_stft)
    track_frames = 1 + (24 * 16000 - FRAME_LEN) // HOP
    assert len(experiment.track_vectors(path)) >= 2
    assert sum(frames) == track_frames
    frames.clear()
    stage1 = FXSegment(d_enc=4 * N_MELS, n_tokens=4, cfg=SMALL, n_layers=1, seed=0)
    seq = pipeline.track_sequence_for_path(path, stage1, get_extractor("stats-160"))
    assert seq.length >= 2
    assert sum(frames) == track_frames
    frames.clear()
    stage1 = AudioCAT(d_enc=N_MELS, cfg=SMALL, n_layers=1, seed=0)
    seq = pipeline.track_sequence_for_path(path, stage1, get_extractor("seq-512"))
    assert seq.length >= 2
    assert sum(frames) == track_frames


def test_track_resampled_once(tmp_path, monkeypatch):
    """A 44.1 kHz stereo track is brought to 16 kHz mono once, not once for
    the beat grid and again for the segments."""
    track = render_track(0, 120, 16.0, 44100, np.random.default_rng(4))
    path = tmp_path / "stereo.wav"
    save_wav(AudioBuffer(np.stack([track.samples[0], 0.8 * track.samples[0]]), 44100), path)
    calls = []

    def counting_resample(buf, rate):
        calls.append(buf.sample_rate)
        return resample(buf, rate)

    monkeypatch.setattr(pipeline, "resample", counting_resample)
    features = experiment.track_vectors(path)
    assert len(features) >= 1
    assert calls == [44100]
    (corpus_track,) = experiment.extract_corpus(Manifest([ManifestEntry(str(path), 0)]))
    assert calls == [44100, 44100]
    assert corpus_track.vectors.tobytes() == features.tobytes()


def test_scores_do_not_depend_on_the_order_of_rates(tmp_path):
    """The resampler's bands are built once per rate pair in a process: a
    44.1 kHz PCM16 stereo WAV and a 48 kHz WAV scored through one scorer,
    in either order and twice each, score as each does with a cleared cache."""
    ckpt, stereo, wide = tmp_path / "s1.aigm", tmp_path / "44k.wav", tmp_path / "48k.wav"
    pipeline.save_model(ckpt, pipeline.build_model("audiocat", get_extractor("seq-512"), seed=0),
                        "audiocat", "seq-512")
    row = render_track(0, 120, 6.0, 44100, np.random.default_rng(0)).samples[0]
    save_wav(AudioBuffer(np.stack([row, 0.5 * row]), 44100), stereo)
    save_wav(render_track(1, 130, 6.0, 48000, np.random.default_rng(1)), wide)
    score = pipeline.scorer(ckpt)
    alone = {}
    for path in (stereo, wide):
        audio._phase_bands.cache_clear()
        alone[path] = score(path).probability
    assert alone[stereo] != alone[wide]
    for order in ([stereo, wide], [wide, stereo]):
        audio._phase_bands.cache_clear()
        assert [score(p).probability for p in order * 2] == [alone[p] for p in order * 2]


# ---------------------------------------------------------------- checkpoints
def _built(arch, preset="", seed=0):
    """build_model's model of `arch` over `preset`, and the preset."""
    extractor = get_extractor(preset) if preset else None
    return pipeline.build_model(arch, extractor, seed=seed), preset


@pytest.mark.parametrize("arch,build", [
    ("audiocat", lambda: _built("audiocat", "seq-512", seed=1)),
    pytest.param("audiocat", lambda: _built("audiocat", "stats-160", seed=1),
                 id="audiocat-stats-160"),
    ("fxseg", lambda: _built("fxseg", "stats-160", seed=2)),
    ("segtr", lambda: _built("segtr", seed=3)),
])
def test_model_checkpoint_round_trip(tmp_path, arch, build):
    model, preset = build()
    path = tmp_path / f"{arch}.aigm"
    pipeline.save_model(path, model, arch, extractor_preset=preset)
    assert nn.load_checkpoint(path)[1] == {"arch": arch, "extractor": preset}
    loaded, got_arch, got_preset = pipeline.load_model(path)
    assert got_arch == arch
    assert got_preset == preset
    for key, value in model.state_arrays().items():
        assert np.array_equal(loaded.state_arrays()[key], value)
    # identical forward behavior
    rng = np.random.default_rng(0)
    if arch == "audiocat":
        x = rng.normal(size=(5, model.d_enc))
        assert loaded.forward([x])[0].logit == model.forward([x])[0].logit
    elif arch == "fxseg":
        x = rng.normal(size=model.d_enc)
        assert loaded.forward([x])[0].logit == model.forward([x])[0].logit
    else:
        seq = EmbeddingSequence(rng.normal(size=(6, model.d_in)))
        assert loaded.forward(seq).logit == model.forward(seq).logit


def test_build_model_variants():
    ext = get_extractor("seq-512")
    m = pipeline.build_model("audiocat", extractor=ext)
    assert m.d_enc == N_MELS and m.in_proj.weight.shape == (N_MELS, AttentionConfig().d_model)
    assert pipeline.build_model("segtr").d_in == AttentionConfig().d_model
    m2 = pipeline.build_model("segtr", d_in=16)
    assert m2.d_in == 16
    with pytest.raises(ValueError):
        pipeline.build_model("mystery")
    for arch in ("audiocat", "fxseg"):
        with pytest.raises(ValueError, match="needs an extractor"):
            pipeline.build_model(arch)
    with pytest.raises(InputError, match="fxseg needs a vector extractor"):
        pipeline.build_model("fxseg", ext)


# ---------------------------------------------------------------- experiment
def test_experiment_smoke(tmp_path):
    from aigmdet.experiment import run_experiment
    (result,) = run_experiment(tmp_path / "mini", n_per_class=8, duration_s=32.0,
                               seeds=(0,), epochs=2, lr=1e-3)
    assert 0.0 <= result.accuracy <= 1.0
    assert 0.0 <= result.auc <= 1.0
    # reusing the directory must not regenerate audio
    manifest = (tmp_path / "mini" / "manifest.csv").read_text()
    run_experiment(tmp_path / "mini", n_per_class=8, duration_s=32.0,
                   seeds=(0,), epochs=1, lr=1e-3)
    assert (tmp_path / "mini" / "manifest.csv").read_text() == manifest

import time
from dataclasses import asdict

import numpy as np
import pytest

from aigmdet import experiment, pipeline
from aigmdet.audio import AudioBuffer, load_wav, resample, save_wav
from aigmdet.data import Manifest, ManifestEntry, render_track
from aigmdet.extractors import (SEGMENT_EMBED_DIM, DspVectorExtractor, EmbeddingSequence,
                                get_extractor)
from aigmdet.models import (AudioCAT, FXSegment, SegmentTransformer, segment_features,
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


def test_analysis_buffer_normalizes():
    rng = np.random.default_rng(0)
    buf = AudioBuffer(rng.uniform(-0.5, 0.5, (2, 44100)), 44100)
    mono = pipeline.analysis_buffer(buf)
    assert mono.channels == 1 and mono.sample_rate == 16000


def test_analysis_buffer_of_16k_mono_is_the_track():
    buf = AudioBuffer(np.random.default_rng(0).uniform(-0.5, 0.5, (1, 16000)), 16000)
    assert pipeline.analysis_buffer(buf) is buf


# ---------------------------------------------------------------- datasets
def test_build_stage1_dataset(tmp_path):
    rng = np.random.default_rng(0)
    entries = []
    for i in range(4):
        path = tmp_path / f"c{i}.wav"
        save_wav(render_track(i % 2, 120, 4.0, 16000, rng), path)
        entries.append(ManifestEntry(str(path), i % 2))
    ext = get_extractor("seq-512")
    data = pipeline.build_stage1_dataset(entries, ext)
    assert len(data) == 4
    feats, label = data[0]
    assert feats.shape[1] == 512 and label == 0


def test_track_sequence_for_path(tmp_path):
    path = tmp_path / "long.wav"
    save_wav(render_track(0, 120, 24.0, 16000, np.random.default_rng(0)), path)
    stage1 = AudioCAT(d_enc=512, cfg=SMALL, seed=0)
    seq = pipeline.track_sequence_for_path(path, stage1, get_extractor("seq-512"))
    # 24 s track, 8 s four-bar windows -> about 3 segments, unpadded
    assert 2 <= len(seq.vectors) <= 3 and seq.vectors.shape[1] == SMALL.d_model
    assert seq.mask.all()


def test_experiment_features_are_the_pipeline_features(tmp_path):
    """extract_corpus and _stage2_examples build what segment_features and
    track_to_sequence build, bit for bit."""
    path = tmp_path / "track.wav"
    save_wav(render_track(1, 120, 24.0, 16000, np.random.default_rng(3)), path)
    (track,) = experiment.extract_corpus(Manifest([ManifestEntry(str(path), 1)]))
    buf = load_wav(path)
    mono, grid = pipeline.analysis_buffer(buf), pipeline.analyze_beats(buf).grid
    extractor = DspVectorExtractor(SEGMENT_EMBED_DIM)
    expected = np.stack(list(segment_features(mono, grid, extractor)))
    assert track.vectors.tobytes() == expected.tobytes()

    stage1 = AudioCAT(d_enc=SEGMENT_EMBED_DIM, cfg=SMALL, seed=0)
    ((seq, label),) = experiment._stage2_examples([track], stage1)
    want = track_to_sequence(mono, grid, stage1, extractor)
    assert label == 1
    assert seq.vectors.tobytes() == want.vectors.tobytes()
    assert np.array_equal(seq.mask, want.mask)


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


# ---------------------------------------------------------------- checkpoints
@pytest.mark.parametrize("arch,build", [
    ("audiocat", lambda: AudioCAT(d_enc=24, cfg=SMALL, n_queries=3, n_layers=1, seed=1)),
    ("fxseg", lambda: FXSegment(d_enc=32, n_tokens=8, cfg=SMALL, n_layers=1, seed=2)),
    ("segtr", lambda: SegmentTransformer(d_in=12, cfg=SMALL, max_len=6,
                                         n_layers_content=1, n_layers_structure=1, seed=3)),
])
def test_model_checkpoint_round_trip(tmp_path, arch, build):
    model = build()
    path = tmp_path / f"{arch}.aigm"
    pipeline.save_model(path, model, arch, extractor_preset="seq-512")
    loaded, got_arch, preset = pipeline.load_model(path)
    assert got_arch == arch
    assert preset == "seq-512"
    for key, value in model.state_arrays().items():
        assert np.array_equal(loaded.state_arrays()[key], value)
    # identical forward behavior
    rng = np.random.default_rng(0)
    if arch == "audiocat":
        x = rng.normal(size=(5, 24))
        assert loaded.forward([x])[0].logit == model.forward([x])[0].logit
    elif arch == "fxseg":
        x = rng.normal(size=32)
        assert loaded.forward([x])[0].logit == model.forward([x])[0].logit
    else:
        seq = EmbeddingSequence(rng.normal(size=(6, 12)), np.ones(6, dtype=bool))
        assert loaded.forward(seq).logit == model.forward(seq).logit


@pytest.mark.parametrize("arch,build", [
    ("audiocat", lambda: AudioCAT(d_enc=24, cfg=SMALL, n_queries=3, n_layers=1, seed=1)),
    ("fxseg", lambda: FXSegment(d_enc=32, n_tokens=8, cfg=SMALL, n_layers=1, seed=2)),
    ("segtr", lambda: SegmentTransformer(d_in=12, cfg=SMALL, max_len=6,
                                         n_layers_content=1, n_layers_structure=0, seed=3)),
])
def test_header_sizes_are_checked_against_the_tensors(arch, build):
    """check_sizes passes a model's own header and refuses any size of it
    scaled up, in well under a second, without building anything."""
    model = build()
    shapes = {k: a.shape for k, a in model.state_arrays().items()}
    pipeline.check_sizes(arch, model.cfg, model.hparams, shapes)
    cfg = asdict(model.cfg)
    wide = cfg["d_model"] * 2**12
    oversized = [(dict(cfg, d_model=wide, ffn_dim=wide), model.hparams),
                 (dict(cfg, ffn_dim=10**9), model.hparams)]
    oversized += [(cfg, dict(model.hparams, **{k: 10**6})) for k in model.hparams]
    start = time.perf_counter()
    for attention, hparams in oversized:
        with pytest.raises(ValueError, match="the header asks for"):
            pipeline.check_sizes(arch, AttentionConfig(**attention), hparams, shapes)
    assert time.perf_counter() - start < 1.0


def test_build_model_variants():
    ext = get_extractor("seq-512")
    m = pipeline.build_model("audiocat", extractor=ext, cfg=SMALL)
    assert m.d_enc == 512
    m2 = pipeline.build_model("segtr", cfg=SMALL, d_in=16)
    assert m2.d_in == 16
    with pytest.raises(ValueError):
        pipeline.build_model("mystery")
    for arch in ("audiocat", "fxseg"):
        with pytest.raises(ValueError, match="needs an extractor"):
            pipeline.build_model(arch)


# ---------------------------------------------------------------- experiment
def test_experiment_smoke(tmp_path):
    from aigmdet.experiment import run_experiment
    result = run_experiment(tmp_path / "mini", n_per_class=8, duration_s=32.0,
                            seeds=(0,), epochs=2)
    assert len(result.per_seed) == 1
    assert 0.0 <= result.mean_accuracy <= 1.0
    assert 0.0 <= result.mean_auc <= 1.0
    # reusing the directory must not regenerate audio
    manifest = (tmp_path / "mini" / "manifest.csv").read_text()
    run_experiment(tmp_path / "mini", n_per_class=8, duration_s=32.0,
                   seeds=(0,), epochs=1)
    assert (tmp_path / "mini" / "manifest.csv").read_text() == manifest

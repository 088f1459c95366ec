import numpy as np
import pytest

from aigmdet import experiment, pipeline
from aigmdet.audio import AudioBuffer, load_wav, save_wav
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
    assert seq.vectors.shape == (48, SMALL.d_model)
    # 24 s track, 8 s four-bar windows -> about 3 valid segments
    assert 2 <= seq.mask.sum() <= 3


def test_experiment_features_are_the_pipeline_features(tmp_path):
    """extract_corpus and _stage2_examples build what segment_features and
    track_to_sequence build, bit for bit."""
    path = tmp_path / "track.wav"
    save_wav(render_track(1, 120, 24.0, 16000, np.random.default_rng(3)), path)
    (track,) = experiment.extract_corpus(Manifest([ManifestEntry(str(path), 1)]))
    buf = load_wav(path)
    mono, grid = pipeline.analysis_buffer(buf), pipeline.analyze_beats(buf).grid
    extractor = DspVectorExtractor(SEGMENT_EMBED_DIM)
    expected = np.stack(segment_features(mono, grid, extractor))
    assert track.vectors.tobytes() == expected.tobytes()

    stage1 = AudioCAT(d_enc=SEGMENT_EMBED_DIM, cfg=SMALL, seed=0)
    ((seq, label),) = experiment._stage2_examples([track], stage1, max_len=48)
    want = track_to_sequence(mono, grid, stage1, extractor, max_len=48)
    assert label == 1
    assert seq.vectors.tobytes() == want.vectors.tobytes()
    assert np.array_equal(seq.mask, want.mask)


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
        assert loaded.forward(x).logit == model.forward(x).logit
    elif arch == "fxseg":
        x = rng.normal(size=32)
        assert loaded.forward(x).logit == model.forward(x).logit
    else:
        seq = EmbeddingSequence(rng.normal(size=(6, 12)), np.ones(6, dtype=bool))
        assert loaded.forward(seq).logit == model.forward(seq).logit


def test_build_model_variants():
    ext = get_extractor("seq-512")
    m = pipeline.build_model("audiocat", extractor=ext, cfg=SMALL)
    assert m.d_enc == 512
    m2 = pipeline.build_model("segtr", cfg=SMALL, d_in=16)
    assert m2.d_in == 16
    with pytest.raises(ValueError):
        pipeline.build_model("mystery")
    with pytest.raises(ValueError):
        pipeline.build_model("audiocat")


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

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aigmdet import nn
from aigmdet.audio import AudioBuffer
from aigmdet.beats import BeatGrid
from aigmdet.extractors import EmbeddingSequence, RandomStubExtractor, pad_or_crop
from aigmdet.models import (AudioCAT, DetectorOutput,
                            EmptySequence, FXSegment, SegmentTransformer,
                            export_ssm_csv, export_ssm_pgm, predict,
                            prepare_for_extractor, self_similarity,
                            track_to_sequence)
from aigmdet.nn import AllMasked, AttentionConfig, ShapeMismatch

from util import finite_diff_check, sine_buffer

SMALL = AttentionConfig(d_model=16, heads=2, ffn_dim=32)


def seq_of(vectors, mask=None):
    vectors = np.asarray(vectors, dtype=np.float64)
    if mask is None:
        mask = np.ones(len(vectors), dtype=bool)
    return EmbeddingSequence(vectors, mask)


# ---------------------------------------------------------------- SSM
def test_ssm_symmetric_unit_diagonal():
    rng = np.random.default_rng(0)
    ssm = self_similarity(seq_of(rng.normal(size=(6, 8))))
    m = ssm.matrix
    assert np.array_equal(m, m.T)
    assert np.allclose(np.diag(m), 1.0)
    assert m.min() >= -1.0 and m.max() <= 1.0


def test_ssm_identical_rows_give_ones():
    ssm = self_similarity(seq_of(np.tile([1.0, 2.0, 3.0], (4, 1))))
    assert np.allclose(ssm.matrix, 1.0)


def test_ssm_orthogonal_rows_give_zero_off_diagonal():
    ssm = self_similarity(seq_of(np.eye(3)))
    assert np.allclose(ssm.matrix, np.eye(3))


def test_ssm_cosine_oracle():
    a = np.array([1.0, 0.0])
    b = np.array([1.0, 1.0])
    ssm = self_similarity(seq_of(np.stack([a, b])))
    assert abs(ssm.matrix[0, 1] - 1.0 / np.sqrt(2)) < 1e-12


def test_ssm_masked_and_zero_rows_zeroed():
    vectors = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
    mask = np.array([True, True, False])
    ssm = self_similarity(seq_of(vectors, mask))
    assert ssm.mask.tolist() == [True, False, False]
    assert np.array_equal(ssm.matrix[1], np.zeros(3))
    assert np.array_equal(ssm.matrix[:, 2], np.zeros(3))
    assert ssm.matrix[0, 0] == 1.0


def test_ssm_scale_invariant():
    rng = np.random.default_rng(1)
    v = rng.normal(size=(5, 8))
    a = self_similarity(seq_of(v)).matrix
    b = self_similarity(seq_of(3.7 * v)).matrix
    assert np.allclose(a, b, atol=1e-12)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 50), st.integers(2, 8))
def test_ssm_rotation_pattern_invariance(seed, n):
    # rotating the segment order permutes the SSM rows/cols identically
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(n, 6))
    base = self_similarity(seq_of(v)).matrix
    k = rng.integers(1, n)
    rotated = self_similarity(seq_of(np.roll(v, k, axis=0))).matrix
    perm = np.roll(np.arange(n), k)
    assert np.allclose(rotated, base[np.ix_(perm, perm)], atol=1e-12)


# ---------------------------------------------------------------- outputs
def test_detector_output_sigmoid_consistency():
    from aigmdet.tensor import Tensor
    out = DetectorOutput.from_tensors(Tensor(np.array(0.0)), Tensor(np.zeros(4)))
    assert out.probability == 0.5
    hot = DetectorOutput.from_tensors(Tensor(np.array(-800.0)), Tensor(np.zeros(4)))
    assert 0.0 <= hot.probability < 1e-300 or hot.probability == 0.0


def test_predict_threshold_rule():
    out = DetectorOutput(logit=0.0, probability=0.5, pooled=np.zeros(1))
    assert predict(out) == 1  # >= threshold
    assert predict(out, threshold=0.51) == 0


# ---------------------------------------------------------------- AudioCAT
def test_audiocat_shapes_and_determinism():
    model = AudioCAT(d_enc=24, cfg=SMALL, seed=0)
    rng = np.random.default_rng(0)
    feats = rng.normal(size=(31, 24))
    out1, out2 = model.forward(feats), model.forward(feats)
    assert out1.pooled.shape == (16,)
    assert out1.logit == out2.logit
    assert 0.0 <= out1.probability <= 1.0


def test_audiocat_variable_length_inputs():
    model = AudioCAT(d_enc=24, cfg=SMALL)
    rng = np.random.default_rng(1)
    for t in (1, 7, 311):
        out = model.forward(rng.normal(size=(t, 24)))
        assert np.isfinite(out.logit)


def test_audiocat_rejects_bad_input():
    model = AudioCAT(d_enc=24, cfg=SMALL)
    with pytest.raises(ShapeMismatch):
        model.forward(np.zeros((5, 23)))
    with pytest.raises(EmptySequence):
        model.forward(np.zeros((0, 24)))


def test_audiocat_gradients():
    model = AudioCAT(d_enc=6, cfg=SMALL, n_queries=2, n_layers=1, seed=3)
    rng = np.random.default_rng(3)
    feats = rng.normal(size=(4, 6))
    params = model.parameters()
    finite_diff_check(lambda: model.loss(feats, 1.0), list(params.values()), n_coords=3,
                      rng=np.random.default_rng(0))


def test_audiocat_memory_mask_blocks_positions():
    model = AudioCAT(d_enc=8, cfg=SMALL, seed=5)
    rng = np.random.default_rng(5)
    feats = rng.normal(size=(6, 8))
    mask = np.array([True, True, True, False, False, False])
    base = model.forward(feats, mask=mask).logit
    feats2 = feats.copy()
    feats2[3:] = 99.0
    assert model.forward(feats2, mask=mask).logit == base


# ---------------------------------------------------------------- FXSegment
def test_fxsegment_shapes():
    model = FXSegment(d_enc=64, n_tokens=16, cfg=SMALL)
    rng = np.random.default_rng(0)
    out = model.forward(rng.normal(size=64))
    assert out.pooled.shape == (16,)
    assert np.isfinite(out.logit)


def test_fxsegment_dim_checks():
    with pytest.raises(ShapeMismatch):
        FXSegment(d_enc=65, n_tokens=16, cfg=SMALL)
    model = FXSegment(d_enc=64, n_tokens=16, cfg=SMALL)
    with pytest.raises(ShapeMismatch):
        model.forward(np.zeros(63))


def test_fxsegment_gradients():
    model = FXSegment(d_enc=12, n_tokens=4, cfg=SMALL, n_layers=1, seed=7)
    rng = np.random.default_rng(7)
    emb = rng.normal(size=12)
    finite_diff_check(lambda: model.loss(emb, 0.0), list(model.parameters().values()),
                      n_coords=3, rng=np.random.default_rng(1))


# ---------------------------------------------------------------- SegmentTransformer
def make_seq(rng, n_valid, max_len=8, d=10):
    v = np.zeros((max_len, d))
    v[:n_valid] = rng.normal(size=(n_valid, d))
    mask = np.zeros(max_len, dtype=bool)
    mask[:n_valid] = True
    return EmbeddingSequence(v, mask)


def test_segtr_shapes_and_probability():
    model = SegmentTransformer(d_in=10, cfg=SMALL, max_len=8)
    seq = make_seq(np.random.default_rng(0), 5)
    out = model.forward(seq)
    assert out.pooled.shape == (32,)  # [2 * d_model]
    assert 0.0 <= out.probability <= 1.0


def test_segtr_rejects_wrong_length_or_dim():
    model = SegmentTransformer(d_in=10, cfg=SMALL, max_len=8)
    with pytest.raises(ShapeMismatch):
        model.forward(make_seq(np.random.default_rng(0), 3, max_len=6))
    bad = EmbeddingSequence(np.zeros((8, 9)), np.ones(8, dtype=bool))
    with pytest.raises(ShapeMismatch):
        model.forward(bad)


def test_segtr_all_masked():
    model = SegmentTransformer(d_in=10, cfg=SMALL, max_len=8)
    seq = EmbeddingSequence(np.zeros((8, 10)), np.zeros(8, dtype=bool))
    with pytest.raises(AllMasked):
        model.forward(seq)


def test_segtr_padding_invisible():
    # logit must not change when padded (masked) rows take arbitrary values
    model = SegmentTransformer(d_in=10, cfg=SMALL, max_len=8, seed=2)
    rng = np.random.default_rng(2)
    seq = make_seq(rng, 5)
    base = model.forward(seq).logit
    tampered = seq.vectors.copy()
    tampered[5:] = rng.normal(size=(3, 10)) * 50
    out = model.forward(EmbeddingSequence(tampered, seq.mask)).logit
    assert out == base  # bit-exact


def test_segtr_gradients():
    model = SegmentTransformer(d_in=6, cfg=SMALL, max_len=4,
                               n_layers_content=1, n_layers_structure=1, seed=4)
    seq = make_seq(np.random.default_rng(4), 3, max_len=4, d=6)
    finite_diff_check(lambda: model.loss(seq, 1.0), list(model.parameters().values()),
                      n_coords=3, rng=np.random.default_rng(2))


def test_segtr_structure_tokens_are_the_ssm():
    model = SegmentTransformer(d_in=10, cfg=SMALL, max_len=8)
    seq = make_seq(np.random.default_rng(5), 6)
    assert np.array_equal(model.structure_tokens(seq),
                          self_similarity(seq).matrix)


# ---------------------------------------------------------------- glue
def test_prepare_for_extractor_normalizes():
    ext = RandomStubExtractor(8)
    stereo_441 = AudioBuffer(np.random.default_rng(0).uniform(-0.5, 0.5, (2, 44100)), 44100)
    out = prepare_for_extractor(stereo_441, ext)
    assert out.channels == 1
    assert out.sample_rate == 16000


def test_track_to_sequence_shapes():
    ext = RandomStubExtractor(8)
    stage1 = AudioCAT(d_enc=8, cfg=SMALL, seed=0)
    # stub is "vector" kind: AudioCAT treats a [d] vector as one token
    track = sine_buffer(440, 20.0)
    grid = BeatGrid(start=0.0, period=2.0, count=10)
    seq = track_to_sequence(track, grid, stage1, ext, max_len=4)
    assert seq.vectors.shape == (4, SMALL.d_model)
    # 20 s / 8 s windows -> 2 segments valid
    assert seq.mask.tolist() == [True, True, False, False]


# ---------------------------------------------------------------- exports
def test_export_ssm_csv_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    ssm = self_similarity(seq_of(rng.normal(size=(5, 4))))
    path = tmp_path / "ssm.csv"
    export_ssm_csv(ssm, path)
    loaded = np.loadtxt(path, delimiter=",")
    assert np.allclose(loaded, ssm.matrix, atol=1e-9)


def test_export_ssm_pgm(tmp_path):
    ssm = self_similarity(seq_of(np.eye(3)))
    path = tmp_path / "ssm.pgm"
    export_ssm_pgm(ssm, path)
    blob = path.read_bytes()
    assert blob.startswith(b"P5\n3 3\n255\n")
    pixels = np.frombuffer(blob[len(b"P5\n3 3\n255\n"):], dtype=np.uint8).reshape(3, 3)
    assert (np.diag(pixels) == 255).all()
    assert pixels[0, 1] == 128  # similarity 0 -> round(127.5) = 128

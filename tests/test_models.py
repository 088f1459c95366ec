import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aigmdet import nn
from aigmdet.audio import AudioBuffer
from aigmdet.beats import BeatGrid, segment_bars
from aigmdet.dsp import FRAME_LEN, HOP, log_mel, segment_frames
from aigmdet.errors import InputError
from aigmdet.extractors import (MAX_SEQ_LEN, DspSequenceExtractor, EmbeddingSequence,
                                get_extractor)
from aigmdet.models import (AudioCAT, DetectorOutput, FXSegment,
                            SegmentTransformer, export_ssm_csv, export_ssm_pgm,
                            features_to_sequence, predict, segment_features,
                            self_similarity, track_to_sequence)
from aigmdet.nn import AttentionConfig

from util import RandomStubExtractor, finite_diff_check, sine_buffer

SMALL = AttentionConfig(d_model=16, heads=2, ffn_dim=32)


# ---------------------------------------------------------------- SSM
def test_ssm_symmetric_unit_diagonal():
    rng = np.random.default_rng(0)
    m = self_similarity(EmbeddingSequence(rng.normal(size=(6, 8))))
    assert np.array_equal(m, m.T)
    assert np.allclose(np.diag(m), 1.0)
    assert m.min() >= -1.0 and m.max() <= 1.0


def test_ssm_identical_rows_give_ones():
    ssm = self_similarity(EmbeddingSequence(np.tile([1.0, 2.0, 3.0], (4, 1))))
    assert np.allclose(ssm, 1.0)


def test_ssm_orthogonal_rows_give_zero_off_diagonal():
    ssm = self_similarity(EmbeddingSequence(np.eye(3)))
    assert np.allclose(ssm, np.eye(3))


def test_ssm_cosine_oracle():
    a = np.array([1.0, 0.0])
    b = np.array([1.0, 1.0])
    ssm = self_similarity(EmbeddingSequence(np.stack([a, b])))
    assert abs(ssm[0, 1] - 1.0 / np.sqrt(2)) < 1e-12


def test_ssm_masked_and_zero_rows_zeroed():
    """A zero-norm row is masked out of the SSM: its row and column are zero."""
    ssm = self_similarity(EmbeddingSequence([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]))
    assert np.array_equal(ssm[1], np.zeros(3))
    assert np.array_equal(ssm[:, 1], np.zeros(3))
    assert ssm[0, 0] == ssm[2, 2] == 1.0 and ssm[0, 2] == 0.0


def test_ssm_scale_invariant():
    rng = np.random.default_rng(1)
    v = rng.normal(size=(5, 8))
    a = self_similarity(EmbeddingSequence(v))
    b = self_similarity(EmbeddingSequence(3.7 * v))
    assert np.allclose(a, b, atol=1e-12)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 50), st.integers(2, 8))
def test_ssm_rotation_pattern_invariance(seed, n):
    # rotating the segment order permutes the SSM rows/cols identically
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(n, 6))
    base = self_similarity(EmbeddingSequence(v))
    k = rng.integers(1, n)
    rotated = self_similarity(EmbeddingSequence(np.roll(v, k, axis=0)))
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
    (out1,), (out2,) = model.forward([feats]), model.forward([feats])
    assert out1.pooled.shape == (16,)
    assert out1.logit == out2.logit
    assert 0.0 <= out1.probability <= 1.0


def test_audiocat_variable_length_inputs():
    model = AudioCAT(d_enc=24, cfg=SMALL)
    rng = np.random.default_rng(1)
    for t in (1, 7, 311):
        (out,) = model.forward([rng.normal(size=(t, 24))])
        assert np.isfinite(out.logit)


def test_audiocat_rejects_bad_input():
    model = AudioCAT(d_enc=24, cfg=SMALL)
    with pytest.raises(ValueError, match=r"features dim 23 vs d_enc 24"):
        model.forward([np.zeros((5, 23))])
    with pytest.raises(ValueError, match="an example has no rows"):
        model.forward([np.zeros((0, 24))])


def test_audiocat_gradients():
    model = AudioCAT(d_enc=6, cfg=SMALL, n_queries=2, n_layers=1, seed=3)
    rng = np.random.default_rng(3)
    feats = rng.normal(size=(4, 6))
    params = model.parameters()
    finite_diff_check(lambda: model.loss([feats], [1.0], nn.bce_loss), list(params.values()), n_coords=3,
                      rng=np.random.default_rng(0))


# ---------------------------------------------------------------- FXSegment
def test_fxsegment_shapes():
    model = FXSegment(d_enc=64, n_tokens=16, cfg=SMALL)
    rng = np.random.default_rng(0)
    (out,) = model.forward([rng.normal(size=64)])
    assert out.pooled.shape == (16,)
    assert np.isfinite(out.logit)


def test_fxsegment_dim_checks():
    with pytest.raises(ValueError, match="d_enc 65 not divisible by 16 tokens"):
        FXSegment(d_enc=65, n_tokens=16, cfg=SMALL)
    model = FXSegment(d_enc=64, n_tokens=16, cfg=SMALL)
    with pytest.raises(ValueError, match="embedding dim 63 vs d_enc 64"):
        model.forward([np.zeros(63)])


def test_fxsegment_gradients():
    model = FXSegment(d_enc=12, n_tokens=4, cfg=SMALL, n_layers=1, seed=7)
    rng = np.random.default_rng(7)
    emb = rng.normal(size=12)
    finite_diff_check(lambda: model.loss([emb], [0.0], nn.focal_loss), list(model.parameters().values()),
                      n_coords=3, rng=np.random.default_rng(1))


# ---------------------------------------------------------------- SegmentTransformer
def make_seq(rng, n, d=10):
    return EmbeddingSequence(rng.normal(size=(n, d)))


def test_segtr_shapes_and_probability():
    model = SegmentTransformer(d_in=10, cfg=SMALL, max_len=8)
    seq = make_seq(np.random.default_rng(0), 5)
    out = model.forward(seq)
    assert out.pooled.shape == (32,)  # [2 * d_model]
    assert 0.0 <= out.probability <= 1.0


def test_segtr_rejects_wrong_dim():
    model = SegmentTransformer(d_in=10, cfg=SMALL, max_len=8)
    bad = EmbeddingSequence(np.zeros((8, 9)))
    with pytest.raises(ValueError, match="sequence dim 9 vs d_in 10"):
        model.forward(bad)


def test_segtr_all_masked():
    """A sequence with no rows leaves the padding mask no valid row."""
    model = SegmentTransformer(d_in=10, cfg=SMALL, max_len=8)
    with pytest.raises(ValueError, match="an example has no rows"):
        model.forward(EmbeddingSequence(np.zeros((0, 10))))


def test_segtr_reads_the_first_max_len_rows():
    model = SegmentTransformer(d_in=6, cfg=SMALL, max_len=8, seed=5)
    rng = np.random.default_rng(5)
    long, short = EmbeddingSequence(rng.normal(size=(12, 6))), EmbeddingSequence(rng.normal(size=(3, 6)))
    first = EmbeddingSequence(long.vectors[:8])
    out, want = model.forward(long), model.forward(first)
    assert out.logit == want.logit and np.array_equal(out.pooled, want.pooled)
    logits, pooled = model.forward_tensor([long, short])
    want_logits, want_pooled = model.forward_tensor([first, short])
    assert np.array_equal(logits.data, want_logits.data)
    assert np.array_equal(pooled.data, want_pooled.data)


def test_segtr_gradients():
    model = SegmentTransformer(d_in=6, cfg=SMALL, max_len=4,
                               n_layers_content=1, n_layers_structure=1, seed=4)
    seq = make_seq(np.random.default_rng(4), 3, d=6)
    finite_diff_check(lambda: model.loss([seq], [1.0], nn.bce_loss), list(model.parameters().values()),
                      n_coords=3, rng=np.random.default_rng(2))


# ---------------------------------------------------------------- batching
def batch_case(arch):
    """A model and a batch of 3 inputs of mixed lengths."""
    rng = np.random.default_rng(21)
    if arch == "audiocat":
        model = AudioCAT(d_enc=6, cfg=SMALL, n_queries=3, seed=21)
        return model, [rng.normal(size=(t, 6)) for t in (5, 2, 3)]
    if arch == "fxseg":
        model = FXSegment(d_enc=12, n_tokens=4, cfg=SMALL, seed=21)
        return model, [rng.normal(size=12) for _ in range(3)]
    model = SegmentTransformer(d_in=6, cfg=SMALL, max_len=8, seed=21)
    return model, [make_seq(rng, n, d=6) for n in (5, 2, 3)]


ARCHS = ["audiocat", "fxseg", "segtr"]


@pytest.mark.parametrize("arch", ARCHS)
def test_batch_outputs_match_batch_of_one(arch):
    model, xs = batch_case(arch)
    logits, pooled = model.forward_tensor(xs)
    assert logits.shape == (3,) and pooled.shape[0] == 3
    if arch != "segtr":  # stage-1 forward takes the batch
        assert [out.logit for out in model.forward(xs)] == logits.data.tolist()
    for i, x in enumerate(xs):
        single = model.forward(x) if arch == "segtr" else model.forward([x])[0]
        assert abs(logits.data[i] - single.logit) <= 1e-12
        assert np.abs(pooled.data[i] - single.pooled).max() <= 1e-12


@pytest.mark.parametrize("arch", ARCHS)
def test_batch_loss_and_grads_are_the_mean_over_examples(arch):
    model, xs = batch_case(arch)
    labels = [1, 0, 1]
    loss_fn = nn.focal_loss if arch == "fxseg" else nn.bce_loss
    params = model.parameters()
    model.zero_grad()
    batch_loss = model.loss(xs, labels, loss_fn)
    batch_loss.backward()
    batch_grads = {k: p.grad.copy() for k, p in params.items()}

    losses, grads = [], {k: np.zeros_like(p.data) for k, p in params.items()}
    for x, y in zip(xs, labels):
        model.zero_grad()
        loss = model.loss([x], [y], loss_fn)
        loss.backward()
        losses.append(float(loss.data))
        for k, p in params.items():
            grads[k] += p.grad / len(xs)
    assert batch_loss.shape == ()
    assert abs(float(batch_loss.data) - np.mean(losses)) <= 1e-12
    for k in params:
        assert np.abs(batch_grads[k] - grads[k]).max() <= 1e-12, k


def assert_mates_are_invisible(model, xs, scramble):
    """Each example's outputs stay bit for bit the same when its batch-mates
    change value but keep their lengths (scramble(x, rng) is x with new
    values), so neither the zero rows that pad it to the batch's longest
    example nor its mates' rows reach it."""
    base_logits, base_pooled = model.forward_tensor(xs)
    rng = np.random.default_rng(0)
    for i in range(len(xs)):
        logits, pooled = model.forward_tensor(
            [x if j == i else scramble(x, rng) for j, x in enumerate(xs)])
        assert logits.data[i] == base_logits.data[i]
        assert np.array_equal(pooled.data[i], base_pooled.data[i])


def test_audiocat_padding_in_batch_is_bit_invisible():
    model, xs = batch_case("audiocat")
    assert_mates_are_invisible(model, xs, lambda x, rng: rng.normal(size=x.shape) * 100)


def test_audiocat_padding_is_bit_invisible_past_heads_x_queries():
    """Maps of 20 and 40 rows, more than SMALL's 2 heads x 8 queries, so
    each decoder block's cross-attention runs nn.cross_attention."""
    model = AudioCAT(d_enc=6, cfg=SMALL, seed=21)
    rng = np.random.default_rng(22)
    xs = [rng.normal(size=(t, 6)) for t in (20, 40)]
    assert_mates_are_invisible(model, xs, lambda x, rng: rng.normal(size=x.shape) * 100)


@pytest.mark.parametrize("arch", ARCHS)
def test_no_key_bias(arch):
    """Softmax removes a key bias, so MultiHeadAttention has none."""
    names = batch_case(arch)[0].parameters()
    assert any(name.endswith("wk.weight") for name in names)
    assert not [name for name in names if name.endswith("wk.bias")]


def test_segtr_padding_in_batch_is_bit_invisible():
    model, xs = batch_case("segtr")
    assert_mates_are_invisible(
        model, xs, lambda s, rng: EmbeddingSequence(rng.normal(size=s.vectors.shape) * 100))


def test_batch_rejects_a_bad_example():
    model, xs = batch_case("audiocat")
    with pytest.raises(ValueError, match="features dim 5 vs d_enc 6"):
        model.forward_tensor(xs + [np.zeros((3, 5))])
    with pytest.raises(ValueError, match="an example has no rows"):
        model.forward_tensor(xs + [np.zeros((0, 6))])
    seg, seqs = batch_case("segtr")
    with pytest.raises(ValueError, match="an example has no rows"):
        seg.forward_tensor(seqs + [EmbeddingSequence(np.zeros((0, 6)))])


# ---------------------------------------------------------------- glue
def test_track_to_sequence_shapes():
    ext = RandomStubExtractor(8)
    stage1 = AudioCAT(d_enc=8, cfg=SMALL, seed=0)
    # stub is "vector" kind: AudioCAT treats a [d] vector as one token
    track = sine_buffer(440, 20.0)
    grid = BeatGrid(start=0.0, period=2.0, count=10)
    seq = track_to_sequence(track, grid, stage1, ext)
    # 20 s / 8 s windows -> 2 segments, unpadded
    assert seq.vectors.shape == (2, SMALL.d_model)


class CountingStage1:
    """A stage-1 model that records the size of each forward batch."""

    def __init__(self, model):
        self.model, self.batches = model, []

    def forward(self, batch):
        self.batches.append(len(batch))
        return self.model.forward(batch)


class CountingExtractor(RandomStubExtractor):
    calls = 0

    def _extract(self, segment):
        self.calls += 1
        return super()._extract(segment)


def test_a_track_of_50_segments_gives_the_first_48():
    """Extraction and stage 1 stop at segment MAX_SEQ_LEN = 48."""
    ext = CountingExtractor(8)
    stage1 = CountingStage1(AudioCAT(d_enc=8, cfg=SMALL, n_layers=1, seed=0))
    track = AudioBuffer(np.random.default_rng(8).normal(0.0, 0.1, (1, 50 * 16000)), 16000)
    grid = BeatGrid(start=0.0, period=0.25, count=200)  # 50 segments of 1 s
    seq = track_to_sequence(track, grid, stage1, ext)
    assert ext.calls == MAX_SEQ_LEN and sum(stage1.batches) == MAX_SEQ_LEN
    ranges = segment_bars(track.samples[0], grid)
    assert len(ranges) == 50
    mel = track.log_mel()
    want = stage1.model.forward([ext(mel[segment_frames(a, b)])
                                 for a, b in ranges[:MAX_SEQ_LEN]])
    assert np.array_equal(seq.vectors, np.stack([out.pooled for out in want]))


@pytest.mark.parametrize("preset", ["seq-512", "stats-160"])
def test_segment_features_are_frame_ranges_of_the_track_log_mel(preset):
    """A segment's features are the extractor's of the frames of the whole
    row's log-mel that lie wholly inside the segment's samples,
    [ceil(start/HOP), (stop - FRAME_LEN)//HOP + 1), byte for byte.
    The grid starts 0.3 s in, which is not a whole number of hops."""
    ext = get_extractor(preset)
    track = AudioBuffer(np.random.default_rng(9).normal(0.0, 0.1, (1, 20 * 16000)), 16000)
    grid = BeatGrid(start=0.3, period=2.0, count=9)
    row = track.samples[0]
    mel = log_mel(row)
    ranges = segment_bars(row, grid)
    got = list(segment_features(track, grid, ext))
    assert len(got) == len(ranges) == 2
    for features, (start, stop) in zip(got, ranges):
        first, end = -(-start // HOP), (stop - FRAME_LEN) // HOP + 1
        assert first * HOP >= start and (end - 1) * HOP + FRAME_LEN <= stop
        assert features.tobytes() == ext(mel[first:end]).tobytes()


def test_track_to_sequence_builds_no_buffer(monkeypatch):
    """Log-mel blocks are ranges of the track's sample row, and segments
    ranges of its log-mel: scoring 50 segments wraps none of them in an
    AudioBuffer."""
    track = AudioBuffer(np.random.default_rng(8).normal(0.0, 0.1, (1, 50 * 16000)), 16000)
    grid = BeatGrid(start=0.0, period=0.25, count=200)  # 50 segments of 1 s
    ext = DspSequenceExtractor()
    stage1 = AudioCAT(d_enc=ext.d_enc, cfg=SMALL, n_layers=1, seed=0)
    built, init = [], AudioBuffer.__post_init__
    monkeypatch.setattr(AudioBuffer, "__post_init__",
                        lambda buf: built.append(buf) or init(buf))
    seq = track_to_sequence(track, grid, stage1, ext)
    assert seq.length == MAX_SEQ_LEN
    assert built == []


def test_rate_and_channel_validation():
    """A track that is not 16 kHz mono has no log-mel (AudioBuffer.log_mel),
    so it is refused before any extractor runs."""
    ext = CountingExtractor(8)
    stage1 = AudioCAT(d_enc=8, cfg=SMALL, seed=0)
    grid = BeatGrid(start=0.0, period=2.0, count=10)
    for track in (sine_buffer(440, 20.0, rate=44100), sine_buffer(440, 20.0, channels=2)):
        with pytest.raises(InputError, match="log-mel needs 16000 Hz mono"):
            track_to_sequence(track, grid, stage1, ext)
    assert ext.calls == 0


# of 130 segments, the first MAX_SEQ_LEN = 48 are read: [d] vectors in one
# batch, each [frames x d] map, short or long, in a batch of its own
@pytest.mark.parametrize("frames,batches", [(1, [48]), (22, [1] * 48), (65, [1] * 48)])
def test_features_to_sequence_batches_by_kind(frames, batches):
    model = AudioCAT(d_enc=8, cfg=SMALL, n_layers=1, seed=0)
    rng = np.random.default_rng(9)
    feats = [rng.normal(size=(frames, 8) if frames > 1 else 8) for _ in range(130)]
    stage1 = CountingStage1(model)
    seq = features_to_sequence(iter(feats), stage1)
    assert stage1.batches == batches
    assert seq.vectors.shape == (MAX_SEQ_LEN, SMALL.d_model)
    for i in (0, 31, 47):
        (single,) = model.forward([feats[i]])
        assert np.abs(seq.vectors[i] - single.pooled).max() <= 1e-12


# ---------------------------------------------------------------- exports
def test_export_ssm_csv_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    ssm = self_similarity(EmbeddingSequence(rng.normal(size=(5, 4))))
    path = tmp_path / "ssm.csv"
    export_ssm_csv(ssm, path)
    loaded = np.loadtxt(path, delimiter=",")
    assert np.allclose(loaded, ssm, atol=1e-9)


def test_export_ssm_pgm(tmp_path):
    ssm = self_similarity(EmbeddingSequence(np.eye(3)))
    path = tmp_path / "ssm.pgm"
    export_ssm_pgm(ssm, path)
    blob = path.read_bytes()
    assert blob.startswith(b"P5\n3 3\n255\n")
    pixels = np.frombuffer(blob[len(b"P5\n3 3\n255\n"):], dtype=np.uint8).reshape(3, 3)
    assert (np.diag(pixels) == 255).all()
    assert pixels[0, 1] == 128  # similarity 0 -> round(127.5) = 128

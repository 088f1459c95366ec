import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aigmdet.audio import AudioBuffer
from aigmdet.extractors import (MAX_SEQ_LEN, BadMagic, DimMismatch,
                                DspSequenceExtractor, DspVectorExtractor,
                                EmbeddingSequence, ExtractorError,
                                RandomStubExtractor, RateMismatch, Truncated,
                                get_extractor, load_precomputed,
                                pad_or_crop, save_embeddings)

from util import sine_buffer


# ---------------------------------------------------------------- container
def test_sequence_container_basics():
    seq = EmbeddingSequence(np.ones((3, 4)), np.array([True, True, False]))
    assert seq.length == 3
    assert seq.dim == 4
    assert seq.source_ids == [0, 1, 2]


def test_sequence_mask_length_checked():
    with pytest.raises(ExtractorError):
        EmbeddingSequence(np.ones((3, 4)), np.array([True, True]))


def test_pad_short_sequence():
    seq = EmbeddingSequence(np.ones((3, 4)), np.ones(3, dtype=bool))
    out = pad_or_crop(seq, 6)
    assert out.vectors.shape == (6, 4)
    assert out.mask.tolist() == [True] * 3 + [False] * 3
    assert np.array_equal(out.vectors[3:], np.zeros((3, 4)))
    assert out.source_ids[3:] == [-1, -1, -1]


def test_crop_keeps_first_rows():
    vectors = np.arange(50, dtype=np.float64)[:, None] * np.ones((1, 2))
    seq = EmbeddingSequence(vectors, np.ones(50, dtype=bool))
    out = pad_or_crop(seq)
    assert out.vectors.shape == (MAX_SEQ_LEN, 2)
    assert np.array_equal(out.vectors[:, 0], np.arange(48.0))


def test_pad_or_crop_exact_length_is_noop():
    seq = EmbeddingSequence(np.ones((48, 2)), np.ones(48, dtype=bool))
    assert pad_or_crop(seq) is seq


# ---------------------------------------------------------------- extractors
def test_sequence_extractor_frame_count():
    # 5 s at 16 kHz, frame 512 hop 256 -> 1 + (80000-512)//256 = 311 frames
    ext = DspSequenceExtractor(512)
    out = ext(sine_buffer(440, 5.0))
    assert out.shape == (311, 512)


def test_sequence_extractor_deterministic():
    ext_a, ext_b = DspSequenceExtractor(512), DspSequenceExtractor(512)
    buf = sine_buffer(440, 1.0)
    assert np.array_equal(ext_a(buf), ext_b(buf))


def test_vector_extractor_shape_and_norm():
    out = DspVectorExtractor(2048)(sine_buffer(440, 1.0))
    assert out.shape == (2048,)
    assert abs(np.linalg.norm(out) - 1.0) < 1e-9


def test_rate_and_channel_validation():
    ext = DspVectorExtractor(2048)
    with pytest.raises(RateMismatch):
        ext(sine_buffer(440, 1.0, rate=44100))
    with pytest.raises(RateMismatch):
        ext(AudioBuffer(np.zeros((2, 16000)), 16000))


def test_random_stub_content_keyed():
    ext = RandomStubExtractor(64)
    a = ext(sine_buffer(440, 0.5))
    b = ext(sine_buffer(440, 0.5))
    c = ext(sine_buffer(441, 0.5))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_random_stub_sequence_kind():
    ext = RandomStubExtractor(16, kind="sequence")
    out = ext(sine_buffer(440, 0.5))  # 8000 frames // 256 = 31
    assert out.shape == (31, 16)


def test_presets():
    assert get_extractor("seq-512").d_enc == 512
    assert get_extractor("seq-768").d_enc == 768
    ext = get_extractor("vec-2048")
    assert ext.d_enc == 2048 and ext.kind == "vector"
    with pytest.raises(ExtractorError):
        get_extractor("nope")


# ---------------------------------------------------------------- EMB1
def test_embedding_file_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    vectors = rng.normal(size=(5, 8)).astype(np.float32)
    path = tmp_path / "e.emb"
    save_embeddings(path, vectors)
    seq = load_precomputed(path)
    assert seq.vectors.shape == (5, 8)
    assert seq.mask.all()
    assert np.allclose(seq.vectors, vectors, atol=1e-7)


def test_embedding_file_header_layout(tmp_path):
    path = tmp_path / "e.emb"
    save_embeddings(path, np.zeros((2, 3), dtype=np.float32))
    blob = path.read_bytes()
    assert blob[:4] == b"EMB1"
    import struct
    assert struct.unpack_from("<III", blob, 4) == (1, 2, 3)
    assert len(blob) == 16 + 2 * 3 * 4


def test_embedding_file_empty(tmp_path):
    path = tmp_path / "empty.emb"
    save_embeddings(path, np.zeros((0, 4), dtype=np.float32))
    seq = load_precomputed(path)
    assert seq.length == 0


def test_embedding_file_bad_magic(tmp_path):
    path = tmp_path / "bad.emb"
    path.write_bytes(b"NOPE" + b"\x00" * 12)
    with pytest.raises(BadMagic):
        load_precomputed(path)


def test_embedding_file_truncated(tmp_path):
    path = tmp_path / "t.emb"
    save_embeddings(path, np.zeros((4, 8), dtype=np.float32))
    blob = path.read_bytes()
    path.write_bytes(blob[:-3])  # not a multiple of a row
    with pytest.raises(Truncated):
        load_precomputed(path)


def test_embedding_file_dim_mismatch(tmp_path):
    import struct
    path = tmp_path / "d.emb"
    # header claims dim 8, payload rows are 6 floats wide
    payload = np.zeros((4, 6), dtype="<f4").tobytes()
    path.write_bytes(b"EMB1" + struct.pack("<III", 1, 4, 8) + payload)
    with pytest.raises(DimMismatch):
        load_precomputed(path)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 10), st.integers(1, 16), st.integers(0, 100))
def test_embedding_round_trip_property(n, d, seed):
    import io
    rng = np.random.default_rng(seed)
    vectors = rng.normal(size=(n, d)).astype(np.float32)
    import tempfile, os
    fd, path = tempfile.mkstemp(suffix=".emb")
    os.close(fd)
    try:
        save_embeddings(path, vectors)
        seq = load_precomputed(path)
        assert np.array_equal(seq.vectors.astype(np.float32), vectors)
    finally:
        os.unlink(path)

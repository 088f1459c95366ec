import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aigmdet.data import DataError
from aigmdet.dsp import N_MELS, log_mel
from aigmdet.extractors import (DspSequenceExtractor, DspVectorExtractor, EmbeddingFileError,
                                EmbeddingSequence, get_extractor, load_precomputed)

from util import RandomStubExtractor, save_embeddings, sine_buffer


# ---------------------------------------------------------------- container
def test_sequence_container_basics():
    seq = EmbeddingSequence(np.ones((3, 4)))
    assert seq.length == 3
    assert seq.dim == 4
    # every row is a segment: the mask is derived, all True, one a row
    assert seq.mask.dtype == bool and seq.mask.tolist() == [True] * 3


# ---------------------------------------------------------------- extractors
def test_sequence_extractor_frame_count():
    """The frames it is given, as they are: a read-only view of the
    track's log-mel, not a copy."""
    # 5 s at 16 kHz, frame 1024 hop 256 -> 1 + (80000-1024)//256 = 309 frames
    mel = sine_buffer(440, 5.0).log_mel()
    out = DspSequenceExtractor()(mel)
    assert out.shape == (309, N_MELS)
    assert out.tobytes() == mel.tobytes()
    segment = DspSequenceExtractor()(mel[10:200])
    assert np.shares_memory(segment, mel) and not segment.flags.writeable


def test_sequence_extractor_deterministic():
    ext_a, ext_b = DspSequenceExtractor(), DspSequenceExtractor()
    mel = log_mel(sine_buffer(440, 1.0).samples[0])
    assert np.array_equal(ext_a(mel), ext_b(mel))


def test_vector_extractor_shape_and_norm():
    out = DspVectorExtractor()(log_mel(sine_buffer(440, 1.0).samples[0]))
    assert out.shape == (4 * N_MELS,)
    assert abs(np.linalg.norm(out) - 1.0) < 1e-9


def test_random_stub_content_keyed():
    ext = RandomStubExtractor(64)
    a = ext(log_mel(sine_buffer(440, 0.5).samples[0]))
    b = ext(log_mel(sine_buffer(440, 0.5).samples[0]))
    c = ext(log_mel(sine_buffer(441, 0.5).samples[0]))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_random_stub_sequence_kind():
    ext = RandomStubExtractor(16, kind="sequence")
    out = ext(log_mel(sine_buffer(440, 0.5).samples[0]))  # 1 + (8000-1024)//256 = 28
    assert out.shape == (28, 16)


def test_presets():
    ext = get_extractor("seq-512")  # the log-mel frames, 40 wide
    assert ext.d_enc == N_MELS and ext.kind == "sequence"
    ext = get_extractor("stats-160")  # 4 statistics of each of the 40 bands
    assert ext.d_enc == 4 * N_MELS and ext.kind == "vector"
    for removed in ("seq-768", "vec-2048", "nope"):
        with pytest.raises(DataError, match=f"unknown extractor preset '{removed}'"):
            get_extractor(removed)


# ---------------------------------------------------------------- EMB1
def test_embedding_file_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    vectors = rng.normal(size=(5, 8)).astype(np.float32)
    path = tmp_path / "e.emb"
    save_embeddings(path, vectors)
    seq = load_precomputed(path)
    assert seq.vectors.shape == (5, 8)
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
    """A track has at least one segment, so a file of 0 vectors is refused."""
    path = tmp_path / "empty.emb"
    save_embeddings(path, np.zeros((0, 4), dtype=np.float32))
    with pytest.raises(EmbeddingFileError, match="0 vectors"):
        load_precomputed(path)


def test_embedding_file_bad_magic(tmp_path):
    path = tmp_path / "bad.emb"
    path.write_bytes(b"NOPE" + b"\x00" * 12)
    with pytest.raises(EmbeddingFileError, match="not an EMB1 file"):
        load_precomputed(path)


def test_embedding_file_truncated(tmp_path):
    path = tmp_path / "t.emb"
    save_embeddings(path, np.zeros((4, 8), dtype=np.float32))
    blob = path.read_bytes()
    path.write_bytes(blob[:-3])  # not a multiple of a row
    with pytest.raises(EmbeddingFileError, match="expected 128 payload bytes, got 125"):
        load_precomputed(path)


def test_embedding_file_dim_mismatch(tmp_path):
    import struct
    path = tmp_path / "d.emb"
    # header claims dim 8, payload rows are 6 floats wide
    payload = np.zeros((4, 6), dtype="<f4").tobytes()
    path.write_bytes(b"EMB1" + struct.pack("<III", 1, 4, 8) + payload)
    with pytest.raises(EmbeddingFileError, match="row byte-length implies dim 6, header says 8"):
        load_precomputed(path)


def test_embedding_file_dim_zero(tmp_path):
    import struct
    path = tmp_path / "d0.emb"
    path.write_bytes(b"EMB1" + struct.pack("<III", 1, 3, 0))
    with pytest.raises(EmbeddingFileError, match="header declares 3 vectors of dim 0"):
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

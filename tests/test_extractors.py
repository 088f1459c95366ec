import numpy as np
import pytest

from aigmdet.dsp import N_MELS, log_mel
from aigmdet.errors import InputError
from aigmdet.extractors import (DspSequenceExtractor, DspVectorExtractor, EmbeddingSequence,
                                get_extractor)

from util import RandomStubExtractor, sine_buffer


# ---------------------------------------------------------------- container
def test_sequence_container_basics():
    seq = EmbeddingSequence(np.ones((3, 4)))
    assert len(seq.vectors) == 3
    assert seq.vectors.shape[1] == 4
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
        with pytest.raises(InputError, match=f"unknown extractor preset '{removed}'"):
            get_extractor(removed)

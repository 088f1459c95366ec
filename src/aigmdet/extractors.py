"""Pluggable feature extractors and the embedding-sequence container.

Two concrete extractors ship: a DSP frame-sequence embedder and a single-
vector DSP embedder.  Both take 16 kHz mono segments, the format
`pipeline.analysis_buffer` gives every input.  Externally computed
embeddings are loaded from EMB1 files.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .audio import AudioBuffer
from .dsp import ANALYSIS_RATE, N_MELS, TooShort, dsp_embed, log_mel

SEQ_FRAME_LEN = 512
# segments of a track that stage 1 analyses; the default segtr max_len
MAX_SEQ_LEN = 48
# whole-segment DspVectorExtractor dimension of the experiment and `ssm`
SEGMENT_EMBED_DIM = 512


class ExtractorError(Exception):
    pass


class RateMismatch(ExtractorError):
    pass


class EmbeddingFileError(Exception):
    pass


class BadMagic(EmbeddingFileError):
    pass


class DimMismatch(EmbeddingFileError):
    pass


class Truncated(EmbeddingFileError):
    pass


@dataclass
class EmbeddingSequence:
    """Ordered per-segment vectors with a validity mask."""

    vectors: np.ndarray  # [N x d]
    mask: np.ndarray  # [N] bool

    def __post_init__(self):
        self.vectors = np.atleast_2d(np.asarray(self.vectors, dtype=np.float64))
        self.mask = np.asarray(self.mask, dtype=bool)
        if self.mask.shape != (self.vectors.shape[0],):
            raise ExtractorError("mask length must match vector count")

    @property
    def length(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


# ----------------------------------------------------------------------
class FeatureExtractor:
    """Base class: turns a 16 kHz mono AudioBuffer segment into a sequence
    [T x d] or a single vector [d]."""

    name: str = "base"
    kind: str = "sequence"  # or "vector"
    d_enc: int = 0

    def __call__(self, segment: AudioBuffer) -> np.ndarray:
        if segment.sample_rate != ANALYSIS_RATE or segment.channels != 1:
            raise RateMismatch(
                f"{self.name} needs {ANALYSIS_RATE} Hz mono, got {segment.sample_rate} Hz "
                f"with {segment.channels} channel(s)")
        return self._extract(segment)

    def _extract(self, segment: AudioBuffer) -> np.ndarray:
        raise NotImplementedError


class DspSequenceExtractor(FeatureExtractor):
    """Per-frame log-mel features projected to d_enc by a fixed seeded
    random matrix; one vector per analysis frame (frame 512, hop 256)."""

    kind = "sequence"

    def __init__(self, d_enc: int = 512, seed: int = 42):
        self.name = f"dsp-seq-{d_enc}"
        self.d_enc = d_enc
        rng = np.random.default_rng(seed)
        self._proj = rng.normal(0.0, 1.0 / np.sqrt(N_MELS), size=(N_MELS, d_enc))

    def _extract(self, segment: AudioBuffer) -> np.ndarray:
        if segment.duration < 0.2:
            raise TooShort("segment below 0.2 s")
        return log_mel(segment, SEQ_FRAME_LEN) @ self._proj


class DspVectorExtractor(FeatureExtractor):
    """Whole-segment statistics embedding (see dsp_embed)."""

    kind = "vector"

    def __init__(self, d_enc: int = 2048):
        self.name = f"dsp-vec-{d_enc}"
        self.d_enc = d_enc

    def _extract(self, segment: AudioBuffer) -> np.ndarray:
        return dsp_embed(segment, self.d_enc)


PRESETS = {
    "seq-512": lambda: DspSequenceExtractor(512),
    "seq-768": lambda: DspSequenceExtractor(768),
    "vec-2048": lambda: DspVectorExtractor(2048),
}


def get_extractor(preset: str) -> FeatureExtractor:
    try:
        return PRESETS[preset]()
    except KeyError:
        raise ExtractorError(f"unknown extractor preset {preset!r}; "
                             f"options: {sorted(PRESETS)}") from None


# ----------------------------------------------------------------------
# EMB1 file: magic "EMB1", u32 version, u32 count N, u32 dim d,
# then N*d little-endian float32.
_EMB_MAGIC = b"EMB1"
_EMB_VERSION = 1


def save_embeddings(path, vectors: np.ndarray):
    vectors = np.atleast_2d(np.asarray(vectors, dtype="<f4"))
    n, d = vectors.shape
    with open(path, "wb") as fh:
        fh.write(_EMB_MAGIC)
        fh.write(struct.pack("<III", _EMB_VERSION, n, d))
        fh.write(np.ascontiguousarray(vectors).tobytes())


def load_precomputed(path) -> EmbeddingSequence:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 16 or blob[:4] != _EMB_MAGIC:
        raise BadMagic("not an EMB1 file")
    version, n, d = struct.unpack_from("<III", blob, 4)
    if version != _EMB_VERSION:
        raise BadMagic(f"unsupported EMB1 version {version}")
    if n and not d:
        raise DimMismatch(f"header declares {n} vectors of dim 0")
    payload = blob[16:]
    expected = 4 * n * d
    if len(payload) != expected:
        if n > 0 and len(payload) % (4 * n) == 0:
            raise DimMismatch(
                f"row byte-length implies dim {len(payload) // (4 * n)}, header says {d}")
        raise Truncated(f"expected {expected} payload bytes, got {len(payload)}")
    if n == 0:
        return EmbeddingSequence(np.zeros((0, max(d, 1))), np.zeros(0, dtype=bool))
    raw = np.frombuffer(payload, dtype="<f4")
    # checked before the cast, which warns on a signalling NaN
    if not np.isfinite(raw).all():
        raise EmbeddingFileError("embedding values must be finite")
    return EmbeddingSequence(raw.reshape(n, d).astype(np.float64), np.ones(n, dtype=bool))

"""Pluggable feature extractors and the embedding-sequence container.

Three concrete extractors ship: a DSP frame-sequence embedder, a single-
vector DSP embedder, and a seeded random-projection stub.  Externally
computed embeddings are loaded from EMB1 files.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from .audio import AudioBuffer
from .dsp import EMBED_MELS, TooShort, dsp_embed, log_mel, mel_filterbank, stft

SEQ_FRAME_LEN = 512
SEQ_HOP = 256
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
    source_ids: list = field(default_factory=list)

    def __post_init__(self):
        self.vectors = np.atleast_2d(np.asarray(self.vectors, dtype=np.float64))
        self.mask = np.asarray(self.mask, dtype=bool)
        if self.mask.shape != (self.vectors.shape[0],):
            raise ExtractorError("mask length must match vector count")
        if not self.source_ids:
            self.source_ids = list(range(self.vectors.shape[0]))

    @property
    def length(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


def pad_or_crop(seq: EmbeddingSequence, max_len: int = MAX_SEQ_LEN) -> EmbeddingSequence:
    """Pad with masked zero rows or keep the first max_len rows."""
    n, d = seq.vectors.shape
    if n == max_len:
        return seq
    if n > max_len:
        return EmbeddingSequence(seq.vectors[:max_len].copy(), seq.mask[:max_len].copy(),
                                 list(seq.source_ids[:max_len]))
    vectors = np.zeros((max_len, d))
    vectors[:n] = seq.vectors
    mask = np.zeros(max_len, dtype=bool)
    mask[:n] = seq.mask
    ids = list(seq.source_ids) + [-1] * (max_len - n)
    return EmbeddingSequence(vectors, mask, ids)


# ----------------------------------------------------------------------
class FeatureExtractor:
    """Base class: turns an AudioBuffer segment into a sequence [T x d]
    or a single vector [d]."""

    name: str = "base"
    kind: str = "sequence"  # or "vector"
    d_enc: int = 0
    sample_rate: int = 16000
    channels: int = 1

    def __call__(self, segment: AudioBuffer) -> np.ndarray:
        if segment.sample_rate != self.sample_rate:
            raise RateMismatch(
                f"{self.name} needs {self.sample_rate} Hz, got {segment.sample_rate}")
        if segment.channels != self.channels:
            raise RateMismatch(
                f"{self.name} needs {self.channels} channel(s), got {segment.channels}")
        return self._extract(segment)

    def _extract(self, segment: AudioBuffer) -> np.ndarray:
        raise NotImplementedError


class DspSequenceExtractor(FeatureExtractor):
    """Per-frame log-mel features projected to d_enc by a fixed seeded
    random matrix; one vector per analysis frame (frame 512, hop 256)."""

    kind = "sequence"

    def __init__(self, d_enc: int = 512, sample_rate: int = 16000, seed: int = 42):
        self.name = f"dsp-seq-{d_enc}"
        self.d_enc = d_enc
        self.sample_rate = sample_rate
        rng = np.random.default_rng(seed)
        self._proj = rng.normal(0.0, 1.0 / np.sqrt(EMBED_MELS), size=(EMBED_MELS, d_enc))

    def _extract(self, segment: AudioBuffer) -> np.ndarray:
        if segment.duration < 0.2:
            raise TooShort("segment below 0.2 s")
        spec = stft(segment, SEQ_FRAME_LEN, SEQ_HOP)
        fb = mel_filterbank(EMBED_MELS, SEQ_FRAME_LEN, segment.sample_rate)
        mel = log_mel(spec, fb).values
        return mel @ self._proj


class DspVectorExtractor(FeatureExtractor):
    """Whole-segment statistics embedding (see dsp_embed)."""

    kind = "vector"

    def __init__(self, d_enc: int = 2048, sample_rate: int = 16000):
        self.name = f"dsp-vec-{d_enc}"
        self.d_enc = d_enc
        self.sample_rate = sample_rate

    def _extract(self, segment: AudioBuffer) -> np.ndarray:
        return dsp_embed(segment, self.d_enc)


class RandomStubExtractor(FeatureExtractor):
    """Deterministic random features keyed by segment content; for tests
    and wiring checks only."""

    def __init__(self, d_enc: int = 64, kind: str = "vector",
                 sample_rate: int = 16000, seed: int = 0):
        self.name = f"random-stub-{d_enc}"
        self.d_enc = d_enc
        self.kind = kind
        self.sample_rate = sample_rate
        self.seed = seed

    def _extract(self, segment: AudioBuffer) -> np.ndarray:
        digest = zlib.crc32(segment.samples.tobytes(), self.seed & 0xFFFFFFFF)
        rng = np.random.default_rng(digest)
        if self.kind == "vector":
            v = rng.normal(size=self.d_enc)
            return v / np.linalg.norm(v)
        t = max(1, segment.frames // SEQ_HOP)
        return rng.normal(size=(t, self.d_enc))


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
    payload = blob[16:]
    expected = 4 * n * d
    if len(payload) != expected:
        if n > 0 and len(payload) % (4 * n) == 0:
            raise DimMismatch(
                f"row byte-length implies dim {len(payload) // (4 * n)}, header says {d}")
        raise Truncated(f"expected {expected} payload bytes, got {len(payload)}")
    if n == 0:
        return EmbeddingSequence(np.zeros((0, max(d, 1))), np.zeros(0, dtype=bool))
    vectors = np.frombuffer(payload, dtype="<f4").reshape(n, d).astype(np.float64)
    return EmbeddingSequence(vectors, np.ones(n, dtype=bool))

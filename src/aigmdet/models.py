"""The three detector architectures and self-similarity machinery.

Stage 1: AudioCAT (learned queries cross-attending to extractor feature
maps) and FXSegment (self-attention encoder over a reshaped fixed-length
embedding).  Stage 2: SegmentTransformer, a dual-pathway encoder over
content embeddings and self-similarity-matrix rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .audio import AudioBuffer, resample, to_mono
from .beats import BeatGrid, segment_bars
from .extractors import EmbeddingSequence, FeatureExtractor, MAX_SEQ_LEN, pad_or_crop
from .nn import AllMasked, AttentionConfig, ShapeMismatch
from .tensor import Tensor, concat, no_grad


class EmptySequence(Exception):
    pass


@dataclass
class DetectorOutput:
    logit: float
    probability: float
    pooled: np.ndarray

    @staticmethod
    def from_tensors(logit, pooled) -> "DetectorOutput":
        z = float(logit.data)
        prob = 1.0 / (1.0 + np.exp(-z)) if z >= 0 else np.exp(z) / (1.0 + np.exp(z))
        return DetectorOutput(logit=z, probability=float(prob), pooled=pooled.data.copy())


@dataclass
class SSM:
    """Pairwise cosine similarities between segment embeddings."""

    matrix: np.ndarray  # [N x N]
    mask: np.ndarray  # [N] bool


def self_similarity(seq: EmbeddingSequence) -> SSM:
    """Cosine SSM; zero-norm or masked rows are zeroed out."""
    v = seq.vectors
    norms = np.linalg.norm(v, axis=1)
    valid = seq.mask & (norms > 0)
    n = len(valid)
    s = np.zeros((n, n))
    if valid.any():
        u = v[valid] / norms[valid, None]
        block = u @ u.T
        block = np.clip((block + block.T) / 2.0, -1.0, 1.0)
        np.fill_diagonal(block, 1.0)
        idx = np.flatnonzero(valid)
        s[np.ix_(idx, idx)] = block
    return SSM(s, valid.copy())


def predict(out: DetectorOutput, threshold: float = 0.5) -> int:
    """1 (AI-generated) iff probability >= threshold."""
    return int(out.probability >= threshold)


# ----------------------------------------------------------------------
class AudioCAT(nn.Module):
    """Cross-attention decoder over a projected feature-map memory."""

    def __init__(self, d_enc: int, cfg: AttentionConfig | None = None,
                 n_queries: int = 8, n_layers: int = 2, seed: int = 0):
        cfg = cfg or AttentionConfig()
        rng = np.random.default_rng(seed)
        self.cfg = cfg
        self.d_enc = d_enc
        self.in_proj = nn.Linear(d_enc, cfg.d_model, rng)
        self.queries = Tensor(rng.normal(0.0, 0.02, size=(n_queries, cfg.d_model)),
                              requires_grad=True)
        self.blocks = [nn.DecoderBlock(cfg, rng) for _ in range(n_layers)]
        self.head = nn.Linear(cfg.d_model, 1, rng)

    def forward_tensor(self, features: np.ndarray,
                       mask: np.ndarray | None = None) -> tuple[Tensor, Tensor]:
        features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        if features.shape[0] < 1:
            raise EmptySequence("empty feature sequence")
        if features.shape[1] != self.d_enc:
            raise ShapeMismatch(f"features dim {features.shape[1]} vs d_enc {self.d_enc}")
        t = features.shape[0]
        memory = self.in_proj(Tensor(features)) + nn.sinusoidal_positions(t, self.cfg.d_model)
        x = self.queries
        for block in self.blocks:
            x = block(x, memory, mem_mask=mask)
        pooled = x.mean(axis=0)
        logit = (self.head(pooled))[0]
        return logit, pooled

    def forward(self, features: np.ndarray, mask: np.ndarray | None = None) -> DetectorOutput:
        with no_grad():
            logit, pooled = self.forward_tensor(features, mask)
        return DetectorOutput.from_tensors(logit, pooled)

    def loss(self, features, label, loss_fn=nn.bce_loss) -> Tensor:
        logit, _ = self.forward_tensor(features)
        return loss_fn(logit, label)


class FXSegment(nn.Module):
    """Self-attention encoder over a frozen fixed-length embedding split
    into S tokens; a learned CLS token is the pooled representation."""

    def __init__(self, d_enc: int = 2048, n_tokens: int = 16,
                 cfg: AttentionConfig | None = None, n_layers: int = 2, seed: int = 0):
        if d_enc % n_tokens != 0:
            raise ShapeMismatch(f"d_enc {d_enc} not divisible by {n_tokens} tokens")
        cfg = cfg or AttentionConfig()
        rng = np.random.default_rng(seed)
        self.cfg = cfg
        self.d_enc = d_enc
        self.n_tokens = n_tokens
        self.token_proj = nn.Linear(d_enc // n_tokens, cfg.d_model, rng)
        self.cls = Tensor(rng.normal(0.0, 0.02, size=(1, cfg.d_model)), requires_grad=True)
        self.blocks = [nn.EncoderBlock(cfg, rng) for _ in range(n_layers)]
        self.head = nn.Linear(cfg.d_model, 1, rng)

    def forward_tensor(self, embedding: np.ndarray) -> tuple[Tensor, Tensor]:
        embedding = np.asarray(embedding, dtype=np.float64).reshape(-1)
        if embedding.shape[0] != self.d_enc:
            raise ShapeMismatch(f"embedding dim {embedding.shape[0]} vs d_enc {self.d_enc}")
        tokens = Tensor(embedding.reshape(self.n_tokens, -1))
        x = concat([self.cls, self.token_proj(tokens)], axis=0)
        x = x + nn.sinusoidal_positions(self.n_tokens + 1, self.cfg.d_model)
        for block in self.blocks:
            x = block(x)
        pooled = x[0]
        logit = (self.head(pooled))[0]
        return logit, pooled

    def forward(self, embedding: np.ndarray) -> DetectorOutput:
        with no_grad():
            logit, pooled = self.forward_tensor(embedding)
        return DetectorOutput.from_tensors(logit, pooled)

    def loss(self, embedding, label, loss_fn=nn.focal_loss) -> Tensor:
        logit, _ = self.forward_tensor(embedding)
        return loss_fn(logit, label)


class SegmentTransformer(nn.Module):
    """Dual-pathway track classifier: content encoder over segment
    embeddings, structure encoder over SSM rows, concatenated pooling."""

    def __init__(self, d_in: int, cfg: AttentionConfig | None = None,
                 n_layers_content: int = 2, n_layers_structure: int = 2,
                 max_len: int = MAX_SEQ_LEN, seed: int = 0):
        cfg = cfg or AttentionConfig()
        rng = np.random.default_rng(seed)
        self.cfg = cfg
        self.d_in = d_in
        self.max_len = max_len
        self.content_proj = nn.Linear(d_in, cfg.d_model, rng)
        self.structure_proj = nn.Linear(max_len, cfg.d_model, rng)
        self.content_blocks = [nn.EncoderBlock(cfg, rng) for _ in range(n_layers_content)]
        self.structure_blocks = [nn.EncoderBlock(cfg, rng) for _ in range(n_layers_structure)]
        self.head = nn.Linear(2 * cfg.d_model, 1, rng)

    def _masked_mean(self, x: Tensor, mask: np.ndarray) -> Tensor:
        weights = mask.astype(np.float64) / mask.sum()
        return Tensor(weights) @ x

    def structure_tokens(self, seq: EmbeddingSequence) -> np.ndarray:
        """Path-B input rows (the SSM); exposed for invariance checks."""
        return self_similarity(seq).matrix

    def forward_tensor(self, seq: EmbeddingSequence) -> tuple[Tensor, Tensor]:
        if seq.length != self.max_len:
            raise ShapeMismatch(f"sequence length {seq.length}, expected {self.max_len}")
        if seq.dim != self.d_in:
            raise ShapeMismatch(f"sequence dim {seq.dim} vs d_in {self.d_in}")
        mask = seq.mask
        if not mask.any():
            raise AllMasked("no valid segments in the sequence")
        pos = nn.sinusoidal_positions(self.max_len, self.cfg.d_model)

        xa = self.content_proj(Tensor(seq.vectors)) + pos
        for block in self.content_blocks:
            xa = block(xa, mask=mask)
        pooled_a = self._masked_mean(xa, mask)

        ssm = self_similarity(seq)
        xb = self.structure_proj(Tensor(ssm.matrix)) + pos
        for block in self.structure_blocks:
            xb = block(xb, mask=mask)
        pooled_b = self._masked_mean(xb, mask)

        pooled = concat([pooled_a, pooled_b], axis=0)
        logit = (self.head(pooled))[0]
        return logit, pooled

    def forward(self, seq: EmbeddingSequence) -> DetectorOutput:
        with no_grad():
            logit, pooled = self.forward_tensor(seq)
        return DetectorOutput.from_tensors(logit, pooled)

    def loss(self, seq, label, loss_fn=nn.bce_loss) -> Tensor:
        logit, _ = self.forward_tensor(seq)
        return loss_fn(logit, label)


# ----------------------------------------------------------------------
def prepare_for_extractor(segment: AudioBuffer, extractor: FeatureExtractor) -> AudioBuffer:
    """Channel/rate-normalize a slice to what the extractor expects."""
    out = segment
    if extractor.channels == 1 and out.channels != 1:
        out = to_mono(out)
    if out.sample_rate != extractor.sample_rate:
        out = resample(out, extractor.sample_rate)
    return out


def segment_features(track: AudioBuffer, grid: BeatGrid,
                     extractor: FeatureExtractor) -> list[np.ndarray]:
    """Extractor features of each 4-bar slice of the track."""
    segs = segment_bars(track, grid)
    return [extractor(prepare_for_extractor(s, extractor)) for s in segs.segments]


def features_to_sequence(features, stage1,
                         max_len: int = MAX_SEQ_LEN) -> EmbeddingSequence:
    """Pooled stage-1 representations of per-segment features, padded/cropped."""
    vectors = np.stack([stage1.forward(f).pooled for f in features])
    seq = EmbeddingSequence(vectors, np.ones(len(vectors), dtype=bool))
    return pad_or_crop(seq, max_len)


def track_to_sequence(track: AudioBuffer, grid: BeatGrid, stage1,
                      extractor: FeatureExtractor,
                      max_len: int = MAX_SEQ_LEN) -> EmbeddingSequence:
    """Stage-2 input of a track: segment_features, then features_to_sequence."""
    return features_to_sequence(segment_features(track, grid, extractor), stage1, max_len)


# ----------------------------------------------------------------------
def export_ssm_csv(ssm: SSM, path):
    np.savetxt(path, ssm.matrix, fmt="%.9f", delimiter=",")


def export_ssm_pgm(ssm: SSM, path):
    """8-bit PGM with [-1, 1] mapped to [0, 255]."""
    n = ssm.matrix.shape[0]
    pixels = np.clip(np.round((ssm.matrix + 1.0) * 127.5), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{n} {n}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())

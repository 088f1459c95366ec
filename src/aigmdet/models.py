"""The three detector architectures and self-similarity machinery.

Stage 1: AudioCAT (learned queries cross-attending to extractor feature
maps) and FXSegment (self-attention encoder over a reshaped fixed-length
embedding).  Stage 2: SegmentTransformer, a dual-pathway encoder over
content embeddings and self-similarity-matrix rows.

Each model's forward_tensor takes a list of B examples and returns logits
[B] and pooled representations [B x d]; loss(examples, labels, loss_fn) is
their mean loss.  Stage-1 forward(batch) runs a list of segments without a
tape and returns one DetectorOutput each; stage-2 forward(seq) scores one
track.  features_to_sequence is the seam between the stages: a track's
segment vectors go through stage 1 as one batch, its frame maps one at a
time.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import islice

import numpy as np

from . import nn
from .audio import AudioBuffer
from .beats import BeatGrid, segment_bars
from .dsp import segment_frames
from .extractors import EmbeddingSequence, FeatureExtractor, MAX_SEQ_LEN
from .nn import AttentionConfig
from .tensor import Tensor, _sigmoid, concat, no_grad


@dataclass
class DetectorOutput:
    logit: float
    probability: float
    pooled: np.ndarray


def _outputs(model, *args) -> list[DetectorOutput]:
    """forward_tensor(*args) without a tape, one DetectorOutput an example."""
    with no_grad():
        logits, pooled = model.forward_tensor(*args)
    return [DetectorOutput(float(z), float(_sigmoid(z)), row.copy())
            for z, row in zip(logits.data, pooled.data)]


def _batch_loss(model, xs, ys, loss_fn) -> Tensor:
    """Mean of loss_fn over one minibatch, recorded as one tape."""
    logits, _ = model.forward_tensor(xs)
    return loss_fn(logits, np.asarray(ys)).mean()


def _pad_batch(*fields) -> list[np.ndarray]:
    """The [B x n] padding mask and each field as [B x n x ...], of examples
    with one [n_i x ...] array a field: n is the longest n_i, and an
    example's rows past its n_i are zeros, False in the mask.
    ValueError if an example has no rows."""
    lengths = np.array([len(a) for a in fields[0]])
    if not lengths.all():
        raise ValueError("an example has no rows")
    n = int(lengths.max())
    out = [np.zeros((len(lengths), n, *a[0].shape[1:]), a[0].dtype) for a in fields]
    for arrays, padded in zip(fields, out):
        for i, a in enumerate(arrays):
            padded[i, :len(a)] = a
    return [np.arange(n) < lengths[:, None], *out]


def self_similarity(v: np.ndarray) -> np.ndarray:
    """[N x N] cosine similarities of the rows of v [N x d]; the row and
    column of a zero-norm row are zero."""
    norms = np.linalg.norm(v, axis=1)
    valid = norms > 0
    n = len(valid)
    s = np.zeros((n, n))
    if valid.any():
        u = v[valid] / norms[valid, None]
        block = u @ u.T
        block = np.clip((block + block.T) / 2.0, -1.0, 1.0)
        np.fill_diagonal(block, 1.0)
        idx = np.flatnonzero(valid)
        s[np.ix_(idx, idx)] = block
    return s


def predict(probability):
    """The decision rule: True (AI-generated) where a probability is 0.5
    or more, elementwise over an array."""
    return np.asarray(probability) >= 0.5


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

    def forward_tensor(self, batch) -> tuple[Tensor, Tensor]:
        """Logits [B] and pooled outputs [B x d_model] of a list of feature
        maps ([T_i x d_enc], or one [d_enc] vector as T_i = 1).

        The batch is padded by _pad_batch to its longest map, and the
        padding is masked out of the memory."""
        feats = [np.atleast_2d(np.asarray(f, dtype=np.float64)) for f in batch]
        for f in feats:
            if f.shape[1] != self.d_enc:
                raise ValueError(f"features dim {f.shape[1]} vs d_enc {self.d_enc}")
        mem_mask, padded = _pad_batch(feats)
        memory = (self.in_proj(Tensor(padded))
                  + nn.sinusoidal_positions(padded.shape[1], self.cfg.d_model))
        x = self.queries  # [n_queries x d], broadcast over the batch
        for block in self.blocks:
            x = block(x, memory, mem_mask=mem_mask)
        pooled = x.mean(axis=-2)
        return self.head(pooled).reshape(-1), pooled

    def forward(self, batch) -> list[DetectorOutput]:
        """One output per feature map of the batch (see forward_tensor)."""
        return _outputs(self, batch)

    def loss(self, batch, labels, loss_fn) -> Tensor:
        return _batch_loss(self, batch, labels, loss_fn)


class FXSegment(nn.Module):
    """Self-attention encoder over a frozen fixed-length embedding split
    into S tokens; a learned CLS token is the pooled representation."""

    def __init__(self, d_enc: int, n_tokens: int = 16,
                 cfg: AttentionConfig | None = None, n_layers: int = 2, seed: int = 0):
        if d_enc % n_tokens != 0:
            raise ValueError(f"d_enc {d_enc} not divisible by {n_tokens} tokens")
        cfg = cfg or AttentionConfig()
        rng = np.random.default_rng(seed)
        self.cfg = cfg
        self.d_enc = d_enc
        self.n_tokens = n_tokens
        self.token_proj = nn.Linear(d_enc // n_tokens, cfg.d_model, rng)
        self.cls = Tensor(rng.normal(0.0, 0.02, size=(1, cfg.d_model)), requires_grad=True)
        self.blocks = [nn.EncoderBlock(cfg, rng) for _ in range(n_layers)]
        self.head = nn.Linear(cfg.d_model, 1, rng)

    def forward_tensor(self, batch) -> tuple[Tensor, Tensor]:
        """Logits [B] and CLS outputs [B x d_model] of a list of [d_enc]
        embeddings."""
        embeddings = [np.asarray(e, dtype=np.float64).reshape(-1) for e in batch]
        for e in embeddings:
            if e.shape[0] != self.d_enc:
                raise ValueError(f"embedding dim {e.shape[0]} vs d_enc {self.d_enc}")
        b = len(embeddings)
        tokens = self.token_proj(Tensor(np.stack(embeddings).reshape(b, self.n_tokens, -1)))
        cls = self.cls * Tensor(np.ones((b, 1, 1)))
        x = concat([cls, tokens], axis=1)
        x = x + nn.sinusoidal_positions(self.n_tokens + 1, self.cfg.d_model)
        for block in self.blocks:
            x = block(x)
        pooled = x[:, 0]
        return self.head(pooled).reshape(-1), pooled

    def forward(self, batch) -> list[DetectorOutput]:
        """One output per embedding of the batch."""
        return _outputs(self, batch)

    def loss(self, batch, labels, loss_fn) -> Tensor:
        return _batch_loss(self, batch, labels, loss_fn)


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

    @staticmethod
    def _pathway(proj, blocks, rows: np.ndarray, mask: np.ndarray, pos) -> Tensor:
        """One pathway's encoding of padded rows [B x n x k], mask [B x n],
        mean-pooled over the valid rows: [B x d_model]."""
        x = proj(Tensor(rows)) + pos
        for block in blocks:
            x = block(x, mask=mask)
        weights = mask.astype(np.float64) / mask.sum(axis=-1, keepdims=True)
        return (Tensor(weights[:, None, :]) @ x).reshape(len(mask), x.shape[-1])

    def forward_tensor(self, batch) -> tuple[Tensor, Tensor]:
        """Logits [B] and pooled outputs [B x 2 d_model] of a list of
        sequences of any length, of which the first max_len rows are read.

        The batch is padded by _pad_batch to its longest sequence, and the
        padding is masked out of attention and pooling.  SSM rows are
        zero-padded to max_len columns, the structure projection's width."""
        rows = [s.vectors[:self.max_len] for s in batch]
        for v in rows:
            if v.shape[1] != self.d_in:
                raise ValueError(f"sequence dim {v.shape[1]} vs d_in {self.d_in}")
        ssms = [np.pad(self_similarity(v), ((0, 0), (0, self.max_len - len(v)))) for v in rows]
        mask, vectors, ssm = _pad_batch(rows, ssms)
        pos = nn.sinusoidal_positions(mask.shape[1], self.cfg.d_model)
        pooled = concat([self._pathway(self.content_proj, self.content_blocks, vectors, mask, pos),
                         self._pathway(self.structure_proj, self.structure_blocks, ssm, mask, pos)],
                        axis=-1)
        return self.head(pooled).reshape(-1), pooled

    def forward(self, seq: EmbeddingSequence) -> DetectorOutput:
        """The score of one track."""
        return _outputs(self, [seq])[0]

    def loss(self, batch, labels, loss_fn) -> Tensor:
        return _batch_loss(self, batch, labels, loss_fn)


# ----------------------------------------------------------------------
def segment_features(track: AudioBuffer, grid: BeatGrid,
                     extractor: FeatureExtractor) -> Iterator[np.ndarray]:
    """Extractor features of each 4-bar range of a 16 kHz mono track, each
    computed as the iterator reaches it from the frames of the track's
    log-mel (AudioBuffer.log_mel) that lie inside the range; InputError
    for other tracks."""
    mel = track.log_mel()
    return (extractor(mel[segment_frames(start, stop)])
            for start, stop in segment_bars(track.samples[0], grid))


def features_to_sequence(features, stage1) -> EmbeddingSequence:
    """Pooled stage-1 representations of the first MAX_SEQ_LEN segments'
    features, unpadded; later segments are never read.

    [d] vectors run through stage 1 in one batch; each [frames x d] map,
    hundreds of log-mel frames a segment, runs as a batch of its own, so
    stage 1's activations are live for one segment at once."""
    feats = list(islice(features, MAX_SEQ_LEN))
    batches = [feats] if feats and np.ndim(feats[0]) == 1 else [[f] for f in feats]
    return EmbeddingSequence(np.stack([out.pooled for batch in batches
                                       for out in stage1.forward(batch)]))


def track_to_sequence(track: AudioBuffer, grid: BeatGrid, stage1,
                      extractor: FeatureExtractor) -> EmbeddingSequence:
    """Stage-2 input of a track: segment_features, then features_to_sequence."""
    return features_to_sequence(segment_features(track, grid, extractor), stage1)


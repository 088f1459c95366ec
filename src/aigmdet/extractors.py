"""Pluggable feature extractors and the embedding-sequence container.

Both take a segment as [frames x N_MELS], a range of the frames of the
track's one log-mel (see `models.segment_features`).  Preset `seq-512` gives
those [frames x 40] frames as they are; `stats-160` one dsp_embed vector of
4 x 40 band statistics, the vectors of the experiment too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dsp import N_MELS, dsp_embed
from .errors import InputError

# segments of a track that stage 1 analyses; the default segtr max_len
MAX_SEQ_LEN = 48


@dataclass
class EmbeddingSequence:
    """Ordered per-segment vectors, one row a segment."""

    vectors: np.ndarray  # [N x d]

    def __post_init__(self):
        self.vectors = np.atleast_2d(np.asarray(self.vectors, dtype=np.float64))

    @property
    def length(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    @property
    def mask(self) -> np.ndarray:
        """[N] all True: every row is a segment.  Only the benchmark's
        segment count reads it."""
        return np.ones(self.length, dtype=bool)


# ----------------------------------------------------------------------
class FeatureExtractor:
    """Base class: a subclass's _extract turns a segment's log-mel frames
    [frames x N_MELS] into a sequence [T x d] or a single vector [d]."""

    name: str = "base"
    kind: str = "sequence"  # or "vector"
    d_enc: int = 0

    def __call__(self, mel: np.ndarray) -> np.ndarray:
        return self._extract(mel)


class DspSequenceExtractor(FeatureExtractor):
    """The segment's log-mel frames themselves, one N_MELS-wide vector per
    frame (frame 1024, hop 256): the view it is given, not a copy."""

    name = "log-mel"
    kind = "sequence"
    d_enc = N_MELS

    def _extract(self, mel: np.ndarray) -> np.ndarray:
        return mel


class DspVectorExtractor(FeatureExtractor):
    """The segment's per-band statistics, one vector (see dsp_embed)."""

    name = "band-stats"
    kind = "vector"
    d_enc = 4 * N_MELS

    def _extract(self, mel: np.ndarray) -> np.ndarray:
        return dsp_embed(mel)


PRESETS = {"seq-512": DspSequenceExtractor, "stats-160": DspVectorExtractor}


def get_extractor(preset: str) -> FeatureExtractor:
    try:
        return PRESETS[preset]()
    except KeyError:
        raise InputError(f"unknown extractor preset {preset!r}; "
                         f"options: {sorted(PRESETS)}") from None

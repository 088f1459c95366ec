"""Desk-scale end-to-end experiment: synthetic corpus -> beat-aware
segmentation -> stage-1 segment detector -> stage-2 track detector.

Feature extraction is done once and shared across seeds; each seed gets
its own split, initialization, and shuffling.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .audio import load_wav
from .data import Manifest, split_dataset, synth_dataset
from .extractors import SEGMENT_EMBED_DIM, DspVectorExtractor
from .models import AudioCAT, SegmentTransformer, features_to_sequence, segment_features
from .nn import AttentionConfig
from .pipeline import analysis_buffer, analyze_beats
from .training import TrainConfig, TrainResult, evaluate, train


@dataclass
class TrackFeatures:
    path: str
    label: int
    vectors: np.ndarray  # [n_segments x SEGMENT_EMBED_DIM]


@dataclass
class SeedResult:
    seed: int
    accuracy: float
    auc: float
    stage1_result: TrainResult
    stage2_result: TrainResult


@dataclass
class ExperimentResult:
    per_seed: list
    mean_accuracy: float
    mean_auc: float


def extract_corpus(manifest: Manifest, log=None) -> list[TrackFeatures]:
    """Beat-align every track and embed its 4-bar segments."""
    extractor = DspVectorExtractor(SEGMENT_EMBED_DIM)
    tracks = []
    for i, entry in enumerate(manifest.entries):
        buf = load_wav(entry.path)
        grid = analyze_beats(buf).grid
        vectors = np.stack(segment_features(analysis_buffer(buf), grid, extractor))
        tracks.append(TrackFeatures(entry.path, entry.label, vectors))
        if log and (i + 1) % 16 == 0:
            log(f"extracted {i + 1}/{len(manifest.entries)} tracks")
    return tracks


def _stage1_examples(tracks) -> list:
    data = []
    for t in tracks:
        for v in t.vectors:
            data.append((v[None, :], t.label))
    return data


def _stage2_examples(tracks, stage1, max_len: int) -> list:
    return [(features_to_sequence(t.vectors, stage1, max_len), t.label) for t in tracks]


def run_seed(tracks, manifest: Manifest, seed: int,
             stage1_cfg: TrainConfig, stage2_cfg: TrainConfig,
             attn: AttentionConfig | None = None, max_len: int = 48,
             log=None) -> SeedResult:
    attn = attn or AttentionConfig()
    split = split_dataset(manifest, seed=seed)
    by_path = {t.path: t for t in tracks}
    subsets = {name: [by_path[e.path] for e in split.subset(name)]
               for name in ("train", "val", "test")}

    stage1 = AudioCAT(d_enc=SEGMENT_EMBED_DIM, cfg=attn, seed=seed)
    s1_result = train(stage1, _stage1_examples(subsets["train"]),
                      _stage1_examples(subsets["val"]), stage1_cfg, log=log)

    stage2 = SegmentTransformer(d_in=attn.d_model, cfg=attn, max_len=max_len,
                                seed=seed)
    s2_result = train(stage2, _stage2_examples(subsets["train"], stage1, max_len),
                      _stage2_examples(subsets["val"], stage1, max_len),
                      stage2_cfg, log=log)

    test_data = _stage2_examples(subsets["test"], stage1, max_len)
    scores = [stage2.forward(seq).probability for seq, _ in test_data]
    labels = [y for _, y in test_data]
    report = evaluate(scores, labels)
    return SeedResult(seed, report.accuracy, report.auc, s1_result, s2_result)


def run_experiment(data_dir, n_per_class: int = 64, duration_s: float = 64.0,
                   seeds=(0, 1, 2), epochs: int = 20, lr: float = 1e-3,
                   log=None) -> ExperimentResult:
    data_dir = Path(data_dir)
    manifest_path = data_dir / "manifest.csv"
    if manifest_path.exists():
        manifest = Manifest.load(manifest_path)
    else:
        manifest = synth_dataset(data_dir, n_per_class, seed=0,
                                 duration_s=duration_s)
    tracks = extract_corpus(manifest, log=log)

    stage1_cfg = TrainConfig(epochs=epochs, batch_size=8, loss="bce", lr=lr,
                             weight_decay=1e-6)
    stage2_cfg = TrainConfig(epochs=epochs, batch_size=8, loss="bce", lr=lr,
                             weight_decay=1e-6)
    per_seed = []
    for seed in seeds:
        result = run_seed(tracks, manifest, seed,
                          replace(stage1_cfg, seed=seed),
                          replace(stage2_cfg, seed=seed), log=log)
        if log:
            log(f"seed {seed}: accuracy={result.accuracy:.3f} auc={result.auc:.3f}")
        per_seed.append(result)
    return ExperimentResult(
        per_seed,
        float(np.mean([r.accuracy for r in per_seed])),
        float(np.mean([r.auc for r in per_seed])),
    )

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
from .data import Manifest, ManifestEntry, split_dataset, synth_dataset
from .extractors import SEGMENT_EMBED_DIM, DspVectorExtractor
from .models import AudioCAT, SegmentTransformer, features_to_sequence, segment_features
from .pipeline import analysis_buffer, analyze_beats
from .training import TrainConfig, TrainResult, evaluate, train


SPLITS = ("train", "val", "test")


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


def track_vectors(path) -> np.ndarray:
    """[n_segments x SEGMENT_EMBED_DIM]: the WAV at `path` beat-aligned,
    one DspVectorExtractor vector per 4-bar segment."""
    mono = analysis_buffer(load_wav(path))
    grid = analyze_beats(mono).grid
    return np.stack(list(segment_features(mono, grid, DspVectorExtractor(SEGMENT_EMBED_DIM))))


def extract_corpus(manifest: Manifest, log=None) -> list[TrackFeatures]:
    """Beat-align every track and embed its 4-bar segments."""
    tracks = []
    for i, entry in enumerate(manifest.entries):
        tracks.append(TrackFeatures(entry.path, entry.label, track_vectors(entry.path)))
        if log and (i + 1) % 16 == 0:
            log(f"extracted {i + 1}/{len(manifest.entries)} tracks")
    return tracks


def _stage1_examples(tracks) -> list:
    data = []
    for t in tracks:
        for v in t.vectors:
            data.append((v[None, :], t.label))
    return data


def _stage2_examples(tracks, stage1) -> list:
    return [(features_to_sequence(t.vectors, stage1), t.label) for t in tracks]


def _check_splits(labels, name: str):
    """Raise the DataError run_seed's split would raise for a corpus with
    these labels, before any track is rendered or analysed; split sizes
    depend on the label counts only, not on the seed or the paths."""
    stand_in = Manifest([ManifestEntry(str(i), y) for i, y in enumerate(labels)], name=name)
    split_dataset(stand_in).subsets(*SPLITS)


def run_seed(tracks, manifest: Manifest, seed: int,
             stage1_cfg: TrainConfig, stage2_cfg: TrainConfig, log=None) -> SeedResult:
    split = split_dataset(manifest, seed=seed)
    by_path = {t.path: t for t in tracks}
    subsets = {name: [by_path[e.path] for e in entries]
               for name, entries in zip(SPLITS, split.subsets(*SPLITS))}

    stage1 = AudioCAT(d_enc=SEGMENT_EMBED_DIM, seed=seed)
    s1_result = train(stage1, _stage1_examples(subsets["train"]),
                      _stage1_examples(subsets["val"]), stage1_cfg, log=log)

    stage2 = SegmentTransformer(d_in=stage1.cfg.d_model, seed=seed)
    s2_result = train(stage2, _stage2_examples(subsets["train"], stage1),
                      _stage2_examples(subsets["val"], stage1), stage2_cfg, log=log)

    test_data = _stage2_examples(subsets["test"], stage1)
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
        _check_splits([e.label for e in manifest.entries], manifest.name)
    else:
        _check_splits([0, 1] * n_per_class, data_dir.name)
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

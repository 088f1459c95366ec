"""Desk-scale end-to-end experiment (`aigmdet experiment`): synthetic
corpus -> beat-aware segmentation -> stage-1 segment detector -> stage-2
track detector.

Feature extraction is done once and shared across seeds; each seed gets
its own split, initialization, and shuffling.  A track that cannot be
read or analysed ends the run with an error naming its file.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .audio import load_wav
from .data import SPLITS, Manifest, split_counts, split_dataset, synth_dataset
from .errors import InputError, names_file
from .extractors import get_extractor
from .models import features_to_sequence, segment_features
from .pipeline import analysis_buffer, analyze_beats, build_model
from .training import TrainConfig, TrainResult, evaluate, train

EXTRACTOR = "stats-160"  # the stage-1 model's preset


@dataclass
class TrackFeatures:
    path: str
    label: int
    vectors: np.ndarray  # [n_segments x 160], one EXTRACTOR vector a segment


@dataclass
class SeedResult:
    seed: int
    accuracy: float
    auc: float
    stage1_result: TrainResult
    stage2_result: TrainResult


@names_file
def track_vectors(path) -> np.ndarray:
    """[n_segments x 160]: the WAV at `path` beat-aligned, one EXTRACTOR
    vector per 4-bar segment.  The beat analysis and the vectors read the
    one frame-1024 log-mel of the track."""
    mono = analysis_buffer(load_wav(path))
    grid = analyze_beats(mono).grid
    return np.stack(list(segment_features(mono, grid, get_extractor(EXTRACTOR))))


def extract_corpus(manifest: Manifest, log=None) -> list[TrackFeatures]:
    """Beat-align every track and embed its 4-bar segments."""
    tracks = []
    for i, entry in enumerate(manifest.entries):
        tracks.append(TrackFeatures(entry.path, entry.label, track_vectors(entry.path)))
        if log and (i + 1) % 16 == 0:
            log(f"extracted {i + 1}/{len(manifest.entries)} tracks")
    return tracks


def _stage1_examples(tracks) -> list:
    return [(v, t.label) for t in tracks for v in t.vectors]


def _stage2_examples(tracks, stage1) -> list:
    return [(features_to_sequence(t.vectors, stage1), t.label) for t in tracks]


def _check_splits(labels, name):
    """InputError, naming `name`, unless split_dataset gives each class of
    these labels a track in every split, whatever the seed: a class's split
    sizes are split_counts of its count."""
    least = next(n for n in itertools.count() if all(split_counts(n)))
    for label in (0, 1):
        n = labels.count(label)
        counts = split_counts(n)
        if not all(counts):
            raise InputError(f"{name}: class {label} has {n} tracks, so its "
                             f"{SPLITS[counts.index(0)]!r} split is empty; the 80/10/10 "
                             f"split needs at least {least} tracks a class")


def run_seed(tracks, manifest: Manifest, seed: int,
             stage1_cfg: TrainConfig, stage2_cfg: TrainConfig, log=None) -> SeedResult:
    split = split_dataset(manifest, seed=seed)
    by_path = {t.path: t for t in tracks}
    subsets = {name: [by_path[e.path] for e in entries]
               for name, entries in zip(SPLITS, split.subsets(*SPLITS))}

    stage1 = build_model("audiocat", extractor=get_extractor(EXTRACTOR), seed=seed)
    s1_result = train(stage1, _stage1_examples(subsets["train"]),
                      _stage1_examples(subsets["val"]), stage1_cfg, log=log)

    stage2 = build_model("segtr", seed=seed)
    s2_result = train(stage2, _stage2_examples(subsets["train"], stage1),
                      _stage2_examples(subsets["val"], stage1), stage2_cfg, log=log)

    test_data = _stage2_examples(subsets["test"], stage1)
    scores = [stage2.forward(seq).probability for seq, _ in test_data]
    labels = [y for _, y in test_data]
    report = evaluate(scores, labels)
    return SeedResult(seed, report.accuracy, report.auc, s1_result, s2_result)


def run_experiment(data_dir, n_per_class: int, duration_s: float, seeds, epochs: int,
                   lr: float, log=None) -> list[SeedResult]:
    """One SeedResult a seed.  A data_dir that holds a manifest.csv is
    reused as it is, and n_per_class and duration_s are not read; otherwise
    a corpus of n_per_class tracks a class is rendered there, its manifest
    naming each WAV by its file name, so that it is reusable from any
    working directory."""
    # each seed's training config (both stages') and the split are checked
    # before any track is rendered or read
    cfgs = [TrainConfig(epochs=epochs, lr=lr, seed=seed) for seed in seeds]
    data_dir = Path(data_dir)
    manifest_path = data_dir / "manifest.csv"
    if manifest_path.exists():
        manifest = Manifest.load(manifest_path)
        _check_splits([e.label for e in manifest.entries], manifest_path)
        if log:
            log(f"reusing {manifest_path} ({len(manifest.entries)} tracks); "
                f"--tracks-per-class and --duration-s are not read")
    else:
        _check_splits([0, 1] * n_per_class, f"--tracks-per-class {n_per_class}")
        if not (np.isfinite(duration_s) and duration_s > 0):
            raise InputError(f"--duration-s {duration_s}: a track's duration must be "
                             f"finite and above 0 seconds")
        manifest = synth_dataset(data_dir, n_per_class, seed=0, duration_s=duration_s)
    tracks = extract_corpus(manifest, log=log)
    return [run_seed(tracks, manifest, cfg.seed, cfg, cfg, log=log) for cfg in cfgs]

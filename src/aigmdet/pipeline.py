"""End-to-end wiring: beat analysis of a track, stage-1/stage-2 dataset
construction from manifests, model checkpoints whose AIGM header
describes the model they hold, and the one WAV -> score path of a
checkpoint of either stage.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import asdict, dataclass

import numpy as np

from . import nn
from .audio import AudioBuffer, load_wav, resample, to_mono
from .beats import BeatGrid, estimate_tempo, pick_downbeats, quantize_grid, track_beats
from .data import DataError
from .dsp import ANALYSIS_RATE, FRAME_LEN, HOP, log_mel, onset_envelope
from .extractors import FeatureExtractor, get_extractor
from .models import (AudioCAT, DetectorOutput, FXSegment, SegmentTransformer,
                     track_to_sequence)
from .nn import AttentionConfig, ShapeMismatch


@dataclass
class BeatAnalysis:
    bpm: float
    beats: np.ndarray
    downbeats: np.ndarray
    grid: BeatGrid


def analysis_buffer(buf: AudioBuffer) -> AudioBuffer:
    """The track as 16 kHz mono, the one format of dsp and the extractors."""
    mono = to_mono(buf)
    if mono.sample_rate != ANALYSIS_RATE:
        mono = resample(mono, ANALYSIS_RATE)
    return mono


def analyze_beats(buf: AudioBuffer) -> BeatAnalysis:
    """onset -> tempo -> beats -> downbeats -> arithmetic grid."""
    onset, hop_s = onset_envelope(log_mel(analysis_buffer(buf))), HOP / ANALYSIS_RATE
    bpm = estimate_tempo(onset, hop_s)
    beats = track_beats(onset, bpm, hop_s)
    downbeats = pick_downbeats(beats, onset, hop_s)
    # flux at frame i is driven by the newly-covered samples
    # [i*hop + frame - hop, i*hop + frame); shift beat times accordingly
    offset = (FRAME_LEN - HOP) / ANALYSIS_RATE
    fitted = quantize_grid(downbeats + offset)
    grid = _extend_grid(fitted, buf.duration)
    return BeatAnalysis(bpm, beats + offset, downbeats + offset, grid)


_PHASE_SNAP_S = 0.06


def _extend_grid(grid: BeatGrid, duration: float) -> BeatGrid:
    """Extrapolate the fitted bar grid back to the start of the track.

    The first detected downbeat often sits one or more bars into the
    audio; earlier bars are still bars, so the grid keeps only the phase
    within one period.  A phase within _PHASE_SNAP_S of a bar boundary
    (detection jitter) snaps to zero.
    """
    phase = grid.start % grid.period
    if phase < _PHASE_SNAP_S or grid.period - phase < _PHASE_SNAP_S:
        phase = 0.0
    count = max(2, int((duration - phase) // grid.period) + 1)
    return BeatGrid(start=phase, period=grid.period, count=count,
                    residual_rms=grid.residual_rms)


# ----------------------------------------------------------------------
def stage1_features(path, extractor: FeatureExtractor) -> np.ndarray:
    return extractor(analysis_buffer(load_wav(path)))


def build_stage1_dataset(entries, extractor: FeatureExtractor) -> list:
    """(features, label) pairs; one manifest entry = one short clip."""
    return [(stage1_features(e.path, extractor), e.label) for e in entries]


def track_sequence_for_path(path, stage1, extractor: FeatureExtractor):
    """WAV path -> beat grid -> stage-2 input sequence (models.track_to_sequence)."""
    mono = analysis_buffer(load_wav(path))
    return track_to_sequence(mono, analyze_beats(mono).grid, stage1, extractor)


def build_stage2_dataset(entries, stage1, extractor: FeatureExtractor) -> list:
    return [(track_sequence_for_path(e.path, stage1, extractor), e.label)
            for e in entries]


# ----------------------------------------------------------------------
# architecture name -> model class, for build_model, save_model (which records
# the name, cfg and the model's hparams) and load_model (which rebuilds it)
ARCHS = {"audiocat": AudioCAT, "fxseg": FXSegment, "segtr": SegmentTransformer}


def save_model(path, model, arch: str, extractor_preset: str = ""):
    if type(model) is not ARCHS[arch]:
        raise ValueError(f"{type(model).__name__} is not a {arch!r} model")
    meta = {"arch": arch, "extractor": extractor_preset,
            "attention": asdict(model.cfg), "hparams": model.hparams}
    nn.save_checkpoint(path, model.state_arrays(), meta)


def check_sizes(arch: str, cfg: AttentionConfig, hparams: dict, shapes: dict):
    """ValueError unless the tensor shapes of a checkpoint show the sizes its
    header gives, so a header can never build a model larger than its file:
    each block list holds as many blocks as the header asks for, and the
    first block's feed-forward weight is [d_model x ffn_dim]."""
    for key, want in ARCHS[arch].index_sizes(cfg, **hparams).items():
        if isinstance(want, tuple):
            found = shapes.get(key)
        else:
            found = len({name.split(".")[1] for name in shapes if name.startswith(key + ".")})
            ffn = f"{key}.0.ffn.lin1.weight"
            if found and shapes.get(ffn) != (cfg.d_model, cfg.ffn_dim):
                raise ValueError(f"{ffn} is {shapes.get(ffn)}, the header asks for "
                                 f"{(cfg.d_model, cfg.ffn_dim)}")
        if found != want:
            raise ValueError(f"the header asks for {key} {want}, the tensors hold {found}")


def load_model(path):
    """Returns (model, arch_name, extractor_preset); CheckpointError names
    the file if its header does not describe the model its tensors hold.
    The header is checked against the tensor shapes before the model is
    built."""
    arrays, meta = nn.load_checkpoint(path)
    try:
        arch, preset = meta["arch"], meta["extractor"]
        attention, hparams = meta["attention"], meta["hparams"]
        cfg = AttentionConfig(**attention)
        check_sizes(arch, cfg, hparams, {name: a.shape for name, a in arrays.items()})
        model = ARCHS[arch](cfg=cfg, **hparams)
        # a key left out of the header would silently take its default
        if asdict(cfg) != attention or model.hparams != hparams:
            raise ValueError(f"incomplete model description {attention} {hparams}")
        if not isinstance(preset, str):
            raise TypeError(f"extractor preset {preset!r} is not a string")
        model.load_state_arrays(arrays)
    except (ArithmeticError, KeyError, TypeError, ValueError, ShapeMismatch,
            nn.CheckpointError) as exc:
        raise nn.CheckpointError(f"{path}: not a loadable aigmdet model "
                                 f"({type(exc).__name__}: {exc})") from None
    return model, arch, preset


def load_stage1(path):
    """(model, extractor, extractor_preset) of a stage-1 checkpoint;
    DataError names the file if it holds a segtr (stage-2) model."""
    model, arch, preset = load_model(path)
    if arch == "segtr":
        raise DataError(f"{path}: a segtr checkpoint is not a stage-1 model")
    return model, get_extractor(preset), preset


def scorer(ckpt, stage1_ckpt=None) -> Callable[[object], DetectorOutput]:
    """WAV path -> DetectorOutput of the model in `ckpt`, whichever stage
    it holds.  A stage-1 model scores the features of the whole clip; a
    segtr model scores the track over the stage 1 in `stage1_ckpt`, which
    it needs and which a stage-1 model refuses."""
    model, arch, preset = load_model(ckpt)
    if arch != "segtr":
        if stage1_ckpt:
            raise DataError(f"{ckpt}: a stage-1 ({arch}) checkpoint takes no "
                            f"--stage1-ckpt")
        extractor = get_extractor(preset)
        return lambda path: model.forward([stage1_features(path, extractor)])[0]
    if not stage1_ckpt:
        raise DataError(f"{ckpt}: a segtr checkpoint needs --stage1-ckpt")
    stage1, extractor, _ = load_stage1(stage1_ckpt)
    if stage1.cfg.d_model != model.d_in:
        raise DataError(f"{stage1_ckpt}: stage 1 gives {stage1.cfg.d_model}-wide vectors, "
                        f"the segtr in {ckpt} reads d_in {model.d_in}")
    return lambda path: model.forward(track_sequence_for_path(path, stage1, extractor))


def build_model(arch: str, extractor: FeatureExtractor | None = None,
                cfg: AttentionConfig | None = None, seed: int = 0, d_in: int | None = None):
    """A fresh ARCHS[arch]; stage-1 widths come from the extractor, and
    fxseg needs a vector extractor."""
    if arch not in ARCHS:
        raise ValueError(f"unknown architecture {arch!r}")
    cfg = cfg or AttentionConfig()
    if arch == "segtr":
        return SegmentTransformer(d_in=cfg.d_model if d_in is None else d_in,
                                  cfg=cfg, seed=seed)
    if extractor is None:
        raise ValueError(f"{arch} needs an extractor")
    if arch == "fxseg" and extractor.kind != "vector":
        raise DataError(f"fxseg needs a vector extractor; {extractor.name} "
                        f"gives {extractor.kind}s")
    return ARCHS[arch](d_enc=extractor.d_enc, cfg=cfg, seed=seed)

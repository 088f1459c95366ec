"""End-to-end wiring: the 16 kHz mono analysis track, stage-1/stage-2 dataset
construction from manifests, model checkpoints whose AIGM header
describes the model they hold, and the one WAV -> score path of a
checkpoint of either stage.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import asdict

import numpy as np

from . import beats, nn
from .audio import AudioBuffer, AudioError, load_wav, resample, to_mono
from .data import DataError, names_file
from .dsp import ANALYSIS_RATE, TooShort, segment_frames
from .extractors import ExtractorError, FeatureExtractor, get_extractor
from .models import (AudioCAT, DetectorOutput, FXSegment, SegmentTransformer,
                     track_to_sequence)
from .nn import AttentionConfig, ShapeMismatch


def analysis_buffer(buf: AudioBuffer) -> AudioBuffer:
    """The track as 16 kHz mono, the one format of dsp and the extractors."""
    mono = to_mono(buf)
    if mono.sample_rate != ANALYSIS_RATE:
        mono = resample(mono, ANALYSIS_RATE)
    return mono


def analyze_beats(buf: AudioBuffer) -> beats.BeatAnalysis:
    """beats.analyze of the track as 16 kHz mono; its log-mel stays on that
    buffer for the segment features, and the result holds none of it."""
    mono = analysis_buffer(buf)
    return beats.analyze(mono.log_mel(), mono.duration)


# ----------------------------------------------------------------------
# a function of one track's path whose read or analysis fails names the file
names_track = names_file(AudioError, beats.BeatError, TooShort)


@names_track
def stage1_features(path, extractor: FeatureExtractor) -> np.ndarray:
    """Features of a whole clip; TooShort below dsp.MIN_SEGMENT_S."""
    mono = analysis_buffer(load_wav(path))
    return extractor(mono.log_mel()[segment_frames(0, mono.frames)])


def build_stage1_dataset(entries, extractor: FeatureExtractor) -> list:
    """(features, label) pairs; one manifest entry = one short clip."""
    return [(stage1_features(e.path, extractor), e.label) for e in entries]


@names_track
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


def _stage1_extractor(path, model, arch: str, preset: str) -> FeatureExtractor:
    """The extractor of the stage-1 checkpoint at `path`; DataError names
    the file if its preset is unknown (such as the removed seq-768) or its
    model cannot read it (such as a seq-512 model of d_enc 512)."""
    try:
        extractor = get_extractor(preset)
        check_extractor(arch, model.d_enc, extractor)
        return extractor
    except (DataError, ExtractorError) as exc:
        raise DataError(f"{path}: {exc}") from None


def load_stage1(path):
    """(model, extractor, extractor_preset) of a stage-1 checkpoint;
    DataError names the file if it holds a segtr model or one its extractor
    does not fit."""
    model, arch, preset = load_model(path)
    if arch == "segtr":
        raise DataError(f"{path}: a segtr checkpoint is not a stage-1 model")
    return model, _stage1_extractor(path, model, arch, preset), preset


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
        extractor = _stage1_extractor(ckpt, model, arch, preset)
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
    """A fresh ARCHS[arch]; stage-1 widths come from the extractor (see
    check_extractor)."""
    if arch not in ARCHS:
        raise ValueError(f"unknown architecture {arch!r}")
    cfg = cfg or AttentionConfig()
    if arch == "segtr":
        return SegmentTransformer(d_in=cfg.d_model if d_in is None else d_in,
                                  cfg=cfg, seed=seed)
    if extractor is None:
        raise ValueError(f"{arch} needs an extractor")
    check_extractor(arch, extractor.d_enc, extractor)
    return ARCHS[arch](d_enc=extractor.d_enc, cfg=cfg, seed=seed)


def check_extractor(arch: str, d_enc: int, extractor: FeatureExtractor):
    """DataError unless a stage-1 `arch` model of input width d_enc reads
    what `extractor` gives: fxseg takes vectors, and the widths agree."""
    if arch == "fxseg" and extractor.kind != "vector":
        raise DataError(f"fxseg needs a vector extractor; {extractor.name} "
                        f"gives {extractor.kind}s")
    if extractor.d_enc != d_enc:
        raise DataError(f"{extractor.name} gives {extractor.d_enc}-wide features, "
                        f"the {arch} model reads d_enc {d_enc}")

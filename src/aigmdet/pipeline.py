"""End-to-end wiring: the 16 kHz mono analysis track, model checkpoints
whose AIGM header names the model they hold, and model_input, the one
WAV -> model input path that training and scoring of either stage share.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from . import beats, nn
from .audio import AudioBuffer, load_wav, resample, to_mono
from .dsp import ANALYSIS_RATE, segment_frames
from .errors import InputError, names_file
from .extractors import FeatureExtractor, get_extractor
from .models import (AudioCAT, DetectorOutput, FXSegment, SegmentTransformer,
                     track_to_sequence)
from .nn import AttentionConfig


def analysis_buffer(buf: AudioBuffer) -> AudioBuffer:
    """The track as 16 kHz mono, the one format of dsp and the extractors."""
    mono = to_mono(buf)
    if mono.sample_rate != ANALYSIS_RATE:
        mono = resample(mono, ANALYSIS_RATE)
    return mono


def analyze_beats(buf: AudioBuffer) -> beats.BeatAnalysis:
    """beats.analyze of the track as 16 kHz mono; the result holds none of
    its log-mel.  The log-mel is kept on the 16 kHz mono buffer, which is
    `buf` itself only if `buf` is 16 kHz mono already: pass analysis_buffer's
    output, so that the segment features read that same log-mel."""
    mono = analysis_buffer(buf)
    return beats.analyze(mono.log_mel(), mono.duration)


# ----------------------------------------------------------------------
@names_file
def stage1_features(path, extractor: FeatureExtractor) -> np.ndarray:
    """Features of a whole clip; AnalysisError below dsp.MIN_SEGMENT_S."""
    mono = analysis_buffer(load_wav(path))
    return extractor(mono.log_mel()[segment_frames(0, mono.frames)])


@names_file
def track_sequence_for_path(path, stage1, extractor: FeatureExtractor):
    """WAV path -> beat grid -> stage-2 input sequence (models.track_to_sequence)."""
    mono = analysis_buffer(load_wav(path))
    return track_to_sequence(mono, analyze_beats(mono).grid, stage1, extractor)


# ----------------------------------------------------------------------
# architecture name -> model class, for build_model, save_model and
# load_model (which rebuilds the model with build_model)
ARCHS = {"audiocat": AudioCAT, "fxseg": FXSegment, "segtr": SegmentTransformer}


def build_model(arch: str, extractor: FeatureExtractor | None = None, seed: int = 0,
                d_in: int | None = None):
    """A fresh ARCHS[arch] of the default sizes.  A stage-1 model reads the
    extractor's width, and an fxseg only vectors; a segtr reads d_in-wide
    vectors, by default AttentionConfig().d_model, the pooled width of
    every stage 1 built here."""
    if arch not in ARCHS:
        raise ValueError(f"unknown architecture {arch!r}")
    if arch == "segtr":
        return ARCHS[arch](d_in=AttentionConfig().d_model if d_in is None else d_in,
                           seed=seed)
    if extractor is None:
        raise ValueError(f"{arch} needs an extractor")
    if arch == "fxseg" and extractor.kind != "vector":
        raise InputError(f"fxseg needs a vector extractor; {extractor.name} "
                         f"gives {extractor.kind}s")
    return ARCHS[arch](d_enc=extractor.d_enc, seed=seed)


def save_model(path, model, arch: str, extractor_preset: str = ""):
    """An AIGM checkpoint whose meta is {"arch", "extractor"}: the stage-1
    extractor preset, or "" for a segtr, which reads none."""
    if type(model) is not ARCHS[arch]:
        raise ValueError(f"{type(model).__name__} is not a {arch!r} model")
    nn.save_checkpoint(path, model.state_arrays(),
                       {"arch": arch, "extractor": extractor_preset})


def load_model(path):
    """Returns (model, arch_name, extractor_preset): build_model's model of
    the checkpoint's arch and preset, holding its tensors.  InputError
    names the file if its meta holds anything else, or a tensor is missing,
    extra or of another shape than that model's."""
    arrays, meta = nn.load_checkpoint(path)
    try:
        if sorted(meta) != ["arch", "extractor"]:
            raise ValueError(f"meta holds {sorted(meta)}, not exactly 'arch' and 'extractor'")
        arch, preset = meta["arch"], meta["extractor"]
        if arch == "segtr" and preset != "":
            raise ValueError(f"a segtr reads no extractor, the meta names {preset!r}")
        model = build_model(arch, None if preset == "" else get_extractor(preset))
        model.load_state_arrays(arrays)
    except (TypeError, ValueError, InputError) as exc:
        raise InputError(f"{path}: not a loadable aigmdet model ({exc})") from None
    return model, arch, preset


def model_input(arch: str, preset: str, stage1_ckpt, owner) -> Callable[[object], object]:
    """WAV path -> what a model of `arch` reads: a stage-1 model the
    features of the whole clip by `preset`, a segtr the track's sequence
    over the stage 1 in `stage1_ckpt`.  The one home of the --stage1-ckpt
    rules, each an InputError naming `owner` (a checkpoint, or --arch in
    train) or the stage-1 file: a segtr needs one, a stage-1 model takes
    none, and a segtr checkpoint is no stage 1."""
    if arch != "segtr":
        if stage1_ckpt:
            raise InputError(f"{owner}: a stage-1 ({arch}) model takes no --stage1-ckpt")
        extractor = get_extractor(preset)
        return lambda path: stage1_features(path, extractor)
    if not stage1_ckpt:
        raise InputError(f"{owner}: a segtr model needs --stage1-ckpt")
    stage1, stage1_arch, stage1_preset = load_model(stage1_ckpt)
    if stage1_arch == "segtr":
        raise InputError(f"{stage1_ckpt}: a segtr checkpoint is not a stage-1 model")
    extractor = get_extractor(stage1_preset)
    return lambda path: track_sequence_for_path(path, stage1, extractor)


def scorer(ckpt, stage1_ckpt=None) -> Callable[[object], DetectorOutput]:
    """WAV path -> DetectorOutput of the model in `ckpt`, whichever stage
    it holds, read through model_input."""
    model, arch, preset = load_model(ckpt)
    read = model_input(arch, preset, stage1_ckpt, ckpt)
    if arch == "segtr":
        return lambda path: model.forward(read(path))
    return lambda path: model.forward([read(path)])[0]

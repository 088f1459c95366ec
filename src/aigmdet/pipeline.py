"""End-to-end wiring: beat analysis of a track, stage-1/stage-2 dataset
construction from manifests, and checkpoints that carry enough metadata
to rebuild the model they came from.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .audio import AudioBuffer, load_wav, resample, to_mono
from .beats import BeatGrid, estimate_tempo, pick_downbeats, quantize_grid, track_beats
from .dsp import FRAME_LEN, HOP, log_mel, mel_filterbank, onset_envelope, stft
from .extractors import FeatureExtractor
from .models import (AudioCAT, FXSegment, SegmentTransformer, features_to_sequence,
                     prepare_for_extractor, segment_features)
from .nn import AttentionConfig

ANALYSIS_RATE = 16000
ONSET_MELS = 40


@dataclass
class BeatAnalysis:
    bpm: float
    beats: np.ndarray
    downbeats: np.ndarray
    grid: BeatGrid


def analysis_buffer(buf: AudioBuffer) -> AudioBuffer:
    mono = to_mono(buf)
    if mono.sample_rate != ANALYSIS_RATE:
        mono = resample(mono, ANALYSIS_RATE)
    return mono


def track_onset_envelope(buf: AudioBuffer) -> tuple[np.ndarray, float]:
    mono = analysis_buffer(buf)
    spec = stft(mono)
    fb = mel_filterbank(ONSET_MELS, spec.frame_len, mono.sample_rate)
    mel = log_mel(spec, fb)
    return onset_envelope(mel), mel.hop_s


def analyze_beats(buf: AudioBuffer) -> BeatAnalysis:
    """onset -> tempo -> beats -> downbeats -> arithmetic grid."""
    onset, hop_s = track_onset_envelope(buf)
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
    clip = prepare_for_extractor(load_wav(path), extractor)
    return extractor(clip)


def build_stage1_dataset(entries, extractor: FeatureExtractor) -> list:
    """(features, label) pairs; one manifest entry = one short clip."""
    return [(stage1_features(e.path, extractor), e.label) for e in entries]


def track_features_for_path(path, extractor: FeatureExtractor) -> list:
    """WAV path -> beat grid -> extractor features of each 4-bar segment."""
    mono = analysis_buffer(load_wav(path))
    return segment_features(mono, analyze_beats(mono).grid, extractor)


def track_sequence_for_path(path, stage1, extractor: FeatureExtractor):
    """WAV path -> stage-2 input sequence (see models.track_to_sequence)."""
    return features_to_sequence(track_features_for_path(path, extractor), stage1)


def build_stage2_dataset(entries, stage1, extractor: FeatureExtractor) -> list:
    return [(track_sequence_for_path(e.path, stage1, extractor), e.label)
            for e in entries]


# ----------------------------------------------------------------------
# checkpoint metadata: scalar config entries stored as reserved tensors
_ARCH_IDS = {"audiocat": 0, "fxseg": 1, "segtr": 2}
_ARCH_NAMES = {v: k for k, v in _ARCH_IDS.items()}


def _encode_string(s: str) -> np.ndarray:
    return np.array([float(b) for b in s.encode("utf-8")])


def _decode_string(a: np.ndarray) -> str:
    return bytes(int(x) for x in np.asarray(a).ravel()).decode("utf-8")


def save_model(path, model, arch: str, extractor_preset: str = ""):
    arrays = model.state_arrays()
    cfg = model.cfg
    meta = {
        "__meta__.arch": np.array(float(_ARCH_IDS[arch])),
        "__meta__.d_model": np.array(float(cfg.d_model)),
        "__meta__.heads": np.array(float(cfg.heads)),
        "__meta__.ffn_dim": np.array(float(cfg.ffn_dim)),
        "__meta__.extractor": _encode_string(extractor_preset),
    }
    if arch == "audiocat":
        meta["__meta__.d_enc"] = np.array(float(model.d_enc))
        meta["__meta__.n_queries"] = np.array(float(model.queries.shape[0]))
        meta["__meta__.n_layers"] = np.array(float(len(model.blocks)))
    elif arch == "fxseg":
        meta["__meta__.d_enc"] = np.array(float(model.d_enc))
        meta["__meta__.n_tokens"] = np.array(float(model.n_tokens))
        meta["__meta__.n_layers"] = np.array(float(len(model.blocks)))
    else:
        meta["__meta__.d_in"] = np.array(float(model.d_in))
        meta["__meta__.max_len"] = np.array(float(model.max_len))
        meta["__meta__.n_layers_content"] = np.array(float(len(model.content_blocks)))
        meta["__meta__.n_layers_structure"] = np.array(float(len(model.structure_blocks)))
    nn.save_checkpoint(path, {**meta, **arrays})


def load_model(path):
    """Returns (model, arch_name, extractor_preset)."""
    arrays = nn.load_checkpoint(path)
    meta = {k: v for k, v in arrays.items() if k.startswith("__meta__.")}
    if "__meta__.arch" not in meta:
        raise nn.CheckpointError("not an aigmdet model checkpoint: missing __meta__.arch")
    weights = {k: v for k, v in arrays.items() if not k.startswith("__meta__.")}
    arch = _ARCH_NAMES[int(float(meta["__meta__.arch"]))]
    cfg = AttentionConfig(d_model=int(float(meta["__meta__.d_model"])),
                          heads=int(float(meta["__meta__.heads"])),
                          ffn_dim=int(float(meta["__meta__.ffn_dim"])))
    preset = _decode_string(meta["__meta__.extractor"])
    if arch == "audiocat":
        model = AudioCAT(d_enc=int(float(meta["__meta__.d_enc"])), cfg=cfg,
                         n_queries=int(float(meta["__meta__.n_queries"])),
                         n_layers=int(float(meta["__meta__.n_layers"])))
    elif arch == "fxseg":
        model = FXSegment(d_enc=int(float(meta["__meta__.d_enc"])),
                          n_tokens=int(float(meta["__meta__.n_tokens"])), cfg=cfg,
                          n_layers=int(float(meta["__meta__.n_layers"])))
    else:
        model = SegmentTransformer(
            d_in=int(float(meta["__meta__.d_in"])), cfg=cfg,
            n_layers_content=int(float(meta["__meta__.n_layers_content"])),
            n_layers_structure=int(float(meta["__meta__.n_layers_structure"])),
            max_len=int(float(meta["__meta__.max_len"])))
    model.load_state_arrays(weights)
    return model, arch, preset


def build_model(arch: str, extractor: FeatureExtractor | None = None,
                cfg: AttentionConfig | None = None, seed: int = 0, d_in: int | None = None):
    cfg = cfg or AttentionConfig()
    if arch == "audiocat":
        if extractor is None:
            raise ValueError("audiocat needs an extractor")
        return AudioCAT(d_enc=extractor.d_enc, cfg=cfg, seed=seed)
    if arch == "fxseg":
        d_enc = extractor.d_enc if extractor is not None else 2048
        return FXSegment(d_enc=d_enc, cfg=cfg, seed=seed)
    if arch == "segtr":
        return SegmentTransformer(d_in=d_in if d_in is not None else cfg.d_model,
                                  cfg=cfg, seed=seed)
    raise ValueError(f"unknown architecture {arch!r}")

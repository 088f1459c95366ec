"""Command-line entry point.

Exit codes: 0 ok, 1 usage, 2 io/format, 3 musical content (no periodicity,
track too short), 4 training failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import pipeline, training
from .audio import AudioError, load_wav
from .beats import BeatError, export_boundaries_csv
from .data import DataError, Manifest, split_dataset
from .dsp import TooShort
from .extractors import (SEGMENT_EMBED_DIM, DspVectorExtractor, EmbeddingFileError,
                         EmbeddingSequence, ExtractorError, get_extractor,
                         load_precomputed)
from .models import export_ssm_csv, export_ssm_pgm, predict, self_similarity
from .nn import CheckpointError
from .training import PRESETS, DivergedLoss, TrainConfig, evaluate, train

EXIT_OK, EXIT_USAGE, EXIT_IO, EXIT_MUSIC, EXIT_TRAIN = 0, 1, 2, 3, 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _read_config_file(path) -> dict:
    values = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#") or "=" not in line:
                continue
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values


def _resolve_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("AIGM_SEED")
    return int(env) if env else 0


def _train_config(args) -> TrainConfig:
    cfg = PRESETS.get(args.preset)
    if cfg is None:
        raise DataError(f"unknown preset {args.preset!r}; options: {sorted(PRESETS)}")
    overrides = {}
    if args.config:
        file_values = _read_config_file(args.config)
        casts = {"epochs": int, "batch_size": int, "loss": str, "lr": float,
                 "weight_decay": float, "early_stop_patience": int}
        for key, cast in casts.items():
            if key in file_values:
                overrides[key] = cast(file_values[key])
    for key in ("epochs", "batch_size", "lr"):
        value = getattr(args, key, None)
        if value is not None:
            overrides[key] = value
    overrides["seed"] = _resolve_seed(args)
    return replace(cfg, **overrides)


# ----------------------------------------------------------------------
def cmd_beats(args) -> int:
    analysis = pipeline.analyze_beats(load_wav(args.audio))
    grid = analysis.grid
    boundaries = [(t, t + grid.period) for t in grid.downbeats()]
    export_boundaries_csv(boundaries, args.out)
    print(f"bpm={analysis.bpm:.2f}")
    print(f"bar_period_s={grid.period:.4f}")
    print(f"residual_rms_s={grid.residual_rms:.4f}")
    print(f"downbeats={grid.count}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _train_config(args)
    manifest = Manifest.load(args.manifest)
    if not any(e.split for e in manifest.entries):
        manifest = split_dataset(manifest, seed=cfg.seed)
    train_entries, val_entries = manifest.subsets("train", "val")

    seed = cfg.seed
    if args.stage == 1:
        if args.arch == "segtr":
            raise DataError("stage 1 uses --arch audiocat or fxseg")
        extractor = get_extractor(args.extractor)
        model = pipeline.build_model(args.arch, extractor=extractor, seed=seed)
        data_train = pipeline.build_stage1_dataset(train_entries, extractor)
        data_val = pipeline.build_stage1_dataset(val_entries, extractor)
        preset_name = args.extractor
    else:
        if args.arch != "segtr":
            raise DataError("stage 2 uses --arch segtr")
        if not args.stage1_ckpt:
            raise DataError("stage 2 requires --stage1-ckpt")
        stage1, _, stage1_preset = pipeline.load_model(args.stage1_ckpt)
        extractor = get_extractor(stage1_preset or args.extractor)
        data_train = pipeline.build_stage2_dataset(train_entries, stage1, extractor)
        data_val = pipeline.build_stage2_dataset(val_entries, stage1, extractor)
        model = pipeline.build_model("segtr", seed=seed,
                                     d_in=stage1.cfg.d_model)
        preset_name = stage1_preset or args.extractor

    try:
        result = train(model, data_train, data_val, cfg, log=print)
    except DivergedLoss as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TRAIN
    pipeline.save_model(args.out, model, args.arch, preset_name)
    result.save_history_csv(str(args.out) + ".history.csv")
    print(f"checkpoint={args.out} best_epoch={result.best_epoch}")
    return EXIT_OK


def _stage1_scores(model, entries, extractor):
    scores, labels = [], []
    for e in entries:
        feats = pipeline.stage1_features(e.path, extractor)
        scores.append(model.forward(feats).probability)
        labels.append(e.label)
    return scores, labels


def cmd_eval(args) -> int:
    model, arch, preset = pipeline.load_model(args.ckpt)
    manifest = Manifest.load(args.manifest)
    (entries,) = manifest.subsets(args.split)
    extractor = get_extractor(preset) if preset else None
    if arch == "segtr":
        if not args.stage1_ckpt:
            raise DataError("evaluating segtr requires --stage1-ckpt")
        stage1, _, s1_preset = pipeline.load_model(args.stage1_ckpt)
        extractor = get_extractor(s1_preset)
        scores, labels = [], []
        for e in entries:
            seq = pipeline.track_sequence_for_path(e.path, stage1, extractor)
            scores.append(model.forward(seq).probability)
            labels.append(e.label)
    else:
        scores, labels = _stage1_scores(model, entries, extractor)
    report = evaluate(scores, labels)
    print(training.EvalReport.CSV_HEADER)
    print(report.csv_row())
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(training.EvalReport.CSV_HEADER + "\n" + report.csv_row() + "\n")
    return EXIT_OK


def cmd_predict(args) -> int:
    model, arch, preset = pipeline.load_model(args.ckpt)
    if args.mode == "segment":
        out = model.forward(pipeline.stage1_features(args.audio, get_extractor(preset)))
    else:
        if arch != "segtr":
            raise DataError("full mode needs a stage-2 (segtr) checkpoint")
        if not args.stage1_ckpt:
            raise DataError("full mode requires --stage1-ckpt")
        stage1, _, s1_preset = pipeline.load_model(args.stage1_ckpt)
        seq = pipeline.track_sequence_for_path(args.audio, stage1, get_extractor(s1_preset))
        out = model.forward(seq)
    label = predict(out)
    print(f"probability={out.probability:.6f} label={label} "
          f"({'ai' if label else 'human'})")
    return EXIT_OK


def cmd_ssm(args) -> int:
    path = Path(args.input)
    if path.suffix.lower() == ".wav":
        vectors = np.stack(list(pipeline.track_features_for_path(
            path, DspVectorExtractor(SEGMENT_EMBED_DIM))))
        seq = EmbeddingSequence(vectors, np.ones(len(vectors), dtype=bool))
    else:
        seq = load_precomputed(path)
    ssm = self_similarity(seq)
    export_ssm_csv(ssm, str(args.out) + ".csv")
    export_ssm_pgm(ssm, str(args.out) + ".pgm")
    print(f"ssm_size={ssm.matrix.shape[0]}")
    return EXIT_OK


# ----------------------------------------------------------------------
def make_parser() -> _Parser:
    parser = _Parser(prog="aigmdet",
                     description="Two-stage AI-generated-music detector")
    sub = parser.add_subparsers(dest="command", metavar="{beats,train,eval,predict,ssm}")

    p = sub.add_parser("beats", parents=[], help="beat grid of a WAV", add_help=True)
    p.add_argument("audio")
    p.add_argument("--out", default="grid.csv")

    p = sub.add_parser("train", help="train a detector")
    p.add_argument("--stage", type=int, choices=(1, 2), required=True)
    p.add_argument("--arch", choices=tuple(pipeline.ARCHS), required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--preset", default="paper-s1-bce")
    p.add_argument("--extractor", default="seq-512")
    p.add_argument("--stage1-ckpt")
    p.add_argument("--out", required=True)
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--lr", type=float)
    p.add_argument("--seed", type=int)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--split", default="test")
    p.add_argument("--stage1-ckpt")
    p.add_argument("--out")

    p = sub.add_parser("predict", help="score one audio file")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--audio", required=True)
    p.add_argument("--mode", choices=("segment", "full"), default="segment")
    p.add_argument("--stage1-ckpt")

    p = sub.add_parser("ssm", help="export a self-similarity matrix")
    p.add_argument("input", help="WAV or EMB1 embedding file")
    p.add_argument("--out", default="ssm")
    return parser


_COMMANDS = {"beats": cmd_beats, "train": cmd_train, "eval": cmd_eval,
             "predict": cmd_predict, "ssm": cmd_ssm}


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return EXIT_USAGE
    handler = _COMMANDS[args.command]
    try:
        return handler(args)
    except (AudioError, EmbeddingFileError, ExtractorError, CheckpointError,
            DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (BeatError, TooShort) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MUSIC


if __name__ == "__main__":
    sys.exit(main())

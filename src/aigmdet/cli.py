"""Command-line entry point: beats, train, eval, predict and ssm.

A model's stage is the architecture its checkpoint records: audiocat and
fxseg are stage-1 segment models, segtr is the stage-2 track model and
runs over the stage-1 checkpoint given as --stage1-ckpt, which no other
model takes.  `train --arch` picks the stage to train; eval and predict
score a checkpoint of either stage through pipeline.scorer.

Exit codes: 0 ok, 1 usage, 2 io/format, 3 musical content (no periodicity,
track too short), 4 training failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import experiment, pipeline, training
from .audio import AudioError, load_wav
from .beats import BeatError, export_boundaries_csv
from .data import DataError, Manifest, read_lines, split_dataset
from .dsp import TooShort
from .extractors import (EmbeddingFileError, EmbeddingSequence, ExtractorError,
                         get_extractor, load_precomputed)
from .models import export_ssm_csv, export_ssm_pgm, predict, self_similarity
from .nn import CheckpointError
from .training import PRESETS, DivergedLoss, TrainConfig, TrainingError, evaluate, train

EXIT_OK, EXIT_USAGE, EXIT_IO, EXIT_MUSIC, EXIT_TRAIN = 0, 1, 2, 3, 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _read_config_file(path) -> dict:
    values = {}
    for line in read_lines(path):
        line = line.strip()
        if not line or line.startswith("#") or "=" not in line:
            continue
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


# the TrainConfig fields a --config file may set, and how each is read
_CONFIG_KEYS = {"epochs": int, "batch_size": int, "loss": str, "lr": float,
                "weight_decay": float, "early_stop_patience": int}


def _train_config(args) -> TrainConfig:
    """The preset, then the --config file's values, then the flags; a value
    TrainConfig refuses is a DataError naming its key (and file)."""
    cfg = PRESETS.get(args.preset)
    if cfg is None:
        raise DataError(f"unknown preset {args.preset!r}; options: {sorted(PRESETS)}")
    overrides = {}
    if args.config:
        file_values = _read_config_file(args.config)
        overrides = {key: (file_values[key], f"{key}={file_values[key]} in {args.config}")
                     for key in _CONFIG_KEYS if key in file_values}
    for key in ("epochs", "batch_size", "lr"):
        value = getattr(args, key)
        if value is not None:
            overrides[key] = (value, f"--{key.replace('_', '-')} {value}")
    for key, (value, where) in overrides.items():
        try:
            cfg = replace(cfg, **{key: _CONFIG_KEYS[key](value)})
        except (TrainingError, ValueError) as exc:
            raise DataError(f"{where}: {exc}") from None
    return replace(cfg, seed=args.seed)


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
    splits = manifest.subsets("train", "val")

    if args.arch == "segtr":
        if not args.stage1_ckpt:
            raise DataError("--arch segtr needs --stage1-ckpt")
        stage1, extractor, preset = pipeline.load_stage1(args.stage1_ckpt)
        data_train, data_val = [pipeline.build_stage2_dataset(entries, stage1, extractor)
                                for entries in splits]
        model = pipeline.build_model("segtr", seed=cfg.seed, d_in=stage1.cfg.d_model)
    else:
        if args.stage1_ckpt:
            raise DataError(f"--stage1-ckpt is for --arch segtr, not {args.arch}")
        preset = args.extractor
        extractor = get_extractor(preset)
        model = pipeline.build_model(args.arch, extractor=extractor, seed=cfg.seed)
        data_train, data_val = [pipeline.build_stage1_dataset(entries, extractor)
                                for entries in splits]

    try:
        result = train(model, data_train, data_val, cfg, log=print)
    except DivergedLoss as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TRAIN
    pipeline.save_model(args.out, model, args.arch, preset)
    result.save_history_csv(str(args.out) + ".history.csv")
    print(f"checkpoint={args.out} best_epoch={result.best_epoch}")
    return EXIT_OK


def cmd_eval(args) -> int:
    score = pipeline.scorer(args.ckpt, args.stage1_ckpt)
    (entries,) = Manifest.load(args.manifest).subsets(args.split)
    report = evaluate([score(e.path).probability for e in entries],
                      [e.label for e in entries])
    print(training.EvalReport.CSV_HEADER)
    print(report.csv_row())
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(training.EvalReport.CSV_HEADER + "\n" + report.csv_row() + "\n")
    return EXIT_OK


def cmd_predict(args) -> int:
    out = pipeline.scorer(args.ckpt, args.stage1_ckpt)(args.audio)
    label = predict(out)
    print(f"probability={out.probability:.6f} label={label} "
          f"({'ai' if label else 'human'})")
    return EXIT_OK


def cmd_ssm(args) -> int:
    path = Path(args.input)
    if path.suffix.lower() == ".wav":
        vectors = experiment.track_vectors(path)
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
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--split", default="test")
    p.add_argument("--stage1-ckpt")
    p.add_argument("--out")

    p = sub.add_parser("predict", help="score one audio file")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--audio", required=True)
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

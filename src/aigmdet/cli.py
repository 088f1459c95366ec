"""Command-line entry point: beats, train, eval, predict, ssm and experiment.

A model's stage is the architecture its checkpoint records: audiocat and
fxseg are stage-1 segment models, segtr is the stage-2 track model and
runs over the stage-1 checkpoint given as --stage1-ckpt, which no other
model takes.  `train --arch` picks the stage to train; eval and predict
score a checkpoint of either stage through pipeline.scorer.  `ssm` writes
the self-similarity matrix that a segtr reads of a WAV over the stage 1
in its --stage1-ckpt.  All four read each WAV through
pipeline.model_input, the one WAV -> model input function, which alone
refuses a wrong --stage1-ckpt:
"<owner>: a segtr model needs --stage1-ckpt" and
"<owner>: a stage-1 (<arch>) model takes no --stage1-ckpt", where the
owner is the checkpoint, or --arch <arch> in train, and
"<file>: a segtr checkpoint is not a stage-1 model".  train's settings
are its --preset's TrainConfig, over which each field's flag of the same
name (--batch-size for batch_size) sets that field.  `experiment` runs
the two-stage evaluation of experiment.run_experiment.

Exit codes, all decided in main: 0 ok, 1 usage, 2 io/format, 3 musical
content (no periodicity, track too short), 4 training failure (diverged
loss).
"""

from __future__ import annotations

import argparse
import csv
import sys
import time
from dataclasses import fields, replace

import numpy as np

from . import experiment, pipeline, training
from .audio import load_wav
from .beats import export_boundaries_csv
from .data import SPLITS, Manifest
from .errors import AnalysisError, DivergedLoss, InputError, names_file
from .extractors import get_extractor
from .models import export_ssm_csv, export_ssm_pgm, predict, self_similarity
from .training import PRESETS, TrainConfig, evaluate, train

EXIT_OK, EXIT_USAGE, EXIT_IO, EXIT_MUSIC, EXIT_TRAIN = 0, 1, 2, 3, 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _train_config(args) -> TrainConfig:
    """The preset, then each TrainConfig field's flag that is given; a
    value TrainConfig refuses is an InputError naming its flag."""
    cfg = PRESETS.get(args.preset)
    if cfg is None:
        raise InputError(f"unknown preset {args.preset!r}; options: {sorted(PRESETS)}")
    for f in fields(TrainConfig):
        value = getattr(args, f.name)
        if value is not None:
            try:
                cfg = replace(cfg, **{f.name: value})
            except InputError as exc:
                raise InputError(f"--{f.name.replace('_', '-')} {value}: {exc}") from None
    return cfg


# ----------------------------------------------------------------------
@names_file
def _beat_analysis(path):
    """The track's beat analysis and its length in seconds."""
    mono = pipeline.analysis_buffer(load_wav(path))
    return pipeline.analyze_beats(mono), mono.duration


def cmd_beats(args) -> int:
    analysis, duration = _beat_analysis(args.audio)
    grid = analysis.grid
    # the whole bars only, as segment_bars keeps whole 4-bar windows
    boundaries = [(t, t + grid.period) for t in grid.downbeats()
                  if t + grid.period <= duration + 1e-9]
    export_boundaries_csv(boundaries, args.out)
    print(f"bpm={analysis.bpm:.2f}")
    print(f"bar_period_s={grid.period:.4f}")
    print(f"residual_rms_s={grid.residual_rms:.4f}")
    print(f"downbeats={grid.count}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _train_config(args)
    splits = Manifest.load(args.manifest).subsets("train", "val")

    preset = "" if args.arch == "segtr" else args.extractor  # a segtr reads its stage 1's vectors
    read = pipeline.model_input(args.arch, preset, args.stage1_ckpt, f"--arch {args.arch}")
    model = pipeline.build_model(args.arch, extractor=get_extractor(preset) if preset else None,
                                 seed=cfg.seed)
    data_train, data_val = [[(read(e.path), e.label) for e in entries] for entries in splits]

    result = train(model, data_train, data_val, cfg, log=print)
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
    read = pipeline.model_input("segtr", "", args.stage1_ckpt, "ssm")
    ssm = self_similarity(read(args.audio))
    export_ssm_csv(ssm, str(args.out) + ".csv")
    export_ssm_pgm(ssm, str(args.out) + ".pgm")
    print(f"ssm_size={ssm.shape[0]}")
    return EXIT_OK


def cmd_experiment(args) -> int:
    start = time.time()
    per_seed = experiment.run_experiment(args.data_dir, n_per_class=args.tracks_per_class,
                                         duration_s=args.duration_s, seeds=tuple(args.seeds),
                                         epochs=args.epochs, lr=args.lr, log=print)
    elapsed = time.time() - start
    accuracy = float(np.mean([r.accuracy for r in per_seed]))
    auc = float(np.mean([r.auc for r in per_seed]))
    print()
    for r in per_seed:
        print(f"seed {r.seed}: accuracy={r.accuracy:.4f} auc={r.auc:.4f} "
              f"(stage-1 best epoch {r.stage1_result.best_epoch}, "
              f"stage-2 best epoch {r.stage2_result.best_epoch})")
    print(f"mean: accuracy={accuracy:.4f} auc={auc:.4f} elapsed={elapsed:.0f}s")
    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["seed", "accuracy", "auc"])
            for r in per_seed:
                writer.writerow([r.seed, f"{r.accuracy:.6f}", f"{r.auc:.6f}"])
            writer.writerow(["mean", f"{accuracy:.6f}", f"{auc:.6f}"])
    return EXIT_OK


# ----------------------------------------------------------------------
def make_parser() -> _Parser:
    parser = _Parser(prog="aigmdet",
                     description="Two-stage AI-generated-music detector")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("beats", help="beat grid of a WAV")
    p.add_argument("audio")
    p.add_argument("--out", default="grid.csv")

    p = sub.add_parser("train", help="train a detector")
    p.add_argument("--arch", choices=tuple(pipeline.ARCHS), required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--preset", default="paper-s1-bce")
    p.add_argument("--extractor", default="seq-512")
    p.add_argument("--stage1-ckpt")
    p.add_argument("--out", required=True)
    for f in fields(TrainConfig):  # each overrides the preset's value
        p.add_argument(f"--{f.name.replace('_', '-')}", type=type(f.default))

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--split", default="test", choices=SPLITS)
    p.add_argument("--stage1-ckpt")
    p.add_argument("--out")

    p = sub.add_parser("predict", help="score one audio file")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--audio", required=True)
    p.add_argument("--stage1-ckpt")

    p = sub.add_parser("ssm", help="export the self-similarity matrix a segtr reads")
    p.add_argument("audio")
    p.add_argument("--stage1-ckpt", required=True)
    p.add_argument("--out", default="ssm")

    p = sub.add_parser("experiment", help="two-stage experiment on a synthetic corpus")
    p.add_argument("--data-dir", required=True, help="corpus directory (created if missing)")
    p.add_argument("--tracks-per-class", type=int, default=64)
    p.add_argument("--duration-s", type=float, default=64.0)
    p.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--out", help="CSV of per-seed results")
    return parser


_COMMANDS = {"beats": cmd_beats, "train": cmd_train, "eval": cmd_eval,
             "predict": cmd_predict, "ssm": cmd_ssm, "experiment": cmd_experiment}


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return EXIT_USAGE
    # every command's one exit-code table
    try:
        return _COMMANDS[args.command](args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except AnalysisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MUSIC
    except DivergedLoss as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TRAIN


if __name__ == "__main__":
    sys.exit(main())

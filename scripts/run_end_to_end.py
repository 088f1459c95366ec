#!/usr/bin/env python3
"""Run the desk-scale two-stage experiment on a synthetic corpus.

Generates (or reuses) a structured/unstructured synthetic dataset, trains
the stage-1 segment detector and the stage-2 track detector per seed, and
reports held-out full-track accuracy and AUC.

Example:
    python3 scripts/run_end_to_end.py --data-dir /tmp/aigm-corpus \
        --tracks-per-class 64 --seeds 0 1 2 --epochs 20
"""

import argparse
import csv
import sys
import time


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--data-dir", required=True,
                        help="corpus directory (created if missing)")
    parser.add_argument("--tracks-per-class", type=int, default=64)
    parser.add_argument("--duration-s", type=float, default=64.0)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    parser.add_argument("--epochs", type=int, default=20)
    parser.add_argument("--lr", type=float, default=1e-3)
    parser.add_argument("--out", help="optional CSV of per-seed results")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args()

    from aigmdet.data import DataError
    from aigmdet.experiment import run_experiment
    from aigmdet.training import TrainingError

    log = None if args.quiet else print
    start = time.time()
    try:
        result = run_experiment(args.data_dir,
                                n_per_class=args.tracks_per_class,
                                duration_s=args.duration_s,
                                seeds=tuple(args.seeds),
                                epochs=args.epochs, lr=args.lr, log=log)
    except (DataError, TrainingError) as exc:
        # e.g. a corpus too small to split into train, val and test, or
        # --epochs 0
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.time() - start

    print()
    for r in result.per_seed:
        print(f"seed {r.seed}: accuracy={r.accuracy:.4f} auc={r.auc:.4f} "
              f"(stage-1 best epoch {r.stage1_result.best_epoch}, "
              f"stage-2 best epoch {r.stage2_result.best_epoch})")
    print(f"mean: accuracy={result.mean_accuracy:.4f} "
          f"auc={result.mean_auc:.4f} elapsed={elapsed:.0f}s")

    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["seed", "accuracy", "auc"])
            for r in result.per_seed:
                writer.writerow([r.seed, f"{r.accuracy:.6f}", f"{r.auc:.6f}"])
            writer.writerow(["mean", f"{result.mean_accuracy:.6f}",
                             f"{result.mean_auc:.6f}"])
    return 0


if __name__ == "__main__":
    sys.exit(main())

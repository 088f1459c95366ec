#!/usr/bin/env python3
"""aigmdet benchmark: WAV -> score latency at 16 kHz and 44.1 kHz stereo,
and two-stage training time, end to end or layer by layer.

Run from the repository root:

    python3 bench/run.py --workload score-16k --seed 1 --seconds 20 --trace 0

Workloads: score-16k, score-44k-stereo, train-2stage (see workloads.py).
With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
wraps aigmdet's public functions and reports per-layer metrics instead.
Output: one JSON line with the environment, one with run details, and as
the last line the result {"correct", "attempted", "failed", "metrics"}.
The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BLAS_THREADS = 1  # pinned before numpy loads: steadier timings, and <= nproc anywhere

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)


def _git_commit() -> str:
    """HEAD of the checkout if it is a git work tree, else "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest() -> str:
    """SHA-256 over the aigmdet sources, which identifies the code where
    the checkout has no git metadata."""
    import hashlib

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "aigmdet").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _blas() -> dict:
    import ctypes

    import numpy as np

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = {"vendor": info.get("name"), "version": info.get("version"),
              "threads_requested": BLAS_THREADS, "threads": None}
    libs = Path(np.__file__).resolve().parents[1] / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                record["threads"] = fn()
                break
    return record


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": _blas(),
            "git_commit": _git_commit(), "src_sha256": _source_digest(),
            "workload_seed": seed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "aigmdet" / "__init__.py").is_file():
        print(f"error: no aigmdet sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import json
    import shutil
    import tempfile

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"options: {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        result = workloads.measure(args.workload, args.seed, args.seconds,
                                   bool(args.trace), workdir, list(units))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:  # another run is still using it
            pass

    metrics = result["metrics"]
    if result["correct"] and set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 2
    result["metrics"] = {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()}
    print(json.dumps({"env": environment(args.seed)}))
    print(json.dumps({"detail": result.pop("detail", {})}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

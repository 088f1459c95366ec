"""The benchmark's workloads and the closed loop that measures them.

Each workload renders its inputs from the workload seed with
`data.render_track`, writes them as WAV files in a working directory,
and then runs one operation at a time (one client, closed loop):

* score-16k / score-44k-stereo: one track, WAV path -> stage-2
  probability, through the calls `aigmdet predict --mode full` makes.
* train-2stage: one `experiment.run_seed` on a pre-extracted corpus.

Every call into aigmdet goes through a module attribute
(``pipeline.analyze_beats``, not a name imported here), so the traced run
sees the same bindings the program's own callers use.
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
import sys
import time
import traceback

import numpy as np

from aigmdet import audio, data, experiment, models, pipeline
from aigmdet.data import Manifest, ManifestEntry
from aigmdet.extractors import MAX_SEQ_LEN, get_extractor
from aigmdet.training import TrainConfig

from spans import Tracer

TEMPI = (92, 100, 108, 116, 124, 132, 140)  # the synthetic corpus tempi
BPM_TOLERANCE = 0.02


class CheckFailed(Exception):
    pass


def _grid_segments(grid, duration: float, bars: int = 4) -> int:
    """Number of whole `bars`-bar windows the grid places in `duration`."""
    seg, t, n = bars * grid.period, grid.start, 0
    while t + seg <= duration + 1e-9:
        n, t = n + 1, t + seg
    return n


def _check_bpm(estimated: float, rendered: float) -> float:
    err = abs(estimated - rendered) / rendered
    if err > BPM_TOLERANCE:
        raise CheckFailed(f"bpm {estimated:.2f} vs rendered {rendered} ({100 * err:.2f}%)")
    return 100.0 * err


# ----------------------------------------------------------------------
class ScoreWorkload:
    """Score whole tracks one at a time: WAV path -> probability.

    The pool holds tracks at distinct corpus tempi, in a seeded order and
    from both classes; operation i scores pool[i % len(pool)], so a track
    scored twice must get a bit-identical probability.
    """

    setup_repeats = 3  # set-up is timed this many times; the median is reported

    def __init__(self, seed: int, rate: int, channels: int, duration_s: float,
                 pool_size: int):
        self.seed, self.rate, self.channels = seed, rate, channels
        self.duration_s, self.pool_size = duration_s, pool_size
        self.first_prob = {}  # pool index -> probability seen first
        self.bpm_err_max_pct = 0.0

    def _render(self, label: int, bpm: float, rng) -> audio.AudioBuffer:
        track = data.render_track(label, bpm, self.duration_s, self.rate, rng)
        if self.channels == 1:
            return track
        # right channel: quieter and 3 samples late, so to_mono has work to do
        left = track.samples[0]
        right = 0.8 * np.concatenate([np.zeros(3), left[:-3]])
        return audio.AudioBuffer(np.stack([left, right]), self.rate)

    def prepare(self, workdir):
        rng = np.random.default_rng(self.seed)
        tempi = rng.permutation(TEMPI)[:self.pool_size]
        self.pool = []
        for i, bpm in enumerate(tempi):
            label = (i + self.seed) % 2
            path = workdir / f"track{i}_class{label}_bpm{bpm}.wav"
            buf = self._render(label, float(bpm), rng)
            audio.save_wav(buf, path)
            self.pool.append((str(path), float(bpm), buf.duration))

        extractor = get_extractor("seq-512")
        stage1 = pipeline.build_model("audiocat", extractor=extractor, seed=self.seed)
        stage2 = pipeline.build_model("segtr", seed=self.seed, d_in=stage1.cfg.d_model)
        pipeline.save_model(workdir / "stage1.ckpt", stage1, "audiocat", "seq-512")
        pipeline.save_model(workdir / "stage2.ckpt", stage2, "segtr")
        self.stage1, _, preset = pipeline.load_model(workdir / "stage1.ckpt")
        self.stage2, _, _ = pipeline.load_model(workdir / "stage2.ckpt")
        self.extractor = get_extractor(preset)
        if self.rate != pipeline.ANALYSIS_RATE:
            # the resampler keeps no state between calls, so a short clip at
            # the analysis rate warms the same caches at a fraction of the cost
            buf = data.render_track(0, 140.0, 24.0, pipeline.ANALYSIS_RATE, rng)
            audio.save_wav(buf, workdir / "warm_up.wav")
            self.warm = (str(workdir / "warm_up.wav"), 140.0, buf.duration)

    def warm_up(self) -> dict:
        if self.rate == pipeline.ANALYSIS_RATE:
            return self.op(0)  # also the reference for re-scoring track 0
        # a run has time for about one 44.1 kHz clip, so the re-score check
        # scores the warm-up clip twice instead
        self.check(self._score(self.warm, index=-1))
        return self._score(self.warm, index=-1)

    def op(self, i: int) -> dict:
        return self._score(self.pool[i % len(self.pool)], index=i % len(self.pool))

    def _score(self, track, index: int) -> dict:
        path, bpm, duration = track
        t0 = time.perf_counter()
        buf = audio.load_wav(path)
        analysis = pipeline.analyze_beats(buf)
        seq = models.track_to_sequence(pipeline.analysis_buffer(buf), analysis.grid,
                                       self.stage1, self.extractor)
        prob = self.stage2.forward(seq).probability
        wall = time.perf_counter() - t0
        return {"wall": wall, "audio_s": duration, "index": index,
                "prob": prob, "bpm": analysis.bpm, "rendered_bpm": bpm,
                "segments": int(seq.mask.sum()),
                "grid_segments": min(MAX_SEQ_LEN, _grid_segments(analysis.grid, duration))}

    def check(self, out: dict):
        err = _check_bpm(out["bpm"], out["rendered_bpm"])
        self.bpm_err_max_pct = max(self.bpm_err_max_pct, err)
        if out["segments"] < 1 or out["segments"] != out["grid_segments"]:
            raise CheckFailed(f"{out['segments']} segments, grid holds {out['grid_segments']}")
        prob = out["prob"]
        if not (math.isfinite(prob) and 0.0 <= prob <= 1.0):
            raise CheckFailed(f"probability {prob}")
        first = self.first_prob.setdefault(out["index"], prob)
        if prob != first:
            raise CheckFailed(f"re-scored track {out['index']}: {prob!r} != {first!r}")

    def quality(self, outs) -> dict:
        return {"beats.bpm_err_max_pct": self.bpm_err_max_pct}


# ----------------------------------------------------------------------
class TrainWorkload:
    """Two-stage training (`experiment.run_seed`) on a synthetic corpus.

    Both classes get the corpus tempi in equal measure, so the amount of
    work per run hardly depends on the seed.  Every operation trains from
    the same seed, so their losses must agree bit for bit.
    """

    setup_repeats = 2  # extract_corpus makes set-up costly
    TRACKS_PER_CLASS = 16
    DURATION_S = 64.0
    RATE = 16000
    EPOCHS = 4  # fewer leave stage 2 barely trained (2 gave a test AUC of 0)

    def __init__(self, seed: int):
        self.seed = seed
        self.first_result = {}  # what the first run of each kind gave
        self.bpm_err_max_pct = 0.0

    def prepare(self, workdir):
        rng = np.random.default_rng(self.seed)
        entries, rendered = [], {}
        for label in (0, 1):
            tempi = rng.permutation(np.resize(TEMPI, self.TRACKS_PER_CLASS))
            for i, bpm in enumerate(tempi):
                path = str(workdir / f"class{label}_{i:03d}_bpm{bpm}.wav")
                buf = data.render_track(label, float(bpm), self.DURATION_S, self.RATE, rng)
                audio.save_wav(buf, path)
                entries.append(ManifestEntry(path, label))
                rendered[path] = float(bpm)
        self.manifest = Manifest(entries, name="bench")

        # tap analyze_beats where extract_corpus calls it, to check the grids
        analyze, grids = experiment.analyze_beats, []

        def tap(buf):
            result = analyze(buf)
            grids.append((result, buf.duration))
            return result

        experiment.analyze_beats = tap
        try:
            self.tracks = experiment.extract_corpus(self.manifest)
        finally:
            experiment.analyze_beats = analyze
        for entry, track, (result, duration) in zip(entries, self.tracks, grids):
            err = _check_bpm(result.bpm, rendered[entry.path])
            self.bpm_err_max_pct = max(self.bpm_err_max_pct, err)
            if len(track.vectors) != _grid_segments(result.grid, duration):
                raise CheckFailed(f"{entry.path}: {len(track.vectors)} segments, grid "
                                  f"holds {_grid_segments(result.grid, duration)}")
        self.audio_s = len(entries) * self.DURATION_S

    def _run(self, epochs: int) -> dict:
        stamps = []

        def log(msg):
            if msg.startswith("epoch "):
                stamps.append((int(msg.split()[1].rstrip(":")), time.perf_counter()))

        # a fixed number of epochs: patience = epochs never stops early
        cfg = TrainConfig(epochs=epochs, batch_size=8, loss="bce", lr=1e-3,
                          weight_decay=1e-6, early_stop_patience=epochs, seed=self.seed)
        t0 = time.perf_counter()
        result = experiment.run_seed(self.tracks, self.manifest, self.seed, cfg, cfg,
                                     log=log)
        wall = time.perf_counter() - t0
        # epoch numbers restart at 1 when stage 2 starts training
        split = next(k for k in range(1, len(stamps)) if stamps[k][0] == 1)
        epoch_s = [[b[1] - a[1] for a, b in zip(part, part[1:])]
                   for part in (stamps[:split], stamps[split:])]
        s1, s2 = result.stage1_result, result.stage2_result
        return {"wall": wall, "audio_s": self.audio_s,
                "epochs": (len(s1.history), len(s2.history)),
                "losses": [(h.train_loss, h.val_loss) for h in s1.history + s2.history],
                "auc": result.auc, "accuracy": result.accuracy,
                "stage2_best_val_loss": s2.history[s2.best_epoch - 1].val_loss,
                "stage1_epoch_s": epoch_s[0], "stage2_epoch_s": epoch_s[1]}

    def warm_up(self):
        return self._run(epochs=1)

    def op(self, i: int) -> dict:
        return self._run(self.EPOCHS)

    def check(self, out: dict):
        losses = out["losses"]
        if not all(math.isfinite(x) for pair in losses for x in pair):
            raise CheckFailed(f"non-finite loss in {losses}")
        if not (0.0 <= out["auc"] <= 1.0 and 0.0 <= out["accuracy"] <= 1.0):
            raise CheckFailed(f"auc {out['auc']}, accuracy {out['accuracy']}")
        if out["epochs"][0] != out["epochs"][1]:
            raise CheckFailed(f"stages ran {out['epochs']} epochs")
        # every run starts from the same seed: the first stage-1 epoch must
        # match the warm-up's (one epoch a stage), and full runs each other
        if self.first_result.setdefault("epoch1", losses[0]) != losses[0]:
            raise CheckFailed("stage-1 epoch 1 differs between runs of one seed")
        full = (losses, out["auc"], out["accuracy"])
        if out["epochs"][0] > 1 and self.first_result.setdefault("full", full) != full:
            raise CheckFailed("run_seed from the same seed gave different results")

    def quality(self, outs) -> dict:
        return {"beats.bpm_err_max_pct": self.bpm_err_max_pct,
                "experiment.stage2_best_val_loss": outs[0]["stage2_best_val_loss"],
                "experiment.test_auc": outs[0]["auc"],
                "training.stage1_epoch_s": statistics.median(
                    x for o in outs for x in o["stage1_epoch_s"]),
                "training.stage2_epoch_s": statistics.median(
                    x for o in outs for x in o["stage2_epoch_s"])}


WORKLOADS = {
    # ~3 min tracks; one per corpus tempo
    "score-16k": lambda seed: ScoreWorkload(seed, 16000, 1, 180.0, len(TEMPI)),
    # 14 s holds 5 bars at 92 bpm: a whole 4-bar window from any grid phase;
    # at the windowed-sinc resampler's speed a run has time for one clip
    "score-44k-stereo": lambda seed: ScoreWorkload(seed, 44100, 2, 14.0, 3),
    "train-2stage": TrainWorkload,
}

# spans each workload must fire in a traced run
FRONT_END = ("audio.load_wav", "audio.to_mono", "dsp.stft",
             "dsp.log_mel", "dsp.onset_envelope", "beats.estimate_tempo",
             "beats.track_beats", "beats.pick_downbeats", "beats.quantize_grid",
             "beats.segment_bars", "pipeline.analyze_beats", "pipeline.analysis_buffer",
             "models.audiocat_forward", "models.segtr_forward", "models.self_similarity",
             "data.render_track")
EXPECTED_SPANS = {
    "score-16k": FRONT_END + ("pipeline.load_model", "extractors.seq",
                              "models.track_to_sequence"),
    "train-2stage": FRONT_END + ("dsp.dsp_embed", "models.audiocat_loss", "models.segtr_loss",
                                 "tensor.backward", "nn.adam_step", "training.train",
                                 "training.val", "training.evaluate",
                                 "experiment.extract_corpus"),
}
# analysis_buffer resamples only when the rate is not already 16 kHz
EXPECTED_SPANS["score-44k-stereo"] = EXPECTED_SPANS["score-16k"] + ("audio.resample",)


# ----------------------------------------------------------------------
def _layer_metrics(names, setup: dict, ops: list) -> dict:
    """Per-layer figures: set-up once plus the median traced operation."""
    def per_op(fn):
        return statistics.median(fn(b) for b in ops)

    m = {k: setup.get(k, 0.0) + per_op(lambda b: b.get(k, 0.0)) for k in names}
    m["training.steps"] = m["nn.adam_step.calls"]
    # Tensors the training loop creates, validation left out, per Adam step
    m["tensor.tensors_per_step"] = per_op(
        lambda b: (b.get("training.train.tensors", 0.0) - b.get("training.val.tensors", 0.0))
        / max(1.0, b.get("nn.adam_step.calls", 0.0)))
    return m


def measure(name: str, seed: int, seconds: float, trace: bool, workdir,
            metric_names) -> dict:
    """Set up, warm up, then run operations for `seconds`.

    Returns {"correct", "attempted", "failed", "metrics": {name: value}}
    plus "detail"; `metric_names` are the metrics to report.
    """
    work = WORKLOADS[name](seed)
    tracer = Tracer() if trace else None
    attempted = failed = 0
    outs, traced_outs, buckets = [], [], []

    def run_op(i, traced):
        nonlocal attempted, failed
        attempted += 1
        gc.collect()  # start each operation without garbage from the last
        if traced:
            tracer.install()
            bucket = tracer.new_bucket()
        try:
            out = work.warm_up() if i is None else work.op(i)
            work.check(out)
            return out, (bucket if traced else None)
        except Exception:  # an operation that fails is counted, not fatal
            failed += 1
            traceback.print_exc(file=sys.stderr)
            return None, None
        finally:
            if traced:
                tracer.uninstall()

    setup_times, setup_bucket = [], {}
    for k in range(work.setup_repeats):
        prep_dir = workdir / f"setup{k}"
        prep_dir.mkdir()
        last = k == work.setup_repeats - 1
        if trace and last:
            tracer.install()
            setup_bucket = tracer.new_bucket()
        t0 = time.perf_counter()
        try:
            work.prepare(prep_dir)
        except Exception:  # e.g. a corpus track whose beat grid fails its check
            traceback.print_exc(file=sys.stderr)
            return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        finally:
            if trace and last:
                tracer.uninstall()
        setup_times.append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    warm, _ = run_op(None, False)
    setup_s = statistics.median(setup_times) + (time.perf_counter() - t0)
    if warm is None:
        return {"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}

    # closed loop; a traced run alternates untraced and traced operations
    # on the same input, so the pairs give the tracing overhead
    start, i = time.perf_counter(), 0
    while True:
        out, _ = run_op(i, False)
        if out is not None:
            outs.append(out)
        if trace:
            out, bucket = run_op(i, True)
            if out is not None:
                traced_outs.append(out)
                buckets.append(bucket)
        i += 1
        walls = [o["wall"] for o in outs] + [o["wall"] for o in traced_outs]
        per_round = statistics.median(walls) * (2 if trace else 1) if walls else 0.0
        if time.perf_counter() - start + per_round > seconds:
            break

    correct = failed == 0 and bool(outs) and (not trace or bool(buckets))
    detail = {"ops": len(outs), "op_walls_s": [round(o["wall"], 4) for o in outs],
              "setup_times_s": [round(t, 4) for t in setup_times]}
    if not correct:
        return {"correct": False, "attempted": attempted, "failed": max(failed, 1),
                "metrics": {}, "detail": detail}

    if not trace:
        metrics = {
            "setup_s": setup_s,
            "op_p50_s": statistics.median(o["wall"] for o in outs),
            "audio_s_per_s": sum(o["audio_s"] for o in outs) / sum(o["wall"] for o in outs),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        silent = [s for s in EXPECTED_SPANS[name]
                  if setup_bucket.get(s + ".calls", 0) + sum(
                      b.get(s + ".calls", 0) for b in buckets) == 0]
        if silent:
            print(f"error: spans never fired: {silent}", file=sys.stderr)
            return {"correct": False, "attempted": attempted, "failed": 1, "metrics": {},
                    "detail": detail}
        metrics = _layer_metrics(metric_names, setup_bucket, buckets)
        metrics.update(work.quality(outs))
        metrics["trace.overhead_s"] = statistics.median(
            t["wall"] - u["wall"] for u, t in zip(outs, traced_outs))
    return {"correct": True, "attempted": attempted, "failed": failed,
            "metrics": metrics, "detail": detail}

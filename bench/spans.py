"""Span tracer used by the benchmark's traced runs.

`Tracer.install()` replaces each public aigmdet function listed in SPANS
at every module binding that holds it (``pipeline.resample`` and
``models.resample`` are the same function as ``audio.resample``), and each
listed method on its class.  A wrapper records one span: wall time, self
time (wall time minus the wall time of the spans it encloses) and a call
count, plus optional work counts taken from the call's arguments or
result.  `Tracer.uninstall()` puts every original back.

Totals go into the current bucket, a flat ``{key: number}`` dict, so the
caller can keep set-up and each operation apart.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

PACKAGE = "aigmdet"
MODULES = ("audio", "beats", "cli", "data", "dsp", "experiment", "extractors",
           "models", "nn", "pipeline", "tensor", "training")


def _frames_out(bucket, name, args, result):
    bucket[name + ".frames"] += result.magnitudes.shape[0]


def _frames_in(bucket, name, args, result):
    bucket[name + ".frames"] += len(args[0])


def _rows_out(bucket, name, args, result):
    bucket[name + ".frames"] += result.shape[0]


def _samples_in(bucket, name, args, result):
    bucket[name + ".in_samples"] += args[0].samples.size


def _segments_out(bucket, name, args, result):
    bucket["beats.segments"] += len(result)


# span name -> (module, attribute or Class.method, optional work counter)
SPANS = {
    "audio.load_wav": ("audio", "load_wav", None),
    "audio.to_mono": ("audio", "to_mono", None),
    "audio.resample": ("audio", "resample", _samples_in),
    "dsp.stft": ("dsp", "stft", _frames_out),
    "dsp.log_mel": ("dsp", "log_mel", None),
    "dsp.onset_envelope": ("dsp", "onset_envelope", None),
    "dsp.dsp_embed": ("dsp", "dsp_embed", None),
    "beats.estimate_tempo": ("beats", "estimate_tempo", None),
    "beats.track_beats": ("beats", "track_beats", _frames_in),
    "beats.pick_downbeats": ("beats", "pick_downbeats", None),
    "beats.quantize_grid": ("beats", "quantize_grid", None),
    "beats.segment_bars": ("beats", "segment_bars", _segments_out),
    "pipeline.analyze_beats": ("pipeline", "analyze_beats", None),
    "pipeline.analysis_buffer": ("pipeline", "analysis_buffer", None),
    "pipeline.load_model": ("pipeline", "load_model", None),
    "extractors.seq": ("extractors", "DspSequenceExtractor._extract", _rows_out),
    "models.track_to_sequence": ("models", "track_to_sequence", None),
    "models.audiocat_forward": ("models", "AudioCAT.forward", None),
    "models.segtr_forward": ("models", "SegmentTransformer.forward", None),
    "models.self_similarity": ("models", "self_similarity", None),
    "models.audiocat_loss": ("models", "AudioCAT.loss", None),
    "models.segtr_loss": ("models", "SegmentTransformer.loss", None),
    "tensor.backward": ("tensor", "Tensor.backward", None),
    "nn.adam_step": ("nn", "adam_step", None),
    "training.train": ("training", "train", None),
    "training.evaluate": ("training", "evaluate", None),
    # the validation pass inside train(); the one private function wrapped,
    # because train() calls it directly and exposes no public hook for it
    "training.val": ("training", "_mean_loss", None),
    "experiment.extract_corpus": ("experiment", "extract_corpus", None),
    "data.render_track": ("data", "render_track", None),
}


class Tracer:
    def __init__(self):
        self.bucket = defaultdict(float)
        self.tensors = 0  # Tensor objects created while installed
        self._stack = []  # [name, start, child wall time, tensors at start]
        self._restore = []  # (owner, attribute, original)

    def new_bucket(self) -> dict:
        self.bucket = defaultdict(float)
        return self.bucket

    # ------------------------------------------------------------------
    def _span(self, name, fn, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, time.perf_counter(), 0.0, self.tensors]
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                wall = time.perf_counter() - frame[1]
                if self._stack:
                    self._stack[-1][2] += wall
                b = self.bucket
                b[name + ".s"] += wall - frame[2]
                b[name + ".total_s"] += wall
                b[name + ".calls"] += 1
                b[name + ".tensors"] += self.tensors - frame[3]
            if count is not None:
                count(b, name, args, result)
            return result
        return wrapper

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every span at every binding; wrap Tensor creation."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]
        for name, (mod, attr, count) in SPANS.items():
            home = importlib.import_module(f"{PACKAGE}.{mod}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                self._patch(cls, meth, self._span(name, cls.__dict__[meth], count))
                continue
            original = getattr(home, attr)
            wrapper = self._span(name, original, count)
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, binding, wrapper)

        tensor_cls = importlib.import_module(f"{PACKAGE}.tensor").Tensor
        init = tensor_cls.__init__

        @functools.wraps(init)
        def counting_init(obj, *args, **kwargs):
            self.tensors += 1
            init(obj, *args, **kwargs)

        self._patch(tensor_cls, "__init__", counting_init)

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

"""The tape and the layers hold only what the package runs.

Every public op of `Tensor`, and `concat`, must be called by a training
step (zero_grad, loss, backward) and a forward pass of the three
detectors under both losses; every public module-level name of `tensor`
and `nn`, and every public method of their classes, must be used
somewhere under src/ or scripts/.  A reference form that only the tests
need belongs in tests/util.py."""

import ast
import functools
import inspect
from pathlib import Path

import numpy as np
import pytest

import aigmdet
from aigmdet import nn, tensor
from aigmdet.extractors import EmbeddingSequence
from aigmdet.models import AudioCAT, FXSegment, SegmentTransformer
from aigmdet.tensor import Tensor

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "scripts").rglob("*.py"))
TOY = nn.AttentionConfig(d_model=8, heads=2, ffn_dim=16)
# object protocol, not arithmetic
_NOT_OPS = {"__init__", "__repr__"}


def tensor_ops() -> list[str]:
    return [name for name, value in vars(Tensor).items()
            if inspect.isfunction(value) and name not in _NOT_OPS
            and (not name.startswith("_") or (name.startswith("__") and name.endswith("__")))]


def test_every_tensor_op_runs_in_the_models(monkeypatch):
    called = set()

    def counted(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            called.add(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in tensor_ops():
        monkeypatch.setattr(Tensor, name, counted(name, vars(Tensor)[name]))
    concat, wrapper = tensor.concat, counted("concat", tensor.concat)
    for module in filter(inspect.ismodule, list(vars(aigmdet).values())):
        for binding, value in list(vars(module).items()):
            if value is concat:
                monkeypatch.setattr(module, binding, wrapper)

    rng = np.random.default_rng(0)
    seqs = [EmbeddingSequence(rng.normal(size=(n, 8)), np.arange(n) < n - 1) for n in (3, 5)]
    cases = [(AudioCAT(d_enc=6, cfg=TOY), [rng.normal(size=(n, 6)) for n in (2, 4)],
              lambda m, b: m.forward(b)),
             (FXSegment(d_enc=32, n_tokens=4, cfg=TOY), [rng.normal(size=32) for _ in range(2)],
              lambda m, b: m.forward(b)),
             (SegmentTransformer(d_in=8, cfg=TOY, max_len=4), seqs,
              lambda m, b: [m.forward(seq) for seq in b])]
    for model, batch, forward in cases:
        for loss_fn in (nn.bce_loss, nn.focal_loss):
            model.zero_grad()
            model.loss(batch, [0, 1], loss_fn).backward()
            forward(model, batch)
    assert sorted((set(tensor_ops()) | {"concat"}) - called) == []


def _definitions(module) -> dict[str, list[str]]:
    """Public top-level names of a module's source, each with the public
    methods it defines if it is a class."""
    tree = ast.parse(Path(module.__file__).read_text())
    names = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef):
            names[stmt.name] = [f.name for f in stmt.body if isinstance(f, ast.FunctionDef)]
        elif isinstance(stmt, ast.FunctionDef):
            names[stmt.name] = []
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for target in targets:
                for node in ast.walk(target):
                    if isinstance(node, ast.Name):
                        names[node.id] = []
    return {name: [m for m in methods if not m.startswith("_")]
            for name, methods in names.items() if not name.startswith("_")}


@functools.lru_cache(maxsize=1)
def _uses() -> set[str]:
    """Every name read, and every attribute taken, under src/ and scripts/."""
    used = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


@pytest.mark.parametrize("module", [tensor, nn], ids=["tensor", "nn"])
def test_every_public_name_has_a_user(module):
    unused = []
    for name, methods in _definitions(module).items():
        unused += [] if name in _uses() else [name]
        unused += [f"{name}.{m}" for m in methods if m not in _uses()]
    assert unused == []

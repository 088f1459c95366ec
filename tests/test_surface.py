"""The tape and the layers hold only what the package runs.

Every public op of `Tensor`, and `concat`, must be called by a training
step (zero_grad, loss, backward) and a forward pass of the three
detectors under both losses; every public module-level name of every
module of the package must be read somewhere under src/ or bench/, and
every public method of their classes taken there as an attribute (a local
variable of the same name is not a use).  A reference form or a writer
that only the tests need belongs in tests/util.py.  The package's
exception classes are the three of errors.py, one for each exit code that
cli.main decides, and an `except` clause under src/ names each."""

import ast
import functools
import importlib
import inspect
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import aigmdet
from aigmdet import nn, tensor
from aigmdet.extractors import EmbeddingSequence
from aigmdet.models import AudioCAT, FXSegment, SegmentTransformer
from aigmdet.tensor import Tensor

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "bench").rglob("*.py")])
MODULES = [importlib.import_module(f"aigmdet.{info.name}")
           for info in pkgutil.iter_modules(aigmdet.__path__)]
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
    seqs = [EmbeddingSequence(rng.normal(size=(n, 8))) for n in (2, 4)]
    # 20 rows pass TOY's heads x queries (2 x 8), so AudioCAT runs cross_attention
    cases = [(AudioCAT(d_enc=6, cfg=TOY), [rng.normal(size=(n, 6)) for n in (2, 20)],
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
def _uses() -> tuple[set[str], set[str]]:
    """Every name read, and every attribute taken, under src/ and bench/."""
    names, attrs = set(), set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
    return names, attrs


@pytest.mark.parametrize("module", MODULES, ids=[m.__name__.split(".")[-1] for m in MODULES])
def test_every_public_name_has_a_user(module):
    names, attrs = _uses()
    unused = []
    for name, methods in _definitions(module).items():
        unused += [] if name in names | attrs else [name]
        unused += [f"{name}.{m}" for m in methods if m not in attrs]
    assert unused == []


def _names_in(node) -> set[str]:
    """The names and attributes an expression reads (`errors.InputError`
    gives InputError, and `errors`)."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def _exception_classes() -> list[tuple[str, str]]:
    """(module, class) of every Exception subclass defined under src/."""
    return [(module.__name__, name) for module in MODULES
            for name, value in vars(module).items()
            if inspect.isclass(value) and issubclass(value, Exception)
            and value.__module__ == module.__name__]


def test_exception_classes_are_the_three_of_errors():
    assert sorted(_exception_classes()) == [("aigmdet.errors", "AnalysisError"),
                                            ("aigmdet.errors", "DivergedLoss"),
                                            ("aigmdet.errors", "InputError")]


def test_every_exception_class_is_caught_by_name():
    """A class stays only where code under src/ tells it apart: an
    `except` clause names it."""
    caught = set()
    for path in (ROOT / "src").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                caught |= _names_in(node.type)
    defined = _exception_classes()
    assert defined
    assert [f"{module}.{name}" for module, name in defined if name not in caught] == []

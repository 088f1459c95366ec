"""Transformer building blocks, losses, Adam, and checkpoint I/O.

All blocks are pre-norm residual and operate on [..., positions, dim]
tensors: any leading axes are batch axes, and key masks are [...,
positions].  Leading axes broadcast, so a shared [positions, dim] input
(AudioCAT's learned queries) can attend to a batched memory.  Unbatched
inputs are the case with no leading axes.
"""

from __future__ import annotations

import functools
import json
import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .tensor import Tensor, concat, no_grad


class ShapeMismatch(Exception):
    pass


class AllMasked(Exception):
    """Every key position is masked out; attention is undefined."""


class CheckpointError(Exception):
    pass


@dataclass
class AttentionConfig:
    d_model: int = 128
    heads: int = 4
    ffn_dim: int = 256

    def __post_init__(self):
        if self.d_model < 1 or self.heads < 1:
            raise ShapeMismatch(f"d_model {self.d_model} and heads {self.heads} must be >= 1")
        if self.d_model % self.heads != 0:
            raise ShapeMismatch(f"d_model {self.d_model} not divisible by heads {self.heads}")
        if self.ffn_dim < self.d_model:
            raise ShapeMismatch("ffn_dim must be >= d_model")

    @property
    def head_dim(self) -> int:
        return self.d_model // self.heads


# ----------------------------------------------------------------------
class Module:
    """Parameter container; parameters are discovered by attribute walk."""

    def parameters(self, prefix: str = "") -> dict[str, Tensor]:
        params: dict[str, Tensor] = {}
        for name, value in vars(self).items():
            key = f"{prefix}{name}"
            if isinstance(value, Tensor) and value.requires_grad:
                params[key] = value
            elif isinstance(value, Module):
                params.update(value.parameters(f"{key}."))
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        params.update(item.parameters(f"{key}.{i}."))
        return params

    def zero_grad(self):
        for p in self.parameters().values():
            p.zero_grad()

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {k: v.data.copy() for k, v in self.parameters().items()}

    def load_state_arrays(self, arrays: dict[str, np.ndarray]):
        params = self.parameters()
        missing, unexpected = set(params) - set(arrays), set(arrays) - set(params)
        if missing or unexpected:
            raise CheckpointError(f"missing parameters {sorted(missing)[:3]}, "
                                  f"unexpected {sorted(unexpected)[:3]}")
        for k, p in params.items():
            a = np.asarray(arrays[k], dtype=np.float64)
            if a.shape != p.data.shape:
                raise ShapeMismatch(f"{k}: checkpoint {a.shape} vs model {p.data.shape}")
            p.data = a.copy()


class Linear(Module):
    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator):
        scale = 1.0 / np.sqrt(d_in)
        self.weight = Tensor(rng.normal(0.0, scale, size=(d_in, d_out)), requires_grad=True)
        self.bias = Tensor(np.zeros(d_out), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        """[..., d_in] -> [..., d_out]; leading axes fold into one row axis,
        so the weight gradient is a single matrix product."""
        if x.ndim == 2:
            return x @ self.weight + self.bias
        lead = x.shape[:-1]
        rows = x.reshape(-1, x.shape[-1]) @ self.weight + self.bias
        return rows.reshape(*lead, self.bias.shape[0])


class LayerNorm(Module):
    def __init__(self, dim: int, eps: float = 1e-5):
        self.gain = Tensor(np.ones(dim), requires_grad=True)
        self.bias = Tensor(np.zeros(dim), requires_grad=True)
        self.eps = eps

    def __call__(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.gain, self.bias, self.eps)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to mean 0 / population variance 1, then affine."""
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    return centered / (var + eps).sqrt() * gain + bias


def sinusoidal_positions(n: int, d: int) -> Tensor:
    """Fixed sin/cos positional table, PE[p, 2i]=sin(p/10000^(2i/d))."""
    if d % 2 != 0:
        raise ShapeMismatch("positional dimension must be even")
    return Tensor(_position_table(n, d))


@functools.lru_cache(maxsize=64)
def _position_table(n: int, d: int) -> np.ndarray:
    """The table behind sinusoidal_positions, built once per (n, d) and
    shared read-only."""
    pos = np.arange(n)[:, None]
    i = np.arange(d // 2)[None, :]
    angle = pos / np.power(10000.0, 2.0 * i / d)
    pe = np.zeros((n, d))
    pe[:, 0::2] = np.sin(angle)
    pe[:, 1::2] = np.cos(angle)
    pe.flags.writeable = False
    return pe


class MultiHeadAttention(Module):
    """Scaled dot-product attention with a key-side validity mask.

    q is [..., m, d], k and v are [..., n, d] and the mask is k's leading
    shape [..., n].  Masked keys get a -inf score bias, so their
    post-softmax weight is exactly zero and outputs are bit-independent of
    their values.
    """

    def __init__(self, cfg: AttentionConfig, rng: np.random.Generator):
        self.cfg = cfg
        d = cfg.d_model
        self.wq = Linear(d, d, rng)
        self.wk = Linear(d, d, rng)
        self.wv = Linear(d, d, rng)
        self.wo = Linear(d, d, rng)

    def _split_heads(self, x: Tensor) -> Tensor:
        """[..., n, d] -> [..., heads, n, head_dim]."""
        *lead, n, _ = x.shape
        b = len(lead)
        return x.reshape(*lead, n, self.cfg.heads, self.cfg.head_dim).transpose(
            *range(b), b + 1, b, b + 2)

    def _weights(self, q: Tensor, k: Tensor, mask: np.ndarray | None) -> Tensor:
        """Post-softmax weights [..., heads, m, n], recorded on the tape."""
        d = self.cfg.d_model
        if q.shape[-1] != d or k.shape[-1] != d:
            raise ShapeMismatch("q/k/v last dim must equal d_model")
        if mask is not None:
            mask = np.asarray(mask, dtype=bool)
            if mask.shape != k.shape[:-1]:
                raise ShapeMismatch(f"mask shape {mask.shape} vs keys {k.shape[:-1]}")
            if not mask.any(axis=-1).all():
                raise AllMasked("no valid key positions")
        K = self._split_heads(self.wk(k))
        b = K.ndim - 2
        scores = (self._split_heads(self.wq(q)) @ K.transpose(*range(b), b + 1, b)) \
            * (1.0 / np.sqrt(self.cfg.head_dim))
        if mask is not None:
            scores = scores + Tensor(np.where(mask, 0.0, -np.inf)[..., None, None, :])
        return scores.softmax(axis=-1)

    def __call__(self, q: Tensor, k: Tensor, v: Tensor,
                 mask: np.ndarray | None = None) -> Tensor:
        if v.shape[-1] != self.cfg.d_model:
            raise ShapeMismatch("q/k/v last dim must equal d_model")
        if k.shape[:-1] != v.shape[:-1]:
            raise ShapeMismatch("keys and values must agree in length")
        out = self._weights(q, k, mask) @ self._split_heads(self.wv(v))
        *lead, _, m, _ = out.shape
        b = len(lead)
        out = out.transpose(*range(b), b + 1, b, b + 2).reshape(*lead, m, self.cfg.d_model)
        return self.wo(out)

    def attention_weights(self, q: Tensor, k: Tensor,
                          mask: np.ndarray | None = None) -> np.ndarray:
        """Post-softmax weights [..., heads, m, n]; inspection only."""
        with no_grad():
            return self._weights(q, k, mask).data


class FeedForward(Module):
    def __init__(self, cfg: AttentionConfig, rng: np.random.Generator):
        self.lin1 = Linear(cfg.d_model, cfg.ffn_dim, rng)
        self.lin2 = Linear(cfg.ffn_dim, cfg.d_model, rng)

    def __call__(self, x: Tensor) -> Tensor:
        return self.lin2(self.lin1(x).gelu())


class EncoderBlock(Module):
    """Pre-norm: x + MHA(LN(x)), then + FFN(LN(.))."""

    def __init__(self, cfg: AttentionConfig, rng: np.random.Generator):
        self.ln1 = LayerNorm(cfg.d_model)
        self.attn = MultiHeadAttention(cfg, rng)
        self.ln2 = LayerNorm(cfg.d_model)
        self.ffn = FeedForward(cfg, rng)

    def __call__(self, x: Tensor, mask: np.ndarray | None = None) -> Tensor:
        h = self.ln1(x)
        x = x + self.attn(h, h, h, mask=mask)
        x = x + self.ffn(self.ln2(x))
        return x


class DecoderBlock(Module):
    """Pre-norm: self-attention over queries, cross-attention to memory, FFN."""

    def __init__(self, cfg: AttentionConfig, rng: np.random.Generator):
        self.ln1 = LayerNorm(cfg.d_model)
        self.self_attn = MultiHeadAttention(cfg, rng)
        self.ln2 = LayerNorm(cfg.d_model)
        self.cross_attn = MultiHeadAttention(cfg, rng)
        self.ln3 = LayerNorm(cfg.d_model)
        self.ffn = FeedForward(cfg, rng)

    def __call__(self, x: Tensor, memory: Tensor,
                 mem_mask: np.ndarray | None = None) -> Tensor:
        h = self.ln1(x)
        x = x + self.self_attn(h, h, h)
        x = x + self.cross_attn(self.ln2(x), memory, memory, mask=mem_mask)
        x = x + self.ffn(self.ln3(x))
        return x


# ----------------------------------------------------------------------
# losses
def _label_sign(label) -> np.ndarray:
    """+1 where the label is positive (AI-generated), -1 elsewhere."""
    return np.where(np.asarray(label) != 0, 1.0, -1.0)


def bce_loss(logit: Tensor, label) -> Tensor:
    """Binary cross-entropy on raw logits, computed in log-space.

    `label` is a scalar or an array shaped like `logit`; the loss is
    elementwise."""
    return (logit * Tensor(-_label_sign(label))).softplus()


def focal_loss(logit: Tensor, label, gamma: float = 2.0, alpha: float = 0.25) -> Tensor:
    """-alpha_t (1-p_t)^gamma ln p_t, elementwise; gamma=0, alpha=0.5 halves BCE."""
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    sign = _label_sign(label)
    alpha_t = np.where(sign > 0, alpha, 1.0 - alpha)
    neg = logit * Tensor(-sign)
    # (1 - p_t) = sigmoid(-sign*z); -ln p_t = softplus(-sign*z)
    return neg.sigmoid() ** gamma * neg.softplus() * alpha_t


# ----------------------------------------------------------------------
# optimizer
@dataclass
class OptimState:
    lr: float = 1e-5
    weight_decay: float = 1e-6
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(params: dict[str, Tensor], state: OptimState):
    """Decoupled weight decay, then bias-corrected Adam, in place."""
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    bc1 = 1.0 - b1**state.t
    bc2 = 1.0 - b2**state.t
    for name, p in params.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if g.shape != p.data.shape:
            raise ShapeMismatch(f"{name}: grad {g.shape} vs param {p.data.shape}")
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        m = state.m[name] = b1 * state.m[name] + (1.0 - b1) * g
        v = state.v[name] = b2 * state.v[name] + (1.0 - b2) * g * g
        if state.weight_decay:
            p.data *= 1.0 - state.lr * state.weight_decay
        p.data -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)


# ----------------------------------------------------------------------
# checkpoint format, AIGM version 2: magic "AIGM", u32 version = 2, u32
# header length H (little-endian), H bytes of UTF-8 JSON {"meta": {...},
# "tensors": [[name, shape], ...]}, then each tensor's float64 little-endian
# payload in header order, and nothing after the last one.  "meta" belongs
# to the caller (pipeline.save_model: arch, extractor, attention, hparams).
_MAGIC = b"AIGM"
_VERSION = 2
_PREFIX = struct.Struct("<4sII")


def save_checkpoint(path, arrays: dict[str, np.ndarray], meta: dict | None = None):
    arrays = {name: np.asarray(a, dtype="<f8") for name, a in arrays.items()}
    index = [[name, list(a.shape)] for name, a in arrays.items()]
    header = json.dumps({"meta": meta or {}, "tensors": index}).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_PREFIX.pack(_MAGIC, _VERSION, len(header)))
        fh.write(header)
        for a in arrays.values():
            fh.write(a.tobytes())


def _is_header(header) -> bool:
    """{"meta": {...}, "tensors": [[name, [non-negative int, ...]], ...]},
    names distinct."""
    index = header.get("tensors") if isinstance(header, dict) else None
    return (isinstance(index, list) and isinstance(header.get("meta"), dict)
            and all(isinstance(e, list) and len(e) == 2 and isinstance(e[0], str)
                    and isinstance(e[1], list) and all(type(d) is int and d >= 0 for d in e[1])
                    for e in index)
            and len({e[0] for e in index}) == len(index))


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    """(arrays, meta) of an AIGM v2 file.  Sizes are checked against the file
    length before anything is read; CheckpointError names the file."""
    with open(path, "rb") as fh:
        length = os.fstat(fh.fileno()).st_size
        head = fh.read(_PREFIX.size)
        if len(head) != _PREFIX.size or head[:4] != _MAGIC:
            raise CheckpointError(f"{path}: bad magic (expected AIGM)")
        _, version, size = _PREFIX.unpack(head)
        if version != _VERSION:
            raise CheckpointError(f"{path}: unsupported AIGM version {version} "
                                  f"(expected {_VERSION})")
        if _PREFIX.size + size > length:
            raise CheckpointError(f"{path}: truncated header")
        try:
            header = json.loads(fh.read(size).decode("utf-8"))
        except (ValueError, RecursionError) as exc:  # UnicodeDecodeError is a ValueError
            raise CheckpointError(f"{path}: header is not UTF-8 JSON ({exc})") from None
        if not _is_header(header):
            raise CheckpointError(f"{path}: header is not an object with a 'meta' "
                                  f"object and a 'tensors' list of [name, shape]")
        end = _PREFIX.size + size + 8 * sum(math.prod(s) for _, s in header["tensors"])
        if length < end:
            raise CheckpointError(f"{path}: truncated payload ({length} of {end} bytes)")
        if length > end:
            raise CheckpointError(f"{path}: {length - end} trailing bytes after the last tensor")
        arrays = {name: np.frombuffer(fh.read(8 * math.prod(shape)), dtype="<f8")
                  .reshape(shape).copy() for name, shape in header["tensors"]}
    return arrays, header["meta"]


__all__ = [
    "AttentionConfig", "Module", "Linear", "LayerNorm", "MultiHeadAttention",
    "FeedForward", "EncoderBlock", "DecoderBlock", "layer_norm",
    "sinusoidal_positions", "bce_loss", "focal_loss", "OptimState", "adam_step",
    "save_checkpoint", "load_checkpoint", "ShapeMismatch", "AllMasked",
    "CheckpointError", "concat",
]

"""Transformer building blocks, losses, Adam, and checkpoint I/O.

All blocks are pre-norm residual and operate on unbatched [positions x dim]
tensors; batching is done by averaging per-example losses in the training
loop.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .tensor import Tensor, concat


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
        missing = set(params) - set(arrays)
        if missing:
            raise CheckpointError(f"missing parameters: {sorted(missing)[:3]}...")
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
        return x @ self.weight + self.bias


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
    pos = np.arange(n)[:, None]
    i = np.arange(d // 2)[None, :]
    angle = pos / np.power(10000.0, 2.0 * i / d)
    pe = np.zeros((n, d))
    pe[:, 0::2] = np.sin(angle)
    pe[:, 1::2] = np.cos(angle)
    return Tensor(pe)


class MultiHeadAttention(Module):
    """Scaled dot-product attention with a key-side validity mask.

    Masked keys get a -inf score bias, so their post-softmax weight is
    exactly zero and outputs are bit-independent of their values.
    """

    def __init__(self, cfg: AttentionConfig, rng: np.random.Generator):
        self.cfg = cfg
        d = cfg.d_model
        self.wq = Linear(d, d, rng)
        self.wk = Linear(d, d, rng)
        self.wv = Linear(d, d, rng)
        self.wo = Linear(d, d, rng)

    def __call__(self, q: Tensor, k: Tensor, v: Tensor,
                 mask: np.ndarray | None = None) -> Tensor:
        cfg = self.cfg
        if q.shape[-1] != cfg.d_model or k.shape[-1] != cfg.d_model or v.shape[-1] != cfg.d_model:
            raise ShapeMismatch("q/k/v last dim must equal d_model")
        if k.shape[0] != v.shape[0]:
            raise ShapeMismatch("keys and values must agree in length")
        n = k.shape[0]
        if mask is not None:
            mask = np.asarray(mask, dtype=bool)
            if mask.shape != (n,):
                raise ShapeMismatch(f"mask shape {mask.shape} vs keys {n}")
            if not mask.any():
                raise AllMasked("no valid key positions")

        m = q.shape[0]
        h, hd = cfg.heads, cfg.head_dim
        Q = self.wq(q).reshape(m, h, hd).transpose(1, 0, 2)
        K = self.wk(k).reshape(n, h, hd).transpose(1, 0, 2)
        V = self.wv(v).reshape(n, h, hd).transpose(1, 0, 2)

        scores = (Q @ K.transpose(0, 2, 1)) * (1.0 / np.sqrt(hd))
        if mask is not None:
            bias = np.where(mask, 0.0, -np.inf)[None, None, :]
            scores = scores + Tensor(bias)
        attn = scores.softmax(axis=-1)
        out = (attn @ V).transpose(1, 0, 2).reshape(m, h * hd)
        return self.wo(out)

    def attention_weights(self, q: Tensor, k: Tensor,
                          mask: np.ndarray | None = None) -> np.ndarray:
        """Post-softmax weights [heads x m x n]; inspection only."""
        cfg = self.cfg
        m, n = q.shape[0], k.shape[0]
        h, hd = cfg.heads, cfg.head_dim
        Q = self.wq(q).reshape(m, h, hd).transpose(1, 0, 2)
        K = self.wk(k).reshape(n, h, hd).transpose(1, 0, 2)
        scores = (Q @ K.transpose(0, 2, 1)) * (1.0 / np.sqrt(hd))
        if mask is not None:
            scores = scores + Tensor(np.where(np.asarray(mask, bool), 0.0, -np.inf)[None, None, :])
        return scores.softmax(axis=-1).data


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
def bce_loss(logit: Tensor, label: int) -> Tensor:
    """Binary cross-entropy on a raw logit, computed in log-space."""
    sign = 1.0 if label else -1.0
    return (logit * (-sign)).softplus()


def focal_loss(logit: Tensor, label: int, gamma: float = 2.0, alpha: float = 0.25) -> Tensor:
    """-alpha_t (1-p_t)^gamma ln p_t; gamma=0, alpha=0.5 halves BCE."""
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    sign = 1.0 if label else -1.0
    alpha_t = alpha if label else 1.0 - alpha
    neg = logit * (-sign)
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
# checkpoint format: magic "AIGM", u32 version, u32 count,
# then per tensor: u32 name_len + utf-8 name, u32 rank, u32 dims...,
# float64 little-endian payload.
_MAGIC = b"AIGM"
_VERSION = 1


def save_checkpoint(path, arrays: dict[str, np.ndarray]):
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", _VERSION, len(arrays)))
        for name, arr in arrays.items():
            arr = np.asarray(arr, dtype="<f8")
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.tobytes())


def load_checkpoint(path) -> dict[str, np.ndarray]:
    def read(fh, n):
        buf = fh.read(n)
        if len(buf) != n:
            raise CheckpointError("truncated checkpoint")
        return buf

    arrays: dict[str, np.ndarray] = {}
    with open(path, "rb") as fh:
        if read(fh, 4) != _MAGIC:
            raise CheckpointError("bad magic (expected AIGM)")
        version, count = struct.unpack("<II", read(fh, 8))
        if version != _VERSION:
            raise CheckpointError(f"unsupported version {version}")
        for _ in range(count):
            (name_len,) = struct.unpack("<I", read(fh, 4))
            name = read(fh, name_len).decode("utf-8")
            (rank,) = struct.unpack("<I", read(fh, 4))
            dims = struct.unpack(f"<{rank}I", read(fh, 4 * rank)) if rank else ()
            n = int(np.prod(dims)) if dims else 1
            payload = read(fh, 8 * n)
            arrays[name] = np.frombuffer(payload, dtype="<f8").reshape(dims).copy()
    return arrays


__all__ = [
    "AttentionConfig", "Module", "Linear", "LayerNorm", "MultiHeadAttention",
    "FeedForward", "EncoderBlock", "DecoderBlock", "layer_norm",
    "sinusoidal_positions", "bce_loss", "focal_loss", "OptimState", "adam_step",
    "save_checkpoint", "load_checkpoint", "ShapeMismatch", "AllMasked",
    "CheckpointError", "concat",
]

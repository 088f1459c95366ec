"""Transformer building blocks, losses, Adam, and checkpoint I/O.

All blocks are pre-norm residual and operate on [..., positions, dim]
tensors: any leading axes are batch axes, and key masks are [...,
positions].  Leading axes broadcast, so a shared [positions, dim] input
(AudioCAT's learned queries) can attend to a batched memory.  Unbatched
inputs are the case with no leading axes.

Linear, layer_norm and the attention core (head split to head merge) are
each one tape node with a hand-written backward rule.  Their forward
arithmetic is the one their composite forms (tests/util.py) record, in the
same order, so outputs equal those forms bit for bit.

Cross-attention (cross_attention) is no node of its own: it runs the
attention node over the unprojected memory.  Its composite form projects
the memory to keys and values, and cross_attention never does, so the two
agree to rounding (within 1e-12 relative, which tests/test_nn.py holds).
MultiHeadAttention runs it only for keys of more rows than heads x
queries, and projects any other key set, self-attention's included.
"""

from __future__ import annotations

import functools
import json
import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .tensor import Tensor, _unbroadcast, node


@dataclass
class AttentionConfig:
    d_model: int = 128
    heads: int = 4
    ffn_dim: int = 256

    def __post_init__(self):
        if self.d_model < 1 or self.heads < 1:
            raise ValueError(f"d_model {self.d_model} and heads {self.heads} must be >= 1")
        if self.d_model % self.heads != 0:
            raise ValueError(f"d_model {self.d_model} not divisible by heads {self.heads}")
        if self.ffn_dim < self.d_model:
            raise ValueError("ffn_dim must be >= d_model")


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
            raise InputError(f"missing parameters {sorted(missing)[:3]}, "
                             f"unexpected {sorted(unexpected)[:3]}")
        for k, p in params.items():
            a = np.asarray(arrays[k], dtype=np.float64)
            if a.shape != p.data.shape:
                raise InputError(f"{k}: checkpoint {a.shape} vs model {p.data.shape}")
            p.data = a.copy()


class Linear(Module):
    """x W + b, or x W alone when built with bias=False."""

    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator, bias: bool = True):
        scale = 1.0 / np.sqrt(d_in)
        self.weight = Tensor(rng.normal(0.0, scale, size=(d_in, d_out)), requires_grad=True)
        self.bias = Tensor(np.zeros(d_out), requires_grad=True) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        """[..., d_in] -> [..., d_out]; leading axes fold into one row axis,
        so the weight gradient is a single matrix product."""
        w, b = self.weight, self.bias
        d_out = w.shape[1]
        rows = x.data if x.ndim == 2 else x.data.reshape(-1, x.shape[-1])
        out_data = rows @ w.data
        if b is not None:
            out_data += b.data
        out_data = out_data.reshape(*x.shape[:-1], d_out)

        def backward(out):
            g = out.grad.reshape(-1, d_out)
            if x.requires_grad:
                x._accumulate((g @ w.data.T).reshape(x.shape))
            if w.requires_grad:
                w._accumulate(rows.T @ g)
            if b is not None and b.requires_grad:
                b._accumulate(g.sum(axis=0))

        return node(out_data, (x, w) if b is None else (x, w, b), backward)


class LayerNorm(Module):
    def __init__(self, dim: int):
        self.gain = Tensor(np.ones(dim), requires_grad=True)
        self.bias = Tensor(np.zeros(dim), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.gain, self.bias)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to mean 0 / population variance 1, then affine."""
    inv_n = 1.0 / x.shape[-1]
    centered = x.data - x.data.sum(axis=-1, keepdims=True) * inv_n
    sigma = np.sqrt((centered * centered).sum(axis=-1, keepdims=True) * inv_n + 1e-5)
    xhat = centered / sigma
    out_data = xhat * gain.data + bias.data

    def backward(out):
        g = out.grad
        if x.requires_grad:
            gx = g * gain.data
            gx = gx - gx.mean(axis=-1, keepdims=True) \
                - xhat * (gx * xhat).mean(axis=-1, keepdims=True)
            x._accumulate(gx * (1.0 / sigma))
        if gain.requires_grad:
            gain._accumulate(_unbroadcast(g * xhat, gain.shape))
        if bias.requires_grad:
            bias._accumulate(_unbroadcast(g, bias.shape))

    return node(out_data, (x, gain, bias), backward)


def sinusoidal_positions(n: int, d: int) -> Tensor:
    """Fixed sin/cos positional table, PE[p, 2i]=sin(p/10000^(2i/d))."""
    if d % 2 != 0:
        raise ValueError("positional dimension must be even")
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


def _split_heads(x, heads: int):
    """[..., n, d] -> [..., heads, n, d // heads], of an array a view."""
    *lead, n, d = x.shape
    b = len(lead)
    return x.reshape(*lead, n, heads, d // heads).transpose(*range(b), b + 1, b, b + 2)


def _merge_heads(x):
    """[..., heads, n, head_dim] -> [..., n, heads * head_dim]."""
    *lead, heads, n, head_dim = x.shape
    b = len(lead)
    return x.transpose(*range(b), b + 1, b, b + 2).reshape(*lead, n, heads * head_dim)


def _attention_weights(qh: np.ndarray, kh: np.ndarray,
                       key_bias: np.ndarray | None) -> np.ndarray:
    """Post-softmax weights [..., heads, m, n] of split queries and keys:
    (Q K^T) scale, plus the 0 / -inf key bias, max-shifted softmax."""
    scores = (qh @ np.swapaxes(kh, -1, -2)) * (1.0 / np.sqrt(qh.shape[-1]))
    if key_bias is not None:
        scores = scores + key_bias
    e = np.exp(scores - np.max(scores, axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int,
              key_bias: np.ndarray | None = None) -> Tensor:
    """softmax((Q K^T) / sqrt(head_dim) + key_bias) V over `heads` heads of
    projected queries [..., m, d] and keys and values [..., n, d], one tape
    node.  key_bias is [..., 1, 1, n] of 0 (valid) and -inf (masked)."""
    qh, kh, vh = (_split_heads(t.data, heads) for t in (q, k, v))
    weights = _attention_weights(qh, kh, key_bias)
    out_data = _merge_heads(weights @ vh)

    def backward(out):
        g = _split_heads(out.grad, heads)
        if v.requires_grad:
            v._accumulate(_merge_heads(_unbroadcast(np.swapaxes(weights, -1, -2) @ g, vh.shape)))
        g_weights = g @ np.swapaxes(vh, -1, -2)
        g_scores = (g_weights - (g_weights * weights).sum(axis=-1, keepdims=True)) * weights
        g_scores *= 1.0 / np.sqrt(qh.shape[-1])
        if q.requires_grad:
            q._accumulate(_merge_heads(_unbroadcast(g_scores @ kh, qh.shape)))
        if k.requires_grad:
            k._accumulate(_merge_heads(_unbroadcast(np.swapaxes(g_scores, -1, -2) @ qh,
                                                    kh.shape)))

    return node(out_data, (q, k, v), backward)


def cross_attention(q: Tensor, memory: Tensor, wk: Tensor, wv: Tensor, bv: Tensor,
                    heads: int, key_bias: np.ndarray | None = None) -> Tensor:
    """attention(q, memory wk, memory wv + bv, heads, key_bias) with the key
    and value projections moved off the memory.

    q is [..., m, d] projected queries, memory [..., T, d], wk and wv
    [d, d] and bv [d]; key_bias is attention's.  Per head h the scores are
    ((Q_h W_k,h^T) M^T) / sqrt(head_dim), and the output is
    (P_h M) W_v,h + b_v,h, since each row of P sums to 1.  The heads x m
    rows Q_h W_k,h^T stack into one [heads m, d] matrix, so each memory row
    costs 2 heads m products of length d (one score, one P M term), where
    projecting it costs 2 d of them.  That matrix attends over the memory
    as one head of width d, and sqrt(heads) turns its 1/sqrt(d) into
    1/sqrt(head_dim)."""
    m, d = q.shape[-2:]
    qh = _split_heads(q, heads)
    wk_heads = wk.reshape(d, heads, d // heads).transpose(1, 2, 0)  # W_k,h^T: [heads, hd, d]
    absorbed = (qh @ wk_heads).reshape(*q.shape[:-2], heads * m, d) * np.sqrt(heads)
    mixed = attention(absorbed, memory, memory, 1, key_bias)  # [..., heads m, d]
    wv_heads = wv.reshape(d, heads, d // heads).transpose(1, 0, 2)  # W_v,h: [heads, d, hd]
    return _merge_heads(mixed.reshape(*mixed.shape[:-2], heads, m, d) @ wv_heads) + bv


class MultiHeadAttention(Module):
    """Scaled dot-product attention of queries x [..., m, d] over keys and
    values from memory [..., n, d], or from x when memory is None, under a
    key mask [..., n].

    Masked keys get a -inf score bias, so their post-softmax weight is
    exactly zero and outputs are bit-independent of their values.  The key
    projection has no bias: it adds one constant to each query's scores,
    which softmax removes.

    Keys of more rows than heads x m run cross_attention, which leaves the
    memory unprojected; any other key set, self-attention's included, is
    projected.  Each path is the cheaper on its side (a 2-vCPU Xeon VM, one
    BLAS thread): an AudioCAT training step at batch 8 over one-token
    stats-160 memories took 7.8-10.7 ms projected and 11.7-13.5 ms absorbed,
    and a forward over a 500-frame seq-512 map 2.2-2.7 ms absorbed and
    3.3-3.4 ms projected (medians of 100 calls, three rounds).
    """

    def __init__(self, cfg: AttentionConfig, rng: np.random.Generator):
        self.cfg = cfg
        d = cfg.d_model
        self.wq = Linear(d, d, rng)
        self.wk = Linear(d, d, rng, bias=False)
        self.wv = Linear(d, d, rng)
        self.wo = Linear(d, d, rng)

    def _key_bias(self, x: Tensor, kv: Tensor, mask: np.ndarray | None) -> np.ndarray | None:
        """Check the x and kv widths and the mask; the mask as a
        [..., 1, 1, n] score bias, or None."""
        d = self.cfg.d_model
        if x.shape[-1] != d or kv.shape[-1] != d:
            raise ValueError("query and memory last dim must equal d_model")
        if mask is None:
            return None
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != kv.shape[:-1]:
            raise ValueError(f"mask shape {mask.shape} vs keys {kv.shape[:-1]}")
        if not mask.any(axis=-1).all():
            raise ValueError("no valid key positions")
        return np.where(mask, 0.0, -np.inf)[..., None, None, :]

    def __call__(self, x: Tensor, memory: Tensor | None = None,
                 mask: np.ndarray | None = None) -> Tensor:
        kv = x if memory is None else memory
        key_bias = self._key_bias(x, kv, mask)
        q = self.wq(x)
        if kv.shape[-2] > self.cfg.heads * x.shape[-2]:
            return self.wo(cross_attention(q, kv, self.wk.weight, self.wv.weight,
                                           self.wv.bias, self.cfg.heads, key_bias))
        return self.wo(attention(q, self.wk(kv), self.wv(kv), self.cfg.heads, key_bias))


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
        x = x + self.attn(self.ln1(x), mask=mask)
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
        x = x + self.self_attn(self.ln1(x))
        x = x + self.cross_attn(self.ln2(x), memory, mask=mem_mask)
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
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class OptimState:
    lr: float
    weight_decay: float
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(params: dict[str, Tensor], state: OptimState):
    """Decoupled weight decay, then bias-corrected Adam, in place."""
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    bc1 = 1.0 - b1**state.t
    bc2 = 1.0 - b2**state.t
    for name, p in params.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if g.shape != p.data.shape:
            raise ValueError(f"{name}: grad {g.shape} vs param {p.data.shape}")
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        # g is read, never written: see the tensor module's docstring
        m, v = state.m[name], state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        if state.weight_decay:
            p.data *= 1.0 - state.lr * state.weight_decay
        p.data -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


# ----------------------------------------------------------------------
# checkpoint format, AIGM version 3: magic "AIGM", u32 version = 3, u32
# header length H (little-endian), H bytes of UTF-8 JSON {"meta": {...},
# "tensors": [[name, shape], ...]}, then each tensor's float64 little-endian
# payload in header order, and nothing after the last one.  "meta" belongs
# to the caller: pipeline.save_model writes exactly two keys, "arch" and
# "extractor" (the stage-1 preset, or "" for a segtr).
# Version 2 had this layout, but its seq models read frame-512 log-mels.
_MAGIC = b"AIGM"
_VERSION = 3
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
    """(arrays, meta) of an AIGM v3 file.  Sizes are checked against the file
    length before anything is read, and every value must be finite;
    InputError names the file."""
    with open(path, "rb") as fh:
        length = os.fstat(fh.fileno()).st_size
        head = fh.read(_PREFIX.size)
        if len(head) != _PREFIX.size or head[:4] != _MAGIC:
            raise InputError(f"{path}: bad magic (expected AIGM)")
        _, version, size = _PREFIX.unpack(head)
        if version != _VERSION:
            raise InputError(f"{path}: unsupported AIGM version {version} "
                             f"(expected {_VERSION})")
        if _PREFIX.size + size > length:
            raise InputError(f"{path}: truncated header")
        try:
            header = json.loads(fh.read(size).decode("utf-8"))
        except (ValueError, RecursionError) as exc:  # UnicodeDecodeError is a ValueError
            raise InputError(f"{path}: header is not UTF-8 JSON ({exc})") from None
        if not _is_header(header):
            raise InputError(f"{path}: header is not an object with a 'meta' "
                             f"object and a 'tensors' list of [name, shape]")
        end = _PREFIX.size + size + 8 * sum(math.prod(s) for _, s in header["tensors"])
        if length < end:
            raise InputError(f"{path}: truncated payload ({length} of {end} bytes)")
        if length > end:
            raise InputError(f"{path}: {length - end} trailing bytes after the last tensor")
        try:
            arrays = {name: np.frombuffer(fh.read(8 * math.prod(shape)), dtype="<f8")
                      .reshape(shape).copy() for name, shape in header["tensors"]}
        except ValueError as exc:  # a shape numpy cannot hold: [0, 2**63], or 70 dimensions
            raise InputError(f"{path}: {exc}") from None
    for name, a in arrays.items():
        if not np.isfinite(a).all():
            raise InputError(f"{path}: tensor {name!r} holds a NaN or an infinity")
    return arrays, header["meta"]


__all__ = [
    "AttentionConfig", "Module", "Linear", "LayerNorm", "MultiHeadAttention",
    "FeedForward", "EncoderBlock", "DecoderBlock", "layer_norm", "attention", "cross_attention",
    "sinusoidal_positions", "bce_loss", "focal_loss", "OptimState", "adam_step",
    "save_checkpoint", "load_checkpoint",
]

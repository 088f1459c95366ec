"""Shared test helpers: finite-difference gradient checking, synthetic
signal construction, a content-keyed random feature extractor, the direct
forms of the resampler, the beat DP and the AUC that the vectorised ones
are checked against, the whole-array forms of log-mel, track rendering
and WAV writing that the bounded-memory ones must match bit for bit, the
composite (node-by-node) forms of nn's fused Linear, layer_norm and
attention nodes, and their post-softmax attention weights.

The composite forms need five ops the models never run: sub, div, sqrt,
softmax and transpose.  They live here, built on `tensor.node` like the
tape's own primitives, so the tape holds only what the package runs."""

import struct
import zlib

import numpy as np

from aigmdet import data, nn
from aigmdet.audio import AudioBuffer
from aigmdet.beats import DP_TIGHTNESS
from aigmdet.dsp import FRAME_LEN, HOP, LOG_EPS, mel_filterbank, stft
from aigmdet.extractors import FeatureExtractor
from aigmdet.tensor import Tensor, _unbroadcast, no_grad, node


def finite_diff_check(loss_fn, params, h=1e-5, rel_tol=1e-4, n_coords=None, rng=None):
    """Compare analytic gradients of loss_fn() against central differences.

    Returns the worst relative error; error uses a denominator floor so
    analytically-zero gradients compare at absolute 1e-6 scale.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    for p in params:
        p.zero_grad()
    loss_fn().backward()
    worst = 0.0
    for p in params:
        flat = p.data.ravel()
        grad = p.grad.ravel() if p.grad is not None else np.zeros_like(flat)
        if n_coords is None or n_coords >= len(flat):
            idxs = range(len(flat))
        else:
            idxs = rng.choice(len(flat), n_coords, replace=False)
        for i in idxs:
            orig = flat[i]
            flat[i] = orig + h
            up = float(loss_fn().data)
            flat[i] = orig - h
            down = float(loss_fn().data)
            flat[i] = orig
            fd = (up - down) / (2 * h)
            err = abs(fd - grad[i]) / max(abs(fd), abs(grad[i]), 1e-2)
            worst = max(worst, err)
    assert worst < rel_tol, f"gradient mismatch: worst rel err {worst:.3e}"
    return worst


def sine_buffer(freq, duration_s, rate=16000, amp=0.5, channels=1):
    t = np.arange(int(duration_s * rate)) / rate
    x = amp * np.sin(2 * np.pi * freq * t)
    return AudioBuffer(np.tile(x, (channels, 1)), rate)


def click_track(bpm, duration_s, rate=16000, accent_every=0, accent_amp=1.0,
                base_amp=0.5, jitter_s=0.0, rng=None, phase_s=0.0):
    """Decaying-burst clicks on every beat; optional accents and jitter."""
    n = int(duration_s * rate)
    x = np.zeros(n)
    beat_len = 60.0 / bpm
    click_t = np.arange(int(0.02 * rate)) / rate
    click = np.exp(-click_t * 120) * np.sin(2 * np.pi * 1500 * click_t)
    k = 0
    t = phase_s
    while t < duration_s:
        tt = t
        if jitter_s and rng is not None:
            tt = t + rng.uniform(-jitter_s, jitter_s)
        start = int(round(tt * rate))
        if 0 <= start < n:
            amp = accent_amp if (accent_every and k % accent_every == 0) else base_amp
            end = min(n, start + len(click))
            x[start:end] += amp * click[:end - start]
        t += beat_len
        k += 1
    return AudioBuffer(x[None, :], rate)


class RandomStubExtractor(FeatureExtractor):
    """Deterministic random features keyed by segment content, for wiring
    checks."""

    def __init__(self, d_enc: int = 64, kind: str = "vector", seed: int = 0):
        self.name = f"random-stub-{d_enc}"
        self.d_enc = d_enc
        self.kind = kind
        self.seed = seed

    def _extract(self, segment: AudioBuffer) -> np.ndarray:
        digest = zlib.crc32(segment.samples.tobytes(), self.seed & 0xFFFFFFFF)
        rng = np.random.default_rng(digest)
        if self.kind == "vector":
            v = rng.normal(size=self.d_enc)
            return v / np.linalg.norm(v)
        t = max(1, segment.frames // HOP)
        return rng.normal(size=(t, self.d_enc))


def fft_peak_hz(buf, channel=0):
    x = buf.samples[channel]
    spectrum = np.abs(np.fft.rfft(x * np.hanning(len(x))))
    peak = np.argmax(spectrum)
    return peak * buf.sample_rate / len(x)


def direct_resample_channel(x, ratio, beta=8.0, taps=32):
    """Direct-form windowed-sinc resampling of one channel by `ratio`.

    Evaluates the Kaiser-windowed sinc (beta 8, 32 zero crossings per side,
    cutoff min(1, ratio)) afresh for every (output sample x tap); the
    polyphase `audio.resample` must reproduce it.
    """
    n_out = int(round(len(x) * ratio))
    if n_out == 0 or len(x) == 0:
        return np.zeros(n_out)
    cutoff = min(1.0, ratio)
    half = int(np.ceil(taps / cutoff))
    offsets = np.arange(-half + 1, half + 1)
    out = np.empty(n_out)
    # block the output so the [block x taps] workspace stays small
    block = max(1, (1 << 22) // (2 * half))
    for lo in range(0, n_out, block):
        hi = min(lo + block, n_out)
        pos = np.arange(lo, hi) / ratio
        base = np.floor(pos).astype(np.int64)
        idx = base[:, None] + offsets[None, :]
        t = pos[:, None] - idx
        window = np.zeros_like(t)
        inside = np.abs(t) <= half
        arg = np.clip(1.0 - (t[inside] / half) ** 2, 0.0, None)
        window[inside] = np.i0(beta * np.sqrt(arg)) / np.i0(beta)
        kernel = cutoff * np.sinc(cutoff * t) * window
        valid = (idx >= 0) & (idx < len(x))
        gathered = np.where(valid, x[np.clip(idx, 0, len(x) - 1)], 0.0)
        out[lo:hi] = (gathered * kernel).sum(axis=1)
    return out


def loop_beat_dp(env, tau):
    """Frame-by-frame form of `beats.beat_dp`, the reference its blocked
    form must match bit for bit."""
    lo, hi = int(np.floor(tau / 2)), int(np.ceil(tau * 2)) + 1
    score = env.copy()
    backlink = np.full(len(env), -1, dtype=np.int64)
    window = np.arange(lo, hi)
    penalty = -DP_TIGHTNESS * np.log(window / tau) ** 2
    for t in range(lo, len(env)):
        prev = t - window
        valid = prev >= 0
        if not valid.any():
            continue
        candidates = score[prev[valid]] + penalty[valid]
        best = int(np.argmax(candidates))
        score[t] = env[t] + candidates[best]
        backlink[t] = prev[valid][best]
    return score, backlink


def pairwise_auc(scores, labels):
    """O(P N) form of `training.roc_auc`: the fraction of (positive,
    negative) pairs the positive wins, ties counting one half."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    greater = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return float((greater + 0.5 * ties) / (len(pos) * len(neg)))


def whole_log_mel(mono, frame_len=FRAME_LEN, hop=HOP):
    """`dsp.log_mel` with the spectrum of every frame held at once."""
    power = stft(mono, frame_len, hop).magnitudes**2
    return np.log(power @ mel_filterbank(frame_len, mono.sample_rate).T + LOG_EPS)


def concatenated_render_track(label, bpm, duration_s, rate, rng):
    """`data.render_track` from a list of bars joined by np.concatenate."""
    bars = [data._render_bar(data._SECTION_ROOTS[s], beat, amp, bpm, rate)
            for s, beat, amp in data._bar_plan(label, bpm, duration_s, rng)]
    audio = np.concatenate(bars)
    target = int(round(duration_s * rate))
    if len(audio) < target:
        audio = np.concatenate([audio, np.zeros(target - len(audio))])
    samples = 0.8 * audio[:target] / max(np.abs(audio).max(), 1e-9)
    return AudioBuffer(samples[None, :], rate)


def wav_bytes(buf):
    """The file `audio.save_wav` writes, built from whole-array temporaries."""
    clamped = np.clip(buf.samples, -1.0, 1.0)
    quantized = np.clip(np.round(clamped * 32768.0), -32768, 32767).astype("<i2")
    interleaved = quantized.T.reshape(-1).tobytes()
    channels, rate = buf.channels, buf.sample_rate
    return (b"RIFF" + struct.pack("<I", 36 + len(interleaved)) + b"WAVE"
            + b"fmt " + struct.pack("<IHHIIHH", 16, 1, channels, rate, rate * channels * 2,
                                    channels * 2, 16)
            + b"data" + struct.pack("<I", len(interleaved)) + interleaved)


def raw_wav(fmt: int, channels: int, bits: int, data: bytes, rate: int = 16000) -> bytes:
    """A RIFF/WAVE file of `data` as given; fmt 1 is PCM, 3 is IEEE float."""
    block = channels * bits // 8
    return (b"RIFF" + struct.pack("<I", 36 + len(data)) + b"WAVE"
            + b"fmt " + struct.pack("<IHHIIHH", 16, fmt, channels, rate, rate * block,
                                    block, bits)
            + b"data" + struct.pack("<I", len(data)) + data)


def sub(a, b):
    """a - b on the tape."""
    def backward(out):
        if a.requires_grad:
            a._accumulate(_unbroadcast(out.grad, a.shape))
        if b.requires_grad:
            b._accumulate(-_unbroadcast(out.grad, b.shape))

    return node(a.data - b.data, (a, b), backward)


def div(a, b):
    """a / b on the tape."""
    def backward(out):
        if a.requires_grad:
            a._accumulate(_unbroadcast(out.grad / b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-out.grad * a.data / b.data**2, b.shape))

    return node(a.data / b.data, (a, b), backward)


def sqrt(x):
    """Elementwise square root on the tape."""
    def backward(out):
        if x.requires_grad:
            x._accumulate(out.grad * 0.5 / out.data)

    return node(np.sqrt(x.data), (x,), backward)


def softmax(x, axis=-1):
    """Max-shifted softmax along `axis`; -inf entries map to exactly 0."""
    e = np.exp(x.data - np.max(x.data, axis=axis, keepdims=True))

    def backward(out):
        if x.requires_grad:
            y, g = out.data, out.grad
            x._accumulate((g - (g * y).sum(axis=axis, keepdims=True)) * y)

    return node(e / e.sum(axis=axis, keepdims=True), (x,), backward)


def transpose(x, axes=None):
    """x with its axes permuted (reversed by default) on the tape."""
    axes = tuple(reversed(range(x.ndim))) if axes is None else tuple(axes)

    def backward(out):
        if x.requires_grad:
            x._accumulate(out.grad.transpose(np.argsort(axes)))

    return node(x.data.transpose(axes), (x,), backward)


def composite_linear(lin, x):
    """`nn.Linear` as a matrix product and a bias add on the tape."""
    if x.ndim == 2:
        return x @ lin.weight + lin.bias
    rows = x.reshape(-1, x.shape[-1]) @ lin.weight + lin.bias
    return rows.reshape(*x.shape[:-1], lin.bias.shape[0])


def composite_layer_norm(x, gain, bias, eps=1e-5):
    """`nn.layer_norm` from mean, subtract, multiply, sqrt and divide nodes."""
    centered = sub(x, x.mean(axis=-1, keepdims=True))
    var = (centered * centered).mean(axis=-1, keepdims=True)
    return div(centered, sqrt(var + eps)) * gain + bias


def composite_attention(mha, q, k, v, mask=None):
    """`nn.MultiHeadAttention` with composite projections and its core
    (head split, scaled scores, -inf key bias, softmax, A V, head merge)
    recorded node by node."""
    heads, head_dim = mha.cfg.heads, mha.cfg.head_dim

    def split_heads(x):
        *lead, n, _ = x.shape
        b = len(lead)
        return transpose(x.reshape(*lead, n, heads, head_dim), (*range(b), b + 1, b, b + 2))

    keys = split_heads(composite_linear(mha.wk, k))
    b = keys.ndim - 2
    scores = (split_heads(composite_linear(mha.wq, q)) @ transpose(keys, (*range(b), b + 1, b))) \
        * (1.0 / np.sqrt(head_dim))
    if mask is not None:
        scores = scores + Tensor(np.where(mask, 0.0, -np.inf)[..., None, None, :])
    out = softmax(scores, axis=-1) @ split_heads(composite_linear(mha.wv, v))
    *lead, _, m, _ = out.shape
    b = len(lead)
    out = transpose(out, (*range(b), b + 1, b, b + 2)).reshape(*lead, m, mha.cfg.d_model)
    return composite_linear(mha.wo, out)


def attention_weights(mha, q, k, mask=None):
    """Post-softmax weights [..., heads, m, n] of `mha` over queries q and
    keys k, from its projections and nn's own attention-core arithmetic."""
    key_bias = mha._key_bias(q, k, mask)
    with no_grad():
        qh, kh = (nn._split_heads(lin(t).data, mha.cfg.heads)
                  for lin, t in ((mha.wq, q), (mha.wk, k)))
    return nn._attention_weights(qh, kh, key_bias)

"""Shared test helpers: finite-difference gradient checking, synthetic
signal construction, a content-keyed random feature extractor, the direct
and phase-by-phase forms of the resampler, the beat DP and the AUC that
the vectorised ones are checked against, the whole-array forms of log-mel,
track rendering and WAV writing that the bounded-memory ones must match
bit for bit, the composite (node-by-node) forms of nn's fused Linear,
layer_norm and attention nodes and of cross-attention, and their
post-softmax attention weights.

The composite forms need four ops the models never run: sub, div, sqrt
and softmax.  They live here, built on `tensor.node` like the
tape's own primitives, so the tape holds only what the package runs."""

import struct
import zlib

import numpy as np

from aigmdet import audio, data, nn
from aigmdet.audio import _KAISER_BETA, _SINC_TAPS, AudioBuffer
from aigmdet.beats import DP_TIGHTNESS
from aigmdet.dsp import LOG_EPS, mel_filterbank, stft
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
    """Deterministic random features keyed by a segment's log-mel frames,
    one feature row per frame, for wiring checks."""

    def __init__(self, d_enc: int = 64, kind: str = "vector", seed: int = 0):
        self.name = f"random-stub-{d_enc}"
        self.d_enc = d_enc
        self.kind = kind
        self.seed = seed

    def _extract(self, mel: np.ndarray) -> np.ndarray:
        digest = zlib.crc32(mel.tobytes(), self.seed & 0xFFFFFFFF)
        rng = np.random.default_rng(digest)
        if self.kind == "vector":
            v = rng.normal(size=self.d_enc)
            return v / np.linalg.norm(v)
        return rng.normal(size=(max(1, len(mel)), self.d_enc))


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


def phase_loop_resample(samples, up, down):
    """`audio._resample` as one strided matrix-vector product per phase:
    the outputs of phase n0 read input windows `down` samples apart."""
    n_out = round(samples.shape[1] * up / down)
    if n_out == 0:
        return np.zeros((samples.shape[0], 0))
    cutoff = min(1.0, up / down)
    half = int(np.ceil(_SINC_TAPS / cutoff))
    # output n0 + m*up sits at input position b0 + m*down + frac/up
    b0, frac = np.divmod(np.arange(min(up, n_out)) * down, up)
    t = frac[:, None] / up - np.arange(-half + 1, half + 1)[None, :]
    window = np.i0(_KAISER_BETA * np.sqrt(1.0 - (t / half) ** 2)) / np.i0(_KAISER_BETA)
    table = cutoff * np.sinc(cutoff * t) * window
    # with `half` zeros in front, the window for base b starts at index b+1
    padded = np.pad(samples, ((0, 0), (half, half)))
    windows = np.lib.stride_tricks.sliding_window_view(padded, 2 * half, axis=1)
    out = np.empty((samples.shape[0], n_out))
    for n0, (b, kernel) in enumerate(zip(b0, table)):
        count = len(range(n0, n_out, up))
        out[:, n0::up] = windows[:, b + 1::down][:, :count] @ kernel
    return out


def padded_resample(samples, up, down):
    """`audio._resample` over a zero-padded copy of the whole input, with
    the same groups, row chunks and products, so the same bytes."""
    channels, frames = samples.shape
    n_out = round(frames * up / down)
    if n_out == 0:
        return np.zeros((channels, 0))
    k = -(-audio._GROUP // up)
    phases = min(k * up, n_out)
    chunk_rows = audio._ROW_CHUNK
    blocks = -(-n_out // (phases * chunk_rows)) * chunk_rows
    half, groups = audio._phase_bands(up, down, phases, samples.dtype)
    # with `half` zeros in front, the window for base b starts at index b+1;
    # zeros behind the input up to the end of the last block's last window
    reach = (blocks - 1) * k * down + (phases - 1) * down // up + 2 * half + 1
    padded = np.pad(samples, ((0, 0), (half, reach - half - frames)))
    out = np.empty((channels, blocks, phases))
    for first, offset, band in groups:
        span, width = band.shape
        rows = np.lib.stride_tricks.sliding_window_view(
            padded[:, offset + 1:], span, axis=1)[:, ::k * down]
        for r in range(0, blocks, chunk_rows):
            chunk = rows[:, r:r + chunk_rows]
            acc = chunk[..., :audio._K_PIECE] @ band[:audio._K_PIECE]
            for s in range(audio._K_PIECE, span, audio._K_PIECE):
                acc += chunk[..., s:s + audio._K_PIECE] @ band[s:s + audio._K_PIECE]
            out[:, r:r + chunk_rows, first:first + width] = acc
    return np.ascontiguousarray(out.reshape(channels, -1)[:, :n_out])


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


def whole_log_mel(x):
    """`dsp.log_mel` with the spectrum of every frame held at once: the
    float32 power and mel product, then the float64 floor and log."""
    power = stft(x).magnitudes**2
    return np.log((power @ mel_filterbank().T).astype(np.float64) + LOG_EPS)


def bar_by_bar(root, accent_beat, accent_amp, bpm, rate):
    """One bar of `data.render_track` computed on its own: the section tone,
    its four clicks and its edge fades."""
    beat_len = 60.0 / bpm
    n = int(round(4 * beat_len * rate))
    t = np.arange(n) / rate
    bar = np.zeros(n)
    for harmonic, amp in enumerate(data._PARTIAL_AMPS, start=1):
        bar += amp * np.sin(2 * np.pi * root * harmonic * t)
    bar *= 0.6 + 0.4 * np.abs(np.sin(np.pi * t / beat_len))
    t_click = np.arange(int(data._CLICK_LEN_S * rate)) / rate
    for beat in range(4):
        amp = accent_amp if beat == accent_beat else data._PLAIN_BEAT_AMP
        click = (amp * np.exp(-t_click * data._CLICK_DECAY)
                 * np.sin(2 * np.pi * data._CLICK_FREQ * t_click))
        start = int(round(beat * beat_len * rate))
        end = min(n, start + len(click))
        bar[start:end] += click[:end - start]
    fade = min(64, n // 4)
    ramp = np.linspace(0.0, 1.0, fade)
    bar[:fade] *= ramp
    bar[-fade:] *= ramp[::-1]
    return bar


def concatenated_render_track(label, bpm, duration_s, rate, rng):
    """`data.render_track` from a list of bars, each computed on its own
    (`bar_by_bar`), joined by np.concatenate."""
    bars = [bar_by_bar(data._SECTION_ROOTS[s], beat, amp, bpm, rate)
            for s, beat, amp in data._bar_plan(label, bpm, duration_s, rng)]
    joined = np.concatenate(bars)
    target = int(round(duration_s * rate))
    if len(joined) < target:
        joined = np.concatenate([joined, np.zeros(target - len(joined))])
    samples = 0.8 * joined[:target] / max(np.abs(joined).max(), 1e-9)
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


def composite_linear(lin, x):
    """`nn.Linear` as a matrix product and, if it has one, a bias add on
    the tape."""
    rows = x if x.ndim == 2 else x.reshape(-1, x.shape[-1])
    rows = rows @ lin.weight if lin.bias is None else rows @ lin.weight + lin.bias
    return rows if x.ndim == 2 else rows.reshape(*x.shape[:-1], lin.weight.shape[1])


def composite_layer_norm(x, gain, bias, eps=1e-5):
    """`nn.layer_norm` from mean, subtract, multiply, sqrt and divide nodes."""
    centered = sub(x, x.mean(axis=-1, keepdims=True))
    var = (centered * centered).mean(axis=-1, keepdims=True)
    return div(centered, sqrt(var + eps)) * gain + bias


def composite_core(q, k, v, heads, mask=None):
    """`nn.attention` recorded node by node: head split, scaled scores,
    -inf key bias, softmax, A V, head merge."""
    d = q.shape[-1]
    head_dim = d // heads

    def split_heads(x):
        *lead, n, _ = x.shape
        b = len(lead)
        return x.reshape(*lead, n, heads, head_dim).transpose(*range(b), b + 1, b, b + 2)

    keys = split_heads(k)
    b = keys.ndim - 2
    scores = (split_heads(q) @ keys.transpose(*range(b), b + 1, b)) \
        * (1.0 / np.sqrt(head_dim))
    if mask is not None:
        scores = scores + Tensor(np.where(mask, 0.0, -np.inf)[..., None, None, :])
    out = softmax(scores, axis=-1) @ split_heads(v)
    *lead, _, m, _ = out.shape
    b = len(lead)
    return out.transpose(*range(b), b + 1, b, b + 2).reshape(*lead, m, d)


def composite_attention(mha, x, memory=None, mask=None):
    """`nn.MultiHeadAttention` with composite projections and core, over
    keys and values from memory, or from x when memory is None, which it
    always projects."""
    kv = x if memory is None else memory
    return composite_linear(mha.wo, composite_core(
        composite_linear(mha.wq, x), composite_linear(mha.wk, kv), composite_linear(mha.wv, kv),
        mha.cfg.heads, mask))


def attention_weights(mha, x, memory=None, mask=None):
    """Post-softmax weights [..., heads, m, n] of `mha` over queries x and
    keys from memory, or from x when memory is None, from its projections
    and nn's own attention-core arithmetic."""
    kv = x if memory is None else memory
    key_bias = mha._key_bias(x, kv, mask)
    with no_grad():
        qh, kh = (nn._split_heads(lin(t).data, mha.cfg.heads)
                  for lin, t in ((mha.wq, x), (mha.wk, kv)))
    return nn._attention_weights(qh, kh, key_bias)

import json
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aigmdet import nn
from aigmdet.errors import InputError
from aigmdet.tensor import Tensor

from util import (attention_weights, composite_attention, composite_core, composite_layer_norm,
                  composite_linear, finite_diff_check)

CFG = nn.AttentionConfig(d_model=16, heads=4, ffn_dim=16)


@pytest.fixture
def rng():
    return np.random.default_rng(7)


# ---------------------------------------------------------------- layer norm
def test_layer_norm_constant_vector_is_zero():
    x = Tensor(np.full((1, 8), 3.7))
    out = nn.layer_norm(x, Tensor(np.ones(8)), Tensor(np.zeros(8)))
    assert np.allclose(out.data, 0.0)


def test_layer_norm_two_values():
    x = Tensor(np.array([[1.0, 3.0]]))
    out = nn.layer_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)))
    assert np.allclose(out.data, [[-1.0, 1.0]], atol=1e-2)  # eps softens slightly


def test_layer_norm_moments(rng):
    x = Tensor(rng.normal(size=16) * 5 + 2)
    out = nn.layer_norm(x, Tensor(np.ones(16)), Tensor(np.zeros(16)))
    assert abs(out.data.mean()) < 1e-12
    assert abs(out.data.var() - 1.0) < 1e-4


def test_layer_norm_gradient(rng):
    ln = nn.LayerNorm(8)
    x = Tensor(rng.normal(size=(3, 8)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 8)))
    params = list(ln.parameters().values()) + [x]
    finite_diff_check(lambda: (ln(x) * w).sum(), params)


# ---------------------------------------------------------------- positions
def test_sinusoidal_first_row():
    pe = nn.sinusoidal_positions(4, 6).data
    assert np.allclose(pe[0], [0, 1, 0, 1, 0, 1])
    assert (np.abs(pe) <= 1.0).all()
    assert abs(pe[1, 0] - np.sin(1.0)) < 1e-12


@pytest.mark.parametrize("d_model,heads", [(128, 0), (0, 4), (-4, 2)])
def test_attention_config_rejects_nonpositive_sizes(d_model, heads):
    with pytest.raises(ValueError, match=f"d_model {d_model} and heads {heads} must be >= 1"):
        nn.AttentionConfig(d_model=d_model, heads=heads, ffn_dim=256)


def test_sinusoidal_odd_dim_rejected():
    with pytest.raises(ValueError, match="positional dimension must be even"):
        nn.sinusoidal_positions(4, 7)


def test_sinusoidal_table_is_cached_read_only():
    a, b = nn.sinusoidal_positions(9, 8), nn.sinusoidal_positions(9, 8)
    assert a.data is b.data
    assert not a.data.flags.writeable
    with pytest.raises(ValueError):
        a.data[0, 0] = 1.0


# ---------------------------------------------------------------- batching
def test_mha_batched_matches_per_example(rng):
    mha = nn.MultiHeadAttention(CFG, rng)
    q = rng.normal(size=(3, 4, 16))
    kv = rng.normal(size=(3, 6, 16))
    mask = rng.random((3, 6)) > 0.4
    mask[:, 0] = True
    out = mha(Tensor(q), Tensor(kv), mask=mask).data
    weights = attention_weights(mha, Tensor(q), Tensor(kv), mask)
    assert weights.shape == (3, CFG.heads, 4, 6)
    for i in range(3):
        single = mha(Tensor(q[i]), Tensor(kv[i]), mask=mask[i]).data
        assert np.abs(out[i] - single).max() <= 1e-12
        assert np.abs(weights[i] - attention_weights(
            mha, Tensor(q[i]), Tensor(kv[i]), mask[i])).max() <= 1e-12


def test_mha_shared_queries_broadcast_over_batch(rng):
    mha = nn.MultiHeadAttention(CFG, rng)
    q = rng.normal(size=(4, 16))
    kv = rng.normal(size=(2, 6, 16))
    out = mha(Tensor(q), Tensor(kv)).data
    assert out.shape == (2, 4, 16)
    for i in range(2):
        assert np.abs(out[i] - mha(Tensor(q), Tensor(kv[i])).data).max() <= 1e-12


def test_mha_batched_mask_checks(rng):
    mha = nn.MultiHeadAttention(CFG, rng)
    x = Tensor(rng.normal(size=(2, 3, 16)))
    with pytest.raises(ValueError, match=r"mask shape \(3,\) vs keys \(2, 3\)"):
        mha(x, mask=np.ones(3, bool))
    mask = np.ones((2, 3), bool)
    mask[1] = False  # one example with no valid key
    with pytest.raises(ValueError, match="no valid key positions"):
        mha(x, mask=mask)


def test_losses_take_label_arrays():
    z = Tensor(np.array([-1.5, 0.0, 2.0]))
    labels = np.array([1, 0, 1])
    for fn in (nn.bce_loss, nn.focal_loss):
        batched = fn(z, labels).data
        for i in range(3):
            assert batched[i] == fn(Tensor(z.data[i]), int(labels[i])).data


# ---------------------------------------------------------------- attention
def test_single_key_attention_is_identity_on_value(rng):
    cfg = nn.AttentionConfig(d_model=4, heads=1, ffn_dim=4)
    mha = nn.MultiHeadAttention(cfg, rng)
    # identity projections, zero bias (the key projection has none)
    for lin in (mha.wq, mha.wk, mha.wv, mha.wo):
        lin.weight.data = np.eye(4)
    for lin in (mha.wq, mha.wv, mha.wo):
        lin.bias.data = np.zeros(4)
    q = Tensor(rng.normal(size=(1, 4)))
    v = Tensor(rng.normal(size=(1, 4)))
    out = mha(q, v)
    assert np.allclose(out.data, v.data)


def test_attention_rows_sum_to_one(rng):
    mha = nn.MultiHeadAttention(CFG, rng)
    q = Tensor(rng.normal(size=(5, 16)))
    k = Tensor(rng.normal(size=(9, 16)))
    mask = np.array([1, 1, 0, 1, 0, 1, 1, 1, 0], bool)
    weights = attention_weights(mha, q, k, mask)
    assert np.allclose(weights.sum(axis=-1), 1.0, atol=1e-9)
    assert (weights[:, :, ~mask] == 0.0).all()
    assert (weights >= 0).all()


def test_masked_value_perturbation_is_invisible(rng):
    mha = nn.MultiHeadAttention(CFG, rng)
    q = Tensor(rng.normal(size=(3, 16)))
    kv = rng.normal(size=(6, 16))
    mask = np.array([1, 1, 0, 1, 1, 1], bool)
    out1 = mha(Tensor(q.data), Tensor(kv), mask=mask).data
    kv2 = kv.copy()
    kv2[2] = rng.normal(size=16) * 100
    out2 = mha(Tensor(q.data), Tensor(kv2), mask=mask).data
    assert np.array_equal(out1, out2)


def test_all_masked_raises(rng):
    mha = nn.MultiHeadAttention(CFG, rng)
    x = Tensor(rng.normal(size=(2, 16)))
    with pytest.raises(ValueError, match="no valid key positions"):
        mha(x, mask=np.zeros(2, bool))


def test_mha_gradients_self_and_cross(rng):
    mha = nn.MultiHeadAttention(CFG, rng)
    q = Tensor(rng.normal(size=(3, 16)), requires_grad=True)
    kv = Tensor(rng.normal(size=(5, 16)), requires_grad=True)
    mask = np.array([1, 0, 1, 1, 1], bool)
    params = list(mha.parameters().values()) + [q, kv]
    finite_diff_check(lambda: (mha(q, kv, mask=mask) ** 2).sum(),
                      params, n_coords=4)


# ---------------------------------------------------------------- fused nodes
def fused_case(kind, rng):
    """(fused forward, composite forward, inputs, module) of one fused node;
    every input requires grad, and the attention cases carry a key mask."""
    if kind.startswith("linear"):
        lin = nn.Linear(16, 5, rng)
        x = Tensor(rng.normal(size=(4, 16) if kind == "linear_2d" else (2, 3, 16)),
                   requires_grad=True)
        return (lambda: lin(x)), (lambda: composite_linear(lin, x)), [x], lin
    if kind == "layer_norm":
        ln = nn.LayerNorm(16)
        ln.gain.data[:] = rng.normal(1.0, 0.3, 16)
        ln.bias.data[:] = rng.normal(0.0, 0.3, 16)
        x = Tensor(rng.normal(size=(2, 3, 16)) * 3 + 1, requires_grad=True)
        return (lambda: ln(x)), (lambda: composite_layer_norm(x, ln.gain, ln.bias)), [x], ln
    if kind == "self_attention":
        mha = nn.MultiHeadAttention(CFG, rng)
        x = Tensor(rng.normal(size=(3, 5, 16)), requires_grad=True)
        mask = rng.random((3, 5)) > 0.4
        mask[:, 0] = True
        return (lambda: mha(x, mask=mask)), \
            (lambda: composite_attention(mha, x, mask=mask)), [x], mha
    # the attention node alone, shared [m, d] queries against batched,
    # distinct keys and values
    q = Tensor(rng.normal(size=(4, 16)), requires_grad=True)
    k = Tensor(rng.normal(size=(3, 6, 16)), requires_grad=True)
    v = Tensor(rng.normal(size=(3, 6, 16)), requires_grad=True)
    mask = rng.random((3, 6)) > 0.4
    mask[:, 0] = True
    key_bias = np.where(mask, 0.0, -np.inf)[..., None, None, :]
    return (lambda: nn.attention(q, k, v, CFG.heads, key_bias)), \
        (lambda: composite_core(q, k, v, CFG.heads, mask)), [q, k, v], nn.Module()


FUSED = ["linear_2d", "linear_3d", "layer_norm", "self_attention", "cross_attention"]


@pytest.mark.parametrize("kind", FUSED)
def test_fused_node_matches_composite_form(rng, kind):
    """Forward bit for bit; every gradient to 1e-10 relative."""
    fused, composite, inputs, module = fused_case(kind, rng)
    tensors = inputs + list(module.parameters().values())
    results = []
    for form in (fused, composite):
        for t in tensors:
            t.zero_grad()
        out = form()
        (out * Tensor(np.random.default_rng(1).normal(size=out.shape))).sum().backward()
        results.append((out.data, [t.grad for t in tensors]))
    (out_f, grads_f), (out_c, grads_c) = results
    assert out_f.tobytes() == out_c.tobytes()
    for gf, gc in zip(grads_f, grads_c):
        assert gf.shape == gc.shape
        assert np.abs(gf - gc).max() <= 1e-10 * max(np.abs(gc).max(), 1e-300)


@pytest.mark.parametrize("kind", FUSED)
def test_fused_node_input_gradients(rng, kind):
    """Central differences with respect to the inputs: Linear on 2-D and
    3-D rows, LayerNorm's x, attention's q, k and v under a key mask."""
    fused, _, inputs, _ = fused_case(kind, rng)
    w = Tensor(np.random.default_rng(2).normal(size=fused().shape))
    finite_diff_check(lambda: (fused() * w).sum(), inputs, rel_tol=1e-4)


def test_fused_attention_masked_keys_get_zero_gradient(rng):
    mha = nn.MultiHeadAttention(CFG, rng)
    q = Tensor(rng.normal(size=(4, 16)))
    kv = Tensor(rng.normal(size=(2, 5, 16)), requires_grad=True)
    mask = np.array([[1, 1, 0, 1, 0], [1, 0, 0, 0, 0]], bool)
    (mha(q, kv, mask=mask) ** 2).sum().backward()
    assert (kv.grad[~mask] == 0.0).all()
    assert (np.abs(kv.grad[mask]).sum(axis=-1) > 0).all()


# ---------------------------------------------------------------- cross-attention
CROSS = ["unbatched", "masked", "shared_queries"]


def cross_case(kind, rng, rows=20):
    """(module, queries, memory, mask) of 3 queries against a memory of
    `rows` rows, by default past heads x queries = 12: unbatched and
    unmasked, batched [2, 3, d] queries under a key mask, or shared [3, d]
    queries broadcast over a batched, masked memory (AudioCAT's first
    block).  Inputs require grad; the value bias is not zero."""
    mha = nn.MultiHeadAttention(CFG, rng)
    mha.wv.bias.data[:] = rng.normal(0.0, 0.5, 16)
    batched = kind != "unbatched"
    x = Tensor(rng.normal(size=(2, 3, 16) if kind == "masked" else (3, 16)), requires_grad=True)
    memory = Tensor(rng.normal(size=(2, rows, 16) if batched else (rows, 16)), requires_grad=True)
    mask = None
    if batched:
        mask = rng.random((2, rows)) > 0.4
        mask[:, 0] = True
    return mha, x, memory, mask


@pytest.mark.parametrize("kind", CROSS)
def test_cross_attention_node_matches_composite_form(rng, kind):
    """Past heads x queries, MultiHeadAttention runs nn.cross_attention:
    its forward within 1e-12 relative of the projected composite form,
    which its arithmetic is not; every gradient within 1e-10 relative."""
    mha, x, memory, mask = cross_case(kind, rng)
    tensors = [x, memory] + list(mha.parameters().values())
    results = []
    for form in (mha, lambda *a: composite_attention(mha, *a)):
        for t in tensors:
            t.zero_grad()
        out = form(x, memory, mask)
        (out * Tensor(np.random.default_rng(1).normal(size=out.shape))).sum().backward()
        results.append((out.data, [t.grad for t in tensors]))
    (out_n, grads_n), (out_c, grads_c) = results
    assert out_n.shape == out_c.shape == ((3, 16) if kind == "unbatched" else (2, 3, 16))
    assert np.abs(out_n - out_c).max() <= 1e-12 * np.abs(out_c).max()
    for gn, gc in zip(grads_n, grads_c):
        assert gn.shape == gc.shape
        assert np.abs(gn - gc).max() <= 1e-10 * np.abs(gc).max()


@pytest.mark.parametrize("kind", CROSS)
def test_cross_attention_node_gradients(rng, kind):
    """Central differences past heads x queries with respect to the
    queries, the memory, the key and value weights and the value bias."""
    mha, x, memory, mask = cross_case(kind, rng)
    w = Tensor(np.random.default_rng(2).normal(size=mha(x, memory, mask).shape))
    finite_diff_check(lambda: (mha(x, memory, mask) * w).sum(),
                      [x, memory, mha.wk.weight, mha.wv.weight, mha.wv.bias], rel_tol=1e-4)


def test_cross_attention_masked_memory_gets_zero_gradient(rng):
    mha, x, memory, mask = cross_case("shared_queries", rng)
    out = mha(x, memory, mask)
    (out ** 2).sum().backward()
    assert (memory.grad[~mask] == 0.0).all()
    assert (np.abs(memory.grad[mask]).sum(axis=-1) > 0).all()
    tampered = memory.data.copy()
    tampered[~mask] = 1e6
    assert np.array_equal(mha(x, Tensor(tampered), mask).data, out.data)


def count_cross_attention(monkeypatch):
    """A list that gains one item per nn.cross_attention call."""
    calls = []
    node = nn.cross_attention
    monkeypatch.setattr(nn, "cross_attention", lambda *a: calls.append(1) or node(*a))
    return calls


@pytest.mark.parametrize("rows,absorbed", [(12, False), (13, True)])
def test_mha_absorbs_past_heads_x_queries(rng, monkeypatch, rows, absorbed):
    """MultiHeadAttention runs nn.cross_attention only for a memory of more
    rows than heads x queries (4 x 3 here); at that length it projects the
    memory, bit for bit wo(attention(wq(x), wk(memory), wv(memory))).
    Self-attention over those rows never absorbs."""
    calls = count_cross_attention(monkeypatch)
    mha, x, memory, mask = cross_case("masked", rng, rows)
    out = mha(x, memory, mask).data
    assert len(calls) == int(absorbed)
    key_bias = mha._key_bias(x, memory, mask)
    projected = mha.wo(nn.attention(mha.wq(x), mha.wk(memory), mha.wv(memory), CFG.heads,
                                    key_bias)).data
    if absorbed:
        assert np.abs(out - projected).max() <= 1e-12 * np.abs(projected).max()
    else:
        assert np.array_equal(out, projected)
    mha(memory, mask=mask)
    assert len(calls) == int(absorbed)


@pytest.mark.parametrize("rows,absorbed", [(12, False), (13, True)])
def test_decoder_cross_attention_absorbs_past_heads_x_queries(rng, monkeypatch, rows, absorbed):
    """DecoderBlock runs nn.cross_attention only for a memory of more
    rows than heads x queries (4 x 3 here); at that length it projects the
    memory, bit for bit the composite form, which always does."""
    calls = count_cross_attention(monkeypatch)
    blk = nn.DecoderBlock(CFG, rng)
    _, x, memory, mask = cross_case("masked", rng, rows)
    out = blk(x, memory, mem_mask=mask).data
    assert len(calls) == int(absorbed)
    h = x + blk.self_attn(blk.ln1(x))
    projected = h + composite_attention(blk.cross_attn, blk.ln2(h), memory, mask)
    projected = (projected + blk.ffn(blk.ln3(projected))).data
    if absorbed:
        assert np.abs(out - projected).max() <= 1e-12 * np.abs(projected).max()
    else:
        assert np.array_equal(out, projected)


# ---------------------------------------------------------------- blocks
def zero_output_projections(module):
    for name, p in module.parameters().items():
        if "wo." in name or "lin2." in name:
            p.data[...] = 0.0


def test_encoder_block_residual_identity(rng):
    blk = nn.EncoderBlock(CFG, rng)
    zero_output_projections(blk)
    x = Tensor(rng.normal(size=(5, 16)))
    assert np.array_equal(blk(x).data, x.data)


@pytest.mark.parametrize("n,d", [(1, 64), (48, 64), (1, 256), (48, 256)])
def test_encoder_block_shape_contract(rng, n, d):
    cfg = nn.AttentionConfig(d_model=d, heads=4, ffn_dim=d)
    blk = nn.EncoderBlock(cfg, rng)
    x = Tensor(rng.normal(size=(n, d)))
    assert blk(x).shape == (n, d)


def test_encoder_block_permutation_equivariance(rng):
    blk = nn.EncoderBlock(CFG, rng)
    x = rng.normal(size=(6, 16))
    out = blk(Tensor(x)).data
    perm = x.copy()
    perm[[1, 4]] = perm[[4, 1]]
    out_perm = blk(Tensor(perm)).data
    expected = out.copy()
    expected[[1, 4]] = expected[[4, 1]]
    assert np.allclose(out_perm, expected, atol=1e-12)


def test_decoder_block_residual_identity(rng):
    blk = nn.DecoderBlock(CFG, rng)
    zero_output_projections(blk)
    q = Tensor(rng.normal(size=(4, 16)))
    mem = Tensor(rng.normal(size=(7, 16)))
    assert np.array_equal(blk(q, mem).data, q.data)


def test_decoder_single_memory_position(rng):
    cfg = nn.AttentionConfig(d_model=4, heads=1, ffn_dim=4)
    mha = nn.MultiHeadAttention(cfg, rng)
    for lin in (mha.wq, mha.wk):
        lin.weight.data = rng.normal(size=(4, 4))
    mha.wv.weight.data = np.eye(4)
    mha.wv.bias.data = np.zeros(4)
    mha.wo.weight.data = np.eye(4)
    mha.wo.bias.data = np.zeros(4)
    mem = Tensor(rng.normal(size=(1, 4)))
    q = Tensor(rng.normal(size=(5, 4)))
    out = mha(q, mem)
    # single key: every query's attention weight is 1 on that position
    assert np.allclose(out.data, np.tile(mem.data, (5, 1)))


def test_decoder_masked_memory_independence(rng):
    blk = nn.DecoderBlock(CFG, rng)
    q = rng.normal(size=(3, 16))
    mem = rng.normal(size=(6, 16))
    mask = np.array([1, 1, 1, 0, 1, 1], bool)
    out1 = blk(Tensor(q), Tensor(mem), mem_mask=mask).data
    mem2 = mem.copy()
    mem2[3] += 1e6
    out2 = blk(Tensor(q), Tensor(mem2), mem_mask=mask).data
    assert np.array_equal(out1, out2)


def test_block_gradients(rng):
    enc = nn.EncoderBlock(CFG, rng)
    x = Tensor(rng.normal(size=(4, 16)), requires_grad=True)
    finite_diff_check(lambda: (enc(x) ** 2).sum(),
                      list(enc.parameters().values()) + [x], n_coords=3)
    dec = nn.DecoderBlock(CFG, rng)
    q = Tensor(rng.normal(size=(3, 16)), requires_grad=True)
    mem = Tensor(rng.normal(size=(5, 16)), requires_grad=True)
    finite_diff_check(lambda: (dec(q, mem) ** 2).sum(),
                      list(dec.parameters().values()) + [q, mem], n_coords=3)


# ---------------------------------------------------------------- losses
def test_bce_analytic_values():
    assert abs(float(nn.bce_loss(Tensor(np.array(0.0)), 1).data) - np.log(2)) < 1e-12
    assert float(nn.bce_loss(Tensor(np.array(100.0)), 1).data) < 1e-12
    assert abs(float(nn.bce_loss(Tensor(np.array(-2.0)), 0).data)
               - np.log1p(np.exp(-2.0))) < 1e-12


def test_bce_no_overflow_at_large_logits():
    for z in (100.0, -100.0):
        for y in (0, 1):
            assert np.isfinite(float(nn.bce_loss(Tensor(np.array(z)), y).data))


def test_focal_analytic_value():
    loss = float(nn.focal_loss(Tensor(np.array(0.0)), 1, gamma=2.0, alpha=0.25).data)
    assert abs(loss - 0.25 * 0.25 * np.log(2)) < 1e-12


def test_focal_gamma_zero_is_half_bce():
    rng = np.random.default_rng(11)
    for z in rng.normal(scale=8, size=200):
        for y in (0, 1):
            focal = float(nn.focal_loss(Tensor(np.array(z)), y, 0.0, 0.5).data)
            bce = float(nn.bce_loss(Tensor(np.array(z)), y).data)
            assert abs(focal - 0.5 * bce) < 1e-12


def test_focal_vanishes_faster_than_bce():
    z = Tensor(np.array(5.0))
    ratio = float(nn.focal_loss(z, 1).data) / float(nn.bce_loss(z, 1).data)
    assert ratio < 1e-3


# ---------------------------------------------------------------- adam
def test_adam_first_step_is_signed_lr():
    theta = Tensor(np.array([1.0, -1.0, 2.0]), requires_grad=True)
    theta.grad = np.array([0.5, -3.0, 1e-3])
    state = nn.OptimState(lr=0.01, weight_decay=0.0)
    before = theta.data.copy()
    nn.adam_step({"theta": theta}, state)
    delta = theta.data - before
    assert np.allclose(delta, -0.01 * np.sign(theta.grad), atol=1e-4)


def test_adam_zero_grad_keeps_params():
    theta = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    theta.grad = np.zeros(2)
    state = nn.OptimState(lr=0.1, weight_decay=0.0)
    nn.adam_step({"theta": theta}, state)
    assert np.array_equal(theta.data, [1.0, 2.0])


def test_adam_leaves_shared_gradients_alone():
    """x + y hands x and y one gradient array; each still gets the update
    it would get alone, so adam_step writes into no .grad."""
    rng = np.random.default_rng(3)
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    start = {"a": a.data.copy(), "b": b.data.copy()}
    ((a + b) * Tensor(rng.normal(size=(3, 4)))).sum().backward()
    assert np.shares_memory(a.grad, b.grad)
    grad = a.grad.copy()
    state = nn.OptimState(lr=0.1, weight_decay=0.01)
    for _ in range(3):
        nn.adam_step({"a": a, "b": b}, state)
    assert np.array_equal(a.grad, grad) and np.array_equal(b.grad, grad)
    for name, p in (("a", a), ("b", b)):
        alone = Tensor(start[name].copy(), requires_grad=True)
        alone.grad = grad.copy()
        alone_state = nn.OptimState(lr=0.1, weight_decay=0.01)
        for _ in range(3):
            nn.adam_step({name: alone}, alone_state)
        assert np.array_equal(p.data, alone.data)


def test_adam_minimizes_quadratic():
    theta = Tensor(np.array(1.0), requires_grad=True)
    state = nn.OptimState(lr=0.1, weight_decay=0.0)
    for _ in range(100):
        theta.zero_grad()
        (theta * theta).backward()
        nn.adam_step({"theta": theta}, state)
    assert abs(float(theta.data)) < 0.1


# ---------------------------------------------------------------- checkpoint
def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(13)
    arrays = {"a.weight": rng.normal(size=(3, 4)),
              "b": rng.normal(size=7),
              "scalar": np.array(2.5)}
    path = tmp_path / "model.aigm"
    meta = {"arch": "x", "nested": {"n": [1, 2]}}
    nn.save_checkpoint(path, arrays, meta)
    loaded, loaded_meta = nn.load_checkpoint(path)
    assert loaded_meta == meta
    assert list(loaded) == list(arrays)
    for k in arrays:
        assert np.array_equal(loaded[k], arrays[k])


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.aigm"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(InputError):
        nn.load_checkpoint(path)


def test_checkpoint_truncated(tmp_path):
    rng = np.random.default_rng(13)
    path = tmp_path / "model.aigm"
    nn.save_checkpoint(path, {"w": rng.normal(size=(8, 8))})
    blob = path.read_bytes()
    path.write_bytes(blob[:-16])
    with pytest.raises(InputError):
        nn.load_checkpoint(path)


# shapes of no values, so the file is long enough, that numpy cannot hold:
# a dimension past its index range, or more dimensions than it allows
@pytest.mark.parametrize("shape", [[0, 10**20], [0, 2**63], [1] * 70],
                         ids=["dim_1e20", "dim_2_63", "70_dims"])
def test_checkpoint_shape_numpy_cannot_hold(shape, tmp_path):
    path = tmp_path / "model.aigm"
    header = json.dumps({"meta": {}, "tensors": [["w", shape]]}).encode("utf-8")
    path.write_bytes(b"AIGM" + struct.pack("<II", 3, len(header)) + header
                     + (b"" if 0 in shape else bytes(8)))
    with pytest.raises(InputError, match=f"^{re.escape(str(path))}: "):
        nn.load_checkpoint(path)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_checkpoint_reader_raises_only_checkpoint_error(tmp_path_factory, data):
    """Truncated or byte-edited files load or raise InputError."""
    path = tmp_path_factory.mktemp("fuzz") / "model.aigm"
    nn.save_checkpoint(path, {"w": np.arange(6.0).reshape(2, 3), "b": np.ones(2)},
                       {"arch": "x", "hparams": {"n": 2}})
    blob = bytearray(path.read_bytes())
    blob = blob[:data.draw(st.integers(0, len(blob)), label="length")]
    for _ in range(data.draw(st.integers(0, 3), label="edits")):
        if blob:
            i = data.draw(st.integers(0, len(blob) - 1))
            blob[i] = data.draw(st.integers(0, 255))
    path.write_bytes(bytes(blob))
    try:
        nn.load_checkpoint(path)
    except InputError:
        pass


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_adam_deterministic_under_seed(seed):
    def run():
        rng = np.random.default_rng(seed)
        lin = nn.Linear(4, 1, rng)
        state = nn.OptimState(lr=1e-3, weight_decay=1e-6)
        x = Tensor(rng.normal(size=(6, 4)))
        for _ in range(3):
            lin.zero_grad()
            (lin(x) ** 2).sum().backward()
            nn.adam_step(lin.parameters(), state)
        return lin.weight.data.copy()

    assert np.array_equal(run(), run())

"""Acceptance suite: ten release criteria, one printed PASS/FAIL line each."""

import time

import numpy as np
import pytest

from aigmdet import cli, nn
from aigmdet.audio import AudioBuffer, load_wav, save_wav
from aigmdet.beats import segment_bars
from aigmdet.data import (Manifest, ManifestEntry, render_track,
                          split_dataset)
from aigmdet.extractors import EmbeddingSequence
from aigmdet.models import (AudioCAT, FXSegment, SegmentTransformer,
                            self_similarity)
from aigmdet.nn import AttentionConfig
from aigmdet.pipeline import analyze_beats
from aigmdet.tensor import Tensor
from aigmdet.training import TrainConfig, metrics, roc_auc, train

from util import attention_weights, click_track, finite_diff_check

TOY = AttentionConfig(d_model=16, heads=2, ffn_dim=32)


_CAPSYS = None


@pytest.fixture(autouse=True)
def _hold_capsys(capsys):
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def report(number: int, title: str, failures: list):
    status = "FAIL" if failures else "PASS"
    line = f"\n[{status}] acceptance criterion {number}: {title}"
    # bypass pytest capture so the verdict line always reaches the run log
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print(line)
    else:
        print(line)
    assert not failures, f"criterion {number} failures: {failures[:5]}"


def check(failures: list, ok: bool, what: str):
    if not ok:
        failures.append(what)


# ----------------------------------------------------------------------
def test_criterion_1_gradient_suite():
    """All differentiable components pass finite-difference checks."""
    start = time.time()
    failures = []
    n_instances = 20

    def grads_ok(loss_fn, params, n_coords=2, rng=None):
        try:
            finite_diff_check(loss_fn, params, rel_tol=1e-4,
                              n_coords=n_coords, rng=rng)
            return True
        except AssertionError:
            return False

    for k in range(n_instances):
        rng = np.random.default_rng(k)
        pick = np.random.default_rng(1000 + k)
        x = Tensor(rng.normal(size=(3, 16)))
        w = Tensor(rng.normal(size=(3, 16)))

        lin = nn.Linear(16, 4, rng)
        check(failures, grads_ok(
            lambda: ((lin(x) ** 2).sum()), list(lin.parameters().values())),
            f"linear[{k}]")

        ln = nn.LayerNorm(16)
        ln.gain.data[:] = rng.normal(1.0, 0.3, 16)
        ln.bias.data[:] = rng.normal(0.0, 0.3, 16)
        check(failures, grads_ok(
            lambda: ((ln(x) * w) ** 2).sum(), list(ln.parameters().values())),
            f"layer_norm[{k}]")

        mha = nn.MultiHeadAttention(TOY, rng)
        check(failures, grads_ok(
            lambda: ((mha(x) * w) ** 2).sum(),
            list(mha.parameters().values()), rng=pick), f"self_mha[{k}]")

        mem = Tensor(rng.normal(size=(5, 16)))
        check(failures, grads_ok(
            lambda: ((mha(x, mem) * w) ** 2).sum(),
            list(mha.parameters().values()), rng=pick), f"cross_mha[{k}]")

        enc = nn.EncoderBlock(TOY, rng)
        check(failures, grads_ok(
            lambda: ((enc(x) * w) ** 2).sum(),
            list(enc.parameters().values()), rng=pick), f"encoder[{k}]")

        dec = nn.DecoderBlock(TOY, rng)
        check(failures, grads_ok(
            lambda: ((dec(x, mem) * w) ** 2).sum(),
            list(dec.parameters().values()), rng=pick), f"decoder[{k}]")

        z = Tensor(rng.normal(size=()), requires_grad=True)
        check(failures, grads_ok(lambda: nn.bce_loss(z, k % 2), [z]),
              f"bce[{k}]")
        check(failures, grads_ok(lambda: nn.focal_loss(z, k % 2), [z]),
              f"focal[{k}]")

        cat = AudioCAT(d_enc=8, cfg=TOY, n_queries=2, n_layers=1, seed=k)
        feats = rng.normal(size=(4, 8))
        check(failures, grads_ok(
            lambda: cat.loss([feats], [k % 2], nn.bce_loss),
            list(cat.parameters().values()), rng=pick), f"audiocat[{k}]")

        fx = FXSegment(d_enc=16, n_tokens=4, cfg=TOY, n_layers=1, seed=k)
        emb = rng.normal(size=16)
        check(failures, grads_ok(
            lambda: fx.loss([emb], [k % 2], nn.focal_loss),
            list(fx.parameters().values()), rng=pick), f"fxseg[{k}]")

        seg = SegmentTransformer(d_in=6, cfg=TOY, max_len=4,
                                 n_layers_content=1, n_layers_structure=1,
                                 seed=k)
        seq = EmbeddingSequence(rng.normal(size=(3, 6)))
        check(failures, grads_ok(
            lambda: seg.loss([seq], [k % 2], nn.bce_loss),
            list(seg.parameters().values()), rng=pick), f"segtr[{k}]")

        # the same three models on a minibatch of 3 mixed-length examples
        labels = [k % 2, 1 - k % 2, 1]
        feats3 = [feats, rng.normal(size=(2, 8)), rng.normal(size=(3, 8))]
        check(failures, grads_ok(
            lambda: cat.loss(feats3, labels, nn.bce_loss),
            list(cat.parameters().values()), rng=pick), f"audiocat_batch[{k}]")
        embs3 = [emb, rng.normal(size=16), rng.normal(size=16)]
        check(failures, grads_ok(
            lambda: fx.loss(embs3, labels, nn.focal_loss),
            list(fx.parameters().values()), rng=pick), f"fxseg_batch[{k}]")
        short = EmbeddingSequence(rng.normal(size=(1, 6)))
        full = EmbeddingSequence(rng.normal(size=(4, 6)))
        check(failures, grads_ok(
            lambda: seg.loss([seq, short, full], labels, nn.bce_loss),
            list(seg.parameters().values()), rng=pick), f"segtr_batch[{k}]")

    elapsed = time.time() - start
    check(failures, elapsed < 120.0, f"runtime {elapsed:.0f}s >= 2 min")
    report(1, "gradient suite (9 components and 3 batch-of-3 model losses "
              "x 20 instances, "
              f"{elapsed:.0f}s)", failures)


def test_criterion_2_attention_mask_invariants():
    """Attention rows sum to 1; masked positions and batch padding are
    bit-invisible."""
    failures = []
    rng = np.random.default_rng(0)
    mha = nn.MultiHeadAttention(TOY, rng)
    for trial in range(10):
        r = np.random.default_rng(trial)
        q = Tensor(r.normal(size=(5, 16)))
        k = Tensor(r.normal(size=(7, 16)))
        mask = r.random(7) > 0.3
        if not mask.any():
            mask[0] = True
        weights = attention_weights(mha, q, k, mask=mask)
        sums = weights.sum(axis=-1)
        check(failures, np.abs(sums - 1.0).max() <= 1e-9,
              f"row sums off by {np.abs(sums - 1.0).max():.2e}")
        check(failures, np.all(weights[:, :, ~mask] == 0.0),
              "masked keys carry nonzero weight")

    # AudioCAT batch padding: bit-exact invariance of a short example to
    # the values of a longer batch-mate
    cat = AudioCAT(d_enc=8, cfg=TOY, seed=1)
    feats = rng.normal(size=(3, 8))
    mate = rng.normal(size=(6, 8))
    base, _ = cat.forward([feats, mate])
    for trial in range(5):
        tampered = np.random.default_rng(trial).normal(size=(6, 8)) * 100
        out, _ = cat.forward([feats, tampered])
        check(failures, out.logit == base.logit and
              np.array_equal(out.pooled, base.pooled),
              "audiocat output changed with a batch-mate's values")

    # Stage-2 batch padding: the same for a segtr
    seg = SegmentTransformer(d_in=6, cfg=TOY, max_len=8, seed=2)
    seq = EmbeddingSequence(rng.normal(size=(5, 6)))
    mate = rng.normal(size=(8, 6))
    base_logits, base_pooled = seg.forward_tensor([seq, EmbeddingSequence(mate)])
    for trial in range(5):
        tampered = np.random.default_rng(trial).normal(size=(8, 6)) * 100
        logits, pooled = seg.forward_tensor([seq, EmbeddingSequence(tampered)])
        check(failures, logits.data[0] == base_logits.data[0] and
              np.array_equal(pooled.data[0], base_pooled.data[0]),
              "stage-2 output changed with a batch-mate's values")

    report(2, "attention rows sum to 1, masked positions and batch padding "
              "bit-invisible", failures)


def test_criterion_3_beat_pipeline_oracle():
    """Accented click tracks: tempo, beats, downbeats, grid, segments."""
    failures = []
    for bpm in (90, 120, 150):
        buf = click_track(bpm, 64.0, accent_every=4, accent_amp=1.0,
                          base_amp=0.3)
        analysis = analyze_beats(buf)
        beat_period = 60.0 / bpm
        bar_period = 240.0 / bpm

        check(failures, abs(analysis.bpm - bpm) <= 2.0,
              f"{bpm} BPM: tempo {analysis.bpm:.2f}")
        frac = analysis.beats / beat_period
        beat_err = np.abs(frac - np.round(frac)).max() * beat_period
        check(failures, beat_err <= 0.020,
              f"{bpm} BPM: worst beat error {beat_err * 1000:.1f} ms")
        # downbeat phase exact: every downbeat lands on an accented click
        dfrac = analysis.downbeats / bar_period
        down_err = np.abs(dfrac - np.round(dfrac)).max() * bar_period
        check(failures, down_err <= 0.020,
              f"{bpm} BPM: downbeat phase error {down_err * 1000:.1f} ms")
        check(failures,
              abs(analysis.grid.period - bar_period) <= 0.02 * bar_period,
              f"{bpm} BPM: grid period {analysis.grid.period:.3f}")

        if bpm == 120:
            segs = segment_bars(buf.samples[0], analysis.grid)
            check(failures, len(segs) == 8,
                  f"64 s / 120 BPM gave {len(segs)} segments, wanted 8")

    report(3, "beat pipeline at 90/120/150 BPM "
              "(tempo +-2, beats +-20 ms, phase exact, 8 segments)", failures)


def test_criterion_4_metric_oracles():
    failures = []
    rep = metrics((8, 2, 9, 1))
    for got, want, name in [(rep.accuracy, 0.85, "accuracy"),
                            (rep.precision, 0.8, "precision"),
                            (rep.recall, 0.8889, "recall"),
                            (rep.f1, 0.8421, "f1"),
                            (rep.specificity, 0.8182, "specificity")]:
        check(failures, abs(got - want) <= 1e-4, f"{name} {got:.5f} != {want}")

    check(failures, roc_auc([0.8, 0.3, 0.4, 0.2], [1, 1, 0, 0]) == 0.75,
          "AUC worked example != 0.75")

    for trial in range(25):
        rng = np.random.default_rng(trial)
        n = int(rng.integers(2, 101))
        labels = rng.integers(0, 2, n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scores = np.round(rng.random(n), 1)  # coarse grid forces ties
        brute = 0.0
        pos = scores[labels == 1]
        neg = scores[labels == 0]
        for p in pos:
            for q in neg:
                brute += 1.0 if p > q else (0.5 if p == q else 0.0)
        brute /= len(pos) * len(neg)
        check(failures, roc_auc(scores, labels) == brute,
              f"AUC != brute force on trial {trial}")

    report(4, "metric oracles (confusion-derived set + exact pairwise AUC)",
           failures)


def test_criterion_5_loss_identities():
    failures = []
    bce_01 = float(nn.bce_loss(Tensor(np.array(0.0)), 1).data)
    check(failures, abs(bce_01 - np.log(2)) <= 1e-12, "BCE(0,1) != ln 2")

    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(1000):
        z = Tensor(np.array(rng.normal(0, 4)))
        y = int(rng.integers(2))
        focal = float(nn.focal_loss(z, y, gamma=0.0, alpha=0.5).data)
        half_bce = 0.5 * float(nn.bce_loss(z, y).data)
        worst = max(worst, abs(focal - half_bce))
    check(failures, worst <= 1e-12,
          f"focal(gamma=0, alpha=0.5) vs 0.5 BCE: worst {worst:.2e}")

    for z in (100.0, -100.0):
        for y in (0, 1):
            b = float(nn.bce_loss(Tensor(np.array(z)), y).data)
            f = float(nn.focal_loss(Tensor(np.array(z)), y).data)
            check(failures, np.isfinite(b) and np.isfinite(f),
                  f"overflow at logit {z}, label {y}")

    report(5, "loss identities (BCE(0,1)=ln2, focal gamma=0 halves BCE, "
              "no overflow at |logit|=100)", failures)


def test_criterion_6_ssm_properties():
    failures = []
    for trial in range(10):
        rng = np.random.default_rng(trial)
        n = int(rng.integers(2, 9))
        v = rng.normal(size=(n, 6))
        m = self_similarity(v)
        check(failures, np.abs(m - m.T).max() <= 1e-9, "asymmetry")
        check(failures, np.abs(np.diag(m) - 1.0).max() <= 1e-9,
              "diagonal != 1")
        # brute-force cosine
        brute = np.eye(n)
        for i in range(n):
            for j in range(n):
                if i != j:
                    brute[i, j] = v[i] @ v[j] / (
                        np.linalg.norm(v[i]) * np.linalg.norm(v[j]))
        check(failures, np.abs(m - brute).max() <= 1e-9,
              "differs from brute-force cosine")

    # Path-B activations invariant under a global orthogonal rotation
    model = SegmentTransformer(d_in=6, cfg=TOY, max_len=8, seed=3)

    def path_b(v):
        ssm = np.pad(self_similarity(v), ((0, 0), (0, 8 - len(v))))
        pos = nn.sinusoidal_positions(len(v), TOY.d_model)
        xb = model.structure_proj(Tensor(ssm)) + pos
        for block in model.structure_blocks:
            xb = block(xb)
        return xb.mean(axis=-2).data

    for trial in range(5):
        rng = np.random.default_rng(100 + trial)
        v = rng.normal(size=(6, 6))
        qmat, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        base = path_b(v)
        rotated = path_b(v @ qmat)
        check(failures, np.abs(base - rotated).max() <= 1e-9,
              f"path-B drifted {np.abs(base - rotated).max():.2e} "
              f"under rotation")

    report(6, "SSM symmetry/diagonal/brute-force + structure-pathway "
              "rotation invariance", failures)


def test_criterion_7_overfit_capacity():
    """Each architecture drives train loss < 0.05 in <= 300 steps."""
    failures = []
    rng = np.random.default_rng(0)

    # 16 linearly separable synthetic examples per input type
    seq_feats = [(rng.normal(size=(5, 16)) + (3.0 if i % 2 else -3.0), i % 2)
                 for i in range(16)]
    vec_feats = [(rng.normal(size=16) + (3.0 if i % 2 else -3.0), i % 2)
                 for i in range(16)]
    seq2_feats = []
    for i in range(16):
        v = rng.normal(size=(4, 6)) + (3.0 if i % 2 else -3.0)
        seq2_feats.append((EmbeddingSequence(v), i % 2))

    # 16 examples / batch 8 -> 2 steps per epoch; 150 epochs = 300 steps
    cfg = TrainConfig(epochs=150, batch_size=8, lr=1e-3, weight_decay=0.0,
                      early_stop_patience=150)
    jobs = [("audiocat", AudioCAT(d_enc=16, cfg=TOY, seed=0), seq_feats),
            ("fxseg", FXSegment(d_enc=16, n_tokens=4, cfg=TOY, seed=0),
             vec_feats),
            ("segtr", SegmentTransformer(d_in=6, cfg=TOY, max_len=4, seed=0),
             seq2_feats)]
    for name, model, data in jobs:
        result = train(model, data, data, cfg)
        best = min(rec.train_loss for rec in result.history)
        check(failures, best < 0.05,
              f"{name} train loss plateaued at {best:.4f}")
    report(7, "overfit capacity (<0.05 train loss in 300 steps at lr 1e-3)", failures)


@pytest.mark.slow
def test_criterion_8_end_to_end(tmp_path):
    """Scaled-down two-stage experiment on the synthetic corpus."""
    from aigmdet.experiment import run_experiment
    failures = []
    start = time.time()
    results = run_experiment(tmp_path / "corpus", n_per_class=64,
                             duration_s=64.0, seeds=(0, 1, 2), epochs=20,
                             lr=1e-3)
    elapsed = time.time() - start
    accuracy = np.mean([r.accuracy for r in results])
    auc = np.mean([r.auc for r in results])
    check(failures, accuracy >= 0.90, f"mean accuracy {accuracy:.3f} < 0.90")
    check(failures, auc >= 0.95, f"mean AUC {auc:.3f} < 0.95")
    check(failures, elapsed < 900.0, f"runtime {elapsed:.0f}s >= 15 min")
    per_seed = ", ".join(f"seed {r.seed}: acc={r.accuracy:.3f} "
                         f"auc={r.auc:.3f}" for r in results)
    report(8, f"end-to-end 64x2 tracks ({per_seed}; "
              f"mean acc={accuracy:.3f} auc={auc:.3f}, {elapsed:.0f}s)", failures)


def test_criterion_9_determinism(tmp_path):
    """Same training command + seed -> bit-identical artifacts."""
    failures = []
    rng = np.random.default_rng(0)
    entries = []
    for i in range(8):
        path = tmp_path / f"clip{i}.wav"
        save_wav(render_track(i % 2, 120, 4.0, 16000, rng), path)
        entries.append(ManifestEntry(str(path), i % 2,
                                     "train" if i < 6 else "val"))
    manifest_path = tmp_path / "manifest.csv"
    Manifest(entries).save(manifest_path)

    blobs = []
    for run in range(2):
        out = tmp_path / f"run{run}.aigm"
        code = cli.main(["train", "--arch", "audiocat",
                         "--manifest", str(manifest_path),
                         "--extractor", "seq-512", "--epochs", "2",
                         "--lr", "1e-3", "--seed", "7", "--out", str(out)])
        check(failures, code == 0, f"training run {run} exited {code}")
        blobs.append((out.read_bytes(),
                      (tmp_path / f"run{run}.aigm.history.csv").read_bytes()))
    check(failures, blobs[0][0] == blobs[1][0], "checkpoints differ")
    check(failures, blobs[0][1] == blobs[1][1], "history files differ")
    report(9, "repeated seeded training is bit-identical "
              "(checkpoint + history)", failures)


def test_criterion_10_format_round_trips(tmp_path):
    failures = []
    rng = np.random.default_rng(0)

    buf = AudioBuffer(rng.uniform(-0.99, 0.99, (2, 4000)), 22050)
    save_wav(buf, tmp_path / "rt.wav")
    loaded = load_wav(tmp_path / "rt.wav")
    err = np.abs(loaded.samples - buf.samples).max()
    check(failures, err <= 1.0 / 32768, f"WAV round-trip error {err:.2e}")

    arrays = {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=7),
              "c": np.array(2.5)}
    nn.save_checkpoint(tmp_path / "rt.aigm", arrays)
    restored, _ = nn.load_checkpoint(tmp_path / "rt.aigm")
    for key, value in arrays.items():
        check(failures, np.array_equal(restored[key], np.asarray(value)),
              f"checkpoint tensor {key} not bit-exact")

    entries = [ManifestEntry(f"p{i}.wav", i % 2) for i in range(100)]
    split = split_dataset(Manifest(entries))
    sizes = {name: len(split.subset(name)) for name in ("train", "val", "test")}
    check(failures, sizes == {"train": 80, "val": 10, "test": 10},
          f"split sizes {sizes}")
    for name in ("train", "val", "test"):
        labels = [e.label for e in split.subset(name)]
        want = 40 if name == "train" else 5
        check(failures,
              labels.count(0) == want and labels.count(1) == want,
              f"{name} not stratified")

    report(10, "format round-trips (WAV, checkpoints) and "
               "80/10/10 stratified split", failures)

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aigmdet import cli, nn
from aigmdet.audio import save_wav
from aigmdet.data import Manifest, ManifestEntry, render_track
from aigmdet.nn import AttentionConfig
from aigmdet.models import AudioCAT
from aigmdet.errors import DivergedLoss, InputError
from aigmdet.tensor import Tensor, _sigmoid
from aigmdet.training import (PRESETS, TrainConfig, _mean_loss, confusion, evaluate, metrics,
                              roc_auc, train)

from util import pairwise_auc

SMALL = AttentionConfig(d_model=16, heads=2, ffn_dim=32)


class TinyLogistic(nn.Module):
    """1-D logistic regression; exact loss surface is known."""

    def __init__(self, d, seed=0):
        rng = np.random.default_rng(seed)
        self.w = Tensor(rng.normal(0, 0.1, size=(d,)), requires_grad=True)
        self.b = Tensor(np.zeros(()), requires_grad=True)

    def forward_tensor(self, xs):
        logits = (self.w * Tensor(np.stack(xs).astype(np.float64))).sum(axis=-1) + self.b
        return logits, logits

    def loss(self, xs, ys, loss_fn):
        logits, _ = self.forward_tensor(xs)
        return loss_fn(logits, np.asarray(ys)).mean()


def separable_data(n, d=4, seed=0):
    rng = np.random.default_rng(seed)
    xs = rng.normal(size=(n, d))
    labels = (xs[:, 0] > 0).astype(int)
    return [(xs[i], int(labels[i])) for i in range(n)]


# ---------------------------------------------------------------- config
def test_config_validation():
    with pytest.raises(InputError):
        TrainConfig(epochs=0)
    with pytest.raises(InputError, match="^unknown loss 'hinge'$"):
        TrainConfig(loss="hinge")
    assert TrainConfig(loss="bce").loss_fn() is nn.bce_loss
    assert TrainConfig(loss="focal").loss_fn() is nn.focal_loss
    with pytest.raises(InputError, match="seed must be >= 0, got -1"):
        TrainConfig(seed=-1)


def test_presets_match_published_recipes():
    s1 = PRESETS["paper-s1-bce"]
    assert (s1.epochs, s1.batch_size, s1.loss) == (30, 8, "bce")
    assert s1.lr == 1e-5 and s1.weight_decay == 1e-6
    s1f = PRESETS["paper-s1-focal"]
    assert (s1f.epochs, s1f.batch_size, s1f.loss) == (50, 32, "focal")
    s2 = PRESETS["paper-s2-bce"]
    assert (s2.epochs, s2.loss) == (50, "bce")


# ---------------------------------------------------------------- loop
def test_train_learns_separable_problem():
    model = TinyLogistic(4)
    data = separable_data(64)
    cfg = TrainConfig(epochs=40, batch_size=8, lr=0.05, weight_decay=0.0, seed=0)
    result = train(model, data[:48], data[48:], cfg)
    assert result.history[-1].val_accuracy >= 0.9
    assert result.history[0].train_loss > result.history[-1].train_loss


def test_train_restores_best_epoch_weights():
    model = TinyLogistic(4)
    data = separable_data(40)
    cfg = TrainConfig(epochs=30, batch_size=8, lr=0.2, weight_decay=0.0)
    result = train(model, data[:30], data[30:], cfg)
    best = result.history[result.best_epoch - 1].val_loss
    assert all(best <= rec.val_loss + 1e-6 for rec in result.history)
    # the same run cut at the best epoch ends on the weights train left
    assert result.best_epoch < len(result.history)
    cut = TinyLogistic(4)
    train(cut, data[:30], data[30:], TrainConfig(epochs=result.best_epoch, batch_size=8,
                                                 lr=0.2, weight_decay=0.0))
    assert np.array_equal(model.w.data, cut.w.data)
    assert np.array_equal(model.b.data, cut.b.data)


def test_train_early_stops_on_plateau():
    model = TinyLogistic(2, seed=1)
    # labels independent of features: no learnable signal at lr 0
    rng = np.random.default_rng(0)
    data = [(rng.normal(size=2), int(i % 2)) for i in range(20)]
    cfg = TrainConfig(epochs=200, batch_size=4, lr=1e-12,
                      weight_decay=0.0, early_stop_patience=3)
    result = train(model, data[:16], data[16:], cfg)
    assert len(result.history) <= 10  # of 200: it stopped early


def test_train_deterministic():
    histories = []
    for _ in range(2):
        model = TinyLogistic(4, seed=5)
        data = separable_data(32, seed=3)
        cfg = TrainConfig(epochs=5, batch_size=8, lr=0.05, weight_decay=0.0, seed=9)
        result = train(model, data[:24], data[24:], cfg)
        histories.append([(r.train_loss, r.val_loss) for r in result.history])
    assert histories[0] == histories[1]


def test_train_empty_split():
    with pytest.raises(InputError, match="train and val splits must be non-empty"):
        train(TinyLogistic(2), [], [(np.zeros(2), 0)], TrainConfig())


def test_train_diverged_loss():
    model = TinyLogistic(2)
    model.w.data[:] = np.inf
    data = [(np.ones(2), 0)] * 8  # logit +inf against label 0 -> inf loss
    with pytest.raises(DivergedLoss):
        train(model, data, data, TrainConfig(epochs=1))


def test_train_drops_incomplete_batch():
    # 10 examples, batch 8 -> one batch of 8 per epoch
    seen = []

    class Probe(TinyLogistic):
        def loss(self, xs, ys, loss_fn):
            seen.append(len(xs))
            return super().loss(xs, ys, loss_fn)

    model = Probe(2)
    data = separable_data(10, d=2)
    train(model, data, data, TrainConfig(epochs=1, batch_size=8, lr=0.01))
    # 8 examples trained, in one loss call; validation goes through
    # forward_tensor, not loss
    assert sum(seen) == 8
    assert seen == [8]


def test_history_csv(tmp_path, capsys):
    """train writes one history row per epoch it ran, under its header."""
    rng = np.random.default_rng(0)
    entries = []
    for i, split in enumerate(["train"] * 4 + ["val"] * 2):
        path = tmp_path / f"clip{i}.wav"
        save_wav(render_track(i % 2, 120, 4.0, 16000, rng), path)
        entries.append(ManifestEntry(str(path), i % 2, split))
    Manifest(entries).save(tmp_path / "manifest.csv")
    out = tmp_path / "s1.aigm"
    assert cli.main(["train", "--arch", "audiocat", "--extractor", "stats-160", "--manifest",
                     str(tmp_path / "manifest.csv"), "--epochs", "3", "--out", str(out)]) == 0
    epochs = [line for line in capsys.readouterr().out.splitlines() if line.startswith("epoch ")]
    lines = (tmp_path / "s1.aigm.history.csv").read_text().strip().splitlines()
    assert lines[0] == "epoch,train_loss,val_loss,val_accuracy"
    assert len(lines) == 1 + len(epochs) >= 2
    assert [line.split(",")[0] for line in lines[1:]] == [str(i + 1) for i in range(len(epochs))]


def test_train_transformer_smoke():
    model = AudioCAT(d_enc=6, cfg=SMALL, n_queries=2, n_layers=1, seed=0)
    rng = np.random.default_rng(0)
    data = [(rng.normal(size=(3, 6)) + (2.0 if i % 2 else -2.0), i % 2)
            for i in range(12)]
    result = train(model, data[:8], data[8:],
                   TrainConfig(epochs=3, batch_size=4, lr=1e-3))
    assert len(result.history) >= 1
    assert np.isfinite(result.history[-1].val_loss)


# ---------------------------------------------------------------- metrics
def test_confusion_oracle():
    scores = [0.9, 0.8, 0.4, 0.3, 0.6, 0.5]
    labels = [1, 1, 1, 0, 0, 0]
    assert confusion(scores, labels) == (2, 2, 1, 1)


def test_confusion_threshold_is_inclusive():
    # models.predict's rule: 0.5 is called AI-generated, the float below it is not
    assert confusion([0.5], [1]) == (1, 0, 0, 0)
    assert confusion([np.nextafter(0.5, 0)], [1]) == (0, 0, 0, 1)
    assert confusion([0.5, np.nextafter(0.5, 0)], [0, 0]) == (0, 1, 1, 0)


def test_validation_accuracy_uses_the_decision_rule():
    """A logit of -1e-17 has probability exactly 0.5, which models.predict
    calls AI-generated: validation accuracy counts it as evaluate does."""
    class Stub:
        def forward_tensor(self, xs):
            logits = Tensor(np.full(len(xs), -1e-17))
            return logits, logits

    _, accuracy = _mean_loss(Stub(), [(None, 1)], nn.bce_loss, batch_size=8)
    assert accuracy == 1.0
    assert accuracy == evaluate([_sigmoid(-1e-17)], [1]).accuracy


def test_confusion_length_mismatch():
    with pytest.raises(ValueError, match="scores and labels must have equal nonzero length"):
        confusion([0.5], [1, 0])
    with pytest.raises(ValueError, match="scores and labels must have equal nonzero length"):
        confusion([], [])


def test_metrics_worked_example():
    # tp=8 fp=2 tn=9 fn=1: acc .85, prec .8, rec 8/9, f1 .842105..., spec 9/11
    rep = metrics((8, 2, 9, 1))
    assert abs(rep.accuracy - 0.85) < 1e-12
    assert abs(rep.precision - 0.8) < 1e-12
    assert abs(rep.recall - 8 / 9) < 1e-12
    assert abs(rep.f1 - 2 * 0.8 * (8 / 9) / (0.8 + 8 / 9)) < 1e-12
    assert abs(rep.specificity - 9 / 11) < 1e-12
    # counts alone define no AUC
    assert math.isnan(rep.auc)


def test_metrics_undefined_ratios():
    rep = metrics((0, 0, 5, 5))  # nothing predicted positive
    assert math.isnan(rep.precision) and math.isnan(rep.f1)
    assert rep.recall == 0.0 and rep.specificity == 1.0 and rep.accuracy == 0.5
    rep2 = metrics((0, 5, 5, 0))  # no actual positives
    assert math.isnan(rep2.recall) and math.isnan(rep2.f1)
    assert rep2.precision == 0.0


def test_metrics_empty_counts():
    with pytest.raises(ValueError, match="empty confusion counts"):
        metrics((0, 0, 0, 0))


def test_auc_perfect_and_reversed():
    assert roc_auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0
    assert roc_auc([0.1, 0.2, 0.8, 0.9], [1, 1, 0, 0]) == 0.0


def test_auc_worked_example():
    # pos {0.8, 0.4}, neg {0.6, 0.2}: pairs > = 3 of 4 -> 0.75
    assert roc_auc([0.8, 0.4, 0.6, 0.2], [1, 1, 0, 0]) == 0.75


def test_auc_half_tie_credit():
    assert roc_auc([0.5, 0.5], [1, 0]) == 0.5
    # pairs: 0.7>0.5, 0.7>0.3, 0.5==0.5 (half credit), 0.5>0.3 -> 3.5/4
    assert roc_auc([0.7, 0.5, 0.5, 0.3], [1, 1, 0, 0]) == 0.875


def test_auc_one_class_only():
    assert math.isnan(roc_auc([0.5, 0.6], [1, 1]))
    assert math.isnan(roc_auc([0.5, 0.6], [0, 0]))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.floats(0, 1), st.integers(0, 1)),
                min_size=2, max_size=30))
def test_auc_complement_symmetry(pairs):
    scores = [s for s, _ in pairs]
    labels = [l for _, l in pairs]
    if len(set(labels)) < 2:
        return
    flipped = [1 - l for l in labels]
    assert abs(roc_auc(scores, labels) + roc_auc(scores, flipped) - 1.0) < 1e-12


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 1)), min_size=2, max_size=60),
       st.floats(1e-3, 1e3))
def test_auc_rank_formula_matches_pairwise_with_ties(pairs, scale):
    # six score levels over up to 60 examples: most scores are tied
    scores = [s * scale for s, _ in pairs]
    labels = [l for _, l in pairs]
    if len(set(labels)) < 2:
        return
    assert abs(roc_auc(scores, labels) - pairwise_auc(scores, labels)) <= 1e-12


def test_evaluate_end_to_end():
    rep = evaluate([0.9, 0.8, 0.4, 0.3], [1, 1, 0, 0])
    assert rep.accuracy == rep.precision == rep.auc == 1.0
    # one class: no AUC (nor specificity), so nan, not a ranker that reads 0
    rep = evaluate([0.9, 0.2, 0.7], [1, 1, 1])
    assert math.isnan(rep.specificity) and math.isnan(rep.auc)
    assert (rep.accuracy, rep.precision, rep.recall) == (2 / 3, 1.0, 2 / 3)
    assert abs(rep.f1 - 0.8) <= 1e-15

"""Training loop with early stopping, plus binary-classification metrics.

The loop is architecture-agnostic: a model only needs .loss(x, y) -> Tensor
and .parameters(); datasets are lists of (input, label) pairs.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import nn
from .tensor import no_grad


class TrainingError(Exception):
    pass


class EmptySplit(TrainingError):
    pass


class DivergedLoss(TrainingError):
    pass


class LengthMismatch(Exception):
    pass


class OneClassOnly(Exception):
    pass


@dataclass
class TrainConfig:
    epochs: int = 30
    batch_size: int = 8
    loss: str = "bce"  # or "focal"
    lr: float = 1e-5
    weight_decay: float = 1e-6
    early_stop_patience: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1 or self.early_stop_patience < 1:
            raise TrainingError("epochs, batch_size and patience must be >= 1")
        if self.loss not in ("bce", "focal"):
            raise TrainingError(f"unknown loss {self.loss!r}")

    def loss_fn(self):
        return nn.bce_loss if self.loss == "bce" else nn.focal_loss


# named presets for the published training recipes
PRESETS = {
    "paper-s1-bce": TrainConfig(epochs=30, batch_size=8, loss="bce",
                                lr=1e-5, weight_decay=1e-6),
    "paper-s1-focal": TrainConfig(epochs=50, batch_size=32, loss="focal",
                                  lr=1e-5, weight_decay=1e-6),
    "paper-s2-bce": TrainConfig(epochs=50, batch_size=8, loss="bce",
                                lr=1e-5, weight_decay=1e-6),
}


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_loss: float
    val_accuracy: float


@dataclass
class TrainResult:
    history: list
    best_params: dict
    best_epoch: int
    stopped_early: bool

    def save_history_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "train_loss", "val_loss", "val_accuracy"])
            for rec in self.history:
                writer.writerow([rec.epoch, f"{rec.train_loss:.8f}",
                                 f"{rec.val_loss:.8f}", f"{rec.val_accuracy:.6f}"])


def _mean_loss(model, data, loss_fn) -> tuple[float, float]:
    """(mean loss, accuracy) without touching gradients."""
    total, correct = 0.0, 0
    with no_grad():
        for x, y in data:
            logit, _ = model.forward_tensor(x)
            total += float(loss_fn(logit, y).data)
            correct += int((float(logit.data) >= 0.0) == bool(y))
    return total / len(data), correct / len(data)


def train(model, train_data, val_data, cfg: TrainConfig,
          log=None) -> TrainResult:
    """Adam + early stopping on validation loss; returns the best-epoch
    parameter snapshot.  Deterministic under cfg.seed (single-threaded)."""
    if not train_data or not val_data:
        raise EmptySplit("train and val splits must be non-empty")
    rng = np.random.default_rng(cfg.seed)
    loss_fn = cfg.loss_fn()
    params = model.parameters()
    state = nn.OptimState(lr=cfg.lr, weight_decay=cfg.weight_decay)

    best_val = np.inf
    best_epoch = 0
    best_params = model.state_arrays()
    since_improve = 0
    history = []
    stopped = False

    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(len(train_data))
        n_batches = len(order) // cfg.batch_size
        if n_batches == 0:
            n_batches, batch_size = 1, len(order)
        else:
            batch_size = cfg.batch_size
        epoch_loss = 0.0
        for b in range(n_batches):
            batch = order[b * batch_size:(b + 1) * batch_size]
            model.zero_grad()
            total = None
            for i in batch:
                x, y = train_data[i]
                loss = model.loss(x, y, loss_fn)
                total = loss if total is None else total + loss
            total = total * (1.0 / len(batch))
            if not np.isfinite(total.data):
                raise DivergedLoss(f"loss is {total.data} at epoch {epoch}")
            total.backward()
            nn.adam_step(params, state)
            epoch_loss += float(total.data)
        epoch_loss /= n_batches

        val_loss, val_acc = _mean_loss(model, val_data, loss_fn)
        if not np.isfinite(val_loss):
            raise DivergedLoss(f"validation loss is {val_loss}")
        history.append(EpochRecord(epoch, epoch_loss, val_loss, val_acc))
        if log:
            log(f"epoch {epoch}: train_loss={epoch_loss:.5f} "
                f"val_loss={val_loss:.5f} val_acc={val_acc:.3f}")

        if val_loss < best_val - 1e-6:
            best_val = val_loss
            best_epoch = epoch
            best_params = model.state_arrays()
            since_improve = 0
        else:
            since_improve += 1
            if since_improve >= cfg.early_stop_patience:
                stopped = True
                break

    model.load_state_arrays(best_params)
    return TrainResult(history, best_params, best_epoch, stopped)


# ----------------------------------------------------------------------
# metrics
@dataclass
class EvalReport:
    tp: int
    fp: int
    tn: int
    fn: int
    accuracy: float
    precision: float
    recall: float
    f1: float
    auc: float
    specificity: float
    undefined: tuple = ()

    CSV_HEADER = "acc,prec,recall,f1,auc,spec"

    def csv_row(self) -> str:
        return (f"{self.accuracy:.6f},{self.precision:.6f},{self.recall:.6f},"
                f"{self.f1:.6f},{self.auc:.6f},{self.specificity:.6f}")


def confusion(scores, labels, threshold: float = 0.5) -> tuple[int, int, int, int]:
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if len(scores) != len(labels) or len(scores) == 0:
        raise LengthMismatch("scores and labels must have equal nonzero length")
    pred = scores >= threshold
    tp = int(np.sum(pred & (labels == 1)))
    fp = int(np.sum(pred & (labels == 0)))
    tn = int(np.sum(~pred & (labels == 0)))
    fn = int(np.sum(~pred & (labels == 1)))
    return tp, fp, tn, fn


def metrics(counts, auc: float = 0.0) -> EvalReport:
    """Derive the six headline metrics; undefined ratios become 0 + flag."""
    tp, fp, tn, fn = counts
    total = tp + fp + tn + fn
    if total == 0:
        raise LengthMismatch("empty confusion counts")
    undefined = []

    def ratio(num, den, name):
        if den == 0:
            undefined.append(name)
            return 0.0
        return num / den

    accuracy = (tp + tn) / total
    precision = ratio(tp, tp + fp, "precision")
    recall = ratio(tp, tp + fn, "recall")
    specificity = ratio(tn, tn + fp, "specificity")
    if precision + recall > 0:
        f1 = 2 * precision * recall / (precision + recall)
    else:
        undefined.append("f1")
        f1 = 0.0
    return EvalReport(tp, fp, tn, fn, accuracy, precision, recall, f1,
                      auc, specificity, tuple(undefined))


def roc_auc(scores, labels) -> float:
    """Mann-Whitney AUC: P(score+ > score-) + 0.5 P(tie), exact."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    if len(pos) == 0 or len(neg) == 0:
        raise OneClassOnly("need at least one positive and one negative")
    greater = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return float((greater + 0.5 * ties) / (len(pos) * len(neg)))


def evaluate(scores, labels, threshold: float = 0.5) -> EvalReport:
    counts = confusion(scores, labels, threshold)
    try:
        auc = roc_auc(scores, labels)
    except OneClassOnly:
        auc = 0.0
    report = metrics(counts, auc)
    return report

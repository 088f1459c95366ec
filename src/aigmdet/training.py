"""Training loop with early stopping, plus binary-classification metrics.

The loop is architecture-agnostic.  Datasets are lists of (input, label)
pairs, and a model needs:

* .forward_tensor(inputs) -> (logits [B], pooled [B x d]) for a list of
  B inputs;
* .loss(inputs, labels, loss_fn) -> the scalar mean loss of that
  minibatch, recorded as one autograd tape;
* .parameters() and the rest of nn.Module.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from . import nn
from .errors import DivergedLoss, InputError
from .tensor import no_grad


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
            raise InputError("epochs, batch_size and patience must be >= 1")
        if self.loss not in ("bce", "focal"):
            raise InputError(f"unknown loss {self.loss!r}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise InputError(f"lr must be finite and > 0, got {self.lr}")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise InputError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        if self.seed < 0:
            raise InputError(f"seed must be >= 0, got {self.seed}")

    def loss_fn(self):
        return nn.bce_loss if self.loss == "bce" else nn.focal_loss


# named presets for the published training recipes; TrainConfig's defaults
# are paper-s1-bce
PRESETS = {
    "paper-s1-bce": TrainConfig(),
    "paper-s1-focal": TrainConfig(epochs=50, batch_size=32, loss="focal"),
    "paper-s2-bce": TrainConfig(epochs=50),
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
    best_epoch: int

    def save_history_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "train_loss", "val_loss", "val_accuracy"])
            for rec in self.history:
                writer.writerow([rec.epoch, f"{rec.train_loss:.8f}",
                                 f"{rec.val_loss:.8f}", f"{rec.val_accuracy:.6f}"])


def _mean_loss(model, data, loss_fn, batch_size: int) -> tuple[float, float]:
    """(mean loss, accuracy) without touching gradients, batch_size
    examples per forward pass."""
    total, correct = 0.0, 0
    with no_grad():
        for lo in range(0, len(data), batch_size):
            chunk = data[lo:lo + batch_size]
            logits, _ = model.forward_tensor([x for x, _ in chunk])
            labels = np.array([y for _, y in chunk]) != 0
            total += float(loss_fn(logits, labels).data.sum())
            correct += int(((logits.data >= 0.0) == labels).sum())
    return total / len(data), correct / len(data)


# a diverging step overflows: its non-finite loss is a DivergedLoss, not warnings
@np.errstate(over="ignore", invalid="ignore")
def train(model, train_data, val_data, cfg: TrainConfig,
          log=None) -> TrainResult:
    """Adam + early stopping on validation loss; leaves the model at its
    best epoch's parameters.  Deterministic under cfg.seed (single-threaded)."""
    if not train_data or not val_data:
        raise InputError("train and val splits must be non-empty")
    rng = np.random.default_rng(cfg.seed)
    loss_fn = cfg.loss_fn()
    params = model.parameters()
    state = nn.OptimState(lr=cfg.lr, weight_decay=cfg.weight_decay)

    best_val = np.inf
    best_epoch = 0
    best_params = model.state_arrays()
    since_improve = 0
    history = []

    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(len(train_data))
        n_batches = len(order) // cfg.batch_size
        if n_batches == 0:
            n_batches, batch_size = 1, len(order)
        else:
            batch_size = cfg.batch_size
        epoch_loss = 0.0
        for b in range(n_batches):
            batch = [train_data[i] for i in order[b * batch_size:(b + 1) * batch_size]]
            model.zero_grad()
            total = model.loss([x for x, _ in batch], [y for _, y in batch], loss_fn)
            if not np.isfinite(total.data):
                raise DivergedLoss(f"loss is {total.data} at epoch {epoch}")
            total.backward()
            nn.adam_step(params, state)
            epoch_loss += float(total.data)
        epoch_loss /= n_batches

        val_loss, val_acc = _mean_loss(model, val_data, loss_fn, cfg.batch_size)
        if not np.isfinite(val_loss):
            raise DivergedLoss(f"validation loss is {val_loss} at epoch {epoch}")
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
                break

    model.load_state_arrays(best_params)
    return TrainResult(history, best_epoch)


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

    CSV_HEADER = "acc,prec,recall,f1,auc,spec"

    def csv_row(self) -> str:
        """The CSV_HEADER columns; an undefined metric, nan, reads nan."""
        return ",".join(f"{getattr(self, name):.6f}"
                        for name in ("accuracy", "precision", "recall", "f1", "auc",
                                     "specificity"))


def confusion(scores, labels, threshold: float = 0.5) -> tuple[int, int, int, int]:
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if len(scores) != len(labels) or len(scores) == 0:
        raise ValueError("scores and labels must have equal nonzero length")
    pred = scores >= threshold
    tp = int(np.sum(pred & (labels == 1)))
    fp = int(np.sum(pred & (labels == 0)))
    tn = int(np.sum(~pred & (labels == 0)))
    fn = int(np.sum(~pred & (labels == 1)))
    return tp, fp, tn, fn


def metrics(counts, auc: float = math.nan) -> EvalReport:
    """Derive the six headline metrics; a metric the counts leave undefined
    (a 0/0 ratio, and F1 unless precision + recall > 0) is nan."""
    tp, fp, tn, fn = counts
    total = tp + fp + tn + fn
    if total == 0:
        raise ValueError("empty confusion counts")

    def ratio(num, den):
        return num / den if den else math.nan

    precision, recall = ratio(tp, tp + fp), ratio(tp, tp + fn)
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall > 0 else math.nan)
    return EvalReport(tp, fp, tn, fn, (tp + tn) / total, precision, recall, f1,
                      auc, ratio(tn, tn + fp))


def roc_auc(scores, labels) -> float:
    """Mann-Whitney AUC, P(score+ > score-) + 0.5 P(tie), from average
    ranks: (rank sum of the P positives - P(P+1)/2) / (P N).  Ties share
    their mean rank (scipy.stats.rankdata's "average", whose import costs
    ~45 MB of memory), so the numerator is an exact half-integer.  Labels
    of one class define no AUC: nan."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    known = (labels == 0) | (labels == 1)
    positive = labels[known] == 1
    n_pos = int(positive.sum())
    n_neg = len(positive) - n_pos
    if n_pos == 0 or n_neg == 0:
        return math.nan
    _, group, counts = np.unique(scores[known], return_inverse=True, return_counts=True)
    mean_rank = np.cumsum(counts) - (counts - 1) / 2.0  # of each tie group, 1-based
    rank_sum = mean_rank[group][positive].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg))


def evaluate(scores, labels, threshold: float = 0.5) -> EvalReport:
    """metrics of the scores at `threshold`, with their ROC-AUC (nan for
    labels of one class)."""
    return metrics(confusion(scores, labels, threshold), roc_auc(scores, labels))

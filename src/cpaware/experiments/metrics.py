"""Evaluation: confusion matrices, per-class and per-scale tables.

Per-intent precision and recall come from the 3x3 intent confusion
matrix.  Grading quality is summarized per severity scale (0-7) with

* recall(s):   correct assessments among samples whose true scale is s,
* accuracy(s): correct assessments among samples whose true *or*
  predicted scale is s (so false positives into s count against it),

and scales without support are flagged ``n/a`` rather than reported as
zero.  Classes without support likewise carry NaN precision/recall.

``evaluate_multitask`` and ``evaluate_sequential`` (one classifier pass
for a sweep of gate thresholds, each with its own report and counters)
first build one raw prediction row per sample.  They grade the labels
once per call (the true scale is ``assess(intent, log_ber)[1]``) and each
set of predicted intents and log-BERs with one ``assess`` call; their
report is ``report_from_rows`` of those rows plus the two losses,
``loss_cls`` (focal, over the rows' ``p_*`` columns) and ``loss_reg``
(MSE).  Every reported number can therefore be recomputed from the dump
alone.
"""

from __future__ import annotations

import csv

import numpy as np

from ..assessment import AssessmentThresholds, DEFAULT_THRESHOLDS, N_SCALES, assess
from ..baseline import SequentialAssessor, check_same_backbone
from ..net.losses import focal_loss, mse_loss
from ..net.model import MultitaskNet
from ..threats import INTENT_NAMES
from .training import one_hot_labels

_PROB_FIELDS = tuple(f"p_{name}" for name in INTENT_NAMES)
ROW_FIELDS = ("sample_id", "true_intent", "pred_intent", "true_log_ber",
              "pred_log_ber", "true_scale", "pred_scale", *_PROB_FIELDS, "gated")


def summary_lines(report: dict, label: str) -> list[str]:
    """The printed form of a report from ``evaluate_multitask``/``_sequential``."""
    lines = [f"[{label}] intent accuracy {report['intent_accuracy']:.4f}, "
             f"assessment accuracy {report['assessment_accuracy']:.4f}, "
             f"loss_cls {report['loss_cls']:.4g}, loss_reg {report['loss_reg']:.4g}"]
    for i, name in enumerate(INTENT_NAMES):
        lines.append(
            f"  {name:<16} precision {_fmt(report['intent_precision'][i])}"
            f"  recall {_fmt(report['intent_recall'][i])}"
        )
    for row in report["per_scale"]:
        lines.append(
            f"  scale {row['scale']}: support {row['support']:>4}  "
            f"recall {_fmt(row['recall'])}  accuracy {_fmt(row['accuracy'])}"
        )
    return lines


def _fmt(value) -> str:
    return "n/a" if value is None or (isinstance(value, float) and np.isnan(value)) \
        else f"{value:.4f}"


def confusion_matrix(true_idx: np.ndarray, pred_idx: np.ndarray,
                     size: int) -> np.ndarray:
    matrix = np.zeros((size, size), dtype=np.int64)
    for t, p in zip(true_idx, pred_idx):
        matrix[int(t), int(p)] += 1
    return matrix


def precision_recall(confusion: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-class precision and recall; NaN where the denominator is zero."""
    tp = np.diag(confusion).astype(float)
    predicted = confusion.sum(axis=0).astype(float)
    support = confusion.sum(axis=1).astype(float)
    with np.errstate(invalid="ignore", divide="ignore"):
        precision = np.where(predicted > 0, tp / predicted, np.nan)
        recall = np.where(support > 0, tp / support, np.nan)
    return precision, recall


def per_scale_table(true_scales: np.ndarray, pred_scales: np.ndarray) -> list[dict]:
    """Recall and local accuracy per severity scale; see module docstring."""
    rows = []
    for scale in range(N_SCALES):
        true_here = true_scales == scale
        pred_here = pred_scales == scale
        support = int(true_here.sum())
        tp = int((true_here & pred_here).sum())
        involved = int((true_here | pred_here).sum())
        rows.append({
            "scale": scale,
            "support": support,
            "recall": (tp / support) if support else None,
            "accuracy": (tp / involved) if involved else None,
        })
    return rows


def evaluate_multitask(model: MultitaskNet, tensors: np.ndarray,
                       intent_idx: np.ndarray, log_ber: np.ndarray,
                       thresholds: AssessmentThresholds = DEFAULT_THRESHOLDS,
                       ) -> tuple[dict, list[dict]]:
    probs, rho_hat = model.predict_batched(tensors)
    _, true_scales = assess(intent_idx, log_ber, thresholds)
    rows = _make_rows(np.argmax(probs, axis=1), rho_hat, probs, np.zeros(len(probs), dtype=bool),
                      intent_idx, log_ber, true_scales, thresholds)
    loss_cls = focal_loss(one_hot_labels(intent_idx), probs, model.config.focal_gamma)
    return _report(rows, loss_cls), rows


def evaluate_sequential(regressor: MultitaskNet, classifier: MultitaskNet, thetas,
                        tensors: np.ndarray, intent_idx: np.ndarray, log_ber: np.ndarray,
                        thresholds: AssessmentThresholds = DEFAULT_THRESHOLDS,
                        ) -> list[tuple[SequentialAssessor, dict, list[dict]]]:
    """``(assessor, report, rows)`` of the cascade at each gate threshold; one
    classifier pass serves them all and loss_cls, which scores it on every
    sample, gated or not.  Every threshold is checked before that pass."""
    check_same_backbone(regressor, classifier)
    assessors = [SequentialAssessor(regressor, theta) for theta in thetas]
    probs, _ = classifier.predict_batched(tensors)
    loss_cls = focal_loss(one_hot_labels(intent_idx), probs, classifier.config.focal_gamma)
    _, true_scales = assess(intent_idx, log_ber, thresholds)
    results = []
    for assessor in assessors:
        pred_idx, rho_hat, gated = assessor.assess_batch(tensors, probs)
        rows = _make_rows(pred_idx, rho_hat, probs, gated, intent_idx, log_ber, true_scales,
                          thresholds)
        results.append((assessor, _report(rows, loss_cls), rows))
    return results


def _report(rows, loss_cls) -> dict:
    """``report_from_rows`` plus ``loss_cls`` and the rows' log-BER MSE."""
    loss_reg, _ = mse_loss(np.array([r["true_log_ber"] for r in rows]),
                           np.array([r["pred_log_ber"] for r in rows]))
    return {**report_from_rows(rows), "loss_cls": loss_cls, "loss_reg": loss_reg}


def _make_rows(pred_idx, pred_log_ber, probs, gated, intent_idx, log_ber, true_scales,
               thresholds) -> list[dict]:
    _, pred_scales = assess(pred_idx, pred_log_ber, thresholds)
    return [{
        "sample_id": i,
        "true_intent": int(intent_idx[i]),
        "pred_intent": int(pred_idx[i]),
        "true_log_ber": float(log_ber[i]),
        "pred_log_ber": float(pred_log_ber[i]),
        "true_scale": int(true_scales[i]),
        "pred_scale": int(pred_scales[i]),
        **{field: float(p) for field, p in zip(_PROB_FIELDS, probs[i])},
        "gated": int(gated[i]),
    } for i in range(len(pred_idx))]


def write_rows_csv(path, rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=ROW_FIELDS)
        writer.writeheader()
        writer.writerows(rows)


def read_rows_csv(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def report_from_rows(rows: list[dict]) -> dict:
    """Recompute the headline metrics from a raw prediction dump."""
    true_idx = np.array([int(r["true_intent"]) for r in rows])
    pred_idx = np.array([int(r["pred_intent"]) for r in rows])
    true_scales = np.array([int(r["true_scale"]) for r in rows])
    pred_scales = np.array([int(r["pred_scale"]) for r in rows])
    conf = confusion_matrix(true_idx, pred_idx, len(INTENT_NAMES))
    precision, recall = precision_recall(conf)
    return {
        "intent_confusion": conf,
        "intent_precision": precision,
        "intent_recall": recall,
        "intent_accuracy": float(np.mean(true_idx == pred_idx)),
        "assessment_accuracy": float(np.mean(true_scales == pred_scales)),
        "per_scale": per_scale_table(true_scales, pred_scales),
    }

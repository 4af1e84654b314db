"""Task losses: focal classification, log-BER regression, combined total.

The classification loss is the focal form

    L = (1/B) sum_b ( -sum_c q_{b,c} * (1 - p_{b,c})^gamma * log p_{b,c} )

which reduces to categorical cross-entropy at gamma = 0.  Probabilities
are clipped to [eps, 1 - eps] before the log, eps = 1e-7.

The regression loss is the mean squared error between the log-BER label
and its prediction.  The total training objective is

    L_total = L_cls + w_reg * L_reg + l2_coeff * sum ||kernel||^2

where the regression weight w_reg = 1 / (amplification * label_variance)
(``regression_weight``), label_variance is the empirical variance of the
labels a run trains on (measured at the start of every run, fresh or
resumed) and amplification rescales the regression term against the
logarithmic label range.  A run that trains no regression passes
w_reg = 0.
"""

from __future__ import annotations

import numpy as np

PROB_EPS = 1e-7


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def focal_loss(one_hot: np.ndarray, probs: np.ndarray, gamma: float) -> float:
    """Mean focal loss of a batch of probability rows."""
    if gamma < 0:
        raise ValueError("gamma must be non-negative")
    p = np.clip(probs, PROB_EPS, 1.0 - PROB_EPS)
    per_sample = -(one_hot * (1.0 - p) ** gamma * np.log(p)).sum(axis=1)
    return float(per_sample.mean())


def _focal_grad_wrt_probs(one_hot: np.ndarray, probs: np.ndarray,
                          gamma: float) -> np.ndarray:
    batch = one_hot.shape[0]
    p = np.clip(probs, PROB_EPS, 1.0 - PROB_EPS)
    inner = (1.0 - p) ** gamma / p
    if gamma > 0:
        inner = inner - gamma * (1.0 - p) ** (gamma - 1.0) * np.log(p)
    grad = -(one_hot / batch) * inner
    # The clip is flat outside its range; kill the gradient there.
    active = (probs > PROB_EPS) & (probs < 1.0 - PROB_EPS)
    return np.where(active, grad, 0.0)


def focal_loss_with_logit_grad(one_hot: np.ndarray, logits: np.ndarray,
                               gamma: float) -> tuple[float, np.ndarray]:
    """Loss value and its gradient at the logits (softmax folded in)."""
    probs = softmax(logits)
    loss = focal_loss(one_hot, probs, gamma)
    g = _focal_grad_wrt_probs(one_hot, probs, gamma)
    dlogits = probs * (g - (g * probs).sum(axis=1, keepdims=True))
    return loss, dlogits


def mse_loss(targets: np.ndarray, preds: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared error and its gradient at the predictions."""
    targets = np.asarray(targets, dtype=float)
    preds = np.asarray(preds, dtype=float)
    if targets.shape != preds.shape:
        raise ValueError(f"shape mismatch: {targets.shape} vs {preds.shape}")
    diff = preds - targets
    return float(np.mean(diff**2)), 2.0 * diff / diff.size


def regression_weight(amplification: float, label_variance: float) -> float:
    product = amplification * label_variance
    if not product > 0:  # also refuses NaN
        raise ValueError(f"amplification * label_variance must be positive, not "
                         f"{amplification!r} * {label_variance!r} (constant labels "
                         "have variance 0)")
    return 1.0 / product


def total_loss(loss_cls: float, loss_reg: float, reg_weight: float,
               kernel_sq_sum: float = 0.0, l2_coeff: float = 0.0) -> float:
    """Combined objective; see module docstring."""
    return loss_cls + reg_weight * loss_reg + l2_coeff * kernel_sq_sum

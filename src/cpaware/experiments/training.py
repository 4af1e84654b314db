"""Deterministic training loops for the multitask and single-task models.

The loop is serial and fully reproducible: parameter initialization
draws from a stream derived from (seed, 0) and the epoch-e shuffle from
(seed, 1, e), so a run is a pure function of (data, config, task, seed).
Resuming from a checkpoint replays the exact remaining schedule, because
the batch order depends only on the global step counter.  A resume must
be given the task, seed and batch size its checkpoint records, and takes
the network config, label variance included, from the checkpoint.

Tasks:

* ``multitask``   - both heads, combined loss,
* ``intent``      - classification head and loss only,
* ``capability``  - regression head and loss only.

Single-task runs share the architecture and every hyperparameter with
the multitask run; only the backpropagated objective differs: each task
weights the two head losses by 0 or 1 (``TASKS``).

The regression label variance is measured on the training labels of a
fresh run, frozen into the network config, and recorded in checkpoints.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np

from ..net.checkpoint import load_model, save_model
from ..net.losses import (
    focal_loss_with_logit_grad,
    mse_loss,
    regression_weight,
    total_loss,
)
from ..net.model import MultitaskNet, NetworkConfig, he_init
from ..net.optim import Adam
from .config import TrainRegime

# Task -> weights of the (classification, regression) head losses.
TASKS = {"multitask": (1.0, 1.0), "intent": (1.0, 0.0), "capability": (0.0, 1.0)}

LOG_FIELDS = ("step", "epoch", "loss_cls", "loss_reg", "loss_total")
# Checkpoint extras naming a run's task, seed and batch size; a resume must match them.
RUN_RECORD = ("task", "train_seed", "batch_size")


@dataclass
class TrainResult:
    model: MultitaskNet
    optimizer: Adam
    log: list[dict]
    task: str
    seed: int
    batch_size: int


def one_hot_labels(intent_idx: np.ndarray, n_classes: int = 3) -> np.ndarray:
    return np.eye(n_classes)[np.asarray(intent_idx, dtype=int)]


def _epoch_permutation(seed: int, epoch: int, n: int) -> np.ndarray:
    return np.random.default_rng([seed, 1, epoch]).permutation(n)


def train_step(model: MultitaskNet, x: np.ndarray, intent_one_hot: np.ndarray,
               log_ber: np.ndarray, optimizer: Adam, task: str = "multitask",
               freeze_backbone: bool = False) -> dict:
    """One forward/backward/update; returns the step's loss entries."""
    cfg = model.config
    logits, rho_hat = model.forward(x, train=True)
    loss_cls, dlogits = focal_loss_with_logit_grad(
        intent_one_hot, logits, cfg.focal_gamma
    )
    loss_reg, dreg = mse_loss(log_ber, rho_hat)
    w_reg = regression_weight(cfg.reg_amplification, cfg.reg_label_variance)
    use_cls, use_reg = TASKS[task]
    model.backward(use_cls * dlogits, use_reg * w_reg * dreg)
    loss = total_loss(use_cls * loss_cls, use_reg * loss_reg, cfg.reg_amplification,
                      cfg.reg_label_variance, model.kernel_sq_sum(), cfg.l2_coeff)

    params = model.named_params()
    grads = model.named_grads()
    for name in model.kernel_names():
        grads[name] = grads[name] + 2.0 * cfg.l2_coeff * params[name]
    if freeze_backbone:
        for name in list(grads):
            if name.startswith("backbone."):
                grads[name] = np.zeros_like(grads[name])
    optimizer.step(params, grads)
    return {"loss_cls": loss_cls, "loss_reg": loss_reg, "loss_total": loss}


def train(x: np.ndarray, intent_idx: np.ndarray, log_ber: np.ndarray,
          config: NetworkConfig, task: str = "multitask",
          epochs: int = TrainRegime.epochs, batch_size: int = TrainRegime.batch_size,
          seed: int = TrainRegime.train_seed, resume_from=None,
          max_steps: int | None = None, freeze_backbone: bool = False,
          ) -> TrainResult:
    """Train a model on in-memory arrays; see the module docstring."""
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}; expected one of {tuple(TASKS)}")
    TrainRegime(epochs, batch_size, seed)  # the regime's own check of the schedule
    n = x.shape[0]
    if n == 0:
        raise ValueError("empty training set")
    log_ber = np.asarray(log_ber, dtype=float)

    if resume_from is not None:
        model, optimizer, extras = load_model(resume_from)
        if optimizer is None:
            raise ValueError(f"{resume_from}: checkpoint has no optimizer state")
        for key, value in zip(RUN_RECORD, (task, seed, batch_size)):
            if extras.get(key, value) != value:
                raise ValueError(f"{resume_from}: the checkpoint's run has {key} "
                                 f"{extras[key]!r}, not {value!r}; resume with its settings")
    else:
        variance = float(np.var(log_ber))
        if variance > 0:
            config = replace(config, reg_label_variance=variance)
        elif task != "intent":
            raise ValueError("training labels have zero variance, so the regression "
                             "loss weight 1/(reg_amplification * variance) is undefined")
        model = he_init(config, np.random.default_rng([seed, 0]))
        optimizer = Adam(model.named_params(), config.learning_rate)
    model.check_input(x)  # also when a resume has no steps left to run
    labels = one_hot_labels(intent_idx, model.config.n_classes)

    steps_per_epoch = math.ceil(n / batch_size)
    total_steps = epochs * steps_per_epoch
    if max_steps is not None:
        total_steps = min(total_steps, optimizer.step_count + max_steps)

    log: list[dict] = []
    perm_epoch, perm = -1, None
    for step in range(optimizer.step_count, total_steps):
        epoch = step // steps_per_epoch
        if epoch != perm_epoch:
            perm = _epoch_permutation(seed, epoch, n)
            perm_epoch = epoch
        pos = step % steps_per_epoch
        idx = perm[pos * batch_size: (pos + 1) * batch_size]
        entry = train_step(model, x[idx], labels[idx], log_ber[idx],
                           optimizer, task, freeze_backbone)
        log.append({"step": step + 1, "epoch": epoch, **entry})

    return TrainResult(model=model, optimizer=optimizer, log=log, task=task,
                       seed=seed, batch_size=batch_size)


def save_result(path, result: TrainResult) -> None:
    save_model(path, result.model, result.optimizer,
               extras=dict(zip(RUN_RECORD, (result.task, result.seed, result.batch_size))))


def write_log_csv(path, log: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=LOG_FIELDS)
        writer.writeheader()
        writer.writerows(log)

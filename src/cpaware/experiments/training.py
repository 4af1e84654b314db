"""Deterministic training loops for the multitask and single-task models.

The loop is serial and fully reproducible: parameter initialization
draws from a stream derived from (seed, 0) and the epoch-e shuffle from
(seed, 1, e), so a run is a pure function of (data, config, task, seed).
Resuming from a checkpoint replays the exact remaining schedule, because
the batch order depends only on the global step counter.  A resume must
be given the task, seed, batch size, training data and network config
its checkpoint records (the data by one sha256 over the tensors' bytes
as given, fed one row at a time so the block is never copied, then the
intent indices as ``<i8`` and the log-BER labels as ``<f8``), and may
not be past its schedule: a checkpoint whose step count exceeds epochs x
steps per epoch is refused, and one at the end resumes to no step.

A step computes in the dtype of its batch (see ``net.model``): a float32
dataset trains in float32, float64 arrays in float64.  The model hands out
float64 outputs and gradients either way, so the losses, the Adam update
and the parameters are float64, the loop never names the compute dtype,
and a checkpoint's layout and dtypes do not depend on the data's dtype.

Tasks:

* ``multitask``   - both heads, combined loss,
* ``intent``      - classification head and loss only,
* ``capability``  - regression head and loss only.

Single-task runs share the architecture and every hyperparameter with
the multitask run; only the backpropagated objective differs: each task
weights the two head losses by 0 or 1 (``TASKS``).

The regression label variance is measured on the labels each run is
given, fresh or resumed, and is not stored in the network config or the
checkpoint; on the labels a run started with, a resume measures the same
float.  A task that trains no regression gives it weight 0, so only the
others refuse labels of zero variance.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import asdict, dataclass

import numpy as np

from ..net.checkpoint import RUN_RECORD, load_model, save_model
from ..net.losses import (
    focal_loss_with_logit_grad,
    mse_loss,
    regression_weight,
    total_loss,
)
from ..net.model import MultitaskNet, NetworkConfig, he_init
from ..net.optim import Adam
from ..threats import ThreatKind
from .config import TrainRegime

# Task -> weights of the (classification, regression) head losses.
TASKS = {"multitask": (1.0, 1.0), "intent": (1.0, 0.0), "capability": (0.0, 1.0)}

LOG_FIELDS = ("step", "epoch", "loss_cls", "loss_reg", "loss_total")


@dataclass
class TrainResult:
    model: MultitaskNet
    optimizer: Adam
    log: list[dict]
    record: dict  # the run's RUN_RECORD
    label_variance: float


def one_hot_labels(intent_idx: np.ndarray) -> np.ndarray:
    return np.eye(len(ThreatKind))[np.asarray(intent_idx, dtype=int)]


def _run_record(task: str, regime: TrainRegime, x: np.ndarray, intent_idx: np.ndarray,
                log_ber: np.ndarray) -> dict:
    """The ``RUN_RECORD`` of a run, which its checkpoint holds and its resume must match."""
    data = hashlib.sha256()
    for row in x:
        data.update(np.ascontiguousarray(row))  # a view of a C-ordered block: no copy
    data.update(np.asarray(intent_idx, dtype="<i8").tobytes())
    data.update(np.asarray(log_ber, dtype="<f8").tobytes())
    return dict(zip(RUN_RECORD, (task, regime.train_seed, regime.batch_size,
                                 data.hexdigest())))


def _epoch_permutation(seed: int, epoch: int, n: int) -> np.ndarray:
    return np.random.default_rng([seed, 1, epoch]).permutation(n)


def train_step(model: MultitaskNet, x: np.ndarray, intent_one_hot: np.ndarray,
               log_ber: np.ndarray, optimizer: Adam, label_variance: float,
               task: str = "multitask") -> dict:
    """One forward/backward/update; returns the step's loss entries.

    ``label_variance`` is that of the run's training labels, which sets the
    regression weight (see ``losses``).
    """
    cfg = model.config
    logits, rho_hat = model.forward(x, train=True)
    loss_cls, dlogits = focal_loss_with_logit_grad(
        intent_one_hot, logits, cfg.focal_gamma
    )
    loss_reg, dreg = mse_loss(log_ber, rho_hat)
    use_cls, use_reg = TASKS[task]
    w_reg = (use_reg * regression_weight(cfg.reg_amplification, label_variance)
             if use_reg else 0.0)
    model.backward(use_cls * dlogits, w_reg * dreg)
    loss = total_loss(use_cls * loss_cls, loss_reg, w_reg, model.kernel_sq_sum(),
                      cfg.l2_coeff)

    params = model.named_params()
    grads = model.named_grads()
    for name in model.kernel_names():
        grads[name] = grads[name] + 2.0 * cfg.l2_coeff * params[name]
    optimizer.step(params, grads)
    return {"loss_cls": loss_cls, "loss_reg": loss_reg, "loss_total": loss}


def train(x: np.ndarray, intent_idx: np.ndarray, log_ber: np.ndarray,
          config: NetworkConfig, task: str, regime: TrainRegime,
          resume_from=None) -> TrainResult:
    """Train a model on in-memory arrays; see the module docstring."""
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}; expected one of {tuple(TASKS)}")
    n = x.shape[0]
    if n == 0:
        raise ValueError("empty training set")
    log_ber = np.asarray(log_ber, dtype=float)
    label_variance = float(np.var(log_ber))
    run_record = _run_record(task, regime, x, intent_idx, log_ber)

    if resume_from is not None:
        model, optimizer, record = load_model(resume_from)
        ours = {**run_record, **asdict(config)}
        theirs = {**record, **asdict(model.config)}
        changed = [f"{k} {theirs[k]!r}, not {v!r}" for k, v in ours.items() if theirs[k] != v]
        if changed:
            raise ValueError(f"{resume_from}: the checkpoint's run has {'; '.join(changed)}; "
                             f"resume with its settings and data")
    else:
        model = he_init(config, np.random.default_rng([regime.train_seed, 0]))
        optimizer = Adam(model.named_params(), config.learning_rate)
    model.check_input(x)  # also when a resume has no steps left to run
    labels = one_hot_labels(intent_idx)

    steps_per_epoch = math.ceil(n / regime.batch_size)
    total_steps = regime.epochs * steps_per_epoch
    if optimizer.step_count > total_steps:
        raise ValueError(f"{resume_from}: the checkpoint is at step {optimizer.step_count}, "
                         f"past this run's last step {total_steps} (epochs {regime.epochs} "
                         f"x {steps_per_epoch} steps per epoch)")

    log: list[dict] = []
    perm_epoch, perm = -1, None
    for step in range(optimizer.step_count, total_steps):
        epoch = step // steps_per_epoch
        if epoch != perm_epoch:
            perm = _epoch_permutation(regime.train_seed, epoch, n)
            perm_epoch = epoch
        pos = step % steps_per_epoch
        idx = perm[pos * regime.batch_size: (pos + 1) * regime.batch_size]
        entry = train_step(model, x[idx], labels[idx], log_ber[idx], optimizer,
                           label_variance, task)
        log.append({"step": step + 1, "epoch": epoch, **entry})

    return TrainResult(model=model, optimizer=optimizer, log=log, record=run_record,
                       label_variance=label_variance)


def save_result(path, result: TrainResult) -> None:
    save_model(path, result.model, result.optimizer, result.record)


def write_log_csv(path, log: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=LOG_FIELDS)
        writer.writeheader()
        writer.writerows(log)

"""Model checkpoints, bit-exact across save/load.

A checkpoint is a ``tensorfile`` container with magic ``CPA1``.  Its
metadata is ``{"config": network config, "extras": {...}}`` and its
arrays are the trainable parameters (``param/``), the optimizer moments
(``adam_m/``, ``adam_v/``) and the batch-norm running statistics
(``state/``).  The extras are the run record (training writes ``task``,
``train_seed`` and ``batch_size``) plus the optimizer step ``adam_step``;
the optimizer's rate is the config's ``learning_rate``.  Reloading
therefore resumes training exactly where it stopped.
"""

from __future__ import annotations

from dataclasses import asdict

import numpy as np

from .. import tensorfile
from .model import MultitaskNet, NetworkConfig
from .optim import Adam

MAGIC = b"CPA1"


def write_checkpoint(path, config: dict, tensors: dict[str, np.ndarray],
                     extras: dict) -> None:
    tensorfile.write(path, MAGIC, {"config": config, "extras": extras}, tensors)


def read_checkpoint(path) -> tuple[dict, dict[str, np.ndarray], dict]:
    meta, tensors = tensorfile.read(path, MAGIC, ("config", "extras"))
    if not isinstance(meta["extras"], dict):
        raise ValueError(f"{path}: checkpoint extras must be a JSON object")
    return meta["config"], tensors, meta["extras"]


def save_model(path, model: MultitaskNet, optimizer: Adam | None = None,
               extras: dict | None = None) -> None:
    tensors = {f"param/{k}": v for k, v in model.named_params().items()}
    tensors.update({f"state/{k}": v for k, v in model.named_state().items()})
    meta = dict(extras or {})
    if optimizer is not None:
        tensors.update({f"adam_m/{k}": v for k, v in optimizer.m.items()})
        tensors.update({f"adam_v/{k}": v for k, v in optimizer.v.items()})
        meta["adam_step"] = optimizer.step_count
    write_checkpoint(path, asdict(model.config), tensors, meta)


def load_model(path) -> tuple[MultitaskNet, Adam | None, dict]:
    """Rebuild a model (and its optimizer, if saved) from a checkpoint.

    A tensor whose name the rebuilt model does not have, or whose shape
    or dtype differs from the model's, raises ValueError instead of being
    grafted into it.
    """
    config_dict, tensors, extras = read_checkpoint(path)
    config = tensorfile.from_json(NetworkConfig, config_dict)
    model = MultitaskNet(config)
    groups = {"param": model.named_params(), "state": model.named_state()}
    optimizer = None
    if "adam_step" in extras:
        step = extras["adam_step"]
        if not (isinstance(step, int) and step >= 0):
            raise ValueError(f"{path}: adam_step must be a non-negative integer, not {step!r}")
        optimizer = Adam(model.named_params(), config.learning_rate)
        optimizer.step_count = step
        groups.update(adam_m=optimizer.m, adam_v=optimizer.v)
    known = {f"{group}/{key}": value for group, table in groups.items()
             for key, value in table.items()}
    unknown = [name for name in tensors if name not in known]
    if unknown:
        raise ValueError(f"{path}: tensors the model does not have: {', '.join(unknown)}")
    for name, value in tensors.items():
        expected = known[name]
        if value.shape != expected.shape or value.dtype != expected.dtype:
            raise ValueError(
                f"{path}: tensor {name} has shape {value.shape} ({value.dtype}), "
                f"the model's has shape {expected.shape} ({expected.dtype})")
        expected[...] = value
    return model, optimizer, extras

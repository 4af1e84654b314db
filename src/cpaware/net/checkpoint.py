"""Model checkpoints, bit-exact across save/load.

A checkpoint is a ``tensorfile`` container with magic ``CPA1`` and one
layout.  Its metadata is ``{"config": network config, "extras": run
record}`` and its arrays are the trainable parameters (``param/``), the
optimizer moments (``adam_m/``, ``adam_v/``) and the batch-norm running
statistics (``state/``).  The run record is the run's ``RUN_RECORD``
(its task, seed, batch size and the sha256 of its training data) plus
the optimizer step ``adam_step``; the optimizer's rate is the config's
``learning_rate``.  Every record key and every tensor must be
present, and the seed, batch size and step must be integers, so
reloading resumes training exactly where it stopped.
"""

from __future__ import annotations

from dataclasses import asdict

import numpy as np

from .. import tensorfile
from .model import MultitaskNet, NetworkConfig
from .optim import Adam

MAGIC = b"CPA1"
# What a resume must repeat (see training._run_record).
RUN_RECORD = ("task", "train_seed", "batch_size", "data_sha256")


def write_checkpoint(path, config: dict, tensors: dict[str, np.ndarray],
                     extras: dict) -> None:
    tensorfile.write(path, MAGIC, {"config": config, "extras": extras}, tensors)


def read_checkpoint(path) -> tuple[dict, dict[str, np.ndarray], dict]:
    meta, tensors = tensorfile.read(path, MAGIC, ("config", "extras"))
    if not isinstance(meta["extras"], dict):
        raise ValueError(f"{path}: checkpoint extras must be a JSON object")
    return meta["config"], tensors, meta["extras"]


def _tensors(model: MultitaskNet, optimizer: Adam) -> dict[str, np.ndarray]:
    """The arrays of a checkpoint of ``model`` and ``optimizer``, by name, not copied."""
    groups = {"param": model.named_params(), "state": model.named_state(),
              "adam_m": optimizer.m, "adam_v": optimizer.v}
    return {f"{group}/{key}": value for group, table in groups.items()
            for key, value in table.items()}


def save_model(path, model: MultitaskNet, optimizer: Adam, record: dict) -> None:
    """Save ``model``, ``optimizer`` and the ``RUN_RECORD`` keys of ``record``."""
    extras = {**{key: record[key] for key in RUN_RECORD}, "adam_step": optimizer.step_count}
    write_checkpoint(path, asdict(model.config), _tensors(model, optimizer), extras)


def load_model(path) -> tuple[MultitaskNet, Adam, dict]:
    """Rebuild a model, its optimizer and its run record from a checkpoint.

    A record key or a tensor that is missing, a seed, batch size or step
    that is not a non-negative integer, a network config that cannot be
    built, as one too wide to allocate, a tensor the rebuilt model or
    optimizer does not have, or one whose shape or dtype differs from
    theirs, raises ValueError naming the file instead of being grafted
    into them.
    """
    config_dict, tensors, extras = read_checkpoint(path)
    config = tensorfile.from_json(NetworkConfig, config_dict)
    missing = [key for key in (*RUN_RECORD, "adam_step") if key not in extras]
    if missing:
        raise ValueError(f"{path}: the run record lacks {', '.join(missing)}")
    for key in ("train_seed", "batch_size", "adam_step"):
        if type(extras[key]) is not int or extras[key] < 0:
            raise ValueError(f"{path}: {key} must be a non-negative integer, "
                             f"not {extras[key]!r}")
    try:
        model = MultitaskNet(config)
    except ValueError as exc:  # a map the pools do not divide, or too wide to allocate
        raise ValueError(f"{path}: {exc}") from None
    optimizer = Adam(model.named_params(), config.learning_rate)
    optimizer.step_count = extras["adam_step"]
    known = _tensors(model, optimizer)
    problems = [f"{kind} tensors {', '.join(names)}" for kind, names in
                (("missing", [name for name in known if name not in tensors]),
                 ("unknown", [name for name in tensors if name not in known])) if names]
    if problems:
        raise ValueError(f"{path}: {'; '.join(problems)}")
    for name, value in tensors.items():
        expected = known[name]
        if value.shape != expected.shape or value.dtype != expected.dtype:
            raise ValueError(
                f"{path}: tensor {name} has shape {value.shape} ({value.dtype}), "
                f"the model's has shape {expected.shape} ({expected.dtype})")
        expected[...] = value
    return model, optimizer, extras

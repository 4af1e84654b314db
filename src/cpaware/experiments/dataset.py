"""Labeled dataset construction and its file.

A dataset is a ``tensorfile`` container with magic ``CPAD``.  Its
metadata is ``{"config": experiment config}`` and it holds two arrays:
``tensors``, the float32 block of normalized feature tensors, each of
``features.feature_shape(frame)``, and ``records``, the float64 array of
what generation measured of each record, one row per tensor with the
columns ``RECORD_COLUMNS``: ``raw_ber``, then the tensor's ranges in
``features.RANGE_COLUMNS`` order.

The stored config is the set's exact recipe: ``train_per_kind`` samples
of each intent in ``ThreatKind`` order, sample ``i`` seeded by
``derive_seed(master_seed, i)`` alone, so the config a file holds
rebuilds it byte for byte, gives record ``i`` its intent, the one at
position ``i // train_per_kind``, and redraws its scenario,
``config.space.draw(kind, frame, seed)``.  The reader refuses a file
whose arrays are not of those dtypes and shapes, naming both tensor
shapes if the recipe's is not the block's, or whose record count is not
the recipe's, naming both counts.  Of a record it reads ``raw_ber``
alone: the label is ``label_log_ber(raw_ber)``, so a ``raw_ber`` outside
[0, 1], NaN included, is refused, naming the record.

A build allocates the block before the first sample and writes each
sample's features straight into its row, so it holds the block once.
"""

from __future__ import annotations

from dataclasses import asdict

import numpy as np

from .. import tensorfile
from ..features import RANGE_COLUMNS, feature_shape, feature_tensor
from ..threats import ThreatKind, generate_sample, label_log_ber
from .config import ExperimentConfig

MAGIC = b"CPAD"
RECORD_COLUMNS = ("raw_ber", *RANGE_COLUMNS)


def derive_seed(master_seed: int, index: int) -> int:
    """Stable per-sample seed from the master seed and sample index."""
    words = np.random.SeedSequence((int(master_seed), int(index))).generate_state(2)
    return int(words[0]) << 32 | int(words[1])


def _kinds(config: ExperimentConfig) -> list[ThreatKind]:
    """The intent of each record of the recipe: train_per_kind of each, in intent order."""
    return [kind for kind in ThreatKind for _ in range(config.train_per_kind)]


def build_records(config: ExperimentConfig) -> tuple[np.ndarray, np.ndarray]:
    """The records and the float32 block of the set ``config`` describes."""
    kinds = _kinds(config)
    frame = config.frame
    tensors = np.empty((len(kinds), *feature_shape(frame)), dtype="<f4")
    records = np.empty((len(kinds), len(RECORD_COLUMNS)), dtype="<f8")
    for index, kind in enumerate(kinds):
        seed = derive_seed(config.master_seed, index)
        sample = generate_sample(config.space.draw(kind, frame, seed), seed)
        records[index, 0] = sample.raw_ber
        _, records[index, 1:] = feature_tensor(sample.received, frame, config.feature,
                                               out=tensors[index])
    return records, tensors


def write_dataset(path, config: ExperimentConfig, records: np.ndarray, tensors) -> None:
    tensorfile.write(path, MAGIC, {"config": asdict(config)},
                     {"records": records, "tensors": tensors})


def build_dataset(path, config: ExperimentConfig) -> int:
    """Generate and persist the dataset ``config`` describes; returns the record count."""
    records, tensors = build_records(config)
    write_dataset(path, config, records, tensors)
    return len(records)


def record_labels(config: ExperimentConfig, records: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The intent indices and log-BER labels of ``records`` by the recipe ``config``;
    a count or a ``raw_ber`` that the module docstring refuses raises ValueError."""
    kinds = _kinds(config)
    if len(records) != len(kinds):
        raise ValueError(f"the dataset holds {len(records)} records, its config makes "
                         f"{len(kinds)} ({len(ThreatKind)} intents x train_per_kind "
                         f"{config.train_per_kind})")
    raw_ber = records[:, 0]
    outside = np.flatnonzero(~((raw_ber >= 0.0) & (raw_ber <= 1.0)))  # NaN too
    if outside.size:
        i = outside[0]
        raise ValueError(f"record {i}: raw_ber {float(raw_ber[i])!r} lies outside [0, 1]")
    return (np.array([kind.value for kind in kinds], dtype=np.int64),
            np.array([label_log_ber(ber, config.frame) for ber in raw_ber.tolist()],
                     dtype=np.float64))


class Dataset:
    """Reader over the file; parses the config, derives the labels, holds the arrays."""

    def __init__(self, path):
        meta, arrays = tensorfile.read(path, MAGIC, ("config",))
        self._tensors, self._records = arrays.get("tensors"), arrays.get("records")
        if not (set(arrays) == {"records", "tensors"} and self._tensors.dtype == "<f4"
                and self._tensors.ndim == 4 and self._records.dtype == "<f8"
                and self._records.shape == (len(self._tensors), len(RECORD_COLUMNS))):
            raise ValueError(f"{path}: a dataset holds one 4-D float32 'tensors' array and "
                             f"one float64 'records' array of {len(RECORD_COLUMNS)} "
                             "columns and one row per tensor")
        self.config = tensorfile.from_json(ExperimentConfig, meta["config"])
        expected = feature_shape(self.config.frame)
        if self._tensors.shape[1:] != expected:
            raise ValueError(f"{path}: the tensors are of shape {self._tensors.shape[1:]}, "
                             f"its config makes {expected}")
        try:
            self._intents, self._log_ber = record_labels(self.config, self._records)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None

    def load_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The float32 tensor block, intent indices, log-BER labels and records
        array (held, not copies)."""
        return self._tensors, self._intents, self._log_ber, self._records

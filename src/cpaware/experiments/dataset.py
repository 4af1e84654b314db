"""Labeled dataset construction and its file.

A dataset is a ``tensorfile`` container with magic ``CPAD``.  Its
metadata is ``{"config": experiment config, "records": [record, ...]}``
and its one array, ``tensors``, is the ``(n, frames, bins, 3)`` float32
block of normalized feature tensors, in record order.

The stored config is the set's exact recipe: ``train_per_kind`` samples
of each intent in ``ThreatKind`` order, sample ``i`` seeded by
``derive_seed(master_seed, i)`` alone, so the config a file holds
rebuilds it byte for byte and gives record ``i`` its intent, the one at
position ``i // train_per_kind``.  A record holds the rest: the drawn
``legit_power_w``, ``legit_distance_m`` and ``noise_dbw`` (with an
adversary also ``adversary_power_w`` and ``adversary_distance_m``),
``raw_ber``, and the per-channel ranges ``channel_min`` and
``channel_max`` of the stored tensor.  The reader refuses a file whose
record count is not the recipe's, naming both.  Of a record it reads
``raw_ber`` alone: the label is ``label_log_ber(raw_ber)``, so a
``raw_ber`` that is missing, not an int or a float, or outside [0, 1]
is refused, naming the record.

A build allocates the block before the first sample and writes each
sample's features straight into its row, so it holds the block once.
"""

from __future__ import annotations

from dataclasses import asdict

import numpy as np

from .. import tensorfile
from ..features import feature_tensor
from ..threats import ThreatKind, generate_sample, label_log_ber
from .config import ExperimentConfig

MAGIC = b"CPAD"

_SCENARIO_STREAM = 5  # disjoint from the generator streams in threats


def derive_seed(master_seed: int, index: int) -> int:
    """Stable per-sample seed from the master seed and sample index."""
    words = np.random.SeedSequence((int(master_seed), int(index))).generate_state(2)
    return int(words[0]) << 32 | int(words[1])


def _kinds(config: ExperimentConfig) -> list[ThreatKind]:
    """The intent of each record of the recipe: train_per_kind of each, in intent order."""
    return [kind for kind in ThreatKind for _ in range(config.train_per_kind)]


def build_records(config: ExperimentConfig) -> tuple[list[dict], np.ndarray]:
    """The records and the float32 block of the set ``config`` describes."""
    kinds = _kinds(config)
    frame = config.frame
    tensors = np.empty((len(kinds), frame.n_symbols, frame.n_subcarriers, 3), dtype="<f4")
    records = []
    for index, kind in enumerate(kinds):
        seed = derive_seed(config.master_seed, index)
        rng = np.random.default_rng([seed, _SCENARIO_STREAM])
        scenario = config.space.draw(kind, frame, rng)
        sample = generate_sample(scenario, seed)
        feats = feature_tensor(sample.received, frame, config.feature)
        tensors[index] = feats.data
        link, adversary = scenario.legit_link, scenario.adversary_link
        record = {"legit_power_w": link.tx_power_w, "legit_distance_m": link.distance_m,
                  "noise_dbw": scenario.noise.variance_dbw}
        if adversary is not None:
            record.update(adversary_power_w=adversary.tx_power_w,
                          adversary_distance_m=adversary.distance_m)
        records.append({**record, "raw_ber": sample.raw_ber,
                        "channel_min": [float(v) for v in feats.channel_min],
                        "channel_max": [float(v) for v in feats.channel_max]})
    return records, tensors


def write_dataset(path, config: ExperimentConfig, records: list[dict], tensors) -> None:
    meta = {"config": asdict(config), "records": records}
    tensorfile.write(path, MAGIC, meta, {"tensors": tensors})


def build_dataset(path, config: ExperimentConfig) -> int:
    """Generate and persist the dataset ``config`` describes; returns the record count."""
    records, tensors = build_records(config)
    write_dataset(path, config, records, tensors)
    return len(records)


def record_labels(config: ExperimentConfig, records: list) -> tuple[np.ndarray, np.ndarray]:
    """The intent indices and log-BER labels of ``records`` by the recipe ``config``;
    a count or a ``raw_ber`` that the module docstring refuses raises ValueError."""
    kinds = _kinds(config)
    if len(records) != len(kinds):
        raise ValueError(f"the dataset holds {len(records)} records, its config makes "
                         f"{len(kinds)} ({len(ThreatKind)} intents x train_per_kind "
                         f"{config.train_per_kind})")
    log_ber = []
    for i, record in enumerate(records):
        raw = record.get("raw_ber") if isinstance(record, dict) else None
        if type(raw) not in (int, float):
            raise ValueError(f"record {i}: raw_ber must be an int or a float, not {raw!r}")
        try:
            log_ber.append(label_log_ber(raw, config.frame))
        except ValueError as exc:
            raise ValueError(f"record {i}: raw_ber {raw!r}: {exc}") from None
    return (np.array([kind.value for kind in kinds], dtype=np.int64),
            np.array(log_ber, dtype=np.float64))


class Dataset:
    """Reader over the file; parses the config, derives the labels, holds the float32 block."""

    def __init__(self, path):
        meta, arrays = tensorfile.read(path, MAGIC, ("config", "records"))
        self._records = meta["records"]
        self._tensors = arrays.get("tensors")
        if not (set(arrays) == {"tensors"} and self._tensors.dtype == "<f4"
                and self._tensors.ndim == 4 and isinstance(self._records, list)
                and len(self._records) == len(self._tensors)):
            raise ValueError(f"{path}: a dataset holds one 4-D float32 'tensors' "
                             "array and one metadata record per tensor")
        self.config = tensorfile.from_json(ExperimentConfig, meta["config"])
        try:
            self._intents, self._log_ber = record_labels(self.config, self._records)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None

    def load_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[dict]]:
        """The float32 tensor block, intent indices and log-BER labels (held, not
        copies) and the records."""
        return self._tensors, self._intents, self._log_ber, self._records

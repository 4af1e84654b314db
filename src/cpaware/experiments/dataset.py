"""Labeled dataset construction and its file.

A dataset is a ``tensorfile`` container with magic ``CPAD``.  Its
metadata is ``{"config": experiment config, "records": [meta, ...]}``
and its one array, ``tensors``, is the ``(n, frames, bins, 3)`` float32
block of normalized feature tensors, in record order.

Record metadata carries the intent index, both capability labels
(raw BER and floored log10 BER), the per-sample generation seed, the
drawn scenario parameters and the per-channel normalization ranges of
the stored feature tensor.  The reader rejects a record whose
``intent_index`` is not an intent's int or whose ``log_ber`` lies outside
``label_log_ber``'s range for the file's frame, [log10(1 / bits), 0].

A build allocates the block before the first sample and writes each
sample's features straight into its row, so it holds the block once.

Builds are deterministic: sample ``i`` derives its seed from
(master_seed, i) alone, so the build order (or any parallel schedule)
cannot change the file contents, and two builds from the same config and
seed are byte-identical.
"""

from __future__ import annotations

import numpy as np

from .. import tensorfile
from ..features import feature_tensor
from ..threats import ThreatKind, generate_sample, label_log_ber
from .config import ExperimentConfig

MAGIC = b"CPAD"

_SCENARIO_STREAM = 5  # disjoint from the generator streams in threats
_INTENT_INDICES = tuple(kind.value for kind in ThreatKind)


def derive_seed(master_seed: int, index: int) -> int:
    """Stable per-sample seed from the master seed and sample index."""
    words = np.random.SeedSequence((int(master_seed), int(index))).generate_state(2)
    return int(words[0]) << 32 | int(words[1])


def build_records(config: ExperimentConfig, per_kind: int,
                  master_seed: int) -> tuple[list[dict], np.ndarray]:
    """per_kind samples for each intent, in intent order: (metadata, float32 block)."""
    if per_kind <= 0:
        raise ValueError(f"per_kind (samples per intent) must be positive, not {per_kind}")
    kinds = [kind for kind in ThreatKind for _ in range(per_kind)]
    frame = config.frame
    tensors = np.empty((len(kinds), frame.n_symbols, frame.n_subcarriers, 3), dtype="<f4")
    metas = []
    for index, kind in enumerate(kinds):
        seed = derive_seed(master_seed, index)
        scenario = config.space.draw(
            kind, frame, np.random.default_rng([seed, _SCENARIO_STREAM])
        )
        sample = generate_sample(scenario, seed)
        feats = feature_tensor(sample.received, frame, config.feature)
        tensors[index] = feats.data
        metas.append({
            **sample.metadata,
            "index": index,
            "intent_index": kind.value,
            "log_ber": sample.log_ber,
            "raw_ber": sample.raw_ber,
            "channel_min": [float(v) for v in feats.channel_min],
            "channel_max": [float(v) for v in feats.channel_max],
        })
    return metas, tensors


def write_dataset(path, config: ExperimentConfig, metas: list[dict], tensors) -> None:
    meta = {"config": config.to_dict(), "records": metas}
    tensorfile.write(path, MAGIC, meta, {"tensors": tensors})


def build_dataset(path, config: ExperimentConfig, per_kind: int | None = None,
                  master_seed: int | None = None) -> int:
    """Generate and persist a dataset; returns the record count."""
    per_kind = config.train_per_kind if per_kind is None else per_kind
    master_seed = config.master_seed if master_seed is None else master_seed
    metas, tensors = build_records(config, per_kind, master_seed)
    write_dataset(path, config, metas, tensors)
    return len(metas)


class Dataset:
    """Reader over the file; parses the config and holds the float32 block."""

    def __init__(self, path):
        meta, arrays = tensorfile.read(path, MAGIC, ("config", "records"))
        self._metas = meta["records"]
        self._tensors = arrays.get("tensors")
        if not (set(arrays) == {"tensors"} and self._tensors.dtype == "<f4"
                and self._tensors.ndim == 4 and isinstance(self._metas, list)
                and len(self._metas) == len(self._tensors)):
            raise ValueError(f"{path}: a dataset holds one 4-D float32 'tensors' "
                             "array and one metadata record per tensor")
        self.config = ExperimentConfig.from_dict(meta["config"])
        floor = label_log_ber(0.0, self.config.frame)
        for i, record in enumerate(self._metas):
            if not (isinstance(record, dict)
                    and type(record.get("intent_index")) is int
                    and record["intent_index"] in _INTENT_INDICES
                    and type(record.get("log_ber")) in (int, float)
                    and floor <= record["log_ber"] <= 0):
                raise ValueError(f"{path}: record {i} needs an intent_index in "
                                 f"{_INTENT_INDICES} and a log_ber in [{floor:.6g}, 0]")

    def load_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[dict]]:
        """The float32 tensor block (not a copy), intent indices, log-BER labels, metadata."""
        return (self._tensors,
                np.array([m["intent_index"] for m in self._metas], dtype=np.int64),
                np.array([m["log_ber"] for m in self._metas], dtype=np.float64),
                self._metas)

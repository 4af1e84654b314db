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

A build allocates the records and the block in one shared anonymous
mapping before the first sample and writes each sample's features
straight into its row, so it allocates no per-record copy.  It fills the
rows on one worker per CPU the process may run on, at most one per
record; each row is a function of the config and its index alone, so
the bytes do not depend on how many workers filled them, and a failed
worker's rows are redone by the calling process rather than reported
from the worker.
"""

from __future__ import annotations

import math
import mmap
import os
import signal
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


def _worker_count(records: int) -> int:
    """Build workers: one per CPU this process may run on, at most one per
    record; one on a platform that cannot say which CPUs those are."""
    if not hasattr(os, "sched_getaffinity"):  # macOS, Windows
        return 1
    return min(len(os.sched_getaffinity(0)), records)


def _fork(fill, worker: int, workers: int) -> int:
    """Fork a worker that runs ``fill(worker, workers)``; returns its pid.

    The worker prints nothing and exits 0 once its share is filled, 1 if
    ``fill`` raised.  It never returns: it leaves by ``os._exit``, so no
    inherited buffer is flushed and no exit hook or finalizer of the
    parent runs twice.
    """
    pid = os.fork()
    if pid:
        return pid
    status = 1
    try:
        fill(worker, workers)
        status = 0
    finally:
        os._exit(status)


def build_records(config: ExperimentConfig) -> tuple[np.ndarray, np.ndarray]:
    """The records and the float32 block of the set ``config`` describes.

    Both arrays are views of one shared anonymous mapping.  ``_worker_count``
    workers fill it: worker ``w`` builds records ``w, w + K, w + 2K, ...``,
    the calling process is worker 0 and forks the other K - 1, so K = 1
    forks nothing.  Once every worker has exited, the calling process
    redoes the share of each one that exited non-zero or was killed by a
    signal, so a failure that recurs is raised here as itself, and a
    worker killed from outside costs only its rows' time.  If the calling
    process's own share raises, it kills the others first.  No worker
    outlives the call.  Each forked worker has a resident set of its own:
    at the full geometry (600x512, disk radius 15, 12 records, 2 CPUs,
    numpy 2.4.6) its peak, ``RUSAGE_CHILDREN``'s ``ru_maxrss``, read 96 MiB
    against the caller's 100 MiB; at its end 28 of its 53 MiB were its own
    pages, the rest shared with the caller.
    """
    per_kind, frame = config.train_per_kind, config.frame
    rows, columns = len(ThreatKind) * per_kind, len(RECORD_COLUMNS)
    shape = (rows, *feature_shape(frame))
    block = mmap.mmap(-1, rows * columns * 8 + math.prod(shape) * 4)
    records = np.frombuffer(block, "<f8", rows * columns).reshape(rows, columns)
    tensors = np.frombuffer(block, "<f4", offset=records.nbytes).reshape(shape)

    def fill(first: int, step: int) -> None:
        for index in range(first, rows, step):
            seed = derive_seed(config.master_seed, index)
            scenario = config.space.draw(ThreatKind(index // per_kind), frame, seed)
            sample = generate_sample(scenario, seed)
            records[index, 0] = sample.raw_ber
            _, records[index, 1:] = feature_tensor(sample.spectra, config.feature,
                                                   out=tensors[index])

    workers = _worker_count(rows)
    children: list[int] = []
    try:
        for worker in range(1, workers):
            children.append(_fork(fill, worker, workers))
        fill(0, workers)
    except BaseException:
        for pid in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        statuses = [os.waitpid(pid, 0)[1] for pid in children]
    for worker, status in enumerate(statuses, 1):
        if status:  # exited non-zero or killed by a signal
            fill(worker, workers)
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
    per_kind = config.train_per_kind
    expected = len(ThreatKind) * per_kind
    if len(records) != expected:
        raise ValueError(f"the dataset holds {len(records)} records, its config makes "
                         f"{expected} ({len(ThreatKind)} intents x train_per_kind {per_kind})")
    raw_ber = records[:, 0]
    outside = np.flatnonzero(~((raw_ber >= 0.0) & (raw_ber <= 1.0)))  # NaN too
    if outside.size:
        i = outside[0]
        raise ValueError(f"record {i}: raw_ber {float(raw_ber[i])!r} lies outside [0, 1]")
    # A ThreatKind's value is its position, so record i's intent is i // per_kind.
    return (np.arange(expected, dtype=np.int64) // per_kind,
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

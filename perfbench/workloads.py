"""The benchmark's workloads and their output-correctness gate.

Every workload drives the program through ``cpaware.cli.main`` in-process,
the entry point a user runs, plus ``Dataset(...).load_arrays()`` where
the workload reads a dataset back.  Each one is a closed loop with one
caller: the next command starts when the previous one has returned.

* ``desk_pipeline``: the paper pipeline at the desk geometry (64x64, disk
  radius 3).  Network training is most of the work.
* ``full_build``: dataset generation at the full geometry (600x512, disk
  radius 15).  Disk morphology is most of the work; the network does none.
* ``full_train``: training and grading at the full geometry, where each
  activation is far larger than the caches.  Features run only in set-up.

Set-up writes the workload's config with ``save_config`` and builds the
golden reference set (default seed, digest checked by the gate); the
full_train set-up also generates its training set.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import math
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

from cpaware import cli
from cpaware.experiments.config import ExperimentConfig, desk_config, full_scale_config, save_config
from cpaware.experiments.dataset import Dataset
from cpaware.experiments.metrics import read_rows_csv, report_from_rows
from cpaware.features import FeatureConfig
from cpaware.net.model import NetworkConfig
from cpaware.ofdm import FrameConfig

LEARNING_RATE = 1e-3  # pinned so a change of the class default moves no workload
THETA = 1e-2          # cascade gate; splits the test set between gate and classifier
REFERENCE_SEED = 1    # seed of the golden reference set
SEED_STRIDE = 1_000_000  # derived input sets use generate --seed <seed + k * this>


@dataclasses.dataclass(frozen=True)
class Sizes:
    """Per-run sizes of one workload at one scale."""

    golden_per_kind: int
    per_kind: int = 0        # training (or build) samples per intent
    test_per_kind: int = 0
    epochs: int = 0
    batch_size: int = 0


# "bench" is the measured scale; "tiny" runs every code path in seconds.
SIZES = {
    ("desk_pipeline", "bench"): Sizes(golden_per_kind=8, per_kind=16, test_per_kind=21,
                                      epochs=8, batch_size=8),
    ("full_build", "bench"): Sizes(golden_per_kind=1, per_kind=2),
    ("full_train", "bench"): Sizes(golden_per_kind=1, per_kind=2, epochs=1, batch_size=2),
    ("desk_pipeline", "tiny"): Sizes(golden_per_kind=2, per_kind=4, test_per_kind=4,
                                     epochs=1, batch_size=4),
    ("full_build", "tiny"): Sizes(golden_per_kind=2, per_kind=2),
    ("full_train", "tiny"): Sizes(golden_per_kind=2, per_kind=4, epochs=1, batch_size=2),
}


def workload_config(name: str, scale: str) -> tuple[str, ExperimentConfig]:
    """(geometry name, config) of a workload: its preset with the pinned rate."""
    if scale == "tiny":
        geometry = "tiny"
        config = ExperimentConfig(frame=FrameConfig(16, 2, 16), feature=FeatureConfig(1),
                                  net=NetworkConfig((16, 16, 3)))
    elif name == "desk_pipeline":
        geometry, config = "desk", desk_config()
    else:
        geometry, config = "full", full_scale_config()
    net = dataclasses.replace(config.net, learning_rate=LEARNING_RATE)
    return geometry, dataclasses.replace(config, net=net)


class CommandFailed(Exception):
    """A CLI call returned non-zero; the run cannot go on."""


class Gate:
    """Counts attempted and failed operations and checks."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def cli(self, *argv) -> str:
        """Run one CLI command in-process; returns its standard output."""
        argv = [str(a) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        self.attempted += 1
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        if code != 0:
            self.failures.append(f"cpaware {' '.join(argv)} exited {code}: "
                                 f"{err.getvalue().strip()}")
            raise CommandFailed(self.failures[-1])
        return out.getvalue()

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def arrays_digest(path) -> str:
    """sha256 over the float32 tensors, intent indices and log-BER labels."""
    tensors, intents, log_ber, _ = Dataset(path).load_arrays()
    h = hashlib.sha256()
    h.update(tensors.astype("<f4").tobytes())
    h.update(intents.astype("<i8").tobytes())
    h.update(log_ber.astype("<f8").tobytes())
    return h.hexdigest()


_ACCURACY = re.compile(r"intent accuracy ([0-9.]+), assessment accuracy ([0-9.]+)")
_CASCADE = re.compile(r"classifier invocations: (\d+) / (\d+) \(gated (\d+)\)")


def _losses_finite(path) -> bool:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return bool(rows) and all(math.isfinite(float(r["loss_total"])) and
                              math.isfinite(float(r["loss_cls"])) and
                              math.isfinite(float(r["loss_reg"])) for r in rows)


def _report_rows_ok(path, n) -> bool:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return len(rows) == n and all(0 <= int(r["scale"]) <= 7 for r in rows)


class Workload:
    """Set-up, one timed pass and the per-pass checks of a workload."""

    name = ""

    def __init__(self, workdir: Path, seed: int, scale: str, gate: Gate):
        self.dir = workdir
        self.seed = seed
        self.gate = gate
        self.sizes = SIZES[(self.name, scale)]
        self.geometry, self.config = workload_config(self.name, scale)
        self.config_path = workdir / "config.json"
        self.golden = workdir / "golden.cpad"
        self.setup_digests: list[str] = []
        self.pass_digests: dict[str, str] = {}
        self.quality: dict[str, float] = {}

    def generate(self, out, seed, per_kind) -> None:
        self.gate.cli("generate", "--config", self.config_path, "--seed", seed,
                      "--count-per-kind", per_kind, "--out", out)

    def setup(self) -> None:
        save_config(self.config_path, self.config)
        self.generate(self.golden, REFERENCE_SEED, self.sizes.golden_per_kind)

    def setup_files(self) -> list[Path]:
        return [self.golden]

    def record_setup(self) -> None:
        """Digest what set-up built, outside the timed set-up."""
        self.setup_digests.append(" ".join(file_digest(p) for p in self.setup_files()))

    def run_pass(self) -> None:
        raise NotImplementedError

    def check_pass(self) -> None:
        raise NotImplementedError

    def check_deterministic(self, paths) -> None:
        """Rebuilt datasets must equal the first pass's, byte for byte."""
        for path in paths:
            digest = file_digest(path)
            first = self.pass_digests.setdefault(path.name, digest)
            self.gate.check(digest == first, f"{path.name}: rebuild differs from the first pass")

    def check_setup(self, reference: dict) -> None:
        """Golden digest against the reference; every set-up built the same."""
        digest = arrays_digest(self.golden)
        expected = reference["sha256"][self.geometry]
        self.gate.check(digest == expected and reference["seed"] == REFERENCE_SEED
                        and reference["per_kind"][self.geometry] == self.sizes.golden_per_kind,
                        f"golden {self.geometry} set (seed {REFERENCE_SEED}, "
                        f"{self.sizes.golden_per_kind} per kind): sha256 {digest}, "
                        f"reference {expected}")
        self.gate.check(len(set(self.setup_digests)) <= 1,
                        "set-up builds from the same config differ")


class DeskPipeline(Workload):
    """generate train/test, train 3 models, eval, baseline, assess."""

    name = "desk_pipeline"
    MODES = ("multitask", "intent", "capability")

    def run_pass(self) -> None:
        d, s = self.dir, self.sizes
        self.generate(d / "train.cpad", self.seed, s.per_kind)
        self.generate(d / "test.cpad", self.seed + SEED_STRIDE, s.test_per_kind)
        for mode in self.MODES:
            self.gate.cli("train", "--dataset", d / "train.cpad", "--mode", mode,
                          "--out", d / f"{mode}.ckpt", "--log", d / f"{mode}.csv",
                          "--epochs", s.epochs, "--batch-size", s.batch_size)
        self.eval_out = self.gate.cli(
            "eval", "--mode", "multitask", "--dataset", d / "test.cpad",
            "--ckpt", d / "multitask.ckpt", "--rows-out", d / "eval_rows.csv")
        self.cascade_out = self.gate.cli(
            "baseline", "--dataset", d / "test.cpad", "--ckpt", d / "capability.ckpt",
            "--ckpt2", d / "intent.ckpt", "--theta", THETA,
            "--rows-out", d / "cascade_rows.csv")
        self.gate.cli("assess", "--ckpt", d / "multitask.ckpt", "--input", d / "test.cpad",
                      "--out", d / "report.csv")

    def check_pass(self) -> None:
        d, gate = self.dir, self.gate
        n_test = 3 * self.sizes.test_per_kind
        self.check_deterministic([d / "train.cpad", d / "test.cpad"])
        for mode in self.MODES:
            gate.check(_losses_finite(d / f"{mode}.csv"), f"{mode}: non-finite step loss")
        evaluated = self._check_report(self.eval_out, d / "eval_rows.csv", n_test)
        cascade = self._check_report(self.cascade_out, d / "cascade_rows.csv", n_test)
        self.quality = {"intent_accuracy": evaluated["intent_accuracy"],
                        "assessment_accuracy": evaluated["assessment_accuracy"],
                        "cascade_assessment_accuracy": cascade["assessment_accuracy"]}
        counts = _CASCADE.search(self.cascade_out)
        gated_rows = sum(int(r["gated"]) for r in read_rows_csv(d / "cascade_rows.csv"))
        gate.check(counts is not None
                   and int(counts.group(1)) + int(counts.group(3)) == int(counts.group(2)) == n_test
                   and int(counts.group(3)) == gated_rows,
                   "cascade: gated + classifier invocations != samples graded")
        gate.check(_report_rows_ok(d / "report.csv", n_test), "assess: bad report rows")

    def _check_report(self, stdout: str, rows_path: Path, n: int) -> dict:
        """Accuracies recomputed from the rows dump must match the printed report."""
        rows = read_rows_csv(rows_path)
        recomputed = report_from_rows(rows)
        printed = _ACCURACY.search(stdout)
        self.gate.check(printed is not None and len(rows) == n and all(
            abs(float(printed.group(i)) - recomputed[key]) <= 5e-5
            for i, key in ((1, "intent_accuracy"), (2, "assessment_accuracy"))),
            f"{rows_path.name}: report_from_rows disagrees with the printed report")
        return recomputed


class FullBuild(Workload):
    """generate at the full geometry, then read it back with load_arrays."""

    name = "full_build"

    def run_pass(self) -> None:
        self.generate(self.dir / "build.cpad", self.seed, self.sizes.per_kind)
        self.gate.attempted += 1
        self.arrays = Dataset(self.dir / "build.cpad").load_arrays()

    def check_pass(self) -> None:
        tensors, intents, log_ber, _ = self.arrays
        n = 3 * self.sizes.per_kind
        frame = self.config.frame
        self.check_deterministic([self.dir / "build.cpad"])
        self.gate.check(tensors.shape == (n, frame.n_symbols, frame.n_subcarriers, 3)
                        and bool(np.all(np.isfinite(tensors)))
                        and tensors.min() >= 0.0 and tensors.max() <= 1.0,
                        "full_build: tensors out of shape or range")
        self.gate.check(np.bincount(intents, minlength=3).tolist() == [self.sizes.per_kind] * 3
                        and bool(np.all(np.isfinite(log_ber))) and log_ber.max() <= 0.0,
                        "full_build: labels out of range")
        self.arrays = None


class FullTrain(Workload):
    """train --batch-size 2 at the full geometry, then assess."""

    name = "full_train"

    def setup(self) -> None:
        super().setup()
        # Training refuses labels without variance.  When all six samples of
        # a seed decode at the BER floor (seed 5 does), the workload moves on
        # to the next derived seed.
        for k in range(10):
            self.generate(self.dir / "train.cpad", self.seed + k * SEED_STRIDE,
                          self.sizes.per_kind)
            if np.var(Dataset(self.dir / "train.cpad").load_arrays()[2]) > 0:
                return
        raise ValueError("full_train: no training set with varying labels in 10 seeds")

    def setup_files(self) -> list[Path]:
        return [self.golden, self.dir / "train.cpad"]

    def run_pass(self) -> None:
        d, s = self.dir, self.sizes
        self.gate.cli("train", "--dataset", d / "train.cpad", "--mode", "multitask",
                      "--out", d / "multitask.ckpt", "--log", d / "multitask.csv",
                      "--epochs", s.epochs, "--batch-size", s.batch_size)
        self.gate.cli("assess", "--ckpt", d / "multitask.ckpt", "--input", d / "train.cpad",
                      "--out", d / "report.csv")

    def check_pass(self) -> None:
        d = self.dir
        self.gate.check(_losses_finite(d / "multitask.csv"), "full_train: non-finite step loss")
        self.gate.check(_report_rows_ok(d / "report.csv", 3 * self.sizes.per_kind),
                        "full_train: bad report rows")


WORKLOADS = {w.name: w for w in (DeskPipeline, FullBuild, FullTrain)}

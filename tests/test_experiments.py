"""Tests for dataset persistence, metric helpers, config and the CLI."""

import dataclasses
import errno
import hashlib
import io
import json
import math
import os
import re
import signal
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from cpaware import tensorfile
from cpaware.assessment import assess, unreachable_scales
from cpaware.cli import main as cli_main
from cpaware.experiments import dataset, metrics
from cpaware.experiments.config import (
    ExperimentConfig,
    TrainRegime,
    desk_config,
    full_scale_config,
    load_config,
    save_config,
)
from cpaware.experiments.dataset import (
    Dataset,
    build_dataset,
    build_records,
    derive_seed,
    record_labels,
    write_dataset,
)
from cpaware.experiments.metrics import (
    confusion_matrix,
    evaluate_multitask,
    evaluate_sequential,
    per_scale_table,
    precision_recall,
    read_rows_csv,
    report_from_rows,
    write_rows_csv,
)
from cpaware.experiments.training import save_result, train
from cpaware.features import FeatureConfig, feature_tensor
from cpaware.net.checkpoint import load_model, read_checkpoint, save_model, write_checkpoint
from cpaware.net.losses import focal_loss, mse_loss
from cpaware.net.model import MultitaskNet, NetworkConfig, he_init
from cpaware.ofdm import FrameConfig, block_spectra
from cpaware.threats import ThreatKind, label_log_ber

# The benchmark's golden-set digests, read (never written) by the tests.
REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
COVERAGE = Path(__file__).resolve().parents[1] / "configs" / "coverage.json"


def mini_config(**overrides) -> ExperimentConfig:
    """A seconds-scale config for format and CLI tests."""
    base = ExperimentConfig(
        train_per_kind=4,
        frame=FrameConfig(16, 2, 16),
        feature=FeatureConfig(1),
        net=NetworkConfig((16, 16, 3), conv_filters=(4, 8)),
    )
    return dataclasses.replace(base, **overrides)


class TestDerivedSeeds:
    def test_stable_and_distinct(self):
        assert derive_seed(1, 0) == derive_seed(1, 0)
        seeds = {derive_seed(1, i) for i in range(100)}
        assert len(seeds) == 100
        assert derive_seed(1, 0) != derive_seed(2, 0)


class TestDatasetFile:
    def test_two_builds_are_byte_identical(self, tmp_path):
        config = mini_config()
        a, b = tmp_path / "a.cpad", tmp_path / "b.cpad"
        build_dataset(a, config)
        build_dataset(b, config)
        assert a.read_bytes() == b.read_bytes()

    def test_different_seed_changes_bytes(self, tmp_path):
        a, b = tmp_path / "a.cpad", tmp_path / "b.cpad"
        build_dataset(a, mini_config(master_seed=1))
        build_dataset(b, mini_config(master_seed=2))
        assert a.read_bytes() != b.read_bytes()

    def test_roundtrip_and_balance(self, tmp_path):
        config = mini_config()
        path = tmp_path / "data.cpad"
        count = build_dataset(path, config)
        assert count == 12
        ds = Dataset(path)
        tracemalloc.start()
        try:
            tensors, intent_idx, log_ber, records = ds.load_arrays()
            allocated = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert tensors.shape == (12, 16, 16, 3) and records.shape == (12, 7)
        assert tensors.dtype == np.dtype("<f4") and records.dtype == np.dtype("<f8")
        # The held float32 block is returned as is: no float64 copy of it.
        assert allocated < tensors.size * 8
        # Balanced and positional: 4 records of each intent, in intent order.
        assert intent_idx.tolist() == [kind.value for kind in ThreatKind for _ in range(4)]
        assert np.all(log_ber <= 0)
        assert log_ber.tolist() == [label_log_ber(ber, config.frame) for ber in records[:, 0]]
        assert np.all(records[:, 1:4] <= records[:, 4:7])  # channel_min, then channel_max
        assert ds.config.frame == config.frame

    def test_pinned_arrays_digest(self, tmp_path):
        """Generation and features stay bit-exact on a non-square 16-QAM set.

        The frame is 16 symbols by 24 bins, the disk radius 4, and the
        16-QAM decisions set every log-BER label, so the disk extrema and
        the QAM slicer both feed the digest.
        """
        config = ExperimentConfig(
            master_seed=3,
            train_per_kind=2,
            frame=FrameConfig(24, 2, 16, qam_order=16),
            feature=FeatureConfig(4),
            net=NetworkConfig((16, 24, 3), conv_filters=(4,)),
        )
        path = tmp_path / "data.cpad"
        build_dataset(path, config)
        tensors, intents, log_ber, _ = Dataset(path).load_arrays()
        digest = hashlib.sha256()
        digest.update(tensors.astype("<f4").tobytes())
        digest.update(intents.astype("<i8").tobytes())
        digest.update(log_ber.astype("<f8").tobytes())
        assert digest.hexdigest() == (
            "c774ff4b367ca3e4564fa7461c4ecf564489af4ab78ff77cd9f377b4f17e93fa")

    def test_pinned_arrays_digest_at_256x256(self, tmp_path):
        """The same pin at 256 symbols by 256 bins, disk radius 6: every
        feature map spans two bands of the disk extrema."""
        config = ExperimentConfig(
            master_seed=3,
            train_per_kind=1,
            frame=FrameConfig(256, 16, 256),
            feature=FeatureConfig(6),
            net=NetworkConfig((256, 256, 3), conv_filters=(4,)),
        )
        path = tmp_path / "data.cpad"
        build_dataset(path, config)
        tensors, intents, log_ber, _ = Dataset(path).load_arrays()
        digest = hashlib.sha256()
        digest.update(tensors.astype("<f4").tobytes())
        digest.update(intents.astype("<i8").tobytes())
        digest.update(log_ber.astype("<f8").tobytes())
        assert digest.hexdigest() == (
            "e80514f08627e34e8a4ea1cb4f2a1957bc56b9acbcd7d538804ca263d0f41448")

    @pytest.mark.parametrize("geometry, preset", [("desk", desk_config),
                                                  ("full", full_scale_config)],
                             ids=["desk", "full"])
    def test_golden_reference_digest(self, tmp_path, geometry, preset):
        """The benchmark's golden sets at the desk and the full geometry (600x512,
        disk radius 15), hashed as the benchmark hashes them; the reference file
        is only read."""
        reference = json.loads(REFERENCE.read_text())
        path = tmp_path / "golden.cpad"
        build_dataset(path, preset(train_per_kind=reference["per_kind"][geometry],
                                   master_seed=reference["seed"]))
        tensors, intents, log_ber, _ = Dataset(path).load_arrays()
        digest = hashlib.sha256()
        digest.update(tensors.astype("<f4").tobytes())
        digest.update(intents.astype("<i8").tobytes())
        digest.update(log_ber.astype("<f8").tobytes())
        assert digest.hexdigest() == reference["sha256"][geometry]

    def test_pinned_file_digest(self, tmp_path):
        """The whole file of the set above is pinned too: header, config JSON,
        records array and tensors, so a change to any of them shows.  The
        stored config is the build's own, seed 3 and 2 per kind."""
        config = ExperimentConfig(
            master_seed=3,
            train_per_kind=2,
            frame=FrameConfig(24, 2, 16, qam_order=16),
            feature=FeatureConfig(4),
            net=NetworkConfig((16, 24, 3), conv_filters=(4,)),
        )
        path = tmp_path / "data.cpad"
        build_dataset(path, config)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "22b305c7c81bff6817555757206c1e8395520447ea4ef2fb055a0b7ad605dd82")

    def test_pinned_coverage_file_digest(self, tmp_path):
        """The committed coverage config at 4 per intent, whole file: 16-QAM,
        adversary powers 0.25, 0.5 and 2.0 W and noise at -55 and -58 dBW, a
        space and a constellation that the pins above leave at their defaults."""
        path = tmp_path / "coverage.cpad"
        build_dataset(path, dataclasses.replace(load_config(COVERAGE), train_per_kind=4))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "0b0fd4a4312b44a8b38fe8094dcb2cd7449583360ce351e4e382553445e05a5f")

    def test_file_of_the_record_list_layout_exits_with_data_code(self, tmp_path, capsys):
        """A file whose records are a JSON list in the metadata, as files were
        written before the records became an array, has no reader: it exits 4
        with the header's key message."""
        config = mini_config(train_per_kind=1)
        records, tensors = build_records(config)
        path = tmp_path / "old.cpad"
        tensorfile.write(path, dataset.MAGIC,
                         {"config": dataclasses.asdict(config),
                          "records": [{"raw_ber": float(row[0])} for row in records]},
                         {"tensors": tensors})
        with pytest.raises(ValueError, match=r"'meta' with keys \['config'\]"):
            Dataset(path)
        assert cli_main(["train", "--dataset", str(path),
                         "--out", str(tmp_path / "m.ckpt")]) == 4
        assert f"{path}: header must hold 'arrays' and 'meta' with keys ['config']" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("value", [
        pytest.param(math.nan, id="raw_ber=nan"),
        pytest.param(math.inf, id="raw_ber=inf"),
        pytest.param(-math.inf, id="raw_ber=-inf"),
        pytest.param(-0.5, id="raw_ber=-0.5"),
        pytest.param(1.5, id="raw_ber=1.5"),
        pytest.param(-1e200, id="raw_ber=-1e200"),
    ])
    def test_rejects_record_without_label(self, tmp_path, capsys, value):
        """A record whose raw_ber is outside [0, 1], NaN included, has no label,
        and exits 4 naming the file and the record."""
        config = mini_config(train_per_kind=1)
        records, tensors = build_records(config)
        records[1, 0] = value
        path = tmp_path / "data.cpad"
        write_dataset(path, config, records, tensors)
        with pytest.raises(ValueError, match="record 1"):
            Dataset(path)
        assert cli_main(["train", "--dataset", str(path),
                         "--out", str(tmp_path / "m.ckpt")]) == 4
        assert f"{path}: record 1: raw_ber " in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda r: r.astype("<f4"), id="f4"),
        pytest.param(lambda r: r.astype("<i8"), id="i8"),
        pytest.param(lambda r: r[:, :6], id="6_columns"),
        pytest.param(lambda r: np.hstack([r, r[:, :1]]), id="8_columns"),
        pytest.param(lambda r: r[:2], id="fewer_rows"),
        pytest.param(lambda r: r[:, 0], id="1_dimension"),
    ])
    def test_rejects_records_array_of_another_layout(self, tmp_path, capsys, edit):
        """A records array that is not float64 with 7 columns and one row per
        tensor exits 4 naming the file."""
        config = mini_config(train_per_kind=1)
        records, tensors = build_records(config)
        path = tmp_path / "data.cpad"
        write_dataset(path, config, edit(records), tensors)
        with pytest.raises(ValueError, match="float64 'records' array"):
            Dataset(path)
        assert cli_main(["train", "--dataset", str(path),
                         "--out", str(tmp_path / "m.ckpt")]) == 4
        assert f"{path}: a dataset holds" in capsys.readouterr().err

    def test_build_holds_the_block_once(self, tmp_path, monkeypatch):
        """Building and writing a desk-geometry set on one worker allocates
        under half a block: the block is the build's shared mapping, which
        tracemalloc does not see, so a build that stacked per-record copies
        would allocate a whole block more."""
        monkeypatch.setattr(dataset, "_worker_count", lambda records: 1)
        build_records(desk_config(train_per_kind=1))  # lazy imports are not the build's
        config = desk_config(train_per_kind=32)
        tracemalloc.start()
        try:
            records, tensors = build_records(config)
            write_dataset(tmp_path / "d.cpad", config, records, tensors)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert tensors.shape == (96, 64, 64, 3)
        assert peak < 0.5 * tensors.nbytes

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "bogus.cpad"
        path.write_bytes(b"JUNK" + b"\x00" * 32)
        with pytest.raises(ValueError, match="magic"):
            Dataset(path)


def no_child_left() -> bool:
    """True when this process has no child, running or exited and unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


class TestBuildWorkers:
    """build_records forks one worker per CPU, at most one per record: the
    bytes do not depend on the count, a failed worker's share is redone by
    the caller and no worker outlives the call."""

    @staticmethod
    def digest(records, tensors) -> str:
        return hashlib.sha256(records.tobytes() + tensors.tobytes()).hexdigest()

    @pytest.mark.parametrize("cpus", [1, 2, 3, 4])
    def test_same_bytes_for_any_worker_count(self, monkeypatch, cpus):
        """With 3 records, 4 CPUs fork 2 workers, not an idle third."""
        config = mini_config(train_per_kind=1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        serial = self.digest(*build_records(config))
        forks = []
        fork = os.fork

        def counted_fork():
            forks.append(os.getpid())
            return fork()

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        monkeypatch.setattr(os, "fork", counted_fork)
        assert self.digest(*build_records(config)) == serial
        assert len(forks) == min(cpus, 3) - 1
        assert no_child_left()

    def test_one_worker_where_the_cpus_are_unknown(self, monkeypatch):
        """Without sched_getaffinity the build runs on the calling process."""
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked a worker"))
        records, _ = build_records(mini_config(train_per_kind=1))
        assert len(records) == 3

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_failed_fork_closes_its_pipe(self, monkeypatch):
        """A fork that fails, as on EAGAIN, is raised and leaves no descriptor
        open."""
        def no_fork():
            raise OSError(errno.EAGAIN, "fork refused")

        monkeypatch.setattr(dataset, "_worker_count", lambda records: 2)
        monkeypatch.setattr(os, "fork", no_fork)
        before = sorted(os.listdir("/proc/self/fd"))
        with pytest.raises(OSError, match="fork refused"):
            build_records(mini_config(train_per_kind=1))
        assert sorted(os.listdir("/proc/self/fd")) == before

    def fail_at(self, monkeypatch, config, index=None, other=None, workers=2):
        """Run ``workers`` workers; record ``index`` raises ValueError and every
        other record first calls ``other`` with its own index.  Returns the
        list of the records the calling process generates, in order."""
        seeds = {derive_seed(config.master_seed, i): i for i in range(3 * config.train_per_kind)}
        generate = dataset.generate_sample
        generated = []

        def generate_or_fail(scenario, seed):
            generated.append(seeds[seed])  # a forked worker appends to its own copy
            if seeds[seed] == index:
                raise ValueError(f"record {index} cannot be generated")
            if other is not None:
                other(seeds[seed])
            return generate(scenario, seed)

        monkeypatch.setattr(dataset, "_worker_count", lambda records: workers)
        monkeypatch.setattr(dataset, "generate_sample", generate_or_fail)
        return generated

    def test_worker_failure_is_raised_in_the_caller(self, monkeypatch):
        """Record 1 is the forked worker's: the caller redoes the worker's
        share, so record 1's ValueError is raised in the caller, as itself
        and with the frame that raised it."""
        config = mini_config(train_per_kind=1)
        self.fail_at(monkeypatch, config, 1)
        with pytest.raises(ValueError, match="^record 1 cannot be generated$") as info:
            build_records(config)
        assert any(entry.name == "generate_or_fail" for entry in info.traceback)
        assert no_child_left()

    def test_callers_failure_stops_the_workers(self, monkeypatch):
        """Record 0 is the caller's own: its failure kills the worker, which is
        still asleep on record 1, instead of waiting for it."""
        config = mini_config(train_per_kind=1)
        self.fail_at(monkeypatch, config, 0, other=lambda index: time.sleep(30))
        start = time.perf_counter()
        with pytest.raises(ValueError, match="^record 0 cannot be generated$"):
            build_records(config)
        assert time.perf_counter() - start < 10
        assert no_child_left()

    def test_killed_worker_is_redone_by_the_caller(self, monkeypatch):
        """Three workers build one record each; the one on record 1 dies by a
        signal.  The caller redoes that record alone, and the bytes are the
        serial build's."""
        config = mini_config(train_per_kind=1)
        monkeypatch.setattr(dataset, "_worker_count", lambda records: 1)
        serial = self.digest(*build_records(config))
        caller = os.getpid()

        def die_in_the_worker(index):
            if index == 1 and os.getpid() != caller:
                os.kill(os.getpid(), signal.SIGKILL)

        generated = self.fail_at(monkeypatch, config, other=die_in_the_worker, workers=3)
        assert self.digest(*build_records(config)) == serial
        assert generated == [0, 1]
        assert no_child_left()


class TestConfigSerialization:
    def test_json_roundtrip(self, tmp_path):
        config = desk_config(master_seed=42, train_per_kind=7)
        path = tmp_path / "config.json"
        save_config(path, config)
        assert load_config(path) == config

    @pytest.mark.parametrize("edit, key", [
        (lambda d: d.pop("master_seed"), "master_seed"),
        (lambda d: d["net"].update(bogus=1), "bogus"),
        (lambda d: d["frame"].pop("qam_order"), "qam_order"),
        (lambda d: d["space"].update(bogus=1), "bogus"),
        (lambda d: d["regime"].pop("epochs"), "epochs"),
        # The class head is sized by the intents and the regression weight by
        # the labels, so neither setting is a config key.
        pytest.param(lambda d: d["net"].update(n_classes=3), "n_classes", id="n_classes"),
        pytest.param(lambda d: d["net"].update(reg_label_variance=1.0), "reg_label_variance",
                     id="reg_label_variance"),
        # Every conv block is a 3x3 stride-1 convolution, batch norm with its
        # defaults and a 2x2 pool, so only the filter counts are config keys.
        pytest.param(lambda d: d["net"].update(conv_blocks=[[8, 3, 1]]), "conv_blocks",
                     id="conv_blocks"),
        pytest.param(lambda d: d["net"].update(pool=2), "pool", id="pool"),
        pytest.param(lambda d: d["net"].update(bn_momentum=0.9), "bn_momentum",
                     id="bn_momentum"),
        pytest.param(lambda d: d["net"].update(bn_eps=1e-5), "bn_eps", id="bn_eps"),
    ])
    def test_missing_or_unknown_key_rejected(self, edit, key):
        data = dataclasses.asdict(desk_config())
        edit(data)
        with pytest.raises(ValueError, match=key):
            tensorfile.from_json(ExperimentConfig, data)

    @pytest.mark.parametrize("edit, key", [
        (lambda d: d["regime"].update(epochs=2.0), "epochs"),
        (lambda d: d.update(master_seed=True), "master_seed"),
        (lambda d: d["space"].update(jitter_rad="0.002"), "jitter_rad"),
        (lambda d: d["net"].update(learning_rate="0.001"), "learning_rate"),
    ])
    def test_wrong_typed_scalar_rejected(self, edit, key):
        data = dataclasses.asdict(desk_config())
        edit(data)
        with pytest.raises(ValueError, match=key):
            tensorfile.from_json(ExperimentConfig, data)

    def test_integer_accepted_for_float_field(self):
        data = dataclasses.asdict(desk_config())
        data["net"]["l2_coeff"] = 0
        assert tensorfile.from_json(ExperimentConfig, data).net.l2_coeff == 0

    @pytest.mark.parametrize("field, value, message", [
        ("conv_filters", (0,), "conv_filters"),
        ("conv_filters", (4.0,), "conv_filters"),
        ("conv_filters", (), "conv_filters"),
        ("input_shape", (16.0, 16, 3), "input_shape"),
    ])
    def test_bad_net_field_rejected(self, field, value, message):
        net = mini_config().net
        with pytest.raises(ValueError, match=message):
            mini_config(net=dataclasses.replace(net, **{field: value}))

    def test_mismatched_net_shape_rejected(self):
        with pytest.raises(ValueError, match="input_shape"):
            mini_config(net=NetworkConfig((8, 8, 3), conv_filters=(4,)))


class TestCoverageConfig:
    def test_every_grade_occurs(self):
        """The committed coverage config, built as stored (seed 11, 200 per
        intent, about 1 s), grades its true labels into all 8 scales; the desk
        set has no support at 0, 2 and 5."""
        config = load_config(COVERAGE)
        intents, log_ber = record_labels(config, build_records(config)[0])
        counts = np.bincount(assess(intents, log_ber)[1], minlength=8).tolist()
        assert counts == [66, 40, 94, 24, 176, 52, 19, 129]
        assert unreachable_scales(config.frame) == []


class TestMetricHelpers:
    def test_confusion_counts(self):
        true_idx = np.array([0, 0, 1, 2, 2, 2])
        pred_idx = np.array([0, 1, 1, 2, 2, 0])
        conf = confusion_matrix(true_idx, pred_idx, 3)
        np.testing.assert_array_equal(conf, [[1, 1, 0], [0, 1, 0], [1, 0, 2]])
        assert conf.sum(axis=1).tolist() == [2, 1, 3]

    def test_precision_recall_perfect(self):
        conf = np.diag([5, 7, 9])
        precision, recall = precision_recall(conf)
        np.testing.assert_array_equal(precision, 1.0)
        np.testing.assert_array_equal(recall, 1.0)

    def test_constant_predictor_on_balanced_classes(self):
        true_idx = np.repeat([0, 1, 2], 10)
        pred_idx = np.full(30, 2)
        conf = confusion_matrix(true_idx, pred_idx, 3)
        precision, recall = precision_recall(conf)
        assert np.mean(true_idx == pred_idx) == pytest.approx(1 / 3)
        assert np.isnan(precision[0]) and np.isnan(precision[1])
        assert precision[2] == pytest.approx(1 / 3)
        assert recall.tolist() == [0.0, 0.0, 1.0]

    def test_per_scale_flags_zero_support(self):
        true_scales = np.array([2, 2, 4, 7])
        pred_scales = np.array([2, 4, 4, 7])
        table = per_scale_table(true_scales, pred_scales)
        by_scale = {row["scale"]: row for row in table}
        assert by_scale[2]["support"] == 2
        assert by_scale[2]["recall"] == pytest.approx(0.5)
        assert by_scale[2]["accuracy"] == pytest.approx(0.5)
        # One false positive lowers accuracy below recall at scale 4.
        assert by_scale[4]["recall"] == pytest.approx(1.0)
        assert by_scale[4]["accuracy"] == pytest.approx(0.5)
        assert by_scale[0]["support"] == 0
        assert by_scale[0]["recall"] is None
        assert by_scale[0]["accuracy"] is None

    def test_all_correct_gives_full_marks(self):
        scales = np.array([0, 3, 3, 5, 7])
        table = per_scale_table(scales, scales)
        for row in table:
            if row["support"]:
                assert row["recall"] == 1.0
                assert row["accuracy"] == 1.0

    def test_true_scales_from_labels(self):
        intent_idx = np.array([2, 1, 0])
        log_ber = np.array([-1.0, -3.0, -5.0])
        np.testing.assert_array_equal(
            assess(intent_idx, log_ber)[1], [2, 3, 5]
        )

    def test_report_from_rows_matches_direct_computation(self):
        rng = np.random.default_rng(0)
        rows = []
        for i in range(60):
            true_i, pred_i = rng.integers(0, 3), rng.integers(0, 3)
            rows.append({
                "sample_id": i,
                "true_intent": str(true_i), "pred_intent": str(pred_i),
                "true_scale": str(rng.integers(0, 8)),
                "pred_scale": str(rng.integers(0, 8)),
            })
        report = report_from_rows(rows)
        true_idx = np.array([int(r["true_intent"]) for r in rows])
        pred_idx = np.array([int(r["pred_intent"]) for r in rows])
        assert report["intent_accuracy"] == pytest.approx(
            np.mean(true_idx == pred_idx), abs=1e-12
        )


def random_eval_set(n=12, seed=20):
    """Feature-shaped noise with balanced intents and log-BER labels."""
    rng = np.random.default_rng(seed)
    return (rng.normal(size=(n, 16, 16, 3)), np.arange(n) % 3,
            rng.uniform(-6.0, -1.0, size=n))


SPLIT_THETA = 1e-3


def split_gate_models(x):
    """A regressor and a classifier whose cascade at SPLIT_THETA passes some
    samples of ``x`` and stops others."""
    net = mini_config().net
    regressor = he_init(net, np.random.default_rng(22))
    classifier = he_init(net, np.random.default_rng(23))
    # Centre the regressor's predictions on log-BER -3.
    _, rho_hat = regressor.predict_batched(x)
    regressor.head_reg.params["b"] = regressor.head_reg.params["b"] - np.median(rho_hat) - 3
    return regressor, classifier


class TestEvaluation:
    @pytest.mark.parametrize("mode", ["multitask", "cascade"])
    def test_report_recomputed_from_dump(self, tmp_path, mode):
        x, intent_idx, log_ber = random_eval_set()
        if mode == "multitask":
            model = he_init(mini_config().net, np.random.default_rng(21))
            report, rows = evaluate_multitask(model, x, intent_idx, log_ber)
        else:
            regressor, model = split_gate_models(x)
            [(assessor, report, rows)] = evaluate_sequential(
                regressor, model, [SPLIT_THETA], x, intent_idx, log_ber)
            assert 0 < assessor.gated_count < len(rows)
        write_rows_csv(tmp_path / "rows.csv", rows)
        dumped = read_rows_csv(tmp_path / "rows.csv")

        recomputed = report_from_rows(dumped)
        for key in ("intent_accuracy", "assessment_accuracy", "per_scale"):
            assert report[key] == recomputed[key], key
        for key in ("intent_confusion", "intent_precision", "intent_recall"):
            np.testing.assert_array_equal(report[key], recomputed[key], err_msg=key)
        probs = np.array([[float(r["p_deceptive"]), float(r["p_disruptive"]),
                           float(r["p_non_adversarial"])] for r in dumped])
        rho_hat = np.array([float(r["pred_log_ber"]) for r in dumped])
        assert report["loss_cls"] == focal_loss(np.eye(3)[intent_idx], probs,
                                                model.config.focal_gamma)
        assert report["loss_reg"] == mse_loss(log_ber, rho_hat)[0]

    def test_sequential_gated_count_is_the_gated_column(self):
        """Each threshold's counters count its own rows, not the sweep's so far."""
        x, intent_idx, log_ber = random_eval_set(n=30, seed=24)
        thetas = [1e-2, SPLIT_THETA, 1e-4]
        results = evaluate_sequential(*split_gate_models(x), thetas, x, intent_idx, log_ber)
        assert [assessor.threshold_ber for assessor, _, _ in results] == thetas
        for assessor, report, rows in results:
            gated = sum(r["gated"] for r in rows)
            assert gated == assessor.gated_count
            assert assessor.classifier_invocations == len(rows) - gated
            assert report["assessment_accuracy"] == report_from_rows(rows)["assessment_accuracy"]
        assert 0 < results[1][0].gated_count < len(x)

    @pytest.mark.parametrize("n_theta", [1, 3])
    def test_sequential_runs_each_model_once(self, monkeypatch, n_theta):
        """One classifier pass for the whole sweep and one regressor pass per
        threshold, even when the gate splits the set: the cascade's decisions
        are a mask over both."""
        x, intent_idx, log_ber = random_eval_set(n=30, seed=24)
        regressor, classifier = split_gate_models(x)
        thetas = [SPLIT_THETA, 1e-2, 1e-4][:n_theta]
        calls = []
        predict = MultitaskNet.predict_batched

        def counted(model, tensors):
            calls.append(model)
            return predict(model, tensors)

        monkeypatch.setattr(MultitaskNet, "predict_batched", counted)
        results = evaluate_sequential(regressor, classifier, thetas, x, intent_idx, log_ber)
        assert len(calls) == 1 + len(thetas)
        assert sorted(map(id, calls)) == sorted(map(id, [classifier] + [regressor] * len(thetas)))
        assert 0 < results[0][0].gated_count < len(x)

    @pytest.mark.parametrize("thetas, calls", [(None, 2), ([SPLIT_THETA], 2),
                                               ([SPLIT_THETA, 1e-2, 1e-4], 4)],
                             ids=["multitask", "1-theta", "3-theta"])
    def test_labels_graded_once_per_evaluation(self, monkeypatch, thetas, calls):
        """The true scales are graded once per call, the predictions once per
        threshold, so a 3-threshold sweep grades 4 times, not 6."""
        x, intent_idx, log_ber = random_eval_set(n=30, seed=24)
        graded = []

        def counted(*args, **kwargs):
            graded.append(args)
            return assess(*args, **kwargs)

        monkeypatch.setattr(metrics, "assess", counted)
        if thetas is None:
            model = he_init(mini_config().net, np.random.default_rng(21))
            evaluate_multitask(model, x, intent_idx, log_ber)
        else:
            evaluate_sequential(*split_gate_models(x), thetas, x, intent_idx, log_ber)
        assert len(graded) == calls


class TestCli:
    def test_generate_train_eval_assess(self, tmp_path, capsys):
        config = mini_config()
        config_path = tmp_path / "config.json"
        save_config(config_path, config)
        data = tmp_path / "train.cpad"
        assert cli_main(["generate", "--config", str(config_path),
                         "--out", str(data)]) == 0
        assert data.read_bytes()[:4] == b"CPAD"

        ckpt = tmp_path / "model.ckpt"
        log = tmp_path / "log.csv"
        assert cli_main(["train", "--dataset", str(data), "--mode", "multitask",
                         "--out", str(ckpt), "--epochs", "2",
                         "--log", str(log)]) == 0
        assert ckpt.read_bytes()[:4] == b"CPA1"
        assert log.exists()

        assert cli_main(["eval", "--dataset", str(data), "--ckpt", str(ckpt),
                         "--mode", "multitask",
                         "--rows-out", str(tmp_path / "rows.csv")]) == 0
        out = capsys.readouterr().out
        assert "intent accuracy" in out
        assert (tmp_path / "rows.csv").exists()

        report = tmp_path / "report.csv"
        assert cli_main(["assess", "--ckpt", str(ckpt), "--input", str(data),
                         "--out", str(report)]) == 0
        assert report.read_text().startswith("sample_id,intent")

    def test_dumped_config_rebuilds_the_file(self, tmp_path):
        """The flags are folded into the config the file stores and the dump
        holds, so that config alone rebuilds the file byte for byte."""
        config, dump = tmp_path / "config.json", tmp_path / "dump.json"
        first, again = tmp_path / "first.cpad", tmp_path / "again.cpad"
        save_config(config, mini_config())
        assert cli_main(["generate", "--config", str(config), "--seed", "3",
                         "--count-per-kind", "2", "--out", str(first),
                         "--dump-config", str(dump)]) == 0
        assert Dataset(first).config == load_config(dump)
        assert len(Dataset(first).load_arrays()[3]) == 6
        assert cli_main(["generate", "--config", str(dump), "--out", str(again)]) == 0
        assert again.read_bytes() == first.read_bytes()

    def test_eval_flags_unreachable_scales(self, tmp_path, capsys):
        """A 512-bit frame floors labels at BER 1/512, above the default low_ber."""
        data, ckpt = tmp_path / "d.cpad", tmp_path / "m.ckpt"
        build_dataset(data, mini_config(train_per_kind=2))
        assert cli_main(["train", "--dataset", str(data), "--epochs", "1",
                         "--out", str(ckpt)]) == 0
        line = "  unreachable scales at this frame and thresholds: 0, 5\n"
        evals = (["eval", "--dataset", str(data), "--ckpt", str(ckpt)],
                 ["baseline", "--dataset", str(data), "--ckpt", str(ckpt), "--ckpt2", str(ckpt),
                  "--theta", "1e-2", "1e-3"])
        for argv in evals:
            capsys.readouterr()
            assert cli_main(argv) == 0
            assert capsys.readouterr().out.count(line) == 1, argv
            assert cli_main(argv + ["--low-ber", "3e-3"]) == 0
            assert "unreachable" not in capsys.readouterr().out, argv

    def test_sequential_eval_and_baseline_alias(self, tmp_path, capsys):
        data = tmp_path / "train.cpad"
        build_dataset(data, mini_config(train_per_kind=3))
        reg_ckpt = tmp_path / "reg.ckpt"
        cls_ckpt = tmp_path / "cls.ckpt"
        assert cli_main(["train", "--dataset", str(data), "--mode", "capability",
                         "--out", str(reg_ckpt), "--epochs", "1"]) == 0
        assert cli_main(["train", "--dataset", str(data), "--mode", "intent",
                         "--out", str(cls_ckpt), "--epochs", "1"]) == 0
        assert cli_main(["baseline", "--dataset", str(data), "--ckpt", str(reg_ckpt),
                         "--ckpt2", str(cls_ckpt), "--theta", "1e-2", "1e-3"]) == 0
        out = capsys.readouterr().out
        assert "classifier invocations" in out

    def test_assess_grades_a_series_alike_from_npz_and_dataset(self, tmp_path, save_untrained):
        """The .npz path rounds its features to the dataset's float32, so one
        series and one checkpoint give one report row, whichever file holds it
        (the dataset holds it first of three records, one per intent)."""
        config = mini_config(train_per_kind=1)
        rng, n = np.random.default_rng(30), config.frame.sample_len
        series = [rng.normal(size=n) + 1j * rng.normal(size=n) for _ in range(3)]
        block = np.stack([feature_tensor(block_spectra(s, config.frame), config.feature)[0]
                          for s in series])
        data, npz = tmp_path / "three.cpad", tmp_path / "one.npz"
        write_dataset(data, config, np.full((3, 7), 0.1), block.astype("<f4"))
        npz.write_bytes(_npz_bytes(samples=series[0]))
        config_path, ckpt = tmp_path / "config.json", tmp_path / "m.ckpt"
        save_config(config_path, config)
        save_untrained(ckpt, config.net, 31)
        reports = []
        for extra in (["--input", str(data)], ["--input", str(npz), "--config", str(config_path)]):
            reports.append(tmp_path / f"report{len(reports)}.csv")
            assert cli_main(["assess", "--ckpt", str(ckpt), "--out", str(reports[-1]),
                             *extra]) == 0
        rows = [report.read_text().splitlines() for report in reports]
        assert len(rows[0]) == 4 and len(rows[1]) == 2
        assert rows[0][:2] == rows[1]

    def test_assess_grades_a_record_alike_alone_or_in_a_set(self, tmp_path, save_untrained):
        """A record's report row depends only on the record and the checkpoint:
        graded among 21 records or next to two others, at any position, it is
        the same bytes (index aside).  A batched forward pass moved some
        log-BERs in their last digits."""
        config = mini_config(train_per_kind=7, master_seed=3)
        records, tensors = build_records(config)
        ckpt = tmp_path / "m.ckpt"
        save_untrained(ckpt, config.net, 32)

        def report_rows(name, per_kind, picks):
            data, report = tmp_path / f"{name}.cpad", tmp_path / f"{name}.csv"
            write_dataset(data, dataclasses.replace(config, train_per_kind=per_kind),
                          records[picks], tensors[picks])
            assert cli_main(["assess", "--ckpt", str(ckpt), "--input", str(data),
                             "--out", str(report)]) == 0
            return [row.split(",", 1)[1] for row in report.read_text().splitlines()[1:]]

        together = report_rows("all", 7, list(range(21)))
        assert len(together) == 21
        for i in range(21):
            others = [(i + 7) % 21, (i + 14) % 21]
            picks = others[:i % 3] + [i] + others[i % 3:]
            assert report_rows(f"three{i}", 1, picks)[i % 3] == together[i], i

    def test_rows_out_needs_a_single_theta(self, tmp_path):
        data = tmp_path / "d.cpad"
        build_dataset(data, mini_config(train_per_kind=2))
        x, intent_idx, log_ber, _ = Dataset(data).load_arrays()
        for task in ("capability", "intent"):
            result = train(x, intent_idx, log_ber, mini_config().net, task, TrainRegime(1, 6, 1))
            save_result(tmp_path / f"{task}.ckpt", result)
        rows = tmp_path / "rows.csv"
        args = ["baseline", "--dataset", str(data), "--ckpt", str(tmp_path / "capability.ckpt"),
                "--ckpt2", str(tmp_path / "intent.ckpt"), "--rows-out", str(rows)]
        assert cli_main(args + ["--theta", "1e-2", "1e-3"]) == 4
        assert not rows.exists()
        assert cli_main(args + ["--theta", "1e-2"]) == 0
        assert len(read_rows_csv(rows)) == 6

    def test_truncated_config_exits_with_config_code(self, tmp_path):
        path = tmp_path / "config.json"
        save_config(path, mini_config())
        path.write_text(path.read_text()[:40])
        assert cli_main(["generate", "--config", str(path),
                         "--out", str(tmp_path / "d.cpad")]) == 4

    @pytest.mark.parametrize("field, value", [
        ("legit_powers_w", "0.5"),
        ("legit_distances_m", True),
        ("adversary_powers_w", None),
        ("adversary_distances_m", [750e3]),
        ("noise_dbw_levels", "-56"),
    ])
    def test_non_numeric_value_set_exits_with_config_code(self, tmp_path, field, value):
        path = tmp_path / "config.json"
        data = dataclasses.asdict(mini_config())
        data["space"][field] = [value]
        path.write_text(json.dumps(data))
        out = tmp_path / "d.cpad"
        assert cli_main(["generate", "--config", str(path), "--out", str(out)]) == 4
        assert not out.exists()

    def test_wrong_typed_dataset_config_exits_with_data_code(self, tmp_path):
        data = tmp_path / "d.cpad"
        build_dataset(data, mini_config(train_per_kind=2))
        meta, arrays = tensorfile.read(data, b"CPAD", ("config",))
        meta["config"]["regime"]["epochs"] = 2.0
        tensorfile.write(data, b"CPAD", meta, arrays)
        assert cli_main(["train", "--dataset", str(data),
                         "--out", str(tmp_path / "x.ckpt")]) == 4

    def test_missing_file_exits_with_io_code(self, tmp_path):
        assert cli_main(["train", "--dataset", str(tmp_path / "nope.cpad"),
                         "--out", str(tmp_path / "x.ckpt")]) == 3

    def test_bad_dataset_exits_with_data_code(self, tmp_path):
        bogus = tmp_path / "bogus.cpad"
        bogus.write_bytes(b"JUNK" + b"\x00" * 16)
        assert cli_main(["train", "--dataset", str(bogus),
                         "--out", str(tmp_path / "x.ckpt")]) == 4

    def test_sequential_requires_second_checkpoint(self, tmp_path):
        data = tmp_path / "d.cpad"
        build_dataset(data, mini_config(train_per_kind=2))
        ckpt = tmp_path / "m.ckpt"
        assert cli_main(["train", "--dataset", str(data), "--out", str(ckpt),
                         "--epochs", "1"]) == 0
        assert cli_main(["eval", "--dataset", str(data), "--ckpt", str(ckpt),
                         "--mode", "sequential"]) == 4


def _npz_bytes(**arrays) -> bytes:
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    return buffer.getvalue()


def _npy_bytes(array) -> bytes:
    buffer = io.BytesIO()
    np.save(buffer, array)
    return buffer.getvalue()


def _every_dataset_reader_refuses(capsys, data, ckpt, out, message):
    """train, eval, baseline and assess of ``data`` exit 4 with ``message`` and write nothing."""
    commands = (["train", "--dataset", str(data), "--out", str(out)],
                ["eval", "--dataset", str(data), "--ckpt", str(ckpt), "--rows-out", str(out)],
                ["baseline", "--dataset", str(data), "--ckpt", str(ckpt), "--ckpt2", str(ckpt),
                 "--theta", "1e-2", "--rows-out", str(out)],
                ["assess", "--ckpt", str(ckpt), "--input", str(data), "--out", str(out)])
    for argv in commands:
        capsys.readouterr()
        assert cli_main(argv) == 4, argv
        assert message in capsys.readouterr().err, argv
        assert not out.exists(), argv


class TestCliExitCodes:
    """Bad values exit 4 (or 2 for argparse) and write nothing; never 0 or 5."""

    @pytest.fixture
    def inputs(self, tmp_path):
        data, config = tmp_path / "d.cpad", tmp_path / "config.json"
        build_dataset(data, mini_config(train_per_kind=2))
        save_config(config, mini_config())
        return {"train": ["--dataset", str(data)], "generate": ["--config", str(config)]}

    @pytest.mark.parametrize("command, flag, value, names", [
        ("train", "--epochs", "0", "epochs"),
        ("train", "--epochs", "-1", "epochs"),
        ("train", "--batch-size", "0", "batch_size"),
        ("train", "--batch-size", "-1", "batch_size"),
        ("generate", "--count-per-kind", "0", "per_kind"),
        ("generate", "--count-per-kind", "-3", "per_kind"),
        ("generate", "--seed", "-1", "master_seed"),
        ("train", "--seed", "-1", "train_seed"),
    ])
    def test_non_positive_count_exits_with_config_code(self, tmp_path, capsys, inputs,
                                                        command, flag, value, names):
        out = tmp_path / "out"
        argv = [command, *inputs[command], flag, value, "--out", str(out)]
        assert cli_main(argv) == 4
        assert names in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["train", "--dataset", "d.cpad", "--epochs", "2.5"],
        ["train", "--dataset", "d.cpad", "--batch-size", "eight"],
        ["train", "--dataset", "d.cpad", "--seed", "1e3"],
        ["generate", "--count-per-kind", "2.5"],
        ["generate", "--seed", "x"],
    ])
    def test_non_integer_value_exits_with_usage_code(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli_main(argv + ["--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "invalid int value" in capsys.readouterr().err

    @pytest.mark.parametrize("preset", ["desk", "full"])
    def test_config_with_preset_exits_with_usage_code(self, tmp_path, capsys, inputs, preset):
        """Both flags name the whole config: the pair is refused, not one ignored."""
        out = tmp_path / "new.cpad"
        with pytest.raises(SystemExit) as exc:
            cli_main(["generate", *inputs["generate"], "--preset", preset, "--out", str(out)])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err
        assert not out.exists()

    def test_bare_resume_must_repeat_the_runs_settings(self, tmp_path, capsys, inputs):
        first, resumed = tmp_path / "first.ckpt", tmp_path / "resumed.ckpt"
        train_args = ["train", *inputs["train"]]
        assert cli_main(train_args + ["--out", str(first), "--epochs", "1",
                                      "--seed", "5", "--batch-size", "8"]) == 0
        capsys.readouterr()
        assert cli_main(train_args + ["--out", str(resumed), "--epochs", "2",
                                      "--resume", str(first)]) == 4
        assert "train_seed" in capsys.readouterr().err
        assert not resumed.exists()
        assert cli_main(train_args + ["--out", str(resumed), "--epochs", "2", "--seed", "5",
                                      "--batch-size", "8", "--resume", str(first)]) == 0
        assert load_model(resumed)[1].step_count == 2

    @pytest.mark.parametrize("adam_lr", ["x", None, [1], True])
    def test_stale_adam_lr_is_ignored(self, tmp_path, inputs, adam_lr):
        """Older checkpoints stored a second learning rate; the config's is the one used."""
        ckpt = tmp_path / "m.ckpt"
        train_args = ["train", *inputs["train"], "--epochs", "1"]
        assert cli_main(train_args + ["--out", str(ckpt)]) == 0
        config, tensors, extras = read_checkpoint(ckpt)
        write_checkpoint(ckpt, config, tensors, {**extras, "adam_lr": adam_lr})
        _, optimizer, _ = load_model(ckpt)
        assert optimizer.lr == mini_config().net.learning_rate
        data = inputs["train"][1]
        assert cli_main(["assess", "--ckpt", str(ckpt), "--input", data,
                         "--out", str(tmp_path / "report.csv")]) == 0
        assert cli_main(["train", "--dataset", data, "--epochs", "2", "--resume", str(ckpt),
                         "--out", str(tmp_path / "resumed.ckpt")]) == 0

    @pytest.mark.parametrize("payload", [
        b"PK\x03\x04" + bytes(64),                          # zip magic, no archive
        b"",                                                  # empty file
        _npz_bytes(samples=np.ones(288, complex))[:300],      # truncated archive
        _npy_bytes(np.ones(288, complex)),                    # a bare .npy
        _npz_bytes(other=np.ones(288, complex)),              # no 'samples' array
        _npz_bytes(samples=np.array(["a"] * 288)),            # non-numeric samples
    ], ids=["zip-magic", "empty", "truncated", "npy", "no-samples", "strings"])
    def test_bad_npz_exits_with_data_code(self, tmp_path, inputs, save_untrained, payload):
        ckpt, npz, report = tmp_path / "m.ckpt", tmp_path / "in.npz", tmp_path / "r.csv"
        save_untrained(ckpt, mini_config().net)
        npz.write_bytes(payload)
        assert cli_main(["assess", "--ckpt", str(ckpt), "--input", str(npz),
                         "--config", inputs["generate"][1], "--out", str(report)]) == 4
        assert not report.exists()

    @pytest.mark.parametrize("make, message", [
        (lambda n: np.ones((2, n), complex), "1-D series, not an array of shape (2, "),
        (lambda n: np.full(n, np.nan + 0j), "must be finite"),
        (lambda n: np.r_[np.ones(n - 1), np.inf].astype(complex), "must be finite"),
        (lambda n: np.ones(0, complex), "one frame of 288 samples, not 0"),
        (lambda n: np.ones(100, complex), "one frame of 288 samples, not 100"),
        (lambda n: np.ones(2 * n, complex), "one frame of 288 samples, not 576"),
    ], ids=["two-series", "all-nan", "one-inf", "empty", "100-samples", "two-frames"])
    def test_npz_samples_not_one_finite_series_exit_with_data_code(
            self, tmp_path, capsys, inputs, save_untrained, make, message):
        """A 2-D 'samples' array is not flattened into one series, one that is
        not one frame long is refused with both lengths, and a non-finite one
        is refused before the features: each exits 4 with a message naming
        the file and the array."""
        ckpt, npz, report = tmp_path / "m.ckpt", tmp_path / "in.npz", tmp_path / "r.csv"
        save_untrained(ckpt, mini_config().net)
        npz.write_bytes(_npz_bytes(samples=make(mini_config().frame.sample_len)))
        assert cli_main(["assess", "--ckpt", str(ckpt), "--input", str(npz),
                         "--config", inputs["generate"][1], "--out", str(report)]) == 4
        err = capsys.readouterr().err
        assert f"{npz}: 'samples' " in err
        assert message in err
        assert not report.exists()

    def test_config_with_a_dataset_input_exits_with_data_code(self, tmp_path, capsys, inputs,
                                                              save_untrained):
        """A dataset carries its own config, so assess refuses --config for one
        rather than ignore it unopened."""
        ckpt, report = tmp_path / "m.ckpt", tmp_path / "r.csv"
        save_untrained(ckpt, mini_config().net)
        assert cli_main(["assess", "--ckpt", str(ckpt), "--input", inputs["train"][1],
                         "--config", str(tmp_path / "missing.json"),
                         "--out", str(report)]) == 4
        assert "--config is for .npz input" in capsys.readouterr().err
        assert not report.exists()

    @pytest.mark.parametrize("argv", [
        ["eval", "--dataset", "MISSING", "--ckpt", "MISSING"],
        ["baseline", "--dataset", "MISSING", "--ckpt", "MISSING", "--ckpt2", "MISSING"],
        ["assess", "--input", "MISSING", "--ckpt", "MISSING", "--out", "MISSING"],
    ], ids=["eval", "baseline", "assess"])
    def test_bad_thresholds_exit_with_data_code_before_any_file(self, tmp_path, capsys,
                                                                argv):
        """The grading thresholds are checked before a file is opened: equal
        ones exit 4 even where every file is missing, which would exit 3."""
        missing = tmp_path / "missing"
        argv = [str(missing) if arg == "MISSING" else arg for arg in argv]
        assert cli_main(argv + ["--high-ber", "1e-3", "--low-ber", "1e-3"]) == 4
        assert "low_ber < high_ber" in capsys.readouterr().err
        assert not missing.exists()

    @pytest.mark.parametrize("command", [["baseline"], ["eval", "--mode", "sequential"]],
                             ids=["baseline", "eval-sequential"])
    def test_bad_theta_exits_with_data_code_before_any_file(self, tmp_path, capsys, command):
        """A gate threshold outside (0, 1) anywhere in the sweep exits 4 while
        the dataset and both checkpoints are missing; valid ones reach the
        missing dataset and exit 3."""
        argv = command + ["--dataset", str(tmp_path / "missing.cpad"),
                          "--ckpt", str(tmp_path / "a"), "--ckpt2", str(tmp_path / "b")]
        assert cli_main(argv + ["--theta", "1e-2", "2"]) == 4
        assert "threshold_ber must lie in (0, 1), not 2.0" in capsys.readouterr().err
        assert cli_main(argv + ["--theta", "1e-2"]) == 3
        assert "missing.cpad" in capsys.readouterr().err

    def test_checkpoint_of_another_input_shape_exits_with_data_code(self, tmp_path, capsys,
                                                                    inputs):
        """A 16x16 checkpoint used on a 32x32 set: each command exits 4, writes nothing."""
        ckpt = tmp_path / "m.ckpt"
        assert cli_main(["train", *inputs["train"], "--epochs", "1", "--out", str(ckpt)]) == 0
        wide = mini_config(train_per_kind=2, frame=FrameConfig(32, 2, 32),
                           net=NetworkConfig((32, 32, 3), conv_filters=(4, 8)))
        data, config, npz = tmp_path / "wide.cpad", tmp_path / "wide.json", tmp_path / "in.npz"
        build_dataset(data, wide)
        save_config(config, wide)
        rng, n = np.random.default_rng(3), wide.frame.sample_len
        npz.write_bytes(_npz_bytes(samples=rng.normal(size=n) + 1j * rng.normal(size=n)))
        out = tmp_path / "out"
        commands = [
            # One epoch is already done, so this resume has no step left to run.
            ["train", "--dataset", str(data), "--epochs", "1", "--resume", str(ckpt), "--out"],
            ["eval", "--dataset", str(data), "--ckpt", str(ckpt), "--rows-out"],
            ["baseline", "--dataset", str(data), "--ckpt", str(ckpt), "--ckpt2", str(ckpt),
             "--theta", "0.5", "--rows-out"],
            ["assess", "--ckpt", str(ckpt), "--input", str(data), "--out"],
            ["assess", "--ckpt", str(ckpt), "--input", str(npz), "--config", str(config),
             "--out"],
        ]
        for argv in (command + [str(out)] for command in commands):
            capsys.readouterr()
            assert cli_main(argv) == 4, argv
            err = capsys.readouterr().err
            assert "(32, 32, 3)" in err and "(16, 16, 3)" in err, argv
            assert not out.exists(), argv

    @pytest.mark.parametrize("extra, classes, named", [
        ({"n_classes": 2}, 2, "n_classes"),
        ({"n_classes": 3}, 3, "n_classes"),
        ({"n_classes": 4}, 4, "n_classes"),
        ({"reg_label_variance": 1.0}, 3, "reg_label_variance"),
        ({}, 2, "head_cls.w"),
    ], ids=["n_classes=2", "n_classes=3", "n_classes=4", "reg_label_variance", "2-column-head"])
    def test_hostile_class_head_exits_with_data_code(self, tmp_path, capsys, inputs,
                                                     save_untrained, extra, classes, named):
        """A checkpoint whose config names a class count or a label variance, or
        whose class head is not one column per intent, is refused by eval,
        baseline and assess, which exit 4 naming the key or tensor and write
        nothing."""
        ckpt, out = tmp_path / "m.ckpt", tmp_path / "out"
        save_untrained(ckpt, mini_config().net)
        config, tensors, extras = read_checkpoint(ckpt)
        for name in ("param/head_cls.w", "param/head_cls.b"):
            tensors[name] = np.repeat(tensors[name][..., :1], classes, axis=-1)
        write_checkpoint(ckpt, {**config, **extra}, tensors, extras)
        data = inputs["train"][1]
        commands = (["eval", "--dataset", data, "--ckpt", str(ckpt), "--rows-out", str(out)],
                    ["baseline", "--dataset", data, "--ckpt", str(ckpt), "--ckpt2", str(ckpt),
                     "--theta", "1e-2", "--rows-out", str(out)],
                    ["assess", "--ckpt", str(ckpt), "--input", data, "--out", str(out)])
        for argv in commands:
            capsys.readouterr()
            assert cli_main(argv) == 4, argv
            assert named in capsys.readouterr().err, argv
            assert not out.exists(), argv

    @pytest.mark.parametrize("key, value", [("n_classes", 3), ("reg_label_variance", 1.0)])
    def test_legacy_dataset_config_exits_with_data_code(self, tmp_path, capsys, key, value):
        """A set written while the network config still held these keys is refused."""
        data = tmp_path / "d.cpad"
        build_dataset(data, mini_config(train_per_kind=2))
        meta, arrays = tensorfile.read(data, b"CPAD", ("config",))
        meta["config"]["net"][key] = value
        tensorfile.write(data, b"CPAD", meta, arrays)
        assert cli_main(["train", "--dataset", str(data),
                         "--out", str(tmp_path / "x.ckpt")]) == 4
        assert key in capsys.readouterr().err
        assert not (tmp_path / "x.ckpt").exists()

    def test_pre_change_files_exit_with_data_code(self, tmp_path, capsys, inputs):
        """A config, dataset or checkpoint written while the conv blocks' kernel,
        stride, pool and batch-norm settings were config keys is refused by every
        command that reads it, which exits 4 naming the keys and writes nothing."""

        def pre_change(net):
            net.update(conv_blocks=[[f, 3, 1] for f in net.pop("conv_filters")], pool=2,
                       bn_momentum=0.9, bn_eps=1e-5)

        ckpt, old_ckpt = tmp_path / "m.ckpt", tmp_path / "old.ckpt"
        old_data, old_config = tmp_path / "old.cpad", tmp_path / "old.json"
        out = tmp_path / "out"
        assert cli_main(["train", *inputs["train"], "--epochs", "1", "--out", str(ckpt)]) == 0
        net, tensors, extras = read_checkpoint(ckpt)
        pre_change(net)
        write_checkpoint(old_ckpt, net, tensors, extras)
        data = inputs["train"][1]
        meta, arrays = tensorfile.read(data, b"CPAD", ("config",))
        pre_change(meta["config"]["net"])
        tensorfile.write(old_data, b"CPAD", meta, arrays)
        old_config.write_text(json.dumps(meta["config"]))
        commands = [
            ["generate", "--config", str(old_config), "--out"],
            ["train", "--dataset", str(old_data), "--out"],
            ["train", "--dataset", data, "--epochs", "2", "--resume", str(old_ckpt), "--out"],
            ["eval", "--dataset", str(old_data), "--ckpt", str(ckpt), "--rows-out"],
            ["eval", "--dataset", data, "--ckpt", str(old_ckpt), "--rows-out"],
            ["baseline", "--dataset", str(old_data), "--ckpt", str(ckpt), "--ckpt2", str(ckpt),
             "--theta", "1e-2", "--rows-out"],
            ["baseline", "--dataset", data, "--ckpt", str(ckpt), "--ckpt2", str(old_ckpt),
             "--theta", "1e-2", "--rows-out"],
            ["assess", "--ckpt", str(ckpt), "--input", str(old_data), "--out"],
            ["assess", "--ckpt", str(old_ckpt), "--input", data, "--out"],
        ]
        for argv in (command + [str(out)] for command in commands):
            capsys.readouterr()
            assert cli_main(argv) == 4, argv
            assert ("NetworkConfig: missing keys ['conv_filters'], unknown keys "
                    "['bn_eps', 'bn_momentum', 'conv_blocks', 'pool']"
                    in capsys.readouterr().err), argv
            assert not out.exists(), argv

    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("field", ["l2_coeff", "focal_gamma", "reg_amplification",
                                       "learning_rate"])
    def test_non_finite_hyperparameter_exits_with_config_code(self, tmp_path, capsys, inputs,
                                                              save_untrained, field, value):
        """JSON's NaN and Infinity parse as floats; a config or checkpoint holding
        one is refused, where it used to train to a NaN loss or, for
        reg_amplification, to weigh the regression task 0."""
        config, out = tmp_path / "bad.json", tmp_path / "out"
        data = dataclasses.asdict(mini_config())
        data["net"][field] = value
        config.write_text(json.dumps(data))
        assert cli_main(["generate", "--config", str(config), "--out", str(out)]) == 4
        assert f"{field} must be" in capsys.readouterr().err
        assert not out.exists()

        ckpt = tmp_path / "m.ckpt"
        save_untrained(ckpt, mini_config().net)
        net, tensors, extras = read_checkpoint(ckpt)
        write_checkpoint(ckpt, {**net, field: value}, tensors, extras)
        assert cli_main(["eval", *inputs["train"], "--ckpt", str(ckpt),
                         "--rows-out", str(out)]) == 4
        assert f"{field} must be" in capsys.readouterr().err
        assert not out.exists()

    def test_huge_count_in_header_exits_before_allocating(self, tmp_path):
        """A 3-record file whose header says train_per_kind 10**9 is refused by
        its count in a 2 GiB address space; a list of every record's intent
        used to exhaust it first and exit 5."""
        resource = pytest.importorskip("resource")

        config = mini_config(train_per_kind=1)
        data, out = tmp_path / "huge.cpad", tmp_path / "out"
        write_dataset(data, dataclasses.replace(config, train_per_kind=10**9),
                      *build_records(config))
        limit = 2 << 30
        src = str(Path(tensorfile.__file__).parents[1])
        # One BLAS thread, so its per-thread buffers fit on a runner of many cores.
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
        run = subprocess.run(
            [sys.executable, "-m", "cpaware.cli", "train", "--dataset", str(data),
             "--out", str(out)],
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
            env=env, capture_output=True, text=True, timeout=120)
        assert run.returncode == 4, run.stderr
        assert f"{data}: the dataset holds 3 records, its config makes 3000000000" in run.stderr
        assert not out.exists()

    def test_network_too_wide_to_allocate_exits_with_config_code(self, tmp_path, capsys,
                                                                  save_untrained):
        """A block of 10**15 filters needs 512 PiB of kernel, which numpy
        cannot allocate; a dataset header or a checkpoint naming it is
        refused, naming conv_filters, where both used to exit 5."""
        wide = [4, 8, 10**15]
        data, ckpt, out = tmp_path / "wide.cpad", tmp_path / "m.ckpt", tmp_path / "out"
        config = mini_config(train_per_kind=1)
        build_dataset(data, dataclasses.replace(
            config, net=dataclasses.replace(config.net, conv_filters=tuple(wide))))
        assert cli_main(["train", "--dataset", str(data), "--out", str(out)]) == 4
        assert f"conv_filters {wide}: a block of {10**15} filters" in capsys.readouterr().err
        assert not out.exists()

        save_untrained(ckpt, config.net)
        net, tensors, extras = read_checkpoint(ckpt)
        write_checkpoint(ckpt, {**net, "conv_filters": wide}, tensors, extras)
        assert cli_main(["assess", "--ckpt", str(ckpt), "--input", str(data),
                         "--out", str(out)]) == 4
        assert f"{ckpt}: conv_filters {wide}" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_record_dataset_exits_with_data_code(self, tmp_path, capsys, save_untrained):
        """A dataset of no records is refused when it is opened, naming the file
        and both counts; eval, baseline and assess used to exit with NumPy's
        concatenate error."""
        data, ckpt, out = tmp_path / "empty.cpad", tmp_path / "m.ckpt", tmp_path / "out"
        write_dataset(data, mini_config(), np.empty((0, 7)), np.empty((0, 16, 16, 3), "<f4"))
        save_untrained(ckpt, mini_config().net)
        message = f"{data}: the dataset holds 0 records, its config makes 12"
        with pytest.raises(ValueError, match="holds 0 records, its config makes 12"):
            Dataset(data)
        _every_dataset_reader_refuses(capsys, data, ckpt, out, message)

    def test_tensors_of_another_shape_than_the_recipe_exit_with_data_code(
            self, tmp_path, capsys, save_untrained):
        """A block of (8, 8, 3) tensors under a 16x16 recipe is refused when it
        is opened, naming the file and both shapes; it used to load, and the
        commands exited only through the model's input-shape message, which
        names no file."""
        data, ckpt, out = tmp_path / "small.cpad", tmp_path / "m.ckpt", tmp_path / "out"
        config = mini_config(train_per_kind=2)
        write_dataset(data, config, build_records(config)[0], np.zeros((6, 8, 8, 3), "<f4"))
        save_untrained(ckpt, config.net)
        message = f"{data}: the tensors are of shape (8, 8, 3), its config makes (16, 16, 3)"
        with pytest.raises(ValueError, match=re.escape(message)):
            Dataset(data)
        _every_dataset_reader_refuses(capsys, data, ckpt, out, message)

    def test_record_count_other_than_the_recipe_exits_with_data_code(self, tmp_path, capsys,
                                                                    save_untrained):
        """A header whose train_per_kind misstates its record count, as one of
        4 per intent over the 6 records of 2 per intent, is refused by every
        command that reads a dataset, naming the file and both counts; it used
        to load, and train took the 6 records for the 12 its config made."""
        data, ckpt, out = tmp_path / "six.cpad", tmp_path / "m.ckpt", tmp_path / "out"
        records, tensors = build_records(mini_config(train_per_kind=2))
        write_dataset(data, mini_config(), records, tensors)
        save_untrained(ckpt, mini_config().net)
        message = (f"{data}: the dataset holds 6 records, its config makes 12 "
                   "(3 intents x train_per_kind 4)")
        _every_dataset_reader_refuses(capsys, data, ckpt, out, message)

    @pytest.mark.parametrize("field, value", [
        ("jitter_rad", math.nan), ("wavelength_m", math.inf), ("tx_aperture_m", math.nan),
        ("rx_aperture_m", math.inf), ("divergence_rad", math.nan), ("jitter_rad", math.inf),
    ])
    def test_non_finite_optics_exit_with_config_code(self, tmp_path, capsys, field, value):
        """A space whose optics are NaN or inf is refused before any sample is
        built; the build used to warn from the OFDM code and then fail on a
        non-finite matrix without naming the field."""
        config, out = tmp_path / "bad.json", tmp_path / "out"
        data = dataclasses.asdict(mini_config())
        data["space"][field] = value
        config.write_text(json.dumps(data))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli_main(["generate", "--config", str(config), "--out", str(out)]) == 4
        assert caught == []
        assert field in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("section, key", [(None, "master_seed"), ("regime", "train_seed")],
                             ids=["master_seed", "regime.train_seed"])
    def test_negative_seed_key_exits_with_config_code(self, tmp_path, capsys, section, key):
        """A negative seed in a config exits 4 naming its key, not with NumPy's
        seeding error (the --seed flags are cases of the non-positive test)."""
        config, out = tmp_path / "bad.json", tmp_path / "out"
        data = dataclasses.asdict(mini_config())
        (data[section] if section else data)[key] = -1
        config.write_text(json.dumps(data))
        assert cli_main(["generate", "--config", str(config), "--out", str(out)]) == 4
        assert f"{key} must be non-negative" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("adversary_powers_w", [-1.0]), ("adversary_distances_m", [0.0]),
        ("legit_powers_w", [0.5, -1.0]), ("legit_distances_m", [750e3, 0.0]),
        ("obfuscation_prob", 2.0), ("obfuscation_prob", math.nan),
        ("estimation_error", -0.5), ("tx_efficiency", 0.0),
        ("noise_dbw_levels", [-56.0, -4000.0]), ("noise_dbw_levels", [4000.0]),
    ], ids=["adversary_power=-1", "adversary_distance=0", "second_legit_power=-1",
            "second_legit_distance=0", "obfuscation_prob=2", "obfuscation_prob=nan",
            "estimation_error=-0.5", "tx_efficiency=0", "noise_dbw=-4000", "noise_dbw=4000"])
    def test_bad_space_value_exits_before_the_build(self, tmp_path, capsys, monkeypatch,
                                                    key, value):
        """Every value a draw would refuse is refused when the config loads, named
        by its key; no sample is generated.  A bad power or distance used to
        stop the build part-way with a LinkBudget field's name, a later entry
        passed the load check, and a bad fraction failed only at the first draw."""
        config, out = tmp_path / "bad.json", tmp_path / "out"
        data = dataclasses.asdict(mini_config())
        data["space"][key] = value
        config.write_text(json.dumps(data))
        generated = []
        monkeypatch.setattr(dataset, "generate_sample", lambda *a: generated.append(a))
        assert cli_main(["generate", "--config", str(config), "--out", str(out)]) == 4
        assert f"space.{key}" in capsys.readouterr().err
        assert generated == [] and not out.exists()

    def test_checkpoint_must_have_trained_the_heads_read(self, tmp_path, capsys, inputs):
        """The cascade's regressor must have trained regression and its classifier
        classification, and assess needs both; each refusal exits 4 naming the
        path and the task.  ``eval --mode multitask`` reads any run, and a
        checkpoint with no task record is refused everywhere (it used to pass)."""
        data, out = inputs["train"][1], tmp_path / "out"
        ckpts = {}
        for task in ("intent", "capability", "multitask"):
            ckpts[task] = tmp_path / f"{task}.ckpt"
            assert cli_main(["train", *inputs["train"], "--mode", task, "--epochs", "1",
                             "--out", str(ckpts[task])]) == 0
        ckpts["unrecorded"] = tmp_path / "unrecorded.ckpt"
        config, tensors, record = read_checkpoint(ckpts["multitask"])
        del record["task"]
        write_checkpoint(ckpts["unrecorded"], config, tensors, record)

        def cascade(regressor, classifier):
            return ["baseline", "--dataset", data, "--ckpt", str(ckpts[regressor]),
                    "--ckpt2", str(ckpts[classifier]), "--theta", "1e-2", "--rows-out"]

        def assess_with(task):
            return ["assess", "--ckpt", str(ckpts[task]), "--input", data, "--out"]

        def eval_with(task):
            return ["eval", "--dataset", data, "--ckpt", str(ckpts[task]), "--rows-out"]

        refused = [(cascade("intent", "capability"), "intent"),
                   (cascade("capability", "capability"), "capability"),
                   (cascade("intent", "intent"), "intent"),
                   (assess_with("capability"), "capability"),
                   (assess_with("intent"), "intent")]
        for argv, task in refused:
            capsys.readouterr()
            assert cli_main(argv + [str(out)]) == 4, argv
            assert f"{ckpts[task]}: the checkpoint's run trained task '{task}'" in (
                capsys.readouterr().err), argv
            assert not out.exists(), argv
        for argv in (cascade("unrecorded", "unrecorded"), assess_with("unrecorded"),
                     eval_with("unrecorded")):
            capsys.readouterr()
            assert cli_main(argv + [str(out)]) == 4, argv
            assert f"{ckpts['unrecorded']}: the run record lacks task" in (
                capsys.readouterr().err), argv
            assert not out.exists(), argv
        passed = [cascade("capability", "intent"), cascade("multitask", "multitask"),
                  assess_with("multitask"), eval_with("intent")]
        for argv in passed:
            assert cli_main(argv + [str(out)]) == 0, argv
            out.unlink()

    @pytest.mark.parametrize("prefix", ["param/head_reg.w", "adam_m/"])
    def test_checkpoint_missing_a_tensor_exits_with_data_code(self, tmp_path, capsys, inputs,
                                                              prefix):
        """A checkpoint without one of its model's or optimizer's tensors is
        refused, naming what is missing; it used to load with the tensor left
        at zero, and assess graded every sample from the head's bias alone."""
        ckpt, report = tmp_path / "m.ckpt", tmp_path / "report.csv"
        assert cli_main(["train", *inputs["train"], "--epochs", "1", "--out", str(ckpt)]) == 0
        config, tensors, record = read_checkpoint(ckpt)
        write_checkpoint(ckpt, config, {name: value for name, value in tensors.items()
                                        if not name.startswith(prefix)}, record)
        with pytest.raises(ValueError, match=f"missing tensors {prefix}"):
            load_model(ckpt)
        capsys.readouterr()
        assert cli_main(["assess", "--ckpt", str(ckpt), "--input", inputs["train"][1],
                         "--out", str(report)]) == 4
        assert f"missing tensors {prefix}" in capsys.readouterr().err
        assert not report.exists()

    @pytest.mark.parametrize("key", ["task", "train_seed", "batch_size", "data_sha256",
                                     "adam_step"])
    def test_checkpoint_without_run_record_exits_with_data_code(self, tmp_path, capsys, inputs,
                                                                key):
        """Every command that reads a checkpoint refuses one whose run record
        lacks a key, naming it, and writes nothing."""
        ckpt, out = tmp_path / "m.ckpt", tmp_path / "out"
        train_args = ["train", *inputs["train"], "--seed", "5", "--batch-size", "8"]
        assert cli_main(train_args + ["--epochs", "1", "--out", str(ckpt)]) == 0
        config, tensors, record = read_checkpoint(ckpt)
        del record[key]
        write_checkpoint(ckpt, config, tensors, record)
        data = inputs["train"][1]
        commands = [train_args + ["--epochs", "2", "--resume", str(ckpt), "--out"],
                    ["eval", "--dataset", data, "--ckpt", str(ckpt), "--rows-out"],
                    ["baseline", "--dataset", data, "--ckpt", str(ckpt), "--ckpt2", str(ckpt),
                     "--theta", "1e-2", "--rows-out"],
                    ["assess", "--ckpt", str(ckpt), "--input", data, "--out"]]
        for argv in (command + [str(out)] for command in commands):
            capsys.readouterr()
            assert cli_main(argv) == 4, argv
            assert f"{ckpt}: the run record lacks {key}" in capsys.readouterr().err, argv
            assert not out.exists(), argv

    def test_resume_with_another_network_config_exits_with_data_code(self, tmp_path, capsys,
                                                                     inputs):
        """A resume on a set whose network config differs from the checkpoint's
        exits 4 naming each field with both values; it used to train on with
        the checkpoint's config, unlike an uninterrupted run on that set."""
        ckpt, other, out = tmp_path / "m.ckpt", tmp_path / "b.cpad", tmp_path / "out"
        assert cli_main(["train", *inputs["train"], "--epochs", "1", "--out", str(ckpt)]) == 0
        net = dataclasses.replace(mini_config().net, learning_rate=0.5, focal_gamma=0.0)
        build_dataset(other, mini_config(train_per_kind=2, net=net))
        capsys.readouterr()
        assert cli_main(["train", "--dataset", str(other), "--epochs", "2",
                         "--resume", str(ckpt), "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert "learning_rate 0.001, not 0.5" in err and "focal_gamma 2.0, not 0.0" in err
        assert not out.exists()

    def test_resume_on_other_labels_exits_with_data_code(self, tmp_path, capsys, inputs):
        """A resume on a set of other labels, even one of the same size and
        network config, exits 4 naming the labels' digest; it used to train on
        the new labels with the checkpoint's weights and step count."""
        ckpt, other, out = tmp_path / "m.ckpt", tmp_path / "b.cpad", tmp_path / "out"
        assert cli_main(["train", *inputs["train"], "--epochs", "1", "--out", str(ckpt)]) == 0
        build_dataset(other, mini_config(train_per_kind=2, master_seed=2))
        resume = ["--epochs", "2", "--resume", str(ckpt), "--out", str(out)]
        capsys.readouterr()
        assert cli_main(["train", "--dataset", str(other), *resume]) == 4
        assert f"{ckpt}: the checkpoint's run has data_sha256 '" in capsys.readouterr().err
        assert not out.exists()
        assert cli_main(["train", *inputs["train"], *resume]) == 0

    def test_resume_on_other_feature_maps_exits_with_data_code(self, tmp_path, capsys, inputs):
        """A set rebuilt with another disk radius has the same labels and network
        config but other feature maps; a resume on it exits 4 naming the data's
        digest.  It used to train on with the checkpoint's weights."""
        ckpt, other, out = tmp_path / "m.ckpt", tmp_path / "r2.cpad", tmp_path / "out"
        assert cli_main(["train", *inputs["train"], "--epochs", "1", "--out", str(ckpt)]) == 0
        build_dataset(other, mini_config(train_per_kind=2, feature=FeatureConfig(2)))
        assert Dataset(other).load_arrays()[2].tobytes() == (
            Dataset(inputs["train"][1]).load_arrays()[2].tobytes())
        capsys.readouterr()
        assert cli_main(["train", "--dataset", str(other), "--epochs", "2",
                         "--resume", str(ckpt), "--out", str(out)]) == 4
        assert f"{ckpt}: the checkpoint's run has data_sha256 '" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("adam_step", True), ("adam_step", 1.0), ("adam_step", -1), ("train_seed", "5"),
        ("train_seed", False), ("batch_size", 8.0), ("batch_size", None),
    ], ids=["adam_step=true", "adam_step=1.0", "adam_step=-1", "train_seed='5'",
            "train_seed=false", "batch_size=8.0", "batch_size=null"])
    def test_checkpoint_with_a_non_integer_record_field_exits_with_data_code(
            self, tmp_path, capsys, inputs, key, value):
        """The seed, batch size and optimizer step of a run record must be
        non-negative integers; a JSON true used to load as step 1."""
        ckpt, out = tmp_path / "m.ckpt", tmp_path / "out"
        assert cli_main(["train", *inputs["train"], "--epochs", "1", "--out", str(ckpt)]) == 0
        config, tensors, record = read_checkpoint(ckpt)
        write_checkpoint(ckpt, config, tensors, {**record, key: value})
        capsys.readouterr()
        assert cli_main(["eval", *inputs["train"], "--ckpt", str(ckpt),
                         "--rows-out", str(out)]) == 4
        assert f"{ckpt}: {key} must be a non-negative integer, not {value!r}" in (
            capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--ckpt2", "CKPT"], ["--theta", "0.5"],
                                       ["--ckpt2", "CKPT", "--theta", "0.5"]],
                             ids=["ckpt2", "theta", "both"])
    def test_sequential_flags_in_multitask_eval_exit_with_data_code(
            self, tmp_path, capsys, inputs, save_untrained, flags):
        """Multitask eval reads one checkpoint and no gate, so --ckpt2 and --theta
        are refused, naming the flag; they used to be ignored with exit 0."""
        ckpt, out = tmp_path / "m.ckpt", tmp_path / "out"
        save_untrained(ckpt, mini_config().net)
        flags = [str(ckpt) if flag == "CKPT" else flag for flag in flags]
        assert cli_main(["eval", *inputs["train"], "--ckpt", str(ckpt), *flags,
                         "--rows-out", str(out)]) == 4
        assert f"--{flags[0][2:]} is for sequential mode" in capsys.readouterr().err
        assert not out.exists()

    def test_resume_past_the_schedule_exits_with_data_code(self, tmp_path, capsys, inputs):
        """A checkpoint past the run's last step is refused, naming both steps;
        one at the last step resumes to no step, reports no loss and saves the
        same bytes."""
        ckpt, out = tmp_path / "m.ckpt", tmp_path / "out.ckpt"
        train_args = ["train", *inputs["train"], "--resume", str(ckpt), "--out", str(out)]
        assert cli_main(["train", *inputs["train"], "--epochs", "2", "--out", str(ckpt)]) == 0
        capsys.readouterr()
        assert cli_main(train_args + ["--epochs", "1"]) == 4
        assert "at step 2, past this run's last step 1" in capsys.readouterr().err
        assert not out.exists()
        assert cli_main(train_args + ["--epochs", "2"]) == 0
        printed = capsys.readouterr().out
        assert "for 0 steps" in printed and "loss" not in printed
        assert out.read_bytes() == ckpt.read_bytes()

    def test_diverged_checkpoint_grades_overflowing_ber_high(self, tmp_path, capsys, inputs):
        """A log-BER head biased to 1000 overflows ``10.0 ** x``: the BER is inf (a
        high BER), and eval, baseline and assess exit 0 with nothing on stderr."""
        ckpt, report = tmp_path / "m.ckpt", tmp_path / "report.csv"
        assert cli_main(["train", *inputs["train"], "--epochs", "1", "--out", str(ckpt)]) == 0
        model, optimizer, record = load_model(ckpt)
        model.head_reg.params["b"][...] = 1000.0
        save_model(ckpt, model, optimizer, record)
        data = inputs["train"][1]
        commands = (["eval", "--dataset", data, "--ckpt", str(ckpt)],
                    ["baseline", "--dataset", data, "--ckpt", str(ckpt), "--ckpt2", str(ckpt)],
                    ["assess", "--ckpt", str(ckpt), "--input", data, "--out", str(report)])
        for argv in commands:
            capsys.readouterr()
            assert cli_main(argv) == 0, argv
            assert capsys.readouterr().err == "", argv
        rows = report.read_text().splitlines()[1:]
        assert len(rows) == 6 and all(row.endswith(",inf") for row in rows)

    def test_failed_build_writes_no_config(self, tmp_path, inputs):
        dump, out = tmp_path / "dump.json", tmp_path / "new.cpad"
        argv = ["generate", *inputs["generate"], "--out", str(out), "--dump-config", str(dump)]
        assert cli_main(argv + ["--count-per-kind", "0"]) == 4
        assert not dump.exists() and not out.exists()
        assert cli_main(argv + ["--count-per-kind", "1", "--seed", "9"]) == 0
        assert load_config(dump) == dataclasses.replace(mini_config(), master_seed=9,
                                                        train_per_kind=1)

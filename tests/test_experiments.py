"""Tests for dataset persistence, metric helpers, config and the CLI."""

import dataclasses
import hashlib
import io
import json
import math
import tracemalloc

import numpy as np
import pytest

from cpaware import tensorfile
from cpaware.assessment import assess
from cpaware.cli import main as cli_main
from cpaware.experiments.config import (
    ExperimentConfig,
    desk_config,
    load_config,
    save_config,
)
from cpaware.experiments.dataset import (
    Dataset,
    build_dataset,
    build_records,
    derive_seed,
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
from cpaware.features import EXTREMA_THREAD_PIXELS, FeatureConfig, feature_tensor
from cpaware.net import (
    MultitaskNet,
    NetworkConfig,
    focal_loss,
    he_init,
    load_model,
    mse_loss,
    read_checkpoint,
    save_model,
    write_checkpoint,
)
from cpaware.ofdm import FrameConfig
from cpaware.threats import ThreatKind


def mini_config(**overrides) -> ExperimentConfig:
    """A seconds-scale config for format and CLI tests."""
    base = ExperimentConfig(
        train_per_kind=4,
        frame=FrameConfig(16, 2, 16),
        feature=FeatureConfig(1),
        net=NetworkConfig((16, 16, 3), conv_blocks=((4, 3, 1), (8, 3, 1))),
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
        build_dataset(a, config, per_kind=3)
        build_dataset(b, config, per_kind=3)
        assert a.read_bytes() == b.read_bytes()

    def test_different_seed_changes_bytes(self, tmp_path):
        config = mini_config()
        a, b = tmp_path / "a.cpad", tmp_path / "b.cpad"
        build_dataset(a, config, per_kind=2, master_seed=1)
        build_dataset(b, config, per_kind=2, master_seed=2)
        assert a.read_bytes() != b.read_bytes()

    def test_roundtrip_and_balance(self, tmp_path):
        config = mini_config()
        path = tmp_path / "data.cpad"
        count = build_dataset(path, config, per_kind=4)
        assert count == 12
        ds = Dataset(path)
        tracemalloc.start()
        try:
            tensors, intent_idx, log_ber, metas = ds.load_arrays()
            allocated = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert tensors.shape == (12, 16, 16, 3) and len(metas) == 12
        assert tensors.dtype == np.dtype("<f4")
        # The held float32 block is returned as is: no float64 copy of it.
        assert allocated < tensors.size * 8
        for kind in ThreatKind:
            assert int(np.sum(intent_idx == kind.value)) == 4
        assert np.all(log_ber <= 0)
        assert metas[5]["index"] == 5
        assert "channel_min" in metas[5] and "channel_max" in metas[5]
        assert ds.config.frame == config.frame

    def test_pinned_arrays_digest(self, tmp_path):
        """Generation and features stay bit-exact on a non-square 16-QAM set.

        The frame is 16 symbols by 24 bins, the disk radius 4, and the
        16-QAM decisions set every log-BER label, so the disk extrema and
        the QAM slicer both feed the digest.
        """
        config = ExperimentConfig(
            frame=FrameConfig(24, 2, 16, qam_order=16),
            feature=FeatureConfig(4),
            net=NetworkConfig((16, 24, 3), conv_blocks=((4, 3, 1),)),
        )
        path = tmp_path / "data.cpad"
        build_dataset(path, config, per_kind=2, master_seed=3)
        tensors, intents, log_ber, _ = Dataset(path).load_arrays()
        digest = hashlib.sha256()
        digest.update(tensors.astype("<f4").tobytes())
        digest.update(intents.astype("<i8").tobytes())
        digest.update(log_ber.astype("<f8").tobytes())
        assert digest.hexdigest() == (
            "c774ff4b367ca3e4564fa7461c4ecf564489af4ab78ff77cd9f377b4f17e93fa")

    def test_pinned_arrays_digest_above_thread_gate(self, tmp_path):
        """The same pin at 256 symbols by 256 bins, disk radius 6: every
        feature map has EXTREMA_THREAD_PIXELS pixels, so the disk extrema
        take the two-thread path.  Recorded from the one-thread code."""
        config = ExperimentConfig(
            frame=FrameConfig(256, 16, 256),
            feature=FeatureConfig(6),
            net=NetworkConfig((256, 256, 3), conv_blocks=((4, 3, 1),)),
        )
        path = tmp_path / "data.cpad"
        build_dataset(path, config, per_kind=1, master_seed=3)
        tensors, intents, log_ber, _ = Dataset(path).load_arrays()
        assert tensors.shape[1] * tensors.shape[2] >= EXTREMA_THREAD_PIXELS
        digest = hashlib.sha256()
        digest.update(tensors.astype("<f4").tobytes())
        digest.update(intents.astype("<i8").tobytes())
        digest.update(log_ber.astype("<f8").tobytes())
        assert digest.hexdigest() == (
            "e80514f08627e34e8a4ea1cb4f2a1957bc56b9acbcd7d538804ca263d0f41448")

    def test_pinned_file_digest(self, tmp_path):
        """The whole file of the set above is pinned too: header, config JSON,
        record metadata and tensors, so a change to any of them shows."""
        config = ExperimentConfig(
            frame=FrameConfig(24, 2, 16, qam_order=16),
            feature=FeatureConfig(4),
            net=NetworkConfig((16, 24, 3), conv_blocks=((4, 3, 1),)),
        )
        path = tmp_path / "data.cpad"
        build_dataset(path, config, per_kind=2, master_seed=3)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "b86a9eeec746327e6780b0f6feee87dfb8a236847fd975c301f8ca66ae072f24")

    def test_adversarial_metadata_recorded(self, tmp_path):
        config = mini_config()
        path = tmp_path / "data.cpad"
        build_dataset(path, config, per_kind=2)
        metas = Dataset(path).load_arrays()[3]
        kinds = {r["kind"] for r in metas}
        assert kinds == {"deceptive", "disruptive", "non_adversarial"}
        deceptive_meta = metas[0]
        assert deceptive_meta["kind"] == "deceptive"
        assert "adversary_power_w" in deceptive_meta
        assert "estimation_error" in deceptive_meta

    @pytest.mark.parametrize("label, value", [
        pytest.param("intent_index", None, id="intent_index"),
        pytest.param("log_ber", None, id="log_ber"),
        pytest.param("intent_index", True, id="intent_index=True"),
        pytest.param("log_ber", math.nan, id="log_ber=nan"),
        pytest.param("log_ber", math.inf, id="log_ber=inf"),
        pytest.param("log_ber", -math.inf, id="log_ber=-inf"),
        pytest.param("log_ber", 0.5, id="log_ber=0.5"),
        pytest.param("log_ber", -3.0, id="log_ber=-3.0"),  # below 1/512 bits: -2.709
        pytest.param("log_ber", -1e200, id="log_ber=-1e200"),
    ])
    def test_rejects_record_without_label(self, tmp_path, capsys, label, value):
        """A missing label, or one outside what a build writes, exits 4 naming the record."""
        config = mini_config()
        metas, tensors = build_records(config, per_kind=1, master_seed=1)
        if value is None:
            del metas[1][label]
        else:
            metas[1][label] = value
        path = tmp_path / "data.cpad"
        write_dataset(path, config, metas, tensors)
        with pytest.raises(ValueError, match="record 1"):
            Dataset(path)
        assert cli_main(["train", "--dataset", str(path),
                         "--out", str(tmp_path / "m.ckpt")]) == 4
        assert "record 1" in capsys.readouterr().err

    def test_build_holds_the_block_once(self, tmp_path):
        """Building and writing a desk-geometry set peaks below 1.5 blocks
        (a build that stacks per-record copies peaks near 2)."""
        config = desk_config()
        build_records(config, per_kind=1, master_seed=1)  # lazy imports are not the build's
        tracemalloc.start()
        try:
            metas, tensors = build_records(config, per_kind=32, master_seed=1)
            write_dataset(tmp_path / "d.cpad", config, metas, tensors)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert tensors.shape == (96, 64, 64, 3)
        assert peak < 1.5 * tensors.nbytes

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "bogus.cpad"
        path.write_bytes(b"JUNK" + b"\x00" * 32)
        with pytest.raises(ValueError, match="magic"):
            Dataset(path)


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
    ])
    def test_missing_or_unknown_key_rejected(self, edit, key):
        data = desk_config().to_dict()
        edit(data)
        with pytest.raises(ValueError, match=key):
            ExperimentConfig.from_dict(data)

    @pytest.mark.parametrize("edit, key", [
        (lambda d: d["regime"].update(epochs=2.0), "epochs"),
        (lambda d: d.update(master_seed=True), "master_seed"),
        (lambda d: d["space"].update(jitter_rad="0.002"), "jitter_rad"),
        (lambda d: d["net"].update(pool=2.0), "pool"),
    ])
    def test_wrong_typed_scalar_rejected(self, edit, key):
        data = desk_config().to_dict()
        edit(data)
        with pytest.raises(ValueError, match=key):
            ExperimentConfig.from_dict(data)

    def test_integer_accepted_for_float_field(self):
        data = desk_config().to_dict()
        data["net"]["l2_coeff"] = 0
        assert ExperimentConfig.from_dict(data).net.l2_coeff == 0

    @pytest.mark.parametrize("field, value, message", [
        ("pool", 0, "pool must be positive"),
        ("conv_blocks", ((0, 3, 1),), "conv block"),
        ("conv_blocks", ((4.0, 3, 1),), "conv block"),
        ("input_shape", (16.0, 16, 3), "input_shape"),
        ("n_classes", 2, "n_classes"),
    ])
    def test_bad_net_field_rejected(self, field, value, message):
        net = mini_config().net
        with pytest.raises(ValueError, match=message):
            mini_config(net=dataclasses.replace(net, **{field: value}))

    def test_mismatched_net_shape_rejected(self):
        with pytest.raises(ValueError, match="input_shape"):
            mini_config(net=NetworkConfig((8, 8, 3), conv_blocks=((4, 3, 1),)))


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

    def test_eval_flags_unreachable_scales(self, tmp_path, capsys):
        """A 512-bit frame floors labels at BER 1/512, above the default low_ber."""
        data, ckpt = tmp_path / "d.cpad", tmp_path / "m.ckpt"
        build_dataset(data, mini_config(), per_kind=2)
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
        config = mini_config()
        data = tmp_path / "train.cpad"
        build_dataset(data, config, per_kind=3)
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

    def test_assess_grades_a_series_alike_from_npz_and_dataset(self, tmp_path):
        """The .npz path rounds its features to the dataset's float32, so one
        series and one checkpoint give one report, whichever file holds it."""
        config = mini_config()
        rng, n = np.random.default_rng(30), config.frame.sample_len
        series = rng.normal(size=n) + 1j * rng.normal(size=n)
        feats = feature_tensor(series, config.frame, config.feature)
        data, npz = tmp_path / "one.cpad", tmp_path / "one.npz"
        write_dataset(data, config, [{"intent_index": 0, "log_ber": -1.0}],
                      feats.data[None].astype("<f4"))
        npz.write_bytes(_npz_bytes(samples=series))
        config_path, ckpt = tmp_path / "config.json", tmp_path / "m.ckpt"
        save_config(config_path, config)
        save_model(ckpt, he_init(config.net, np.random.default_rng(31)))
        reports = []
        for extra in (["--input", str(data)], ["--input", str(npz), "--config", str(config_path)]):
            reports.append(tmp_path / f"report{len(reports)}.csv")
            assert cli_main(["assess", "--ckpt", str(ckpt), "--out", str(reports[-1]),
                             *extra]) == 0
        assert reports[0].read_bytes() == reports[1].read_bytes()

    def test_rows_out_needs_a_single_theta(self, tmp_path):
        data = tmp_path / "d.cpad"
        build_dataset(data, mini_config(), per_kind=2)
        x, intent_idx, log_ber, _ = Dataset(data).load_arrays()
        for task in ("capability", "intent"):
            result = train(x, intent_idx, log_ber, mini_config().net, task=task,
                           epochs=1, batch_size=6, seed=1)
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
        data = mini_config().to_dict()
        data["space"][field] = [value]
        path.write_text(json.dumps(data))
        out = tmp_path / "d.cpad"
        assert cli_main(["generate", "--config", str(path), "--out", str(out)]) == 4
        assert not out.exists()

    def test_wrong_typed_dataset_config_exits_with_data_code(self, tmp_path):
        data = tmp_path / "d.cpad"
        build_dataset(data, mini_config(), per_kind=2)
        meta, arrays = tensorfile.read(data, b"CPAD", ("config", "records"))
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
        config = mini_config()
        data = tmp_path / "d.cpad"
        build_dataset(data, config, per_kind=2)
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


class TestCliExitCodes:
    """Bad values exit 4 (or 2 for argparse) and write nothing; never 0 or 5."""

    @pytest.fixture
    def inputs(self, tmp_path):
        data, config = tmp_path / "d.cpad", tmp_path / "config.json"
        build_dataset(data, mini_config(), per_kind=2)
        save_config(config, mini_config())
        return {"train": ["--dataset", str(data)], "generate": ["--config", str(config)]}

    @pytest.mark.parametrize("command, flag, value, names", [
        ("train", "--epochs", "0", "epochs"),
        ("train", "--epochs", "-1", "epochs"),
        ("train", "--batch-size", "0", "batch_size"),
        ("train", "--batch-size", "-1", "batch_size"),
        ("generate", "--count-per-kind", "0", "per_kind"),
        ("generate", "--count-per-kind", "-3", "per_kind"),
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
    def test_bad_npz_exits_with_data_code(self, tmp_path, inputs, payload):
        ckpt, npz, report = tmp_path / "m.ckpt", tmp_path / "in.npz", tmp_path / "r.csv"
        save_model(ckpt, he_init(mini_config().net, np.random.default_rng(0)))
        npz.write_bytes(payload)
        assert cli_main(["assess", "--ckpt", str(ckpt), "--input", str(npz),
                         "--config", inputs["generate"][1], "--out", str(report)]) == 4
        assert not report.exists()

    def test_checkpoint_of_another_input_shape_exits_with_data_code(self, tmp_path, capsys,
                                                                    inputs):
        """A 16x16 checkpoint used on a 32x32 set: each command exits 4, writes nothing."""
        ckpt = tmp_path / "m.ckpt"
        assert cli_main(["train", *inputs["train"], "--epochs", "1", "--out", str(ckpt)]) == 0
        wide = mini_config(frame=FrameConfig(32, 2, 32),
                           net=NetworkConfig((32, 32, 3), conv_blocks=((4, 3, 1), (8, 3, 1))))
        data, config, npz = tmp_path / "wide.cpad", tmp_path / "wide.json", tmp_path / "in.npz"
        build_dataset(data, wide, per_kind=2)
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

    def test_diverged_checkpoint_grades_overflowing_ber_high(self, tmp_path, capsys, inputs):
        """A log-BER head biased to 1000 overflows ``10.0 ** x``: the BER is inf (a
        high BER), and eval, baseline and assess exit 0 with nothing on stderr."""
        ckpt, report = tmp_path / "m.ckpt", tmp_path / "report.csv"
        assert cli_main(["train", *inputs["train"], "--epochs", "1", "--out", str(ckpt)]) == 0
        model, _, _ = load_model(ckpt)
        model.head_reg.params["b"][...] = 1000.0
        save_model(ckpt, model)
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
        assert load_config(dump) == dataclasses.replace(mini_config(), master_seed=9)

"""Tests for the training loop: overfit sanity, task coupling, determinism."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from cpaware.experiments.config import TrainRegime
from cpaware.experiments.training import _run_record, save_result, train, write_log_csv
from cpaware.net.checkpoint import read_checkpoint, write_checkpoint
from cpaware.net.model import NetworkConfig

TOY_SHAPE = (16, 16, 3)
TOY_NET = NetworkConfig(TOY_SHAPE, conv_filters=(4, 8))


def toy_set(seed=0, n=32):
    """Three separable texture classes with class-dependent log-BER targets."""
    rng = np.random.default_rng(seed)
    bases = rng.normal(size=(3, *TOY_SHAPE))
    idx = np.arange(n) % 3
    x = bases[idx] * (1 + 0.1 * rng.normal(size=(n, *TOY_SHAPE)))
    rho = -1.0 * idx - 1.0 + 0.05 * rng.normal(size=n)
    return x, idx, rho


class TestOverfitSanity:
    def test_multitask_toy_overfit(self):
        """Smoothed total loss falls below 10% of its start within 500 steps."""
        x, idx, rho = toy_set()
        result = train(x, idx, rho, TOY_NET, "multitask", TrainRegime(500, 32, 1))
        losses = np.array([e["loss_total"] for e in result.log])
        assert np.all(np.isfinite(losses))
        smoothed = np.convolve(losses, np.ones(10) / 10, mode="valid")
        assert smoothed[-1] < 0.10 * smoothed[0]
        # Monotone after smoothing: no rise beyond numerical jitter.
        assert np.max(np.diff(smoothed)) <= 1e-2 * smoothed[0]

    def test_intent_only_toy_overfit(self):
        x, idx, rho = toy_set(1)
        result = train(x, idx, rho, TOY_NET, "intent", TrainRegime(1000, 32, 2))
        probs, _ = result.model.predict_batched(x)
        accuracy = np.mean(np.argmax(probs, axis=1) == idx)
        assert accuracy >= 0.95

    def test_capability_only_toy_overfit(self):
        x, idx, rho = toy_set(2)
        result = train(x, idx, rho, TOY_NET, "capability", TrainRegime(1000, 32, 3))
        _, rho_hat = result.model.predict_batched(x)
        assert np.mean((rho_hat - rho) ** 2) < 0.05


class TestLabelVariance:
    def test_matches_two_pass_oracle(self):
        x, idx, rho = toy_set(3)
        result = train(x, idx, rho, TOY_NET, "multitask", TrainRegime(1, 32, 4))
        mean = sum(rho) / len(rho)
        two_pass = sum((v - mean) ** 2 for v in rho) / len(rho)
        assert result.label_variance == pytest.approx(two_pass, abs=1e-9)

    @pytest.mark.parametrize("task", ["multitask", "intent", "capability"])
    def test_zero_variance_rejected(self, task):
        """Constant labels leave the regression weight undefined; intent-only
        training weights the regression 0 and trains on them."""
        x, idx, _ = toy_set(4)
        run = lambda: train(x, idx, np.full(len(idx), -2.0), TOY_NET, task,  # noqa: E731
                            TrainRegime(2, 16, 5))
        if task != "intent":
            with pytest.raises(ValueError, match="variance"):
                run()
            return
        result = run()
        assert result.label_variance == 0.0 and len(result.log) == 4
        for entry in result.log:
            assert all(np.isfinite(entry[k]) for k in ("loss_cls", "loss_reg", "loss_total"))


class TestTaskCoupling:
    def test_shared_backbone_improves_both_tasks(self):
        x, idx, rho = toy_set(7)
        result = train(x, idx, rho, TOY_NET, "multitask", TrainRegime(200, 32, 8))
        first, last = result.log[0], result.log[-1]
        assert last["loss_cls"] < first["loss_cls"]
        assert last["loss_reg"] < first["loss_reg"]


class TestTaskWeights:
    @pytest.mark.parametrize("task, idle, used", [("intent", "head_reg.b", "head_cls.b"),
                                                  ("capability", "head_cls.b", "head_reg.b")])
    def test_idle_head_bias_stays_zero(self, task, idle, used):
        """The head a task does not train gets zero gradients, and biases
        carry no L2 term, so its bias never leaves its initial zero."""
        x, idx, rho = toy_set(13)
        params = train(x, idx, rho, TOY_NET, task, TrainRegime(5, 8, 14)).model.named_params()
        np.testing.assert_array_equal(params[idle], 0.0)
        assert np.all(params[used] != 0.0)


class TestDeterminismAndResume:
    def test_identical_runs_identical_checkpoints(self, tmp_path):
        x, idx, rho = toy_set(8)
        a = train(x, idx, rho, TOY_NET, "multitask", TrainRegime(5, 8, 9))
        b = train(x, idx, rho, TOY_NET, "multitask", TrainRegime(5, 8, 9))
        save_result(tmp_path / "a.ckpt", a)
        save_result(tmp_path / "b.ckpt", b)
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    def test_resume_matches_uninterrupted(self, tmp_path):
        """Stopped after 2 of 5 epochs and resumed, a run equals the uninterrupted one."""
        x, idx, rho = toy_set(9)
        straight = train(x, idx, rho, TOY_NET, "multitask", TrainRegime(5, 8, 10))

        half = train(x, idx, rho, TOY_NET, "multitask", TrainRegime(2, 8, 10))
        ckpt = tmp_path / "half.ckpt"
        save_result(ckpt, half)
        resumed = train(x, idx, rho, TOY_NET, "multitask", TrainRegime(5, 8, 10),
                        resume_from=ckpt)

        assert resumed.optimizer.step_count == straight.optimizer.step_count
        assert resumed.label_variance == straight.label_variance
        for name, value in straight.model.named_params().items():
            assert value.tobytes() == resumed.model.named_params()[name].tobytes(), name
        for name, value in straight.model.named_state().items():
            assert value.tobytes() == resumed.model.named_state()[name].tobytes(), name

    def test_task_mismatch_on_resume_rejected(self, tmp_path):
        x, idx, rho = toy_set(10)
        result = train(x, idx, rho, TOY_NET, "intent", TrainRegime(1, 8, 11))
        ckpt = tmp_path / "intent.ckpt"
        save_result(ckpt, result)
        with pytest.raises(ValueError, match="task"):
            train(x, idx, rho, TOY_NET, "capability", TrainRegime(1, 8, 11), resume_from=ckpt)

    @pytest.mark.parametrize("key, change", [("task", {"task": "intent"}),
                                             ("train_seed", {"train_seed": 12}),
                                             ("batch_size", {"batch_size": 4})])
    def test_run_record_mismatch_on_resume_rejected(self, tmp_path, key, change):
        x, idx, rho = toy_set(10)
        ckpt = tmp_path / "run.ckpt"
        save_result(ckpt, train(x, idx, rho, TOY_NET, "multitask", TrainRegime(1, 8, 11)))
        settings = {"task": "multitask", "train_seed": 11, "batch_size": 8, **change}
        task = settings.pop("task")
        with pytest.raises(ValueError, match=key):
            train(x, idx, rho, TOY_NET, task, TrainRegime(2, **settings), resume_from=ckpt)

    @pytest.mark.parametrize("changed", ["intents", "log_ber", "tensors"])
    def test_resume_on_other_labels_rejected(self, tmp_path, changed):
        """The run record holds the sha256 of the tensors and labels, so a resume
        on other intents, log-BERs or feature tensors is refused, naming it."""
        x, idx, rho = toy_set(10)
        ckpt = tmp_path / "run.ckpt"
        save_result(ckpt, train(x, idx, rho, TOY_NET, "multitask", TrainRegime(1, 8, 11)))
        if changed == "intents":
            idx = np.roll(idx, 1)
        elif changed == "log_ber":
            rho = rho + 0.5  # the same variance
        else:
            x = x.copy()
            x[3, 0, 0, 0] += 1.0
        with pytest.raises(ValueError, match="data_sha256"):
            train(x, idx, rho, TOY_NET, "multitask", TrainRegime(2, 8, 11), resume_from=ckpt)

    def test_data_digest_copies_no_block(self):
        """The tensors are hashed a row at a time from the block as given, so the
        digest allocates far less than the block."""
        x = np.ones((64, 64, 64, 3), dtype="<f4")  # 3 MiB
        idx, rho = np.arange(64) % 3, np.zeros(64)
        tracemalloc.start()
        try:
            record = _run_record("multitask", TrainRegime(1, 8, 11), x, idx, rho)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < x.nbytes / 8
        # Row by row is the whole block's bytes, then the <i8 intents and <f8 labels.
        whole = hashlib.sha256(x.tobytes() + idx.astype("<i8").tobytes() + rho.tobytes())
        assert record["data_sha256"] == whole.hexdigest()

    def test_resume_hashes_the_labels_by_value(self, tmp_path):
        """The labels are hashed as <i8 intents and <f8 log-BERs, so the same
        labels in another dtype or container resume."""
        x, idx, rho = toy_set(10)
        ckpt = tmp_path / "run.ckpt"
        save_result(ckpt, train(x, idx, rho, TOY_NET, "multitask", TrainRegime(1, 8, 11)))
        resumed = train(x, idx.astype(np.int32), list(rho), TOY_NET, "multitask",
                        TrainRegime(2, 8, 11), resume_from=ckpt)
        assert resumed.optimizer.step_count == 8

    def test_checkpoint_without_run_record_is_refused(self, tmp_path):
        """A checkpoint that holds only its optimizer step cannot be resumed,
        not even by the run that wrote it; it used to resume any run."""
        x, idx, rho = toy_set(10)
        ckpt = tmp_path / "bare.ckpt"
        save_result(ckpt, train(x, idx, rho, TOY_NET, "multitask", TrainRegime(1, 8, 11)))
        config, tensors, record = read_checkpoint(ckpt)
        write_checkpoint(ckpt, config, tensors, {"adam_step": record["adam_step"]})
        with pytest.raises(ValueError, match="the run record lacks task, train_seed, batch_size"):
            train(x, idx, rho, TOY_NET, "multitask", TrainRegime(2, 8, 11), resume_from=ckpt)


class TestComputeDtype:
    def test_float64_run_is_pinned(self, tmp_path):
        """The float64 path is the reference: its checkpoint is pinned, so a
        cast that reaches float64 input shows here.  Re-recorded when the
        convolution's kernel gradient came to sum over blocks of image rows,
        which moved every parameter by at most 2.2e-16 and every logged loss
        by at most 4.2e-16 relative."""
        x, idx, rho = toy_set(8)
        ckpt = tmp_path / "run.ckpt"
        save_result(ckpt, train(x, idx, rho, TOY_NET, "multitask", TrainRegime(3, 8, 9)))
        assert hashlib.sha256(ckpt.read_bytes()).hexdigest() == (
            "6a8fc771c03fedd561af19ccaa534378f099dea0d134775f092790bcea34cce1")

    def test_float32_run_tracks_float64(self):
        """40 steps on the same data as float32 and as float64: every step's
        losses agree to 1e-4 relative (about 5e-7 measured)."""
        x, idx, rho = toy_set(15)
        regime = TrainRegime(10, 8, 16)
        wide = train(x, idx, rho, TOY_NET, "multitask", regime)
        narrow = train(x.astype(np.float32), idx, rho, TOY_NET, "multitask", regime)
        assert len(narrow.log) == len(wide.log) == 40
        for key in ("loss_cls", "loss_reg", "loss_total"):
            np.testing.assert_allclose([e[key] for e in narrow.log],
                                       [e[key] for e in wide.log], rtol=1e-4, err_msg=key)

    def test_float32_resume_matches_uninterrupted(self, tmp_path):
        """A float32 run resumed from its checkpoint equals the uninterrupted run."""
        x, idx, rho = toy_set(9)
        x = x.astype(np.float32)
        straight = train(x, idx, rho, TOY_NET, "multitask", TrainRegime(3, 8, 10))
        ckpt = tmp_path / "half.ckpt"
        save_result(ckpt, train(x, idx, rho, TOY_NET, "multitask", TrainRegime(1, 8, 10)))
        resumed = train(x, idx, rho, TOY_NET, "multitask", TrainRegime(3, 8, 10),
                        resume_from=ckpt)
        save_result(tmp_path / "straight.ckpt", straight)
        save_result(tmp_path / "resumed.ckpt", resumed)
        assert ((tmp_path / "straight.ckpt").read_bytes()
                == (tmp_path / "resumed.ckpt").read_bytes())


class TestLog:
    def test_log_entries_complete_and_finite(self, tmp_path):
        x, idx, rho = toy_set(11)
        result = train(x, idx, rho, TOY_NET, "multitask", TrainRegime(3, 8, 12))
        assert len(result.log) == 3 * 4
        for entry in result.log:
            assert np.isfinite(entry["loss_cls"])
            assert np.isfinite(entry["loss_reg"])
            assert np.isfinite(entry["loss_total"])
        path = tmp_path / "log.csv"
        write_log_csv(path, result.log)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "step,epoch,loss_cls,loss_reg,loss_total"
        assert len(lines) == 13

    def test_unknown_task_rejected(self):
        x, idx, rho = toy_set(12)
        with pytest.raises(ValueError, match="task"):
            train(x, idx, rho, TOY_NET, "both", TrainRegime(1, 8))

    @pytest.mark.parametrize("setting", [{"epochs": 0}, {"epochs": -1}, {"batch_size": 0}])
    def test_non_positive_schedule_rejected(self, setting):
        """A schedule ``train`` cannot run is refused by the regime it comes in."""
        x, idx, rho = toy_set(12)
        with pytest.raises(ValueError, match="must be positive"):
            train(x, idx, rho, TOY_NET, "multitask",
                  TrainRegime(**{"epochs": 1, "batch_size": 8, **setting}))

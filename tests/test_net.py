"""Tests for the from-scratch network: layers, losses, gradients, optimizer."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from cpaware.net.checkpoint import load_model, read_checkpoint, save_model, write_checkpoint
from cpaware.net.losses import (
    focal_loss,
    focal_loss_with_logit_grad,
    mse_loss,
    regression_weight,
    softmax,
    total_loss,
)
from cpaware.net.model import MultitaskNet, NetworkConfig, he_init
from cpaware.net.optim import Adam
from cpaware.net.layers import AvgPool2D, BatchNorm2D, Conv2D, Dense, ReLU

TINY = NetworkConfig((8, 8, 3), conv_filters=(4, 6),
                     focal_gamma=2.0, l2_coeff=1e-3)


def he_normal(layer, rng) -> None:
    """Draw ``layer``'s kernel as ``he_init`` draws a model's: N(0, 2 / fan_in)."""
    w = layer.params["w"]
    w[...] = rng.normal(0.0, np.sqrt(2.0 / math.prod(w.shape[:-1])), size=w.shape)


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    num = np.abs(a - b)
    den = np.maximum(np.abs(a) + np.abs(b), 1e-8)
    return float((num / den).max())


def fd_layer_grads(layer, x, cotangent, step=1e-4):
    """Central-difference gradients of sum(out * cotangent) for one layer."""
    def value(inp):
        return float(np.sum(layer.forward(inp, train=True) * cotangent))

    dx_fd = np.zeros_like(x)
    flat = x.reshape(-1)
    out = dx_fd.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = value(x)
        flat[i] = orig - step
        lo = value(x)
        flat[i] = orig
        out[i] = (hi - lo) / (2 * step)

    dparams_fd = {}
    for key, param in layer.params.items():
        grad = np.zeros_like(param)
        pflat = param.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(pflat.size):
            orig = pflat[i]
            pflat[i] = orig + step
            hi = value(x)
            pflat[i] = orig - step
            lo = value(x)
            pflat[i] = orig
            gflat[i] = (hi - lo) / (2 * step)
        dparams_fd[key] = grad
    return dx_fd, dparams_fd


def check_layer(layer, x, seed=0):
    rng = np.random.default_rng(seed)
    out = layer.forward(x, train=True)
    cotangent = rng.normal(size=out.shape)
    layer.forward(x, train=True)
    dx = layer.backward(cotangent)
    dx_fd, dparams_fd = fd_layer_grads(layer, x.copy(), cotangent)
    assert rel_err(dx, dx_fd) < 1e-4
    for key, grad_fd in dparams_fd.items():
        assert rel_err(layer.grads[key], grad_fd) < 1e-4, key


class TestLayerGradients:
    def test_conv_stride_1(self):
        rng = np.random.default_rng(1)
        layer = Conv2D(3, 4)
        he_normal(layer, rng)
        check_layer(layer, rng.normal(size=(2, 6, 6, 3)))

    def test_conv_non_square(self):
        rng = np.random.default_rng(7)
        layer = Conv2D(2, 3)
        he_normal(layer, rng)
        check_layer(layer, rng.normal(size=(2, 9, 6, 2)))

    def test_batchnorm(self):
        rng = np.random.default_rng(3)
        layer = BatchNorm2D(3)
        layer.params["gamma"] = rng.normal(1.0, 0.1, 3)
        layer.params["beta"] = rng.normal(0.0, 0.1, 3)
        check_layer(layer, rng.normal(size=(3, 4, 4, 3)))

    def test_relu(self):
        rng = np.random.default_rng(4)
        # Keep activations away from the kink so central differences are valid.
        x = rng.normal(size=(2, 5, 5, 2))
        x[np.abs(x) < 1e-2] = 0.1
        check_layer(ReLU(), x)

    def test_avgpool(self):
        rng = np.random.default_rng(5)
        check_layer(AvgPool2D(), rng.normal(size=(2, 6, 6, 3)))

    def test_dense(self):
        rng = np.random.default_rng(6)
        layer = Dense(7, 4)
        he_normal(layer, rng)
        check_layer(layer, rng.normal(size=(3, 7)))


def conv_loop_reference(x, weight):
    """Direct-loop stride-1 convolution, one output pixel at a time."""
    k = weight.shape[0]
    p = k // 2
    xp = np.pad(x, ((0, 0), (p, p), (p, p), (0, 0)))
    ho = xp.shape[1] - k + 1
    wo = xp.shape[2] - k + 1
    out = np.zeros((x.shape[0], ho, wo, weight.shape[3]))
    for r in range(ho):
        for c in range(wo):
            patch = xp[:, r: r + k, c: c + k, :]
            out[:, r, c, :] = np.einsum("bijc,ijco->bo", patch, weight)
    return out, xp


def exact_products(a, b):
    """Four arrays whose sum is ``a * b`` without rounding: Veltkamp's split
    by 2**27 + 1 leaves each half 26 significant bits, so each product of
    halves is exact in float64."""
    def split(v):
        t = v * 134217729.0
        hi = t - (t - v)
        return hi, v - hi
    (a_hi, a_lo), (b_hi, b_lo) = split(a), split(b)
    return a_hi * b_hi, a_hi * b_lo, a_lo * b_hi, a_lo * b_lo


def conv_loop_backward(xp, weight, dout):
    """Its adjoints: the input gradient one output pixel at a time, the kernel
    gradient per entry as the correctly rounded ``math.fsum`` of its exact
    products, so the oracle carries no rounding of its own summation order."""
    k = weight.shape[0]
    p = k // 2
    _, ho, wo, n_out = dout.shape
    grad = dout.reshape(-1, 1, n_out)
    dw = np.empty_like(weight)
    for i in range(k):
        for j in range(k):
            patch = xp[:, i: i + ho, j: j + wo, :].reshape(-1, xp.shape[3], 1)
            terms = np.concatenate(exact_products(patch, grad))  # (4 * pixels, C, O)
            dw[i, j] = [[math.fsum(entry) for entry in row]
                        for row in terms.transpose(1, 2, 0).tolist()]
    dxp = np.zeros_like(xp)
    for r in range(ho):
        for c in range(wo):
            dxp[:, r: r + k, c: c + k, :] += np.einsum("ijco,bo->bijc", weight,
                                                       dout[:, r, c, :])
    return dw, dxp[:, p: xp.shape[1] - p, p: xp.shape[2] - p, :]


class TestConvOracle:
    """The im2col convolution against a direct loop over output pixels."""

    # (batch, height, width).  The kernel gradient sums blocks of whole image
    # rows: one row each at 8x5, 7x10 and 9x9, six blocks of four rows per
    # sample at 24x200.
    @pytest.mark.parametrize("shape", [(2, 8, 5), (2, 7, 10), (2, 9, 9), (3, 24, 200)])
    @pytest.mark.parametrize("in_channels", [1, 3])
    def test_matches_direct_loop(self, shape, in_channels):
        rng = np.random.default_rng(in_channels)
        layer = Conv2D(in_channels, 4)
        he_normal(layer, rng)
        x = rng.normal(size=(*shape, in_channels))
        out = layer.forward(x, train=True)
        expected, xp = conv_loop_reference(x, layer.params["w"])
        assert out.shape == expected.shape
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12)

        dout = rng.normal(size=out.shape)
        dx = layer.backward(dout)
        dw_ref, dx_ref = conv_loop_backward(xp, layer.params["w"], dout)
        np.testing.assert_allclose(layer.grads["w"], dw_ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(dx, dx_ref, rtol=0, atol=1e-12)

    def test_without_input_grad_keeps_kernel_grad(self):
        rng = np.random.default_rng(9)
        layer = Conv2D(3, 4)
        he_normal(layer, rng)
        x = rng.normal(size=(2, 6, 7, 3))
        dout = rng.normal(size=layer.forward(x, train=True).shape)
        layer.backward(dout)
        dw = layer.grads["w"]
        assert layer.backward(dout, input_grad=False) is None
        np.testing.assert_array_equal(layer.grads["w"], dw)


class TestBatchNormRows:
    """Batch norm's elementwise work runs on (batch * H, W * C) rows against
    channel vectors tiled W times; it is the per-channel formulas to the bit."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_per_channel_formulas(self, dtype):
        rng = np.random.default_rng(66)
        c = 8
        layer = BatchNorm2D(c)
        layer.params["gamma"] = rng.normal(1.0, 0.3, c)
        layer.params["beta"] = rng.normal(0.0, 0.5, c)
        layer.state["running_mean"] = rng.normal(0.0, 0.5, c)
        layer.state["running_var"] = rng.uniform(0.5, 2.0, c)
        x = rng.normal(1.0, 2.0, size=(2, 6, 64, c)).astype(dtype)
        dout = rng.normal(size=x.shape).astype(dtype)
        gamma = layer.params["gamma"].astype(dtype)
        beta = layer.params["beta"].astype(dtype)
        running_mean, running_var = layer.state["running_mean"], layer.state["running_var"]

        flat, dflat = x.reshape(-1, c), dout.reshape(-1, c)
        n = len(flat)
        scale = layer.params["gamma"] / np.sqrt(running_var + layer.EPS)
        shift = layer.params["beta"] - running_mean * scale
        inferred = flat * scale.astype(dtype) + shift.astype(dtype)
        mean = (np.ones(n, dtype) @ flat) / n
        centred = flat - mean
        var = np.einsum("ij,ij->j", centred, centred) / n
        inv_std = 1.0 / np.sqrt(var + layer.EPS)
        xhat = centred * inv_std
        out = xhat * gamma + beta
        dgamma = np.einsum("ij,ij->j", dflat, xhat)
        dbeta = np.ones(n, dtype) @ dflat
        dx = (dflat - (xhat * (dgamma / n) + dbeta / n)) * (gamma * inv_std)

        np.testing.assert_array_equal(layer.forward(x, train=False), inferred.reshape(x.shape))
        np.testing.assert_array_equal(layer.forward(x, train=True), out.reshape(x.shape))
        m = layer.MOMENTUM
        np.testing.assert_array_equal(layer.state["running_mean"],
                                      m * running_mean + (1 - m) * mean)
        np.testing.assert_array_equal(layer.state["running_var"], m * running_var + (1 - m) * var)
        np.testing.assert_array_equal(layer.backward(dout), dx.reshape(x.shape))
        np.testing.assert_array_equal(layer.grads["gamma"], dgamma)
        np.testing.assert_array_equal(layer.grads["beta"], dbeta)


class TestInferenceMode:
    def test_batchnorm_folded_inference_matches_formula(self):
        rng = np.random.default_rng(60)
        layer = BatchNorm2D(5)
        layer.params["gamma"] = rng.normal(1.0, 0.3, 5)
        layer.params["beta"] = rng.normal(0.0, 0.5, 5)
        layer.state["running_mean"] = rng.normal(0.0, 2.0, 5)
        layer.state["running_var"] = rng.uniform(0.1, 4.0, 5)
        x = rng.normal(size=(3, 4, 6, 5))
        expected = (layer.params["gamma"] * (x - layer.state["running_mean"])
                    / np.sqrt(layer.state["running_var"] + layer.EPS)
                    + layer.params["beta"])
        np.testing.assert_allclose(layer.forward(x, train=False), expected,
                                   rtol=0, atol=1e-12)

    def test_avgpool_matches_block_mean(self):
        x = np.random.default_rng(61).normal(size=(2, 6, 8, 3))
        expected = x.reshape(2, 3, 2, 4, 2, 3).mean(axis=(2, 4))
        np.testing.assert_array_equal(AvgPool2D().forward(x, train=False), expected)

    def test_predict_keeps_no_activation_cache(self):
        """Inference holds one activation at a time, not a cache per layer.

        At 64x64 a batch of 8 in one pass has a largest activation (8
        channels) of 2 MiB; keeping every layer's backward cache through
        it peaked at 8.9 MiB and left 5.6 MiB allocated after it
        returned.  Inference keeps no cache and passes one sample at a
        time, so its peak stays far below that and nothing stays behind.
        """
        model = he_init(NetworkConfig((64, 64, 3)), np.random.default_rng(62))
        x = np.random.default_rng(63).normal(size=(8, 64, 64, 3))
        tracemalloc.start()
        try:
            probs, log_ber = model.predict_batched(x)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert probs.shape == (8, 3) and log_ber.shape == (8,)
        assert peak < 8 * 2**20
        assert retained < 2**16

    def test_predict_batched_memory_follows_input_size(self):
        """Inference passes one sample at a time, so 8 samples peak like one.

        With a fixed batch of 64 all 8 samples went through at once and
        the peak grew with the sample count.
        """
        model = he_init(NetworkConfig((128, 512, 3), conv_filters=(4,)),
                        np.random.default_rng(64))
        x = np.random.default_rng(65).normal(size=(8, 128, 512, 3))

        def peak_of(fn):
            tracemalloc.start()
            try:
                result = fn()
                return result, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        _, single = peak_of(lambda: model.predict_batched(x[:1]))
        (probs, log_ber), batched = peak_of(lambda: model.predict_batched(x))
        assert batched < 2 * single
        for i in range(8):
            p, r = model.predict_batched(x[i: i + 1])
            np.testing.assert_array_equal(probs[i: i + 1], p)
            np.testing.assert_array_equal(log_ber[i: i + 1], r)


def make_toy_batch(seed=0, n=2, shape=(8, 8, 3)):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, *shape))
    labels = np.eye(3)[rng.integers(0, 3, n)]
    rho = rng.normal(-2.0, 1.0, n)
    return x, labels, rho


def composed_loss(model: MultitaskNet, x, labels, rho) -> float:
    cfg = model.config
    logits, rho_hat = model.forward(x, train=True)
    loss_cls = focal_loss(labels, softmax(logits), cfg.focal_gamma)
    loss_reg = mse_loss(rho, rho_hat)[0]
    return total_loss(loss_cls, loss_reg, regression_weight(cfg.reg_amplification, 1.0),
                      model.kernel_sq_sum(), cfg.l2_coeff)


class TestComposedGradient:
    def test_full_network_finite_differences(self):
        """Every parameter of the composed multitask objective, step 1e-4."""
        model = he_init(TINY, np.random.default_rng(10))
        # Normalized activations are zero-mean, so some ReLU inputs sit within
        # the probe step of the kink and central differences would measure a
        # one-sided slope there.  Shifting each channel well away from zero
        # keeps the objective smooth across every probe; the kink itself is
        # covered by the dedicated ReLU layer check.
        for layer in model.backbone:
            if isinstance(layer, BatchNorm2D):
                layer.params["beta"] = np.where(
                    np.arange(layer.channels) % 2 == 0, 4.0, -4.0
                )
        x, labels, rho = make_toy_batch(11)
        cfg = model.config

        logits, rho_hat = model.forward(x, train=True)
        loss_cls, dlogits = focal_loss_with_logit_grad(labels, logits, cfg.focal_gamma)
        _, dreg = mse_loss(rho, rho_hat)
        w_reg = regression_weight(cfg.reg_amplification, 1.0)
        model.backward(dlogits, w_reg * dreg)
        params = model.named_params()
        grads = model.named_grads()
        kernels = set(model.kernel_names())
        step = 1e-4

        worst = 0.0
        for name, param in params.items():
            analytic = grads[name] + (2 * cfg.l2_coeff * param if name in kernels else 0)
            flat = param.reshape(-1)
            fd = np.zeros(flat.size)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + step
                hi = composed_loss(model, x, labels, rho)
                flat[i] = orig - step
                lo = composed_loss(model, x, labels, rho)
                flat[i] = orig
                fd[i] = (hi - lo) / (2 * step)
            worst = max(worst, rel_err(analytic.reshape(-1), fd))
        assert worst < 1e-4

    def test_zero_cotangent_gives_zero_grads(self):
        model = he_init(TINY, np.random.default_rng(12))
        x, labels, rho = make_toy_batch(13)
        logits, _ = model.forward(x, train=True)
        model.backward(np.zeros_like(logits), np.zeros(logits.shape[0]))
        for name, grad in model.named_grads().items():
            np.testing.assert_array_equal(grad, np.zeros_like(grad), err_msg=name)

    def test_l2_gradient_is_linear_in_weights(self):
        """The penalty derivative is exactly 2 * l2 * W on every kernel."""
        model = he_init(TINY, np.random.default_rng(14))
        params = model.named_params()
        for name in model.kernel_names():
            w = params[name]
            np.testing.assert_array_equal(
                2 * TINY.l2_coeff * w, TINY.l2_coeff * (2 * w)
            )
            # Directional finite difference of the quadratic is exact up to rounding.
            sq_plus = np.sum((w + 1e-4) ** 2)
            sq_minus = np.sum((w - 1e-4) ** 2)
            derivative_sum = (sq_plus - sq_minus) / (2e-4)
            assert derivative_sum == pytest.approx(2 * w.sum(), rel=1e-6)


class TestLosses:
    def test_focal_gamma_zero_is_cross_entropy(self):
        rng = np.random.default_rng(20)
        probs = softmax(rng.normal(size=(16, 3)))
        labels = np.eye(3)[rng.integers(0, 3, 16)]
        ce = -np.mean(np.sum(labels * np.log(probs), axis=1))
        assert focal_loss(labels, probs, 0.0) == pytest.approx(ce, abs=1e-9)

    def test_focal_hand_value(self):
        # Single sample, true-class probability 0.5, gamma 2: 0.25 * ln 2.
        labels = np.array([[1.0, 0.0, 0.0]])
        probs = np.array([[0.5, 0.3, 0.2]])
        assert focal_loss(labels, probs, 2.0) == pytest.approx(0.25 * math.log(2),
                                                               abs=1e-9)
        assert focal_loss(labels, probs, 2.0) == pytest.approx(0.17329, abs=5e-6)

    def test_focal_confident_prediction_is_zero(self):
        labels = np.array([[0.0, 1.0, 0.0]])
        probs = np.array([[0.0, 1.0, 0.0]])
        assert focal_loss(labels, probs, 2.0) == pytest.approx(0.0, abs=1e-9)

    def test_focal_zero_gamma_gradient_is_softmax_minus_labels(self):
        rng = np.random.default_rng(21)
        logits = rng.normal(size=(8, 3))
        labels = np.eye(3)[rng.integers(0, 3, 8)]
        _, dlogits = focal_loss_with_logit_grad(labels, logits, 0.0)
        expected = (softmax(logits) - labels) / 8
        np.testing.assert_allclose(dlogits, expected, atol=1e-12)

    def test_mse_trivial_values(self):
        assert mse_loss(np.array([-2.0]), np.array([-2.0]))[0] == 0.0
        assert mse_loss(np.array([-2.0]), np.array([-4.0]))[0] == 4.0

    def test_mse_against_two_pass_oracle(self):
        rng = np.random.default_rng(22)
        a = rng.normal(size=257)
        b = rng.normal(size=257)
        acc = 0.0
        for x, y in zip(a, b):
            acc += (x - y) ** 2
        assert mse_loss(a, b)[0] == pytest.approx(acc / 257, abs=1e-12)

    def test_mse_length_mismatch(self):
        with pytest.raises(ValueError):
            mse_loss(np.zeros(3), np.zeros(4))

    def test_total_loss_identities(self):
        assert total_loss(1.5, 0.7, 1.0) == pytest.approx(2.2, abs=1e-12)
        assert total_loss(1.5, 0.0, regression_weight(10.0, 2.0), kernel_sq_sum=3.0,
                          l2_coeff=0.1) == pytest.approx(1.8, abs=1e-12)
        assert total_loss(1.5, 0.7, 0.0) == 1.5

    def test_total_loss_linear_in_amplification(self):
        base = total_loss(0.0, 1.0, regression_weight(5.0, 2.0))
        doubled = total_loss(0.0, 1.0, regression_weight(10.0, 2.0))
        assert doubled == base / 2

    def test_total_loss_rejects_bad_weighting(self):
        with pytest.raises(ValueError):
            regression_weight(0.0, 1.0)
        with pytest.raises(ValueError):
            regression_weight(-1.0, 2.0)
        with pytest.raises(ValueError, match="variance 0"):
            regression_weight(10.0, 0.0)

    def test_losses_non_negative(self):
        rng = np.random.default_rng(23)
        probs = softmax(rng.normal(size=(32, 3)))
        labels = np.eye(3)[rng.integers(0, 3, 32)]
        for gamma in (0.0, 0.5, 2.0):
            assert focal_loss(labels, probs, gamma) >= 0.0
        assert mse_loss(rng.normal(size=9), rng.normal(size=9))[0] >= 0.0


class TestHeInit:
    def test_variance_statistic(self):
        """A kernel of over 1e5 draws at fan_in 3 * 3 * 64 has variance 2 / fan_in."""
        model = he_init(NetworkConfig((2, 2, 64), conv_filters=(200,)),
                        np.random.default_rng(30))
        w = model.named_params()["backbone.0.w"]
        assert w.size >= 100_000
        assert np.var(w) == pytest.approx(2 / (3 * 3 * 64), rel=0.03)

    def test_biases_zero_and_bn_identity(self):
        model = he_init(TINY, np.random.default_rng(31))
        params = model.named_params()
        for name, value in params.items():
            if name.endswith(".b") or name.endswith("beta"):
                np.testing.assert_array_equal(value, 0.0)
            if name.endswith("gamma"):
                np.testing.assert_array_equal(value, 1.0)

    def test_kernel_names_are_the_weight_matrices(self):
        """L2 covers the conv and dense weights, in layer order; no bias, no BN."""
        model = MultitaskNet(NetworkConfig((64, 64, 3)))
        assert model.kernel_names() == ["backbone.0.w", "backbone.4.w", "backbone.8.w",
                                        "head_cls.w", "head_reg.w"]

    def test_deterministic(self):
        """The rule pinned by a second draw from the same seed: each kernel in
        named_params order from N(0, 2 / fan_in), fan_in all but the output axis."""
        model = he_init(TINY, np.random.default_rng(32))
        params, rng = model.named_params(), np.random.default_rng(32)
        fan_ins = {"backbone.0.w": 27, "backbone.4.w": 36, "head_cls.w": 6, "head_reg.w": 6}
        assert model.kernel_names() == list(fan_ins)
        for name, fan_in in fan_ins.items():
            expected = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=params[name].shape)
            assert params[name].tobytes() == expected.tobytes(), name


class TestForward:
    def test_softmax_rows_sum_to_one(self):
        model = he_init(TINY, np.random.default_rng(40))
        x, _, _ = make_toy_batch(41, n=5)
        probs, _ = model.predict_batched(x)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)

    def test_duplicate_rows_get_identical_outputs(self):
        model = he_init(TINY, np.random.default_rng(42))
        x, _, _ = make_toy_batch(43, n=1)
        batch = np.repeat(x, 4, axis=0)
        logits, rho = model.forward(batch, train=True)
        for row in range(1, 4):
            np.testing.assert_allclose(logits[row], logits[0], atol=1e-12)
            np.testing.assert_allclose(rho[row], rho[0], atol=1e-12)

    def test_inference_independent_of_batch_composition(self):
        model = he_init(TINY, np.random.default_rng(44))
        x, labels, rho = make_toy_batch(45, n=6)
        # Populate running statistics with a few training passes.
        adam = Adam(model.named_params(), lr=1e-4)
        from cpaware.experiments.training import train_step
        for _ in range(3):
            train_step(model, x, labels, rho, adam, float(np.var(rho)))
        alone_probs, alone_rho = model.predict_batched(x[:1])
        together_probs, together_rho = model.predict_batched(x)
        np.testing.assert_array_equal(alone_probs[0], together_probs[0])
        np.testing.assert_array_equal(alone_rho[0], together_rho[0])

    @pytest.mark.parametrize("order", ["identity", "shuffled", "truncated"])
    def test_sample_output_is_bit_exact_alone(self, order):
        """A sample's output is the same bits whatever else is in the call.

        A batched pass multiplies the dense heads' weights by a matrix of
        one row per sample, and BLAS rounds a 30-row product differently
        from a 1-row one: here 15 of 30 log-BERs and 11 of 30 probability
        rows moved in their last bits.
        """
        config = NetworkConfig((16, 16, 3), conv_filters=(4, 8))
        model = he_init(config, np.random.default_rng(48))
        x = np.random.default_rng(49).normal(size=(30, 16, 16, 3))
        x = {"identity": x, "shuffled": x[np.random.default_rng(50).permutation(30)],
             "truncated": x[:17]}[order]
        probs, log_ber = model.predict_batched(x)
        for i in range(len(x)):
            p, r = model.predict_batched(x[i: i + 1])
            assert probs[i].tobytes() == p[0].tobytes(), i
            assert log_ber[i].tobytes() == r[0].tobytes(), i

    def test_forward_is_pinned(self):
        """Inference, the train-mode forward and the running statistics it
        leaves are pinned to the bit, in float32 and float64, at the desk
        geometry and at 8x8: a faster layer may change how the backward
        sums, never what the forward computes.

        Recorded before the convolution read its kernel rows from one
        horizontal im2col and batch norm worked on (batch * H, W * C) rows.
        """
        digest = hashlib.sha256()
        for shape, n in (((64, 64, 3), 8), ((8, 8, 3), 3)):
            for dtype in (np.float32, np.float64):
                rng = np.random.default_rng(80)
                model = he_init(NetworkConfig(shape), rng)
                for layer in model.backbone:
                    if isinstance(layer, BatchNorm2D):
                        c = layer.channels
                        layer.params["gamma"][:] = rng.normal(1.0, 0.3, c)
                        layer.params["beta"][:] = rng.normal(0.0, 0.5, c)
                        layer.state["running_mean"] = rng.normal(0.0, 0.5, c)
                        layer.state["running_var"] = rng.uniform(0.5, 2.0, c)
                x = rng.normal(size=(n, *shape)).astype(dtype)
                outputs = [*model.predict_batched(x), *model.forward(x, train=True),
                           *model.named_state().values()]
                for array in outputs:
                    digest.update(array.tobytes())
        assert digest.hexdigest() == (
            "6e4111f72a0af85b844cc47d59d9861d23e132802b6cf927c53d01fc84d40b32")

    def test_rejects_indivisible_input(self):
        with pytest.raises(ValueError, match="divisible"):
            MultitaskNet(NetworkConfig((10, 10, 3), conv_filters=(4, 4)))

    def test_rejects_samples_of_another_shape(self):
        """Global pooling would run on any size the pools divide; the model refuses."""
        model = he_init(TINY, np.random.default_rng(46))
        x, _, _ = make_toy_batch(47, n=2, shape=(16, 16, 3))
        for run in (model.predict_batched, lambda b: model.forward(b, train=True)):
            with pytest.raises(ValueError, match=r"\(16, 16, 3\).*\(8, 8, 3\)"):
                run(x)


class TestComputeDtype:
    """The network computes in its input's float32; parameters, state, the
    optimizer and the outputs stay float64."""

    def test_float32_step_promotes_nothing(self):
        """One stray float64 operand would turn the rest of the net float64
        while every value stayed right; the dtypes show it."""
        from cpaware.experiments.training import train_step
        model = he_init(TINY, np.random.default_rng(70))
        x, labels, rho = make_toy_batch(71, n=4)
        x = x.astype(np.float32)
        layers = [*model.backbone, model.head_cls, model.head_reg]
        seen = []
        for i, layer in enumerate(layers):
            def forward(inp, train=True, _forward=layer.forward, _i=i):
                out = _forward(inp, train)
                seen.append((_i, "forward", out.dtype))
                return out

            def backward(dout, *args, _backward=layer.backward, _i=i, **kwargs):
                seen.append((_i, "cotangent", dout.dtype))
                return _backward(dout, *args, **kwargs)
            layer.forward, layer.backward = forward, backward
        fed = {}  # the gradients the optimizer is given

        class SpiedAdam(Adam):
            def step(self, params, grads):
                fed.update(grads)
                super().step(params, grads)
        adam = SpiedAdam(model.named_params(), 1e-3)
        train_step(model, x, labels, rho, adam, float(np.var(rho)))

        assert len(seen) == 2 * len(layers)
        assert [entry for entry in seen if entry[2] != np.float32] == []
        for i, layer in enumerate(layers):
            cached = [getattr(layer, name) for name in ("_xp", "_x") if hasattr(layer, name)]
            cached += list(getattr(layer, "_cache", None) or ())
            for array in cached:
                assert array.dtype == np.float32, (i, type(layer).__name__)
            for name, grad in layer.grads.items():
                assert grad.dtype == np.float32, (i, name)
        logits, log_ber = model.forward(x, train=True)
        assert logits.dtype == np.float64 and log_ber.dtype == np.float64
        assert set(fed) == set(model.named_params())
        for table in (model.named_params(), model.named_state(), fed, adam.m, adam.v):
            assert {name: a.dtype for name, a in table.items() if a.dtype != np.float64} == {}

    def test_float32_agrees_with_float64(self):
        """One He-initialized network and one batch, run as float32 and as
        float64: outputs and losses agree to 1e-5 relative, and each gradient
        to 1e-3 of its norm."""
        config = NetworkConfig((16, 16, 3), conv_filters=(4, 8))
        x, labels, rho = make_toy_batch(72, n=8, shape=(16, 16, 3))
        runs = []
        for dtype in (np.float64, np.float32):
            model = he_init(config, np.random.default_rng(73))
            logits, log_ber = model.forward(x.astype(dtype), train=True)
            loss_cls, dlogits = focal_loss_with_logit_grad(labels, logits, config.focal_gamma)
            loss_reg, dreg = mse_loss(rho, log_ber)
            model.backward(dlogits, dreg)
            runs.append((logits, log_ber, loss_cls, loss_reg, model.named_grads()))
        (*wide, grads64), (*narrow, grads32) = runs
        for name, a, b in zip(("logits", "log_ber", "loss_cls", "loss_reg"), narrow, wide):
            a, b = np.asarray(a), np.asarray(b)
            assert a.dtype == np.float64, name
            assert np.max(np.abs(a - b)) <= 1e-5 * np.max(np.abs(b)), name
        for name, g in grads64.items():
            assert np.linalg.norm(grads32[name] - g) <= 1e-3 * np.linalg.norm(g), name


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        params = {"w": np.array([1.0, -2.0, 3.0])}
        adam = Adam(params, lr=1e-2)
        adam.step(params, {"w": np.zeros(3)})
        np.testing.assert_array_equal(params["w"], [1.0, -2.0, 3.0])

    def test_first_step_equals_learning_rate(self):
        params = {"w": np.array([0.0])}
        adam = Adam(params, lr=1e-4)
        adam.step(params, {"w": np.array([1.0])})
        # Bias correction makes the first update -lr / (1 + eps').
        assert params["w"][0] == pytest.approx(-1e-4, rel=1e-6)
        assert adam.step_count == 1

    def test_deterministic_two_steps(self):
        def run():
            params = {"w": np.linspace(-1, 1, 5)}
            adam = Adam(params, lr=1e-3)
            for grad in (np.ones(5), np.full(5, -0.5)):
                adam.step(params, {"w": grad})
            return params["w"]

        np.testing.assert_array_equal(run(), run())

    def test_shape_mismatch(self):
        params = {"w": np.zeros(3)}
        adam = Adam(params, lr=1e-4)
        with pytest.raises(ValueError):
            adam.step(params, {"w": np.zeros(4)})


class TestCheckpoint:
    def test_bit_exact_roundtrip(self, tmp_path):
        model = he_init(TINY, np.random.default_rng(50))
        adam = Adam(model.named_params(), lr=3e-4)
        x, labels, rho = make_toy_batch(51, n=4)
        from cpaware.experiments.training import train_step
        for _ in range(5):
            train_step(model, x, labels, rho, adam, float(np.var(rho)))
        path = tmp_path / "model.ckpt"
        run = {"task": "multitask", "train_seed": 50, "batch_size": 4, "data_sha256": "ab"}
        save_model(path, model, adam, run)

        loaded, loaded_adam, record = load_model(path)
        assert record == {**run, "adam_step": 5}
        assert loaded_adam.step_count == adam.step_count
        for name, value in model.named_params().items():
            assert loaded.named_params()[name].tobytes() == value.tobytes(), name
        for name, value in model.named_state().items():
            assert loaded.named_state()[name].tobytes() == value.tobytes(), name
        for name in adam.m:
            assert loaded_adam.m[name].tobytes() == adam.m[name].tobytes()
            assert loaded_adam.v[name].tobytes() == adam.v[name].tobytes()
        probs_a, rho_a = model.predict_batched(x)
        probs_b, rho_b = loaded.predict_batched(x)
        np.testing.assert_array_equal(probs_a, probs_b)
        np.testing.assert_array_equal(rho_a, rho_b)

    def test_rejects_float_conv_block(self, tmp_path, save_untrained):
        path = tmp_path / "model.ckpt"
        save_untrained(path, TINY, 53)
        config, tensors, extras = read_checkpoint(path)
        config["conv_filters"][0] = 4.0
        write_checkpoint(path, config, tensors, extras)
        with pytest.raises(ValueError, match="conv_filters"):
            load_model(path)

    def test_rejects_unknown_tensor(self, tmp_path, save_untrained):
        path = tmp_path / "extra.ckpt"
        save_untrained(path, TINY, 52)
        config, tensors, record = read_checkpoint(path)
        tensors["param/backbone.0.b"] = np.zeros(4)
        write_checkpoint(path, config, tensors, record)
        with pytest.raises(ValueError, match="backbone.0.b"):
            load_model(path)

    def test_rejects_wrong_shape(self, tmp_path, save_untrained):
        path = tmp_path / "shape.ckpt"
        save_untrained(path, TINY, 53)
        config, tensors, record = read_checkpoint(path)
        tensors["param/head_cls.w"] = np.zeros((2, 2))
        write_checkpoint(path, config, tensors, record)
        with pytest.raises(ValueError, match=r"head_cls\.w.*\(2, 2\).*\(6, 3\)"):
            load_model(path)

    def test_rejects_wrong_magic(self, tmp_path):
        path = tmp_path / "bogus.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            load_model(path)

"""Shared-backbone multitask network: intent classifier + log-BER regressor.

The backbone is a stack of conv blocks (convolution, batch normalization,
ReLU, average pooling), followed by a global average pool; two dense
heads read the shared per-channel features.  Both heads backpropagate
into the backbone, which is what couples the tasks during training.

Everything runs in float64; weights follow the He normal scheme
(variance 2 / fan_in).  The dense heads start with zero biases; the
convolutions have none, since the batch normalization after each one
would cancel it.  The convolutions run as im2col GEMMs (see ``layers``).
L2 regularization covers every parameter of two or more dimensions,
which are exactly the convolution and dense weights.

Only ``forward(train=True)`` caches activations for ``backward``;
``predict`` runs the layers in inference mode, which keeps no cache, so
it holds the activations of one layer at a time rather than all of them.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from ..tensorfile import from_json
from .layers import AvgPool2D, BatchNorm2D, Conv2D, Dense, GlobalAvgPool, ReLU
from .losses import softmax

# Inference batch budget in input pixels: 16 samples at 64x64, 1 at 600x512.
PREDICT_PIXELS = 2**16


def _positive_ints(values) -> bool:
    return all(type(v) is int and v > 0 for v in values)


@dataclass(frozen=True)
class NetworkConfig:
    """Architecture plus the loss/optimizer hyperparameters it trains with."""

    input_shape: tuple  # (frames, bins, channels)
    conv_blocks: tuple = ((8, 3, 1), (16, 3, 1), (32, 3, 1))  # (filters, kernel, stride)
    pool: int = 2
    n_classes: int = 3
    l2_coeff: float = 1e-4
    focal_gamma: float = 2.0
    reg_amplification: float = 10.0
    reg_label_variance: float = 1.0
    learning_rate: float = 1e-3  # Adam default (Kingma & Ba); 1e-4 stalls log-BER
    bn_momentum: float = 0.9
    bn_eps: float = 1e-5

    def __post_init__(self) -> None:
        if len(self.input_shape) != 3 or not _positive_ints(self.input_shape):
            raise ValueError("input_shape must be (frames, bins, channels), positive integers")
        if not self.conv_blocks:
            raise ValueError("at least one conv block is required")
        if any(len(block) != 3 or not _positive_ints(block) for block in self.conv_blocks):
            raise ValueError("each conv block must be (filters, kernel, stride), "
                             "positive integers")
        if self.focal_gamma < 0:
            raise ValueError("focal_gamma must be non-negative")
        if self.pool <= 0:
            raise ValueError("pool must be positive")
        for name in ("l2_coeff",):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        for name in ("reg_amplification", "reg_label_variance", "learning_rate"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "NetworkConfig":
        return from_json(cls, data)


class MultitaskNet:
    """Configurable conv backbone feeding a softmax head and a scalar head."""

    def __init__(self, config: NetworkConfig):
        self.config = config
        h, w, c = config.input_shape
        self.backbone: list = []
        for filters, kernel, stride in config.conv_blocks:
            conv = Conv2D(c, filters, kernel_size=kernel, stride=stride)
            h, w = conv.out_shape(h, w)
            if h % config.pool or w % config.pool:
                raise ValueError(
                    f"feature map {(h, w)} not divisible by pool {config.pool}; "
                    "adjust input_shape or conv_blocks"
                )
            self.backbone += [
                conv,
                BatchNorm2D(filters, momentum=config.bn_momentum, eps=config.bn_eps),
                ReLU(),
                AvgPool2D(config.pool),
            ]
            h, w, c = h // config.pool, w // config.pool, filters
        self.backbone.append(GlobalAvgPool())
        self.feature_size = c
        self.head_cls = Dense(self.feature_size, config.n_classes)
        self.head_reg = Dense(self.feature_size, 1)

    # -- parameter bookkeeping -------------------------------------------

    def _named_layers(self):
        for i, layer in enumerate(self.backbone):
            yield f"backbone.{i}", layer
        yield "head_cls", self.head_cls
        yield "head_reg", self.head_reg

    def init_params(self, rng: np.random.Generator) -> None:
        for _, layer in self._named_layers():
            if hasattr(layer, "init_params"):
                layer.init_params(rng)

    def _named(self, table: str) -> dict[str, np.ndarray]:
        return {f"{prefix}.{key}": value for prefix, layer in self._named_layers()
                for key, value in getattr(layer, table, {}).items()}

    def named_params(self) -> dict[str, np.ndarray]:
        return self._named("params")

    def named_grads(self) -> dict[str, np.ndarray]:
        return self._named("grads")

    def named_state(self) -> dict[str, np.ndarray]:
        """Non-trainable state (batch-norm running statistics)."""
        return self._named("state")

    def kernel_names(self) -> list[str]:
        """Parameters subject to L2 regularization: every one of two or more dimensions.

        Those are the convolution and dense weights; biases and the
        batch-norm scale and shift are 1-D.
        """
        return [name for name, value in self.named_params().items() if value.ndim >= 2]

    def kernel_sq_sum(self) -> float:
        params = self.named_params()
        return float(sum(np.sum(params[k] ** 2) for k in self.kernel_names()))

    # -- computation ------------------------------------------------------

    def check_input(self, x: np.ndarray) -> None:
        """Reject samples not of ``input_shape``, which global pooling would not."""
        shape, expected = tuple(np.shape(x)[1:]), tuple(self.config.input_shape)
        if shape != expected:
            raise ValueError(f"input samples have shape {shape}, but the model "
                             f"was built for input_shape {expected}")

    def forward(self, x: np.ndarray, train: bool = True) -> tuple[np.ndarray, np.ndarray]:
        """Logits (batch, n_classes) and log-BER predictions (batch,)."""
        self.check_input(x)
        out = np.asarray(x, dtype=float)
        for layer in self.backbone:
            out = layer.forward(out, train)
        logits = self.head_cls.forward(out, train)
        log_ber = self.head_reg.forward(out, train).reshape(-1)
        return logits, log_ber

    def backward(self, dlogits: np.ndarray, dlog_ber: np.ndarray) -> None:
        """Backpropagate both head cotangents through the shared backbone.

        A head with no task signal gets a zero cotangent, which gives it
        zero gradients and adds nothing to the backbone's.
        """
        out = (self.head_cls.backward(dlogits)
               + self.head_reg.backward(dlog_ber.reshape(-1, 1)))
        for layer in reversed(self.backbone[1:]):
            out = layer.backward(out)
        # Nothing reads the gradient with respect to the network input.
        self.backbone[0].backward(out, input_grad=False)

    def predict(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Inference-mode class probabilities and log-BER predictions."""
        logits, log_ber = self.forward(x, train=False)
        return softmax(logits), log_ber

    def predict_batched(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``predict`` in batches of at most PREDICT_PIXELS input pixels (one sample at least).

        Inference memory then follows the input size, not the sample count.
        """
        batch = max(1, PREDICT_PIXELS // (x.shape[1] * x.shape[2]))
        probs, log_ber = [], []
        for start in range(0, x.shape[0], batch):
            p, r = self.predict(x[start: start + batch])
            probs.append(p)
            log_ber.append(r)
        return np.concatenate(probs), np.concatenate(log_ber)


def he_init(config: NetworkConfig, rng: np.random.Generator) -> MultitaskNet:
    """Build a network and initialize it (He normal kernels, zero dense-head biases)."""
    net = MultitaskNet(config)
    net.init_params(rng)
    return net

"""Sequential (cascade) benchmark: regression gate, then classification.

A capability-only regressor screens every sample first.  Only when the
predicted BER exceeds the gate threshold is the intent-only classifier
invoked; below the gate the sample is declared non-adversarial outright.
The gate compares the linear predicted BER (``10 ** log_ber_pred``)
against the threshold.

This cascade is structurally blind to capable deceptive threats: a
spoofer whose signal decodes cleanly predicts a low BER, never reaches
the classifier, and is graded as benign.  Classifier invocations are
counted so that the gate behavior is observable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .net.model import MultitaskNet
from .threats import ThreatKind


def check_same_backbone(regressor: MultitaskNet, classifier: MultitaskNet) -> None:
    """Both cascade models must share architecture and input shape."""
    a, b = regressor.config, classifier.config
    if (a.input_shape, a.conv_blocks, a.pool) != (b.input_shape, b.conv_blocks, b.pool):
        raise ValueError("cascade checkpoints disagree on the backbone architecture")


@dataclass
class SequentialAssessor:
    """Runtime cascade with an instrumented classifier-invocation counter."""

    regressor: MultitaskNet
    classifier: MultitaskNet
    threshold_ber: float
    classifier_invocations: int = 0
    gated_count: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.threshold_ber < 1.0:
            raise ValueError("threshold_ber must lie in (0, 1)")
        check_same_backbone(self.regressor, self.classifier)

    def reset_counters(self) -> None:
        self.classifier_invocations = 0
        self.gated_count = 0

    def assess_batch(self, tensors: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Run the cascade over a stack of feature tensors.

        Returns each sample's intent index and predicted log-BER, for the
        caller to grade with ``assessment.assess``, and a boolean gate mask
        (True where the regression gate suppressed the classifier, leaving
        the sample non-adversarial).
        """
        _, log_ber_pred = self.regressor.predict_batched(tensors)
        with np.errstate(over="ignore"):  # an overflow is BER inf: not gated
            gated = 10.0 ** log_ber_pred <= self.threshold_ber
        self.gated_count += int(gated.sum())

        intent_idx = np.full(tensors.shape[0], ThreatKind.NON_ADVERSARIAL.value)
        if np.any(~gated):
            probs, _ = self.classifier.predict_batched(tensors[~gated])
            self.classifier_invocations += int((~gated).sum())
            intent_idx[~gated] = np.argmax(probs, axis=1)
        return intent_idx, log_ber_pred, gated

"""Sequential (cascade) benchmark: regression gate, then classification.

A capability-only regressor screens every sample first.  Only when the
predicted BER exceeds the gate threshold is the intent-only classifier
invoked; below the gate the sample is declared non-adversarial outright.
The gate compares the linear predicted BER against the threshold; it
reads that BER with ``assessment.ber``, the rule that grades the sample.

This cascade is structurally blind to capable deceptive threats: a
spoofer whose signal decodes cleanly predicts a low BER, never reaches
the classifier, and is graded as benign.  Evaluation scores the
classifier on every sample and masks its decisions with the gate, so
one classifier pass serves a whole sweep of thresholds
(``metrics.evaluate_sequential``).  The counters report what a deployed
cascade would do on the last ``assess_batch`` call alone: the samples
gated, and the classifier invocations on the samples the gate passes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .assessment import ber
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
    classifier_invocations: int = field(default=0, init=False)
    gated_count: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.threshold_ber < 1.0:
            raise ValueError("threshold_ber must lie in (0, 1)")
        check_same_backbone(self.regressor, self.classifier)

    def assess_batch(self, tensors: np.ndarray,
                     probs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Run the regression gate over a stack of feature tensors.

        ``probs`` are the classifier's intent probabilities for every
        sample; the cascade takes their argmax only where the gate passes.
        Returns each sample's intent index and predicted log-BER, for the
        caller to grade with ``assessment.assess``, and a boolean gate mask
        (True where the regression gate suppressed the classifier, leaving
        the sample non-adversarial).  Sets ``gated_count`` and
        ``classifier_invocations`` to this call's counts.
        """
        _, log_ber_pred = self.regressor.predict_batched(tensors)
        gated = ber(log_ber_pred) <= self.threshold_ber  # an overflow is inf: not gated
        self.gated_count = int(gated.sum())
        self.classifier_invocations = int((~gated).sum())
        intent_idx = np.where(gated, ThreatKind.NON_ADVERSARIAL.value,
                              np.argmax(probs, axis=1))
        return intent_idx, log_ber_pred, gated

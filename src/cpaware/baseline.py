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

from .assessment import (
    AssessmentThresholds,
    DEFAULT_THRESHOLDS,
    ThreatAssessment,
    assess_with_intent,
)
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
    thresholds: AssessmentThresholds = DEFAULT_THRESHOLDS
    classifier_invocations: int = 0
    gated_count: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.threshold_ber < 1.0:
            raise ValueError("threshold_ber must lie in (0, 1)")
        check_same_backbone(self.regressor, self.classifier)

    def reset_counters(self) -> None:
        self.classifier_invocations = 0
        self.gated_count = 0

    def assess_batch(self, tensors: np.ndarray) -> tuple[list[ThreatAssessment], np.ndarray]:
        """Assess a stack of feature tensors.

        Returns the per-sample assessments and a boolean gate mask (True
        where the regression gate suppressed the classifier).
        """
        _, log_ber_pred = self.regressor.predict_batched(tensors)
        ber_pred = 10.0 ** log_ber_pred
        gated = ber_pred <= self.threshold_ber
        self.gated_count += int(gated.sum())

        kinds = np.full(tensors.shape[0], ThreatKind.NON_ADVERSARIAL, dtype=object)
        if np.any(~gated):
            probs, _ = self.classifier.predict_batched(tensors[~gated])
            self.classifier_invocations += int((~gated).sum())
            kinds[~gated] = [ThreatKind(int(np.argmax(p))) for p in probs]

        assessments = [
            assess_with_intent(kind, float(rho), self.thresholds)
            for kind, rho in zip(kinds, log_ber_pred)
        ]
        return assessments, gated

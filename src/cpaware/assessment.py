"""Threat grading: intent state, capability state, 0-7 severity scale.

Capability derives from the predicted BER: above the high threshold it is
HIGH BER, below the low threshold LOW BER, otherwise MODERATE (threshold
values themselves fall to MODERATE, the closed middle interval).  For
non-adversarial and disruptive intents a high BER means a highly capable
threat; for deceptive intents the reading inverts, since a *low* BER
means the spoofed data decodes cleanly and the deception is working.

The severity scale is an exact lookup over (intent, capability):

                     High  Moderate  Low
    non-adversarial    2       1      0
    disruptive         4       3      3
    deceptive          5       6      7

Scale 3 is the only grade reachable from two state pairs.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .threats import ThreatKind


class BerCategory(Enum):
    HIGH = "high"
    MODERATE = "moderate"
    LOW = "low"


class Capability(Enum):
    """Capability classes; the value is the one-hot index."""

    HIGH = 0
    MODERATE = 1
    LOW = 2

    @property
    def one_hot(self) -> np.ndarray:
        vec = np.zeros(3)
        vec[self.value] = 1.0
        return vec


@dataclass(frozen=True)
class AssessmentThresholds:
    """BER boundaries of the capability categories; tune per deployment."""

    high_ber: float = 1e-2
    low_ber: float = 1e-4

    def __post_init__(self) -> None:
        if not 0.0 < self.low_ber < self.high_ber < 1.0:
            raise ValueError("need 0 < low_ber < high_ber < 1")


DEFAULT_THRESHOLDS = AssessmentThresholds()

THREAT_SCALE = {
    (ThreatKind.NON_ADVERSARIAL, Capability.HIGH): 2,
    (ThreatKind.NON_ADVERSARIAL, Capability.MODERATE): 1,
    (ThreatKind.NON_ADVERSARIAL, Capability.LOW): 0,
    (ThreatKind.DISRUPTIVE, Capability.HIGH): 4,
    (ThreatKind.DISRUPTIVE, Capability.MODERATE): 3,
    (ThreatKind.DISRUPTIVE, Capability.LOW): 3,
    (ThreatKind.DECEPTIVE, Capability.HIGH): 5,
    (ThreatKind.DECEPTIVE, Capability.MODERATE): 6,
    (ThreatKind.DECEPTIVE, Capability.LOW): 7,
}

N_SCALES = 8


@dataclass(frozen=True)
class ThreatAssessment:
    kind: ThreatKind
    capability: Capability
    scale: int
    log_ber_pred: float

    @property
    def intent_one_hot(self) -> np.ndarray:
        return self.kind.one_hot

    @property
    def capability_one_hot(self) -> np.ndarray:
        return self.capability.one_hot

    @property
    def ber_estimate(self) -> float:
        return float(10.0 ** self.log_ber_pred)


def categorize_ber(log_ber_pred: float,
                   thresholds: AssessmentThresholds = DEFAULT_THRESHOLDS) -> BerCategory:
    """Classify a predicted log10 BER; boundaries fall to MODERATE."""
    if not np.isfinite(log_ber_pred):
        raise ValueError("log_ber_pred must be finite")
    ber = 10.0 ** log_ber_pred
    if ber > thresholds.high_ber:
        return BerCategory.HIGH
    if ber < thresholds.low_ber:
        return BerCategory.LOW
    return BerCategory.MODERATE


def capability_state(category: BerCategory, intent: ThreatKind) -> Capability:
    """Map a BER category to capability; inverted for deceptive intents."""
    if intent is ThreatKind.DECEPTIVE:
        order = {BerCategory.HIGH: Capability.LOW,
                 BerCategory.MODERATE: Capability.MODERATE,
                 BerCategory.LOW: Capability.HIGH}
    else:
        order = {BerCategory.HIGH: Capability.HIGH,
                 BerCategory.MODERATE: Capability.MODERATE,
                 BerCategory.LOW: Capability.LOW}
    return order[category]


def assess(class_probs: np.ndarray, log_ber_pred: float,
           thresholds: AssessmentThresholds = DEFAULT_THRESHOLDS) -> ThreatAssessment:
    """Grade one sample from the network's two outputs.

    Intent is the argmax class; ties resolve to the lowest class index,
    which is the deceptive class (the conservative reading).
    """
    class_probs = np.asarray(class_probs)
    if class_probs.shape != (3,):
        raise ValueError("class_probs must have shape (3,)")
    kind = ThreatKind(int(np.argmax(class_probs)))
    return assess_with_intent(kind, log_ber_pred, thresholds)


def assess_with_intent(kind: ThreatKind, log_ber_pred: float,
                       thresholds: AssessmentThresholds = DEFAULT_THRESHOLDS
                       ) -> ThreatAssessment:
    """Grade a sample whose intent decision was made elsewhere."""
    capability = capability_state(categorize_ber(log_ber_pred, thresholds), kind)
    return ThreatAssessment(
        kind=kind,
        capability=capability,
        scale=THREAT_SCALE[(kind, capability)],
        log_ber_pred=float(log_ber_pred),
    )


REPORT_FIELDS = ("sample_id", "intent", "intent_bits", "capability",
                 "capability_bits", "scale", "log_ber_pred", "ber_pred")


def assessment_row(sample_id, a: ThreatAssessment) -> dict:
    return {
        "sample_id": sample_id,
        "intent": a.kind.name.lower(),
        "intent_bits": "".join(str(int(b)) for b in a.intent_one_hot),
        "capability": a.capability.name.lower(),
        "capability_bits": "".join(str(int(b)) for b in a.capability_one_hot),
        "scale": a.scale,
        "log_ber_pred": a.log_ber_pred,
        "ber_pred": a.ber_estimate,
    }


def write_report(path, rows: list[dict]) -> None:
    """Line-oriented assessment report, one CSV row per sample."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=REPORT_FIELDS)
        writer.writeheader()
        writer.writerows(rows)

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

Grading works on whole arrays: ``assess`` takes intent indices
(``ThreatKind`` values) and predicted log10 BERs and returns capability
indices (into ``CAPABILITY_NAMES``) and scales.  The caller decides the
intent; ``np.argmax`` over class probabilities resolves a tie to the
lowest index, the deceptive class (the conservative reading).  The BER is
Python's scalar ``10.0 ** x`` of each sample, because NumPy's array power
differs from it by one ULP on about 5% of inputs, which can move a sample
across a threshold and changes the report's ``ber_pred``.  Where that
power overflows (a finite log-BER above about 308) the BER is inf: a high BER.
``ber`` is this rule; the cascade's gate reads it too.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .ofdm import FrameConfig
from .threats import INTENT_NAMES, ThreatKind, label_log_ber

CAPABILITY_NAMES = ("high", "moderate", "low")
ONE_HOT_BITS = ("100", "010", "001")


@dataclass(frozen=True)
class AssessmentThresholds:
    """BER boundaries of the capability categories; tune per deployment."""

    high_ber: float = 1e-2
    low_ber: float = 1e-4

    def __post_init__(self) -> None:
        if not 0.0 < self.low_ber < self.high_ber < 1.0:
            raise ValueError("need 0 < low_ber < high_ber < 1")


DEFAULT_THRESHOLDS = AssessmentThresholds()

# [intent index, capability index], rows in ThreatKind order.
THREAT_SCALE = np.array([[5, 6, 7],   # deceptive
                         [4, 3, 3],   # disruptive
                         [2, 1, 0]])  # non-adversarial
THREAT_SCALE.flags.writeable = False

N_SCALES = 8


def _scalar_ber(log_ber: float) -> float:
    """Python's ``10.0 ** log_ber``, or inf where it overflows."""
    try:
        return 10.0 ** log_ber
    except OverflowError:
        return math.inf


def ber(log_ber) -> np.ndarray:
    """Each log-BER's BER by the one rule of the module docstring."""
    return np.array([_scalar_ber(float(v)) for v in log_ber], dtype=float)


def assess(intent_idx, log_ber_pred,
           thresholds: AssessmentThresholds = DEFAULT_THRESHOLDS
           ) -> tuple[np.ndarray, np.ndarray]:
    """Capability index and 0-7 scale of each sample; see the module docstring."""
    intent_idx = np.asarray(intent_idx, dtype=np.int64)
    if not np.all(np.isfinite(log_ber_pred)):
        raise ValueError("log_ber_pred must be finite")
    linear = ber(log_ber_pred)
    # 0 high, 1 moderate, 2 low BER: the capability order, inverted for deception.
    category = np.where(linear > thresholds.high_ber, 0,
                        np.where(linear < thresholds.low_ber, 2, 1))
    capability = np.where(intent_idx == ThreatKind.DECEPTIVE.value, 2 - category, category)
    return capability, THREAT_SCALE[intent_idx, capability]


def unreachable_scales(frame: FrameConfig,
                       thresholds: AssessmentThresholds = DEFAULT_THRESHOLDS) -> list[int]:
    """Grades that no true label of a sample of ``frame`` can take.

    A label is ``label_log_ber(k / bits, frame)`` for k = 0..bits errors,
    which floors k = 0 at one, and the BER category is monotone in k, so
    every reachable grade shows at k = 1, at k = bits or at one of the
    three counts from ``floor(threshold * bits)`` up (the third in case
    round-off moves a count that lies on a threshold to the other side).
    """
    bits = frame.bits_per_sample
    counts = {1, bits}
    for threshold in (thresholds.low_ber, thresholds.high_ber):
        base = math.floor(threshold * bits)
        counts.update(min(k, bits) for k in (base, base + 1, base + 2))
    log_ber = [label_log_ber(k / bits, frame) for k in sorted(counts)]
    _, scale = assess(np.repeat(np.arange(len(ThreatKind)), len(log_ber)),
                      log_ber * len(ThreatKind), thresholds)
    return sorted(set(range(N_SCALES)) - set(scale.tolist()))


REPORT_FIELDS = ("sample_id", "intent", "intent_bits", "capability",
                 "capability_bits", "scale", "log_ber_pred", "ber_pred")


def write_report(path, intent_idx, log_ber_pred,
                 thresholds: AssessmentThresholds = DEFAULT_THRESHOLDS) -> None:
    """Grade the samples and write the line-oriented report, one CSV row each."""
    capability, scale = assess(intent_idx, log_ber_pred, thresholds)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_FIELDS)
        rows = zip(intent_idx, capability, scale, log_ber_pred, ber(log_ber_pred))
        for i, (k, c, s, r, b) in enumerate(rows):
            writer.writerow((i, INTENT_NAMES[k], ONE_HOT_BITS[k], CAPABILITY_NAMES[c],
                             ONE_HOT_BITS[c], int(s), float(r), float(b)))

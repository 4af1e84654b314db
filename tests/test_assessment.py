"""Tests for BER categorization, capability mapping and the severity scale."""

import csv

import numpy as np
import pytest

from cpaware.assessment import (
    AssessmentThresholds,
    BerCategory,
    Capability,
    THREAT_SCALE,
    assess,
    assess_with_intent,
    assessment_row,
    capability_state,
    categorize_ber,
    write_report,
)
from cpaware.threats import ThreatKind


class TestCategorizeBer:
    @pytest.mark.parametrize("log_ber,expected", [
        (-1.0, BerCategory.HIGH),
        (-3.0, BerCategory.MODERATE),
        (-5.0, BerCategory.LOW),
    ])
    def test_open_regions(self, log_ber, expected):
        assert categorize_ber(log_ber) is expected

    def test_boundaries_fall_to_moderate(self):
        assert categorize_ber(-2.0) is BerCategory.MODERATE
        assert categorize_ber(-4.0) is BerCategory.MODERATE

    def test_custom_thresholds(self):
        loose = AssessmentThresholds(high_ber=1e-1, low_ber=1e-3)
        assert categorize_ber(-1.5, loose) is BerCategory.MODERATE
        assert categorize_ber(-3.5, loose) is BerCategory.LOW

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            categorize_ber(float("nan"))

    def test_rejects_inverted_thresholds(self):
        with pytest.raises(ValueError):
            AssessmentThresholds(high_ber=1e-4, low_ber=1e-2)


class TestCapabilityState:
    def test_direct_mapping_for_reliability_threats(self):
        for kind in (ThreatKind.NON_ADVERSARIAL, ThreatKind.DISRUPTIVE):
            assert capability_state(BerCategory.HIGH, kind) is Capability.HIGH
            assert capability_state(BerCategory.MODERATE, kind) is Capability.MODERATE
            assert capability_state(BerCategory.LOW, kind) is Capability.LOW

    def test_inverted_mapping_for_deceptive(self):
        assert capability_state(BerCategory.HIGH, ThreatKind.DECEPTIVE) is Capability.LOW
        assert capability_state(BerCategory.LOW, ThreatKind.DECEPTIVE) is Capability.HIGH

    def test_moderate_is_a_fixed_point(self):
        for kind in ThreatKind:
            assert capability_state(BerCategory.MODERATE, kind) is Capability.MODERATE


class TestThreatScale:
    def test_all_nine_cells(self):
        expected = {
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
        assert THREAT_SCALE == expected
        graded = {}
        for kind in ThreatKind:
            for log_ber in (-1.0, -3.0, -5.0):  # high, moderate, low BER
                a = assess_with_intent(kind, log_ber)
                graded[(a.kind, a.capability)] = a.scale
        assert graded == expected

    def test_scale_three_is_the_only_shared_grade(self):
        preimages: dict[int, int] = {}
        for value in THREAT_SCALE.values():
            preimages[value] = preimages.get(value, 0) + 1
        assert preimages[3] == 2
        assert all(count == 1 for scale, count in preimages.items() if scale != 3)
        assert sorted(preimages) == [0, 1, 2, 3, 4, 5, 6, 7]


class TestAssess:
    def test_benign_high_ber_grades_two(self):
        a = assess(np.array([0.1, 0.2, 0.7]), -1.0)
        assert a.kind is ThreatKind.NON_ADVERSARIAL
        assert a.capability is Capability.HIGH
        assert a.scale == 2

    def test_capable_spoofer_grades_five(self):
        a = assess(np.array([0.9, 0.05, 0.05]), -5.0)
        assert a.kind is ThreatKind.DECEPTIVE
        assert a.capability is Capability.HIGH
        assert a.scale == 5

    def test_uniform_probabilities_break_toward_deceptive(self):
        a = assess(np.array([1 / 3, 1 / 3, 1 / 3]), -3.0)
        assert a.kind is ThreatKind.DECEPTIVE

    def test_invariant_under_monotone_rescaling(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            probs = rng.dirichlet(np.ones(3))
            rho = float(rng.uniform(-6, 0))
            baseline = assess(probs, rho)
            for transform in (np.sqrt, np.square, lambda p: 0.2 + 0.5 * p):
                rescaled = transform(probs)
                other = assess(rescaled / rescaled.sum(), rho)
                assert other.scale == baseline.scale
                assert other.kind is baseline.kind

    def test_ber_estimate_matches_prediction(self):
        a = assess(np.array([0.2, 0.3, 0.5]), -2.5)
        assert a.ber_estimate == pytest.approx(10 ** -2.5, rel=1e-12)


class TestReport:
    def test_csv_roundtrip(self, tmp_path):
        rows = [assessment_row(i, assess(np.array([0.8, 0.1, 0.1]), -1.0 - i))
                for i in range(3)]
        path = tmp_path / "report.csv"
        write_report(path, rows)
        with open(path, newline="") as fh:
            parsed = list(csv.DictReader(fh))
        assert len(parsed) == 3
        assert parsed[0]["intent"] == "deceptive"
        assert parsed[0]["intent_bits"] == "100"
        assert parsed[0]["scale"] == "7"
        assert float(parsed[2]["log_ber_pred"]) == -3.0

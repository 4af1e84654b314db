"""Tests for BER categorization, capability mapping and the severity scale."""

import csv
import hashlib

import numpy as np
import pytest

from cpaware.assessment import (
    CAPABILITY_NAMES,
    AssessmentThresholds,
    THREAT_SCALE,
    assess,
    unreachable_scales,
    write_report,
)
from cpaware.experiments.metrics import evaluate_multitask
from cpaware.net.model import NetworkConfig, he_init
from cpaware.ofdm import FrameConfig
from cpaware.threats import ThreatKind, label_log_ber

DEC, DIS, NON = (k.value for k in ThreatKind)
HIGH, MODERATE, LOW = range(3)

# The paper's table, written out cell by cell.
NINE_CELLS = {
    (ThreatKind.NON_ADVERSARIAL, "high"): 2,
    (ThreatKind.NON_ADVERSARIAL, "moderate"): 1,
    (ThreatKind.NON_ADVERSARIAL, "low"): 0,
    (ThreatKind.DISRUPTIVE, "high"): 4,
    (ThreatKind.DISRUPTIVE, "moderate"): 3,
    (ThreatKind.DISRUPTIVE, "low"): 3,
    (ThreatKind.DECEPTIVE, "high"): 5,
    (ThreatKind.DECEPTIVE, "moderate"): 6,
    (ThreatKind.DECEPTIVE, "low"): 7,
}

CUSTOM = AssessmentThresholds(high_ber=3e-3, low_ber=2e-4)


def oracle(kind: ThreatKind, log_ber: float, thresholds) -> tuple[str, int]:
    """One sample graded by the rule as written: Python pow, then the table."""
    ber = 10.0 ** log_ber
    category = ("high" if ber > thresholds.high_ber
                else "low" if ber < thresholds.low_ber else "moderate")
    if kind is ThreatKind.DECEPTIVE:
        category = {"high": "low", "moderate": "moderate", "low": "high"}[category]
    return category, NINE_CELLS[(kind, category)]


def grade(kind_value: int, log_ber: float, thresholds=AssessmentThresholds()):
    capability, scale = assess([kind_value], [log_ber], thresholds)
    return int(capability[0]), int(scale[0])


class TestCategorizeBer:
    """The BER category, read through a non-deceptive intent (capability = category)."""

    @pytest.mark.parametrize("log_ber,expected", [
        (-1.0, "high"),
        (-3.0, "moderate"),
        (-5.0, "low"),
    ])
    def test_open_regions(self, log_ber, expected):
        for kind in (DIS, NON):
            assert CAPABILITY_NAMES[grade(kind, log_ber)[0]] == expected

    def test_boundaries_fall_to_moderate(self):
        capability, _ = assess([NON, NON], [-2.0, -4.0])
        np.testing.assert_array_equal(capability, [MODERATE, MODERATE])

    def test_custom_thresholds(self):
        loose = AssessmentThresholds(high_ber=1e-1, low_ber=1e-3)
        capability, _ = assess([NON, NON], [-1.5, -3.5], loose)
        np.testing.assert_array_equal(capability, [MODERATE, LOW])

    def test_rejects_non_finite(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                assess([NON, NON], [-3.0, bad])

    def test_rejects_inverted_thresholds(self):
        with pytest.raises(ValueError):
            AssessmentThresholds(high_ber=1e-4, low_ber=1e-2)


class TestCapabilityState:
    def test_direct_mapping_for_reliability_threats(self):
        for kind in (NON, DIS):
            capability, _ = assess([kind] * 3, [-1.0, -3.0, -5.0])
            np.testing.assert_array_equal(capability, [HIGH, MODERATE, LOW])

    def test_inverted_mapping_for_deceptive(self):
        capability, _ = assess([DEC, DEC], [-1.0, -5.0])
        np.testing.assert_array_equal(capability, [LOW, HIGH])

    def test_moderate_is_a_fixed_point(self):
        capability, _ = assess([DEC, DIS, NON], [-3.0] * 3)
        np.testing.assert_array_equal(capability, [MODERATE] * 3)


class TestThreatScale:
    def test_all_nine_cells(self):
        for (kind, name), scale in NINE_CELLS.items():
            assert THREAT_SCALE[kind.value, CAPABILITY_NAMES.index(name)] == scale
        graded = {}
        for kind in ThreatKind:
            capability, scale = assess([kind.value] * 3, [-1.0, -3.0, -5.0])
            for c, s in zip(capability, scale):
                graded[(kind, CAPABILITY_NAMES[c])] = int(s)
        assert graded == NINE_CELLS

    def test_table_is_read_only(self):
        with pytest.raises(ValueError):
            THREAT_SCALE[0, 0] = 0

    def test_scale_three_is_the_only_shared_grade(self):
        scales, preimages = np.unique(THREAT_SCALE, return_counts=True)
        assert scales.tolist() == [0, 1, 2, 3, 4, 5, 6, 7]
        assert preimages.tolist() == [1, 1, 1, 2, 1, 1, 1, 1]

    @pytest.mark.parametrize("thresholds", [
        AssessmentThresholds(), CUSTOM, AssessmentThresholds(high_ber=1e-1, low_ber=1e-3),
    ], ids=["default", "custom", "loose"])
    def test_matches_scalar_oracle(self, thresholds):
        rng = np.random.default_rng(5)
        edges = [float(np.log10(t)) for t in (thresholds.high_ber, thresholds.low_ber)]
        log_ber = np.concatenate([
            rng.uniform(-8.0, 0.0, 600),
            [v for e in edges for v in (np.nextafter(e, -np.inf), e, np.nextafter(e, np.inf))],
        ])
        intent = rng.integers(0, 3, log_ber.size)
        capability, scale = assess(intent, log_ber, thresholds)
        expected = [oracle(ThreatKind(int(k)), float(r), thresholds)
                    for k, r in zip(intent, log_ber)]
        assert [CAPABILITY_NAMES[c] for c in capability] == [e[0] for e in expected]
        assert scale.tolist() == [e[1] for e in expected]


class TestAssess:
    def test_benign_high_ber_grades_two(self):
        assert grade(NON, -1.0) == (HIGH, 2)

    def test_capable_spoofer_grades_five(self):
        assert grade(DEC, -5.0) == (HIGH, 5)

    def test_uniform_probabilities_break_toward_deceptive(self):
        """A classifier head pinned to equal logits predicts the deceptive class."""
        net = NetworkConfig((8, 8, 3), conv_filters=(2,))
        model = he_init(net, np.random.default_rng(0))
        model.head_cls.params["w"] = np.zeros_like(model.head_cls.params["w"])
        model.head_cls.params["b"] = np.zeros_like(model.head_cls.params["b"])
        x = np.random.default_rng(1).normal(size=(5, 8, 8, 3))
        _, rows = evaluate_multitask(model, x, np.arange(5) % 3, np.full(5, -3.0))
        assert all(r["p_deceptive"] == r["p_non_adversarial"] for r in rows)
        assert [r["pred_intent"] for r in rows] == [DEC] * 5

    def test_ber_estimate_matches_prediction(self, tmp_path):
        path = tmp_path / "report.csv"
        write_report(path, [DIS], [-2.5])
        with open(path, newline="") as fh:
            (row,) = csv.DictReader(fh)
        assert float(row["ber_pred"]) == 10.0 ** -2.5
        assert float(row["ber_pred"]) == pytest.approx(10 ** -2.5, rel=1e-12)

    def test_empty_batch(self):
        capability, scale = assess(np.zeros(0, int), np.zeros(0))
        assert capability.shape == scale.shape == (0,)

    @pytest.mark.parametrize("kind", list(ThreatKind), ids=lambda k: k.name.lower())
    def test_overflowing_ber_grades_high(self, kind, tmp_path):
        """Past about 308, Python's ``10.0 ** x`` overflows: the BER is inf, a high BER."""
        expected = grade(kind.value, -1.0)
        for log_ber in (308.26, 1e300):
            assert grade(kind.value, log_ber) == expected
        path = tmp_path / "report.csv"
        write_report(path, [kind.value], [1e300])
        with open(path, newline="") as fh:
            (row,) = csv.DictReader(fh)
        assert row["ber_pred"] == "inf"
        assert int(row["scale"]) == expected[1]


def report_inputs(thresholds):
    """1,200 seeded log-BERs plus each threshold's log10 and its neighbours, all intents."""
    rng = np.random.default_rng(20260918)
    base = list(rng.uniform(-8.0, 0.0, 1200))
    for t in (thresholds.high_ber, thresholds.low_ber):
        e = float(np.log10(t))
        base += [np.nextafter(e, -np.inf), e, np.nextafter(e, np.inf)]
    base = np.array(base)
    return np.tile(np.arange(3), base.size), np.repeat(base, 3)


class TestReport:
    def test_csv_roundtrip(self, tmp_path):
        path = tmp_path / "report.csv"
        write_report(path, [DEC] * 3, [-1.0, -2.0, -3.0])
        with open(path, newline="") as fh:
            parsed = list(csv.DictReader(fh))
        assert len(parsed) == 3
        assert parsed[0]["intent"] == "deceptive"
        assert parsed[0]["intent_bits"] == "100"
        assert parsed[0]["scale"] == "7"
        assert float(parsed[2]["log_ber_pred"]) == -3.0

    @pytest.mark.parametrize("thresholds, digest", [
        (AssessmentThresholds(),
         "33a677767244056c111fd40bf58dc9d1b839cb5e6ffb391b25956534942b93d2"),
        (CUSTOM, "24d14eaa69941af676356991dc9f63652f74ccfb8a6bbdd6e33149f0286006e3"),
    ], ids=["default", "custom"])
    def test_pinned_report_digest(self, tmp_path, thresholds, digest):
        """Recorded from the per-sample grading this array form replaced.

        ``ber_pred`` is printed to the last digit, so an array power that
        is one ULP off Python's scalar ``10.0 ** x`` changes the digest.
        """
        path = tmp_path / "report.csv"
        write_report(path, *report_inputs(thresholds), thresholds)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def brute_force_unreachable(frame: FrameConfig, thresholds) -> list[int]:
    bits = frame.bits_per_sample
    reached = {oracle(kind, label_log_ber(k / bits, frame), thresholds)[1]
               for k in range(bits + 1) for kind in ThreatKind}
    return sorted(set(range(8)) - reached)


class TestUnreachableScales:
    def test_desk_frame_cannot_reach_low_ber(self):
        assert unreachable_scales(FrameConfig(64, 8, 64)) == [0, 5]

    @pytest.mark.parametrize("frame", [FrameConfig(512, 64, 600), FrameConfig(64, 8, 64, 16)],
                             ids=["full", "16qam-desk"])
    def test_every_grade_reachable(self, frame):
        assert unreachable_scales(frame) == []

    def test_floor_above_high_threshold(self):
        assert unreachable_scales(FrameConfig(8, 1, 4)) == [0, 1, 3, 5, 6]

    @pytest.mark.parametrize("frame", [FrameConfig(16, 2, 16), FrameConfig(8, 1, 4)],
                             ids=["512-bit", "64-bit"])
    @pytest.mark.parametrize("thresholds", [
        AssessmentThresholds(), CUSTOM,
        AssessmentThresholds(high_ber=0.125, low_ber=1 / 64),  # on k / bits exactly
        # Round-off grades one error LOW and three HIGH: only two errors are MODERATE.
        AssessmentThresholds(high_ber=3 / 512, low_ber=float(np.nextafter(1 / 512, 0))),
    ], ids=["default", "custom", "exact", "round-off"])
    def test_matches_brute_force_oracle(self, frame, thresholds):
        assert (unreachable_scales(frame, thresholds)
                == brute_force_unreachable(frame, thresholds))

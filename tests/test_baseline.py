"""Tests for the sequential cascade benchmark and its gate semantics."""

import numpy as np
import pytest

from cpaware.assessment import assess, ber
from cpaware.baseline import SequentialAssessor, check_same_backbone
from cpaware.net import NetworkConfig, he_init
from cpaware.threats import ThreatKind

SHAPE = (16, 16, 3)
NET = NetworkConfig(SHAPE, conv_blocks=((4, 3, 1), (8, 3, 1)))


def make_models(seed=0):
    regressor = he_init(NET, np.random.default_rng(seed))
    classifier = he_init(NET, np.random.default_rng(seed + 1))
    return regressor, classifier


def pin_regressor_output(model, value: float) -> None:
    """Make the regression head predict a constant, whatever the input."""
    model.head_reg.params["w"] = np.zeros_like(model.head_reg.params["w"])
    model.head_reg.params["b"] = np.array([value])


def features(seed=0, n=12):
    return np.random.default_rng(seed).normal(size=(n, *SHAPE))


class TestGate:
    def test_below_gate_skips_classifier_entirely(self):
        regressor, classifier = make_models()
        pin_regressor_output(regressor, -5.0)  # predicted BER 1e-5
        cascade = SequentialAssessor(regressor, classifier, threshold_ber=1e-2)
        x = features()
        intent_idx, log_ber_pred, gated = cascade.assess_batch(
            x, classifier.predict_batched(x)[0])
        assert cascade.classifier_invocations == 0
        assert cascade.gated_count == len(intent_idx)
        assert np.all(gated)
        assert np.all(intent_idx == ThreatKind.NON_ADVERSARIAL.value)
        np.testing.assert_array_equal(log_ber_pred, -5.0)

    def test_above_gate_invokes_classifier_for_all(self):
        regressor, classifier = make_models(1)
        pin_regressor_output(regressor, np.log10(0.5))
        for theta in (1e-2, 1e-3, 1e-4):
            cascade = SequentialAssessor(regressor, classifier, threshold_ber=theta)
            x = features(1)
            cascade.assess_batch(x, classifier.predict_batched(x)[0])
            assert cascade.classifier_invocations == x.shape[0]
            assert cascade.gated_count == 0

    def test_gate_counts_match_predictions(self):
        regressor, classifier = make_models(2)
        x = features(2, n=40)
        _, rho_hat = regressor.predict_batched(x)
        for theta in (1e-2, 1e-3, 1e-4):
            cascade = SequentialAssessor(regressor, classifier, threshold_ber=theta)
            intent_idx, log_ber_pred, gated = cascade.assess_batch(
                x, classifier.predict_batched(x)[0])
            np.testing.assert_array_equal(log_ber_pred, rho_hat)
            expected_gated = 10.0 ** rho_hat <= theta
            np.testing.assert_array_equal(gated, expected_gated)
            assert cascade.classifier_invocations == int((~expected_gated).sum())
            assert np.all(intent_idx[gated] == ThreatKind.NON_ADVERSARIAL.value)

    def test_lower_threshold_never_decreases_invocations(self):
        regressor, classifier = make_models(3)
        x = features(3, n=60)
        counts = []
        for theta in (1e-2, 1e-3, 1e-4):
            cascade = SequentialAssessor(regressor, classifier, threshold_ber=theta)
            cascade.assess_batch(x, classifier.predict_batched(x)[0])
            counts.append(cascade.classifier_invocations)
        assert counts == sorted(counts)

    def test_vanishing_threshold_degenerates_to_always_classify(self):
        """At a threshold below any representable prediction the cascade's
        intent decisions equal the standalone classifier's decisions."""
        regressor, classifier = make_models(4)
        x = features(4, n=24)
        cascade = SequentialAssessor(regressor, classifier, threshold_ber=1e-300)
        intent_idx, _, gated = cascade.assess_batch(x, classifier.predict_batched(x)[0])
        assert not np.any(gated)
        assert cascade.classifier_invocations == x.shape[0]
        probs, _ = classifier.predict_batched(x)
        np.testing.assert_array_equal(intent_idx, np.argmax(probs, axis=1))

    def test_gate_reads_the_ber_the_grade_reads(self):
        """A prediction at log-BER x0 with theta = 10.0 ** x0 is gated, also
        where NumPy's array power puts 10 ** x0 one ULP above Python's."""
        regressor, classifier = make_models(9)
        x = features(9)
        # The first grid point where the array power over a batch of this
        # length exceeds the scalar power (grid[0] if none does here).
        grid = [float(v) for v in np.linspace(-4.0, -3.0, 1001)]
        x0 = next((v for v in grid if np.all(10.0 ** np.full(len(x), v) > 10.0 ** v)),
                  grid[0])
        pin_regressor_output(regressor, x0)
        cascade = SequentialAssessor(regressor, classifier, threshold_ber=10.0 ** x0)
        _, log_ber_pred, gated = cascade.assess_batch(x, classifier.predict_batched(x)[0])
        assert np.all(gated)
        assert cascade.gated_count == len(x)
        np.testing.assert_array_equal(ber(log_ber_pred), 10.0 ** x0)

    def test_structural_false_negative_on_capable_spoofer(self):
        """A deceptive sample predicted at BER 1e-5 is graded benign."""
        regressor, classifier = make_models(5)
        pin_regressor_output(regressor, -5.0)
        cascade = SequentialAssessor(regressor, classifier, threshold_ber=1e-2)
        x = features(5, n=1)
        intent_idx, log_ber_pred, _ = cascade.assess_batch(x, classifier.predict_batched(x)[0])
        # The true intent (deceptive) never enters the cascade's view.
        assert intent_idx[0] == ThreatKind.NON_ADVERSARIAL.value
        assert assess(intent_idx, log_ber_pred)[1][0] == 0


class TestConfigValidation:
    def test_threshold_domain(self):
        regressor, classifier = make_models(6)
        for theta in (0.0, 1.0, 1.5):
            with pytest.raises(ValueError):
                SequentialAssessor(regressor, classifier, threshold_ber=theta)

    def test_backbone_mismatch_rejected(self):
        regressor = he_init(NET, np.random.default_rng(7))
        other = NetworkConfig(SHAPE, conv_blocks=((8, 3, 1), (8, 3, 1)))
        classifier = he_init(other, np.random.default_rng(8))
        with pytest.raises(ValueError, match="backbone"):
            check_same_backbone(regressor, classifier)

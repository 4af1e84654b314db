"""Tests for the free-space link budget and noise generation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpaware.channel import (
    LinkBudget,
    aperture_gain,
    awgn,
    channel_gain,
    gain_breakdown,
    path_loss,
    pointing_loss,
)


def make_link(**overrides) -> LinkBudget:
    base = dict(tx_power_w=0.5, distance_m=500e3, wavelength_m=1500e-9,
                tx_aperture_m=0.1, rx_aperture_m=0.2,
                jitter_rad=0.002, divergence_rad=0.02)
    base.update(overrides)
    return LinkBudget(**base)


class TestPointingLoss:
    def test_zero_jitter_is_unity(self):
        assert pointing_loss(0.0, 0.02) == 1.0

    def test_reference_value(self):
        # exp(-8 * 0.002**2 / 0.02**2) = exp(-0.08)
        assert pointing_loss(0.002, 0.02) == pytest.approx(math.exp(-0.08), rel=1e-12)
        assert pointing_loss(0.002, 0.02) == pytest.approx(0.92312, abs=5e-6)

    @settings(max_examples=30, deadline=None)
    @given(jitter=st.one_of(st.just(0.0), st.floats(1e-4, 0.01)),
           divergence=st.floats(0.005, 0.5))
    def test_bounded(self, jitter, divergence):
        # Jitter up to 2x the divergence; beyond that exp underflows to 0.0,
        # and sub-microradian jitter rounds the loss back up to exactly 1.0.
        loss = pointing_loss(jitter, divergence)
        assert 0.0 < loss <= 1.0
        assert (loss == 1.0) == (jitter == 0.0)


class TestLinkBudget:
    def test_aperture_gain_hand_value(self):
        assert aperture_gain(0.1, 1500e-9) == pytest.approx(4.3865e10, rel=1e-4)

    def test_path_loss_hand_value(self):
        assert path_loss(500e3, 1500e-9) == pytest.approx(5.699e-26, rel=1e-3)

    def test_received_power_hand_value(self):
        """Hand-chained budget: 0.5 W at 500 km lands near -36.94 dBW."""
        link = make_link()
        h2 = (aperture_gain(0.1, 1500e-9) * aperture_gain(0.2, 1500e-9)
              * path_loss(500e3, 1500e-9) * math.exp(-0.08))
        expected = 10 * math.log10(0.5 * h2)
        received_dbw = 10 * math.log10(link.tx_power_w * channel_gain(link) ** 2)
        assert received_dbw == pytest.approx(expected, rel=1e-9)
        assert received_dbw == pytest.approx(-36.9366, abs=1e-3)

    def test_gain_decomposes_additively_in_db(self):
        link = make_link(tx_efficiency=0.8, rx_efficiency=0.9)
        total_db = 10 * math.log10(channel_gain(link) ** 2)
        parts_db = sum(10 * math.log10(v) for v in gain_breakdown(link).values())
        assert total_db == pytest.approx(parts_db, abs=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_monotone_in_distance(self, seed):
        rng = np.random.default_rng(seed)
        link = make_link(
            distance_m=float(rng.uniform(1e5, 1e7)),
            tx_aperture_m=float(rng.uniform(0.01, 1.0)),
            rx_aperture_m=float(rng.uniform(0.01, 1.0)),
            jitter_rad=float(rng.uniform(0, 0.01)),
        )
        farther = make_link(
            distance_m=link.distance_m * 1.5,
            tx_aperture_m=link.tx_aperture_m,
            rx_aperture_m=link.rx_aperture_m,
            jitter_rad=link.jitter_rad,
        )
        assert channel_gain(farther) < channel_gain(link)

    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            make_link(distance_m=0.0)
        with pytest.raises(ValueError):
            make_link(tx_efficiency=0.0)
        with pytest.raises(ValueError):
            make_link(jitter_rad=-1e-3)


class TestAwgn:
    def test_variance_at_minus_56_dbw(self):
        power_w = 10.0 ** (-56.0 / 10.0)
        assert power_w == pytest.approx(2.5119e-6, rel=1e-4)
        samples = awgn(1_000_000, power_w, np.random.default_rng(9))
        assert np.mean(np.abs(samples) ** 2) == pytest.approx(10 ** -5.6, rel=0.01)

    def test_circular_symmetry(self):
        power_w = 10.0 ** (-56.0 / 10.0)
        samples = awgn(1_000_000, power_w, np.random.default_rng(10))
        half = power_w / 2
        assert np.var(samples.real) == pytest.approx(half, rel=0.02)
        assert np.var(samples.imag) == pytest.approx(half, rel=0.02)

    def test_deterministic_per_seed(self):
        power_w = 10.0 ** (-57.0 / 10.0)
        a = awgn(4096, power_w, np.random.default_rng(42))
        b = awgn(4096, power_w, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("variance_dbw", [-56.0, -31.5])
    def test_bitwise_equal_to_complex_expression(self, variance_dbw):
        """Same draws, same order and same bytes as the expression
        ``sigma * (a + 1j * b)``, at the full preset's sample length."""
        length = (512 + 64) * 600
        power_w = 10.0 ** (variance_dbw / 10.0)
        got_rng, ref_rng = np.random.default_rng(17), np.random.default_rng(17)
        got = awgn(length, power_w, got_rng)
        sigma = math.sqrt(power_w / 2.0)
        ref = sigma * (ref_rng.standard_normal(length)
                       + 1j * ref_rng.standard_normal(length))
        assert got.dtype == ref.dtype and got.shape == ref.shape
        np.testing.assert_array_equal(got.view(np.uint64), ref.view(np.uint64))
        assert got_rng.standard_normal() == ref_rng.standard_normal()

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="length"):
            awgn(0, 2e-6, np.random.default_rng(0))
        for power_w in (0.0, -1e-6, math.inf, math.nan):
            with pytest.raises(ValueError, match="power_w must be positive and finite"):
                awgn(8, power_w, np.random.default_rng(0))

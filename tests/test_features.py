"""Tests for the spectrogram-morphology feature pipeline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpaware.channel import NoiseConfig, awgn
from cpaware.features import (
    FeatureConfig,
    feature_tensor,
    local_extrema,
    spectrogram,
)
from cpaware.ofdm import FrameConfig


def disk_offsets(radius: int) -> tuple[tuple[int, int], ...]:
    """Integer offsets (du, dv) with du^2 + dv^2 <= radius^2."""
    return tuple(
        (du, dv)
        for du in range(-radius, radius + 1)
        for dv in range(-radius, radius + 1)
        if du * du + dv * dv <= radius * radius
    )


def brute_force_extrema(matrix: np.ndarray, radius: int):
    """Per-pixel disk scan with explicit border clipping (the oracle)."""
    rows, cols = matrix.shape
    sup = np.empty_like(matrix, dtype=float)
    inf = np.empty_like(matrix, dtype=float)
    for k in range(rows):
        for m in range(cols):
            values = []
            for du, dv in disk_offsets(radius):
                i, j = k + du, m + dv
                if 0 <= i < rows and 0 <= j < cols:
                    values.append(matrix[i, j])
            sup[k, m] = max(values)
            inf[k, m] = min(values)
    return sup, inf


def naive_spectrogram(series: np.ndarray, n: int) -> np.ndarray:
    """Double-loop transform-magnitude oracle."""
    frames = series.size // n
    out = np.zeros((frames, n))
    for k in range(frames):
        for m in range(n):
            acc = 0j
            for t in range(n):
                acc += series[k * n + t] * np.exp(-2j * np.pi * m * t / n)
            out[k, m] = abs(acc)
    return out


class TestSpectrogram:
    def test_dc_input(self):
        frame = FrameConfig(8, 0, 4)
        spec = spectrogram(np.ones(32, dtype=complex), frame)
        np.testing.assert_allclose(spec[:, 0], 8.0, atol=1e-12)
        np.testing.assert_allclose(spec[:, 1:], 0.0, atol=1e-12)

    def test_single_tone_concentrates_in_one_column(self):
        frame = FrameConfig(16, 0, 3)
        bin_idx = 5
        n = np.arange(48)
        tone = np.exp(2j * np.pi * bin_idx * (n % 16) / 16)
        spec = spectrogram(tone, frame)
        np.testing.assert_allclose(spec[:, bin_idx], 16.0, atol=1e-10)
        mask = np.ones(16, dtype=bool)
        mask[bin_idx] = False
        np.testing.assert_allclose(spec[:, mask], 0.0, atol=1e-10)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(7)
        frame = FrameConfig(8, 0, 4)
        series = rng.normal(size=32) + 1j * rng.normal(size=32)
        np.testing.assert_allclose(
            spectrogram(series, frame), naive_spectrogram(series, 8), atol=1e-10
        )

    def test_rejects_non_divisible_length(self):
        frame = FrameConfig(8, 0, 4)
        with pytest.raises(ValueError, match="multiple"):
            spectrogram(np.zeros(30, dtype=complex), frame)

    def test_noise_spectrogram_has_no_dead_column(self):
        """Column means of a pure-noise spectrogram all sit near the average."""
        frame = FrameConfig(64, 0, 64)
        noise = awgn(64 * 64, NoiseConfig(-56.0), np.random.default_rng(3))
        spec = spectrogram(noise, frame)
        column_means = spec.mean(axis=0)
        assert column_means.min() > 0.5 * column_means.mean()


class TestLocalExtrema:
    def test_zero_radius_is_identity(self):
        rng = np.random.default_rng(1)
        matrix = rng.normal(size=(9, 7))
        sup, inf = local_extrema(matrix, 0)
        np.testing.assert_array_equal(sup, matrix)
        np.testing.assert_array_equal(inf, matrix)

    def test_constant_matrix(self):
        matrix = np.full((6, 6), 3.25)
        sup, inf = local_extrema(matrix, 2)
        np.testing.assert_array_equal(sup, matrix)
        np.testing.assert_array_equal(inf, matrix)

    @pytest.mark.parametrize("shape, radius", [
        pytest.param((32, 32), 1, id="1"),
        pytest.param((32, 32), 3, id="3"),
        pytest.param((32, 32), 7, id="7"),
        pytest.param((9, 23), 4, id="9x23-r4"),
        pytest.param((23, 9), 6, id="23x9-r6"),
        pytest.param((5, 3), 7, id="5x3-r7"),
        pytest.param((1, 12), 2, id="1x12-r2"),
        pytest.param((20, 40), 15, id="20x40-r15"),
    ])
    def test_matches_brute_force_oracle(self, shape, radius):
        rng = np.random.default_rng(radius)
        matrix = rng.normal(size=shape)
        sup, inf = local_extrema(matrix, radius)
        sup_ref, inf_ref = brute_force_extrema(matrix, radius)
        np.testing.assert_array_equal(sup, sup_ref)
        np.testing.assert_array_equal(inf, inf_ref)

    @settings(max_examples=40, deadline=None)
    @given(rows=st.integers(1, 12), cols=st.integers(1, 12),
           radius=st.integers(0, 9), seed=st.integers(0, 2**32 - 1))
    def test_matches_brute_force_oracle_property(self, rows, cols, radius, seed):
        matrix = np.random.default_rng(seed).normal(size=(rows, cols))
        sup, inf = local_extrema(matrix, radius)
        sup_ref, inf_ref = brute_force_extrema(matrix, radius)
        np.testing.assert_array_equal(sup, sup_ref)
        np.testing.assert_array_equal(inf, inf_ref)

    def test_duality(self):
        """Erosion is dilation of the negated matrix, negated back."""
        rng = np.random.default_rng(5)
        matrix = rng.normal(size=(20, 24))
        sup, inf = local_extrema(matrix, 3)
        neg_sup, _ = local_extrema(-matrix, 3)
        np.testing.assert_array_equal(inf, -neg_sup)

    def test_monotone_in_radius(self):
        rng = np.random.default_rng(6)
        matrix = rng.normal(size=(24, 24))
        previous_sup, previous_inf = local_extrema(matrix, 0)
        for radius in (1, 2, 4):
            sup, inf = local_extrema(matrix, radius)
            assert np.all(sup >= previous_sup)
            assert np.all(inf <= previous_inf)
            previous_sup, previous_inf = sup, inf

    def test_translation_equivariance_on_interior(self):
        rng = np.random.default_rng(8)
        matrix = rng.normal(size=(30, 30))
        radius, shift = 3, (2, 5)
        sup, _ = local_extrema(matrix, radius)
        sup_shifted, _ = local_extrema(np.roll(matrix, shift, axis=(0, 1)), radius)
        margin = radius + max(shift)
        inner = (slice(margin, 30 - margin),) * 2
        np.testing.assert_array_equal(
            sup_shifted[inner], np.roll(sup, shift, axis=(0, 1))[inner]
        )

    def test_disk_offsets_counts(self):
        assert len(disk_offsets(0)) == 1
        assert len(disk_offsets(1)) == 5
        assert len(disk_offsets(2)) == 13

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            local_extrema(np.array([[1.0, np.nan]]), 1)

    @pytest.mark.parametrize("radius", [6, 7, 8, 9, 20])
    def test_radius_around_the_reach_matches_oracle(self, radius):
        """A 7x5 matrix has reach 8 (6^2 + 4^2 = 52 <= 64); 7 is the last
        radius whose disk misses a pixel pair."""
        matrix = np.random.default_rng(radius).normal(size=(7, 5))
        matrix[0, 0] = 10.0  # the maximum, seen from the far corner only at r >= 8
        sup, inf = local_extrema(matrix, radius)
        sup_ref, inf_ref = brute_force_extrema(matrix, radius)
        np.testing.assert_array_equal(sup, sup_ref)
        np.testing.assert_array_equal(inf, inf_ref)
        assert (sup[-1, -1] == 10.0) == (radius >= 8)

    def test_huge_radius_gives_global_extrema(self):
        """r = 10^6 is clamped to the reach: no (2r+1)^2 padding, no O(r^2) scan."""
        matrix = np.random.default_rng(4).normal(size=(7, 5))
        sup, inf = local_extrema(matrix, 10**6)
        np.testing.assert_array_equal(sup, np.full((7, 5), matrix.max()))
        np.testing.assert_array_equal(inf, np.full((7, 5), matrix.min()))


class TestFeatureTensor:
    FRAME = FrameConfig(16, 4, 12)

    def _sample(self, seed=0):
        rng = np.random.default_rng(seed)
        return (rng.normal(size=self.FRAME.sample_len)
                + 1j * rng.normal(size=self.FRAME.sample_len))

    def test_shape_and_range(self):
        tensor = feature_tensor(self._sample(), self.FRAME, FeatureConfig(2))
        assert tensor.shape == (12, 16, 3)
        assert tensor.data.min() >= 0.0
        assert tensor.data.max() <= 1.0

    def test_channel_ordering_before_normalization(self):
        tensor = feature_tensor(self._sample(1), self.FRAME, FeatureConfig(2))
        raw = tensor.denormalize()
        assert np.all(raw[:, :, 1] >= raw[:, :, 0] - 1e-12)
        assert np.all(raw[:, :, 0] >= raw[:, :, 2] - 1e-12)

    def test_normalization_roundtrip(self):
        from cpaware.features import local_extrema as extrema
        from cpaware.features import spectrogram as spec_fn
        from cpaware.ofdm import remove_cp

        received = self._sample(2)
        tensor = feature_tensor(received, self.FRAME, FeatureConfig(2))
        spec = spec_fn(remove_cp(received, self.FRAME), self.FRAME)
        sup, inf = extrema(spec, 2)
        raw = np.stack([spec, sup, inf], axis=-1)
        np.testing.assert_allclose(tensor.denormalize(), raw, atol=1e-6)

    def test_constant_channel_roundtrip(self):
        # A lone tone gives a constant supremum map at small radii.
        frame = FrameConfig(4, 0, 4)
        series = np.ones(16, dtype=complex)
        tensor = feature_tensor(series, frame, FeatureConfig(0))
        round_tripped = tensor.denormalize()
        spec = spectrogram(series, frame)
        np.testing.assert_allclose(round_tripped[:, :, 0], spec, atol=1e-9)

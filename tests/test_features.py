"""Tests for the spectrogram-morphology feature pipeline."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpaware import features
from cpaware.channel import awgn
from cpaware.features import (
    EXTREMA_BAND_ROWS,
    RANGE_COLUMNS,
    FeatureConfig,
    feature_shape,
    feature_tensor,
    local_extrema,
    spectrogram,
)
from cpaware.ofdm import FrameConfig, block_spectra
from cpaware.threats import ScenarioSpace, ThreatKind, generate_sample


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


def scan_extrema(matrix: np.ndarray, radius: int):
    """Border-clipped disk scan, vectorized: one shifted max and min per disk
    offset over a padding of -inf (for the max) and +inf (for the min)."""
    rows, cols = matrix.shape
    low = np.pad(matrix, radius, constant_values=-np.inf)
    high = np.pad(matrix, radius, constant_values=np.inf)
    sup = np.full(matrix.shape, -np.inf)
    inf = np.full(matrix.shape, np.inf)
    for du, dv in disk_offsets(radius):
        window = (slice(radius + du, radius + du + rows),
                  slice(radius + dv, radius + dv + cols))
        np.maximum(sup, low[window], out=sup)
        np.minimum(inf, high[window], out=inf)
    return sup, inf


def stacked_feature_tensor(spectra: np.ndarray, radius: int):
    """Stack the three maps, then min-max normalize over the last axis
    (the oracle for feature_tensor's plane-by-plane normalization)."""
    spec = spectrogram(spectra)
    stack = np.stack([spec, *local_extrema(spec, radius)], axis=-1)
    lo = stack.min(axis=(0, 1))
    hi = stack.max(axis=(0, 1))
    span = np.where(hi > lo, hi - lo, 1.0)
    return (stack - lo) / span, lo, hi


def denormalize(data: np.ndarray, ranges: np.ndarray) -> np.ndarray:
    """The raw-magnitude stack, recovered from ``feature_tensor``'s ranges."""
    lo, hi = ranges[:3], ranges[3:]
    return data * (hi - lo) + lo


def assert_bitwise_equal(got, ref) -> None:
    for a, b in zip(got, ref, strict=True):
        assert a.shape == b.shape
        np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))


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
        spec = spectrogram(block_spectra(np.ones(32, dtype=complex), frame))
        np.testing.assert_allclose(spec[:, 0], 8.0, atol=1e-12)
        np.testing.assert_allclose(spec[:, 1:], 0.0, atol=1e-12)

    def test_single_tone_concentrates_in_one_column(self):
        frame = FrameConfig(16, 0, 3)
        bin_idx = 5
        n = np.arange(48)
        tone = np.exp(2j * np.pi * bin_idx * (n % 16) / 16)
        spec = spectrogram(block_spectra(tone, frame))
        np.testing.assert_allclose(spec[:, bin_idx], 16.0, atol=1e-10)
        mask = np.ones(16, dtype=bool)
        mask[bin_idx] = False
        np.testing.assert_allclose(spec[:, mask], 0.0, atol=1e-10)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(7)
        frame = FrameConfig(8, 0, 4)
        series = rng.normal(size=32) + 1j * rng.normal(size=32)
        np.testing.assert_allclose(
            spectrogram(block_spectra(series, frame)), naive_spectrogram(series, 8), atol=1e-10
        )

    def test_rejects_non_divisible_length(self):
        frame = FrameConfig(8, 0, 4)
        with pytest.raises(ValueError, match="multiple"):
            spectrogram(block_spectra(np.zeros(30, dtype=complex), frame))

    def test_noise_spectrogram_has_no_dead_column(self):
        """Column means of a pure-noise spectrogram all sit near the average."""
        frame = FrameConfig(64, 0, 64)
        noise = awgn(64 * 64, 10.0 ** (-56.0 / 10.0), np.random.default_rng(3))
        spec = spectrogram(block_spectra(noise, frame))
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

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError, match="2-D"):
            local_extrema(np.zeros((4, 4, 2)), 1)

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

    @pytest.mark.parametrize("shape, radius", [
        pytest.param((9, 23), 4, id="9x23-r4"),
        pytest.param((12, 7), 5, id="12x7-r5"),
        pytest.param((20, 40), 15, id="20x40-r15"),
    ])
    def test_scan_oracle_matches_brute_force(self, shape, radius):
        matrix = np.random.default_rng(radius).normal(size=shape)
        for got, ref in zip(scan_extrema(matrix, radius),
                            brute_force_extrema(matrix, radius)):
            np.testing.assert_array_equal(got, ref)

    @pytest.mark.parametrize("shape, radius", [
        pytest.param((256, 260), 1, id="256x260-r1"),
        pytest.param((256, 260), 5, id="256x260-r5"),
        pytest.param((256, 260), 15, id="256x260-r15"),
        pytest.param((131, 509), 9, id="131x509-r9"),
        pytest.param((256, 256), 3, id="256x256-r3"),
    ])
    def test_large_matrix_matches_scan_oracle(self, shape, radius):
        """Matrices of 2^16 pixels and more, each two bands tall, equal the
        border-clipped scan bit for bit."""
        matrix = np.random.default_rng(radius).normal(size=shape)
        sup, inf = local_extrema(matrix, radius)
        sup_ref, inf_ref = scan_extrema(matrix, radius)
        np.testing.assert_array_equal(sup, sup_ref)
        np.testing.assert_array_equal(inf, inf_ref)

    def test_huge_radius_gives_global_extrema(self):
        """r = 10^6 is clamped to the reach: no (2r+1)^2 padding, no O(r^2) scan."""
        matrix = np.random.default_rng(4).normal(size=(7, 5))
        sup, inf = local_extrema(matrix, 10**6)
        np.testing.assert_array_equal(sup, np.full((7, 5), matrix.max()))
        np.testing.assert_array_equal(inf, np.full((7, 5), matrix.min()))

    @pytest.mark.parametrize("shape", [
        pytest.param((EXTREMA_BAND_ROWS - 1, 516), id="band-1-by-516"),
        pytest.param((EXTREMA_BAND_ROWS - 1, 517), id="band-1-by-517"),
        pytest.param((EXTREMA_BAND_ROWS, 511), id="band-by-511"),
        pytest.param((EXTREMA_BAND_ROWS, 512), id="band-by-512"),
        pytest.param((EXTREMA_BAND_ROWS + 1, 508), id="band+1-by-508"),
        pytest.param((EXTREMA_BAND_ROWS + 1, 509), id="band+1-by-509"),
        pytest.param((2 * EXTREMA_BAND_ROWS + 3, 253), id="2band+3-by-253"),
        pytest.param((2 * EXTREMA_BAND_ROWS + 3, 254), id="2band+3-by-254"),
    ])
    def test_band_edges_match_scan_oracle(self, shape):
        """One band short of, at and past a band boundary, and a short third
        band, each just under and at 2^16 pixels: each band reads its own 2r
        padded rows, bit for bit the scan."""
        matrix = np.random.default_rng(shape[0]).normal(size=shape)
        assert_bitwise_equal(local_extrema(matrix, 15), scan_extrema(matrix, 15))

    @pytest.mark.parametrize("shape, radius, band", [
        pytest.param((300, 40), 150, EXTREMA_BAND_ROWS, id="300x40-r150"),
        pytest.param((19, 3450), 12, 8, id="19x3450-r12-band8"),
    ])
    def test_radius_beyond_the_band_matches_scan_oracle(self, shape, radius, band,
                                                        monkeypatch):
        """A band may read more padded rows than it writes.  The scan oracle
        costs O(r^2) per pixel, so the wide case narrows the band."""
        monkeypatch.setattr(features, "EXTREMA_BAND_ROWS", band)
        assert radius > band and shape[0] > band
        matrix = np.random.default_rng(radius).normal(size=shape)
        assert_bitwise_equal(local_extrema(matrix, radius), scan_extrema(matrix, radius))

    def test_chains_share_one_band_buffer(self):
        """At 600 x 512, r = 15, the call holds the padding, the two output
        planes and one band buffer that both chains reuse: tracemalloc peaks
        at 8.48 MiB.  A band buffer per chain peaked at 9.67 MiB."""
        rows, cols, radius = 600, 512, 15
        matrix = np.random.default_rng(radius).normal(size=(rows, cols))
        padded = (rows + 2 * radius) * (cols + 2 * radius) * 8
        band = (2 * EXTREMA_BAND_ROWS + 2 * radius) * (cols + 2 * radius) * 8
        tracemalloc.start()
        try:
            local_extrema(matrix, radius)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < padded + band + 2 * matrix.nbytes + 2**16

    def test_radius_clamped_beyond_the_band_gives_global_extrema(self):
        """band + 2 rows by 3 columns reach band + 2: r = 10^6 is clamped to a
        radius over the band, and both bands see every pixel."""
        shape = (EXTREMA_BAND_ROWS + 2, 3)
        matrix = np.random.default_rng(3).normal(size=shape)
        sup, inf = local_extrema(matrix, 10**6)
        np.testing.assert_array_equal(sup, np.full(shape, matrix.max()))
        np.testing.assert_array_equal(inf, np.full(shape, matrix.min()))


class TestFeatureTensor:
    FRAME = FrameConfig(16, 4, 12)

    def _sample(self, seed=0):
        """The block spectra of a seeded complex-normal series."""
        rng = np.random.default_rng(seed)
        series = (rng.normal(size=self.FRAME.sample_len)
                  + 1j * rng.normal(size=self.FRAME.sample_len))
        return block_spectra(series, self.FRAME)

    def test_shape_and_range(self):
        data, ranges = feature_tensor(self._sample(), FeatureConfig(2))
        assert data.shape == feature_shape(self.FRAME) == (12, 16, 3)
        assert ranges.shape == (len(RANGE_COLUMNS),) == (6,)
        assert data.min() >= 0.0
        assert data.max() <= 1.0

    def test_channel_ordering_before_normalization(self):
        raw = denormalize(*feature_tensor(self._sample(1), FeatureConfig(2)))
        assert np.all(raw[:, :, 1] >= raw[:, :, 0] - 1e-12)
        assert np.all(raw[:, :, 0] >= raw[:, :, 2] - 1e-12)

    def test_normalization_roundtrip(self):
        from cpaware.features import local_extrema as extrema
        from cpaware.features import spectrogram as spec_fn

        spectra = self._sample(2)
        features = feature_tensor(spectra, FeatureConfig(2))
        spec = spec_fn(spectra)
        sup, inf = extrema(spec, 2)
        raw = np.stack([spec, sup, inf], axis=-1)
        np.testing.assert_allclose(denormalize(*features), raw, atol=1e-6)

    def test_constant_channel_roundtrip(self):
        # A lone tone gives a constant supremum map at small radii.
        frame = FrameConfig(4, 0, 4)
        spectra = block_spectra(np.ones(16, dtype=complex), frame)
        round_tripped = denormalize(*feature_tensor(spectra, FeatureConfig(0)))
        spec = spectrogram(spectra)
        np.testing.assert_allclose(round_tripped[:, :, 0], spec, atol=1e-9)

    @staticmethod
    def _case_spectra(name: str, frame: FrameConfig) -> np.ndarray:
        if name == "noise":
            rng = np.random.default_rng(frame.n_symbols)
            series = (rng.normal(size=frame.sample_len)
                      + 1j * rng.normal(size=frame.sample_len))
        elif name == "one-constant":
            # Spectrum magnitudes (1, 2, ..., 7) with a 9 at bin 4: every bin
            # is within r = 4 of bin 4, so the supremum map is constant, while
            # bin 7 cannot see the minimum at bin 0.
            series = np.tile(np.fft.ifft([1.0, 2, 3, 4, 9, 5, 6, 7]), 2)
        else:
            series = np.zeros(frame.sample_len, dtype=complex)
        return block_spectra(series, frame)

    CASES = [
        pytest.param("noise", FrameConfig(16, 4, 12), 2, id="noise"),
        pytest.param("noise", FrameConfig(256, 16, 256), 6, id="noise-above-gate"),
        pytest.param("one-constant", FrameConfig(8, 0, 2), 4, id="one-constant"),
        pytest.param("zeros", FrameConfig(8, 2, 4), 1, id="all-zero"),
    ]

    @pytest.mark.parametrize("name, frame, radius", CASES)
    def test_bitwise_equal_to_stacked_normalization(self, name, frame, radius):
        spectra = self._case_spectra(name, frame)
        got, ranges = feature_tensor(spectra, FeatureConfig(radius))
        data, lo, hi = stacked_feature_tensor(spectra, radius)
        constant = hi == lo
        assert list(constant) == {"noise": [False] * 3, "one-constant": [False, True, False],
                                  "zeros": [True] * 3}[name]
        assert got.dtype == data.dtype and got.shape == data.shape
        np.testing.assert_array_equal(got.view(np.uint64), data.view(np.uint64))
        assert ranges.dtype == lo.dtype and ranges.shape == (6,)
        np.testing.assert_array_equal(ranges[:3].view(np.uint64), lo.view(np.uint64))
        np.testing.assert_array_equal(ranges[3:].view(np.uint64), hi.view(np.uint64))

    @pytest.mark.parametrize("name, frame, radius", CASES)
    def test_float32_out_is_the_float64_stack_rounded(self, name, frame, radius):
        """Into a float32 ``out``, each value is the float64 result rounded
        once; the call returns ``out`` itself and the same ranges."""
        spectra = self._case_spectra(name, frame)
        data, ranges = feature_tensor(spectra, FeatureConfig(radius))
        out = np.full(feature_shape(frame), np.nan, dtype=np.float32)
        got, got_ranges = feature_tensor(spectra, FeatureConfig(radius), out=out)
        assert got is out
        np.testing.assert_array_equal(out.view(np.uint32),
                                      data.astype(np.float32).view(np.uint32))
        assert got_ranges.dtype == ranges.dtype
        np.testing.assert_array_equal(got_ranges.view(np.uint64), ranges.view(np.uint64))

    def test_one_forward_transform_per_sample(self, monkeypatch):
        """A sample's label and its feature maps read the same block spectra:
        generating it and its features runs one forward FFT."""
        transforms = []
        fft = np.fft.fft

        def counted_fft(*args, **kwargs):
            transforms.append(args[0].shape)
            return fft(*args, **kwargs)

        monkeypatch.setattr(np.fft, "fft", counted_fft)
        scenario = ScenarioSpace().draw(ThreatKind.DISRUPTIVE, self.FRAME, 3)
        sample = generate_sample(scenario, 3)
        feature_tensor(sample.spectra, FeatureConfig(2))
        assert transforms == [(self.FRAME.n_symbols, self.FRAME.n_subcarriers)]

    def test_float32_row_at_full_geometry_allocates_under_bound(self):
        """One full-geometry sample's spectra (600 x 512, r = 15) into a float32
        row hold the three float64 planes, the padding and the chains' band
        buffer, and no float64 stack: tracemalloc peaks at 10.8 MiB.  Writing
        a float64 stack and casting it into the row peaks at 14.1 MiB."""
        frame = FrameConfig(512, 64, 600)
        rng = np.random.default_rng(15)
        series = rng.normal(size=frame.sample_len) + 1j * rng.normal(size=frame.sample_len)
        spectra = block_spectra(series, frame)
        row = np.empty(feature_shape(frame), dtype=np.float32)
        tracemalloc.start()
        try:
            feature_tensor(spectra, FeatureConfig(15), out=row)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12.5 * 2**20

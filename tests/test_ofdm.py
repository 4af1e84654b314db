"""Tests for the QAM/OFDM baseband chain."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from cpaware.channel import awgn
from cpaware.ofdm import (
    QAM_SLICE_SYMBOLS,
    FrameConfig,
    block_spectra,
    compute_ber,
    ofdm_demodulate,
    ofdm_modulate,
    qam_alphabet,
    qam_demodulate,
    qam_modulate,
    random_bits,
)


def naive_idft(spectrum: np.ndarray) -> np.ndarray:
    """O(N^2) synthesis oracle with the unitary 1/sqrt(N) convention."""
    n = spectrum.size
    out = np.zeros(n, dtype=complex)
    for t in range(n):
        acc = 0j
        for k in range(n):
            acc += spectrum[k] * np.exp(2j * np.pi * t * k / n)
        out[t] = acc / math.sqrt(n)
    return out


def naive_dft(series: np.ndarray) -> np.ndarray:
    n = series.size
    out = np.zeros(n, dtype=complex)
    for k in range(n):
        acc = 0j
        for t in range(n):
            acc += series[t] * np.exp(-2j * np.pi * t * k / n)
        out[k] = acc / math.sqrt(n)
    return out


def nearest_neighbour_bits(grid: np.ndarray, cfg: FrameConfig) -> np.ndarray:
    """Decision oracle: first minimum of the distance to every alphabet point."""
    alphabet = qam_alphabet(cfg.qam_order)
    flat = grid.T.reshape(-1)
    labels = np.argmin(np.abs(flat[:, None] - alphabet[None, :]), axis=1)
    shifts = np.arange(cfg.bits_per_symbol - 1, -1, -1)
    return ((labels[:, None] >> shifts) & 1).reshape(-1)


class TestFrameConfig:
    def test_bits_per_sample(self):
        cfg = FrameConfig(512, 64, 600, qam_order=4)
        assert cfg.bits_per_sample == 512 * 600 * 2
        assert cfg.sample_len == 600 * 576

    @pytest.mark.parametrize("kwargs", [
        dict(n_subcarriers=0, cp_len=0, n_symbols=1),
        dict(n_subcarriers=8, cp_len=8, n_symbols=1),
        dict(n_subcarriers=8, cp_len=-1, n_symbols=1),
        dict(n_subcarriers=8, cp_len=2, n_symbols=0),
        dict(n_subcarriers=8, cp_len=2, n_symbols=1, qam_order=8),
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            FrameConfig(**kwargs)


class TestQamMapping:
    def test_documented_qpsk_corner(self):
        """The all-zero label sits at (1+1j)/sqrt(2) by the Gray convention."""
        cfg = FrameConfig(1, 0, 1, qam_order=4)
        grid = qam_modulate(np.array([0, 0]), cfg)
        np.testing.assert_allclose(grid[0, 0], (1 + 1j) / math.sqrt(2), atol=1e-15)

    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_unit_average_power(self, order):
        alphabet = qam_alphabet(order)
        assert alphabet.size == order
        np.testing.assert_allclose(np.mean(np.abs(alphabet) ** 2), 1.0, atol=1e-12)

    @pytest.mark.parametrize("order, digest", [
        (4, "db860e05d78202f159e28f16fbe26c8e060fc8c65c4b872c8bb3f7fc5915071e"),
        (16, "76a51a7540737fc5fdeee017f325993c9c95afaf275dc32606e8f28c84ecd651"),
        (64, "1f1f21a0d8cae4f3366f29dc3cd762db6415b8d40951223fafcc74d5f5eb35b0"),
    ])
    def test_alphabet_bytes_pinned(self, order, digest):
        """Every point of every alphabet, to the bit: the datasets' bytes start here."""
        assert hashlib.sha256(qam_alphabet(order).tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_gray_property_exhaustive(self, order):
        """Nearest constellation neighbours differ in exactly one bit."""
        alphabet = qam_alphabet(order)
        bps = int(math.log2(order))
        min_dist = np.inf
        for a in range(order):
            for b in range(a + 1, order):
                min_dist = min(min_dist, abs(alphabet[a] - alphabet[b]))
        for a in range(order):
            for b in range(order):
                if a != b and abs(alphabet[a] - alphabet[b]) < min_dist * 1.001:
                    assert bin(a ^ b).count("1") == 1, (a, b)
        # Round trip over every alphabet point.
        cfg = FrameConfig(order, 0, 1, qam_order=order)
        bits = np.array([(label >> s) & 1
                         for label in range(order)
                         for s in range(bps - 1, -1, -1)])
        np.testing.assert_array_equal(qam_demodulate(qam_modulate(bits, cfg), cfg), bits)

    def test_all_zero_bits_constant_grid(self):
        cfg = FrameConfig(8, 2, 4, qam_order=16)
        grid = qam_modulate(np.zeros(cfg.bits_per_sample, dtype=int), cfg)
        assert np.unique(grid).size == 1

    def test_length_mismatch(self):
        cfg = FrameConfig(8, 2, 4)
        with pytest.raises(ValueError, match="bits"):
            qam_modulate(np.zeros(7, dtype=int), cfg)

    @settings(max_examples=25, deadline=None)
    @given(order=st.sampled_from([4, 16, 64]), seed=st.integers(0, 2**32 - 1))
    def test_roundtrip_property(self, order, seed):
        """demodulate(modulate(bits)) == bits for random bits, all orders."""
        cfg = FrameConfig(16, 4, 3, qam_order=order)
        bits = random_bits(cfg.bits_per_sample, np.random.default_rng(seed))
        np.testing.assert_array_equal(qam_demodulate(qam_modulate(bits, cfg), cfg), bits)


    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_slicer_matches_nearest_neighbour_oracle(self, order):
        rng = np.random.default_rng(order)
        alphabet = qam_alphabet(order)
        n = 400
        noisy = [alphabet[rng.integers(order, size=n)]
                 + sigma * (rng.normal(size=n) + 1j * rng.normal(size=n))
                 for sigma in (0.0, 0.05, 0.3, 1.0, 5.0)]
        far = rng.uniform(-20, 20, size=n) + 1j * rng.uniform(-20, 20, size=n)
        # The origin and the axes sit exactly between amplitudes, where the
        # oracle keeps the first (smallest) label.
        on_axes = np.concatenate([[0j], rng.normal(size=n) + 0j, 1j * rng.normal(size=n)])
        points = np.concatenate(noisy + [far, 10 * alphabet, on_axes])
        cfg = FrameConfig(points.size, 0, 1, qam_order=order)
        grid = points.reshape(-1, 1)
        np.testing.assert_array_equal(qam_demodulate(grid, cfg),
                                      nearest_neighbour_bits(grid, cfg))


    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_slicer_passes_decide_each_symbol_alone(self, order):
        """Two full passes and a short third decide every symbol as the
        oracle does, ties on the axes included."""
        rng = np.random.default_rng(order + 1)
        n = 997
        base = (qam_alphabet(order)[rng.integers(order, size=n)]
                + 0.4 * (rng.normal(size=n) + 1j * rng.normal(size=n)))
        base[:4] = [0j, 0.5, 1j, 3.0 - 2j]
        count = 2 * QAM_SLICE_SYMBOLS + 123
        points = np.resize(base, count)
        cfg = FrameConfig(count, 0, 1, qam_order=order)
        expected = nearest_neighbour_bits(base.reshape(-1, 1), FrameConfig(n, 0, 1, order))
        np.testing.assert_array_equal(
            qam_demodulate(points.reshape(-1, 1), cfg),
            np.resize(expected.reshape(n, -1), (count, cfg.bits_per_symbol)).reshape(-1))


class TestOfdm:
    def test_dc_tone_gives_constant_block(self):
        cfg = FrameConfig(8, 0, 1)
        grid = np.zeros((8, 1), dtype=complex)
        grid[0, 0] = math.sqrt(8)
        np.testing.assert_allclose(ofdm_modulate(grid, cfg), np.ones(8), atol=1e-12)

    def test_energy_conservation(self):
        cfg = FrameConfig(32, 8, 4)
        rng = np.random.default_rng(3)
        grid = qam_modulate(random_bits(cfg.bits_per_sample, rng), cfg)
        blocks = ofdm_modulate(grid, cfg).reshape(cfg.n_symbols, cfg.block_len)[:, 8:]
        for m in range(cfg.n_symbols):
            block = blocks[m]
            np.testing.assert_allclose(
                np.sum(np.abs(block) ** 2),
                np.sum(np.abs(grid[:, m]) ** 2),
                rtol=1e-9,
            )

    def test_matches_naive_idft_oracle(self):
        cfg = FrameConfig(8, 2, 3)
        rng = np.random.default_rng(11)
        grid = rng.normal(size=(8, 3)) + 1j * rng.normal(size=(8, 3))
        series = ofdm_modulate(grid, cfg)
        blocks = series.reshape(3, 10)[:, 2:]
        for m in range(3):
            np.testing.assert_allclose(blocks[m], naive_idft(grid[:, m]), atol=1e-10)

    def test_demodulate_matches_naive_dft_oracle(self):
        cfg = FrameConfig(8, 0, 1)
        rng = np.random.default_rng(12)
        block = rng.normal(size=8) + 1j * rng.normal(size=8)
        grid = ofdm_demodulate(block_spectra(block, cfg), 1.0, cfg)
        np.testing.assert_allclose(grid[:, 0], naive_dft(block), atol=1e-10)

    def test_shape_mismatch(self):
        cfg = FrameConfig(8, 2, 3)
        with pytest.raises(ValueError, match="shape"):
            ofdm_modulate(np.zeros((8, 2), dtype=complex), cfg)

    def test_equalizes_known_gain(self):
        cfg = FrameConfig(16, 4, 2)
        rng = np.random.default_rng(4)
        bits = random_bits(cfg.bits_per_sample, rng)
        grid = qam_modulate(bits, cfg)
        h = 3.7e-3 * np.exp(0.3j)
        received = h * ofdm_modulate(grid, cfg)
        recovered = ofdm_demodulate(block_spectra(received, cfg), h, cfg)
        np.testing.assert_allclose(recovered, grid, atol=1e-9)

    def test_zero_equalizer_rejected(self):
        cfg = FrameConfig(8, 0, 1)
        with pytest.raises(ValueError, match="h_est"):
            ofdm_demodulate(np.zeros((1, 8), dtype=complex), 0.0, cfg)


class TestCyclicPrefix:
    """block_spectra skips each block's prefix: its spectra are the transforms
    of the prefix-free blocks, bit for bit."""

    def test_remove_inverts_add(self):
        """Each modulated block starts with a copy of its own last cp_len samples."""
        cfg = FrameConfig(16, 4, 3)
        grid = qam_modulate(random_bits(cfg.bits_per_sample, np.random.default_rng(5)), cfg)
        series = ofdm_modulate(grid, cfg)
        blocks = series.reshape(cfg.n_symbols, cfg.block_len)
        np.testing.assert_array_equal(blocks[:, :cfg.cp_len], blocks[:, -cfg.cp_len:])
        bare = FrameConfig(16, 0, 3)
        np.testing.assert_array_equal(block_spectra(series, cfg),
                                      block_spectra(ofdm_modulate(grid, bare), bare))

    def test_literal_prefix_layout(self):
        cfg = FrameConfig(4, 2, 1)
        # The unitary spectrum of [1, 2, 3, 4]; 4-point transforms of it are exact.
        grid = np.array([[5], [-1 + 1j], [-1], [-1 - 1j]])
        np.testing.assert_array_equal(ofdm_modulate(grid, cfg), [3, 4, 1, 2, 3, 4])
        np.testing.assert_array_equal(
            block_spectra(np.array([3, 4, 1, 2, 3, 4], dtype=complex), cfg),
            2 * grid.T,
        )

    def test_zero_cp_is_identity(self):
        cfg = FrameConfig(8, 0, 2)
        series = np.arange(16, dtype=complex)
        np.testing.assert_array_equal(block_spectra(series, cfg),
                                      np.fft.fft(series.reshape(2, 8), axis=1))

    def test_rejects_non_divisible_length(self):
        cfg = FrameConfig(8, 2, 2)
        with pytest.raises(ValueError, match="multiple"):
            block_spectra(np.zeros(19, dtype=complex), cfg)


class TestComputeBer:
    def test_identical_is_zero(self):
        bits = np.array([0, 1, 1, 0])
        assert compute_ber(bits, bits) == 0.0

    def test_complement_is_one(self):
        bits = np.array([0, 1, 1, 0])
        assert compute_ber(bits, 1 - bits) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            compute_ber(np.zeros(4), np.zeros(5))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_symmetric_and_bounded(self, seed):
        rng = np.random.default_rng(seed)
        a = random_bits(64, rng)
        b = random_bits(64, rng)
        assert compute_ber(a, b) == compute_ber(b, a)
        assert 0.0 <= compute_ber(a, b) <= 1.0


class TestAwgnBerPhysics:
    def test_qpsk_awgn_matches_q_function(self):
        """Monte Carlo BER through the full chain vs the analytic oracle.

        At Eb/N0 = 4 dB, 4-QAM over AWGN has BER = Q(sqrt(2 * 10**0.4)).
        """
        eb_n0 = 10.0 ** 0.4
        expected = stats.norm.sf(math.sqrt(2.0 * eb_n0))  # ~1.25e-2
        cfg = FrameConfig(512, 0, 100, qam_order=4)
        # Unit symbol energy, 2 bits/symbol: N0 = (Es / 2) / (Eb/N0).
        noise_w = 0.5 / eb_n0
        rng = np.random.default_rng(2024)
        errors = 0
        total = 0
        while total < 1_000_000:
            bits = random_bits(cfg.bits_per_sample, rng)
            tx = ofdm_modulate(qam_modulate(bits, cfg), cfg)
            rx = tx + awgn(tx.size, noise_w, rng)
            decoded = qam_demodulate(ofdm_demodulate(block_spectra(rx, cfg), 1.0, cfg), cfg)
            errors += int(np.sum(decoded != bits))
            total += bits.size
        ber = errors / total
        assert ber == pytest.approx(expected, rel=0.10)

"""CO-OFDM baseband chain: Gray-coded QAM, IDFT synthesis, cyclic prefix, BER.

Conventions, fixed so that bit-level results are reproducible:

* Square QAM alphabets (4/16/64) are normalized to unit average power.
* Gray labelling is per axis.  Each axis takes ``k = log2(sqrt(order))``
  bits, read MSB-first as an integer label.  The ``g``-th amplitude from
  the top, ``(sqrt(order) - 1) - 2 * g`` before normalization, has the
  Gray label ``g ^ (g >> 1)``, by which the slicer labels its decisions
  too.  The first ``k`` bits of a symbol label select the in-phase axis,
  the last ``k`` the quadrature axis.  For 4-QAM this yields

      00 -> (+1+1j)/sqrt(2)    01 -> (+1-1j)/sqrt(2)
      10 -> (-1+1j)/sqrt(2)    11 -> (-1-1j)/sqrt(2)

  and adjacent amplitudes always differ in exactly one bit.
* The multicarrier transform pair is unitary: synthesis uses
  ``x(n) = (1/sqrt(N)) sum_k X(k) exp(+j 2 pi n k / N)`` and analysis the
  matching forward transform with ``1/sqrt(N)``, so per-block energy is
  conserved.  The transform size equals the subcarrier count (no zero
  padding).
* The cyclic prefix is the last ``cp_len`` time samples of a block,
  prepended to that block.
* ``block_spectra`` is the receiver's one analysis, unnormalized; both
  ``ofdm_demodulate`` and ``features.spectrogram`` read its output.

Symbol grids are complex arrays of shape ``(n_subcarriers, n_symbols)``;
time series are 1-D complex arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_QAM_ORDERS = (4, 16, 64)

# Symbols per pass of qam_demodulate's slicer: about a dozen temporaries of
# this many values stay in a core's 2 MiB L2.  Measured on 2 cores at the
# full 600x512 4-QAM grid, medians of 40 interleaved calls in two runs: one
# pass over all 307200 symbols 10.4-10.8 ms; passes of 8192 5.9 ms, 16384
# 5.3-5.5 ms, 32768 5.4-6.0 ms, 65536 6.4-6.8 ms.
QAM_SLICE_SYMBOLS = 2**14


@dataclass(frozen=True)
class FrameConfig:
    """Shape of one transmitted sample: subcarriers x OFDM symbols."""

    n_subcarriers: int
    cp_len: int
    n_symbols: int
    qam_order: int = 4

    def __post_init__(self) -> None:
        if self.n_subcarriers <= 0:
            raise ValueError("n_subcarriers must be positive")
        if self.n_symbols <= 0:
            raise ValueError("n_symbols must be positive")
        if not 0 <= self.cp_len < self.n_subcarriers:
            raise ValueError("cp_len must satisfy 0 <= cp_len < n_subcarriers")
        if self.qam_order not in _QAM_ORDERS:
            raise ValueError(f"qam_order must be one of {_QAM_ORDERS}")

    @property
    def bits_per_symbol(self) -> int:
        return int(math.log2(self.qam_order))

    @property
    def bits_per_sample(self) -> int:
        return self.n_subcarriers * self.n_symbols * self.bits_per_symbol

    @property
    def block_len(self) -> int:
        """Time samples per OFDM symbol including the cyclic prefix."""
        return self.n_subcarriers + self.cp_len

    @property
    def sample_len(self) -> int:
        """Time samples per transmitted sample, cyclic prefixes included."""
        return self.n_symbols * self.block_len


def _gray(g):
    """The reflected binary (Gray) code of ``g``, an int or an integer array."""
    return g ^ (g >> 1)


def _axis_geometry(order: int) -> tuple[int, float]:
    """Amplitudes per axis, and the divisor that gives unit average power."""
    return int(round(math.sqrt(order))), math.sqrt(2.0 * (order - 1) / 3.0)


def qam_alphabet(order: int) -> np.ndarray:
    """Unit-average-power constellation, indexed by the MSB-first bit label."""
    if order not in _QAM_ORDERS:
        raise ValueError(f"qam_order must be one of {_QAM_ORDERS}")
    side, scale = _axis_geometry(order)
    # Amplitude per axis label; descending so the all-zero label is positive.
    g = np.arange(side)
    axis = np.empty(side)
    axis[_gray(g)] = (side - 1) - 2 * g
    i_bits, q_bits = np.divmod(np.arange(order), side)
    return (axis[i_bits] + 1j * axis[q_bits]) / scale


def qam_modulate(bits: np.ndarray, cfg: FrameConfig) -> np.ndarray:
    """Map a bit vector onto the subcarrier grid.

    Bits fill the grid symbol by symbol: the first ``n_subcarriers *
    bits_per_symbol`` bits form OFDM symbol 0, subcarrier 0 first.
    """
    bits = np.asarray(bits)
    if bits.size != cfg.bits_per_sample:
        raise ValueError(
            f"expected {cfg.bits_per_sample} bits, got {bits.size}"
        )
    bps = cfg.bits_per_symbol
    groups = bits.reshape(-1, bps).astype(np.int64, copy=False)
    weights = 1 << np.arange(bps - 1, -1, -1)
    labels = groups @ weights
    symbols = qam_alphabet(cfg.qam_order)[labels]
    return symbols.reshape(cfg.n_symbols, cfg.n_subcarriers).T


def qam_demodulate(grid: np.ndarray, cfg: FrameConfig) -> np.ndarray:
    """Nearest-neighbour decision back to bits (inverse of qam_modulate).

    Square QAM's nearest point is the nearest amplitude on each axis, so
    each axis is sliced on its own: ``g = rint(((side - 1) - x * scale) / 2)``
    clipped to the alphabet, and the axis label is the Gray code of ``g``.
    A point exactly between two amplitudes (the origin, say) takes the smaller
    label, as a first-minimum search over the whole alphabet would.  Each
    symbol is sliced alone, so the grid is sliced in passes of
    QAM_SLICE_SYMBOLS symbols whose temporaries stay in cache.
    """
    _check_grid(grid, cfg)
    side, scale = _axis_geometry(cfg.qam_order)
    flat = grid.T.reshape(-1)

    def axis_labels(x: np.ndarray) -> np.ndarray:
        t = np.clip(((side - 1) - x * scale) / 2, 0, side - 1)
        g = np.rint(t).astype(np.int64)
        labels = _gray(g)
        lo = np.floor(t)
        tie = t - lo == 0.5
        lo = lo[tie].astype(np.int64)
        labels[tie] = np.minimum(_gray(lo), _gray(lo + 1))
        return labels

    bps = cfg.bits_per_symbol
    bits = np.empty((flat.size, bps), dtype=np.int64)
    for start in range(0, flat.size, QAM_SLICE_SYMBOLS):
        part = flat[start: start + QAM_SLICE_SYMBOLS]
        labels = (axis_labels(part.real) << (bps // 2)) | axis_labels(part.imag)
        # One pass per bit column; broadcasting over a bps-wide inner axis
        # was about three times slower at the full grid.
        for j in range(bps):
            np.bitwise_and(labels >> (bps - 1 - j), 1,
                           out=bits[start: start + QAM_SLICE_SYMBOLS, j])
    return bits.reshape(-1)


def _check_grid(grid: np.ndarray, cfg: FrameConfig) -> None:
    expected = (cfg.n_subcarriers, cfg.n_symbols)
    if grid.shape != expected:
        raise ValueError(f"grid shape {grid.shape} does not match {expected}")


def ofdm_modulate(grid: np.ndarray, cfg: FrameConfig) -> np.ndarray:
    """Synthesize the baseband time series, cyclic prefix included."""
    _check_grid(grid, cfg)
    # Unitary synthesis: numpy's inverse transform carries 1/N, scale to 1/sqrt(N).
    blocks = np.fft.ifft(grid.T, axis=1) * math.sqrt(cfg.n_subcarriers)
    if cfg.cp_len:
        blocks = np.concatenate([blocks[:, -cfg.cp_len:], blocks], axis=1)
    return blocks.reshape(-1)


def block_spectra(series: np.ndarray, cfg: FrameConfig) -> np.ndarray:
    """The unnormalized transform of each block of ``series`` past its prefix,
    shape (n_symbols, n_subcarriers); the prefixes are skipped by a strided view."""
    series = np.asarray(series)
    if series.size % cfg.block_len != 0:
        raise ValueError(
            f"series length {series.size} is not a multiple of {cfg.block_len}"
        )
    return np.fft.fft(series.reshape(-1, cfg.block_len)[:, cfg.cp_len:], axis=1)


def ofdm_demodulate(spectra: np.ndarray, h_est: complex, cfg: FrameConfig) -> np.ndarray:
    """The symbol grid of ``block_spectra``'s output: scaled to the unitary
    transform, then equalized by a single complex tap."""
    if h_est == 0:
        raise ValueError("h_est must be nonzero (degenerate equalizer)")
    grid = spectra / math.sqrt(cfg.n_subcarriers)
    grid /= h_est
    return grid.T


def compute_ber(tx_bits: np.ndarray, rx_bits: np.ndarray) -> float:
    """Bit error rate: Hamming distance over length."""
    tx_bits = np.asarray(tx_bits)
    rx_bits = np.asarray(rx_bits)
    if tx_bits.size != rx_bits.size:
        raise ValueError(
            f"bit sequences differ in length ({tx_bits.size} vs {rx_bits.size})"
        )
    if tx_bits.size == 0:
        raise ValueError("bit sequences are empty")
    return float(np.mean(tx_bits != rx_bits))


def random_bits(count: int, rng: np.random.Generator) -> np.ndarray:
    return rng.integers(0, 2, size=count, dtype=np.int64)

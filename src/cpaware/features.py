"""Textural feature maps of a received signal block.

Pipeline: strip cyclic prefixes, compute a magnitude spectrogram (one
frame per OFDM symbol, one unnormalized N-point transform per frame),
then grayscale-dilate and -erode it over a disk neighborhood

    B = {(u, v) : u^2 + v^2 <= radius^2}

to obtain local supremum and infimum maps.  The three maps are stacked
into a ``(frames, bins, 3)`` tensor, channel order (spectrogram,
supremum, infimum), and each channel is min-max normalized to [0, 1]
with the original ranges recorded so raw magnitudes stay recoverable.

The disk is evaluated as 2r+1 horizontal chords, one per row offset, as
in Urbach & Wilkinson, "Efficient 2-D grayscale morphological
transformations with arbitrary flat structuring elements", IEEE TIP
17(1), 2008.  Row maxima and minima over a window growing from half-width
0 to r take two shifted operations per width, and each chord reads the
window of its own half-width, so a pixel costs O(r) operations instead of
the O(r^2) of a scan over every disk offset.  Max and min are exact, so
the result does not depend on the evaluation order.

At the matrix border the neighborhood is clipped to valid indices, so
border extrema are taken over fewer pixels rather than invented values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ofdm import FrameConfig, remove_cp


@dataclass(frozen=True)
class FeatureConfig:
    """Disk radius for the local extrema maps."""

    disk_radius: int = 15

    def __post_init__(self) -> None:
        if self.disk_radius < 0:
            raise ValueError("disk_radius must be non-negative")


def spectrogram(payload: np.ndarray, frame: FrameConfig) -> np.ndarray:
    """Magnitude spectrogram, shape (frames, bins) = (n_symbols, n_subcarriers).

    Frame k covers samples [k*N, (k+1)*N); bin m is the plain transform sum
    |sum_n y(n + kN) exp(-j 2 pi m n / N)| with no normalization.
    """
    payload = np.asarray(payload)
    n = frame.n_subcarriers
    if payload.size % n != 0:
        raise ValueError(f"series length {payload.size} is not a multiple of {n}")
    return np.abs(np.fft.fft(payload.reshape(-1, n), axis=1))


def local_extrema(matrix: np.ndarray, radius: int) -> tuple[np.ndarray, np.ndarray]:
    """Grayscale dilation and erosion of a matrix over the disk of given radius.

    The disk is a stack of horizontal chords, one per row offset ``du``, of
    half-width ``isqrt(radius^2 - du^2)`` (Urbach & Wilkinson 2008).  Running
    row maxima and minima of the edge-replicated padding grow one column per
    side per step, w = 0..radius (van Herk 1992; Gil & Werman 1993), and
    each chord's rows are folded into the result once the window reaches its
    half-width.  Clamping an out-of-range disk offset coordinate-wise keeps
    it inside the disk and in range, so replicated edges never introduce
    values outside the clipped neighborhood; since max and min are exact, the
    result equals the border-clipped scan bit for bit.  A radius beyond the
    matrix's reach (the smallest r with r^2 >= (rows-1)^2 + (cols-1)^2) is
    clamped to it: either disk covers every pixel from every pixel.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    if not np.all(np.isfinite(matrix)):
        raise ValueError("matrix must be finite")
    rows, cols = matrix.shape
    span = (rows - 1) ** 2 + (cols - 1) ** 2
    radius = min(radius, math.isqrt(span - 1) + 1 if span else 0)  # the reach
    if radius == 0:
        return matrix.copy(), matrix.copy()
    padded = np.pad(matrix, radius, mode="edge")
    chords = [[] for _ in range(radius + 1)]  # row offsets du by half-width
    for du in range(-radius, radius + 1):
        chords[math.isqrt(radius * radius - du * du)].append(du)
    run_max = padded[:, radius: radius + cols].copy()
    run_min = run_max.copy()
    sup = np.full_like(matrix, -np.inf)
    inf = np.full_like(matrix, np.inf)
    for w, offsets in enumerate(chords):
        if w:
            left = padded[:, radius - w: radius - w + cols]
            right = padded[:, radius + w: radius + w + cols]
            np.maximum(run_max, left, out=run_max)
            np.maximum(run_max, right, out=run_max)
            np.minimum(run_min, left, out=run_min)
            np.minimum(run_min, right, out=run_min)
        for du in offsets:
            np.maximum(sup, run_max[radius + du: radius + du + rows], out=sup)
            np.minimum(inf, run_min[radius + du: radius + du + rows], out=inf)
    return sup, inf


@dataclass
class FeatureTensor:
    """Normalized (frames, bins, 3) stack with per-channel ranges."""

    data: np.ndarray
    channel_min: np.ndarray
    channel_max: np.ndarray

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def denormalize(self) -> np.ndarray:
        """Recover the raw-magnitude stack from the recorded ranges."""
        span = self.channel_max - self.channel_min
        return self.data * span + self.channel_min


def _normalize_channels(stack: np.ndarray) -> FeatureTensor:
    lo = stack.min(axis=(0, 1))
    hi = stack.max(axis=(0, 1))
    span = np.where(hi > lo, hi - lo, 1.0)
    data = (stack - lo) / span
    # Constant channels normalize to zero; denormalize restores the constant.
    return FeatureTensor(data=data, channel_min=lo, channel_max=hi)


def feature_tensor(received: np.ndarray, frame: FrameConfig,
                   cfg: FeatureConfig) -> FeatureTensor:
    """Full feature stack of a prefix-intact received sample."""
    spec = spectrogram(remove_cp(received, frame), frame)
    sup, inf = local_extrema(spec, cfg.disk_radius)
    return _normalize_channels(np.stack([spec, sup, inf], axis=-1))

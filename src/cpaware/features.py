"""Textural feature maps of a received signal block.

Pipeline: take the magnitude of a sample's ``ofdm.block_spectra``, which
``threats.LabeledSample`` holds (one unnormalized N-point transform per OFDM
symbol), as a spectrogram, then grayscale-dilate and -erode it over a disk
neighborhood

    B = {(u, v) : u^2 + v^2 <= radius^2}

to obtain local supremum and infimum maps.  Each map is min-max
normalized to [0, 1] on its own contiguous plane and written into one
channel of a ``feature_shape(frame)`` = ``(frames, bins, 3)`` tensor,
channel order ``CHANNELS`` (spectrogram, supremum, infimum).
``feature_tensor`` returns the ranges beside it, every channel's minimum
and then every maximum (``RANGE_COLUMNS``), so raw magnitudes stay
recoverable: ``data * (max - min) + min``.  The three planes are the
call's own, so each minimum is subtracted in place and each quotient is
stored straight into ``out``, such as one float32 row of a dataset's
block: computed in float64 and rounded once, as a cast of the float64
stack would round it, with no float64 stack in between.

The disk is evaluated as 2r+1 horizontal chords, one per row offset, as
in Urbach & Wilkinson, "Efficient 2-D grayscale morphological
transformations with arbitrary flat structuring elements", IEEE TIP
17(1), 2008.  Row maxima and minima over a window growing from half-width
0 to r take two shifted operations per width, and each chord reads the
window of its own half-width, so a pixel costs O(r) operations instead of
the O(r^2) of a scan over every disk offset.  Max and min are exact, so
the result does not depend on the evaluation order.

Each chain runs its folds over bands of EXTREMA_BAND_ROWS output rows
(cache blocking: Lam, Rothberg & Wolf, "The cache performance and
optimizations of blocked algorithms", ASPLOS 1991).  A band's running
extrema cover its own rows and the r padded rows above and below them,
across the full padded width, so every fold is one pass over contiguous
memory rather than one short pass per row.  At the full geometry (600 x
512, r = 15) a chain's working set is about 1.9 MB, inside a core's 2 MiB
L2, where whole planes streamed 4r + 1 passes over 2.4-2.6 MB each.  The
price is the 2r halo rows that every band folds again and the 2r padding
columns of every row: at r = 15 about 16% more element operations, each
cheaper; a radius near the band or the width pays more of it.  The bytes
are the same.  A matrix of at most EXTREMA_BAND_ROWS rows, such as the
64 x 64 desk map, is one band.

At the matrix border the neighborhood is clipped to valid indices, so
border extrema are taken over fewer pixels rather than invented values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ofdm import FrameConfig

# Output rows per band of local_extrema's chord folds.  Measured on 2 cores
# (2 MiB L2 each, numpy 2.4.6) at 600x512 r=15, median of 30 calls on full-
# preset spectrograms, low and high of two runs: 64 rows 18.3-19.4 ms, 96
# 17.0-18.3 ms, 128 16.3-17.8 ms, 160 16.9-18.9 ms, 192 20.1-21.6 ms, 256
# 26.3-26.5 ms, one band of 600 rows 32.6-33.2 ms.
EXTREMA_BAND_ROWS = 128

# The channels of a feature stack, in order, and its recorded ranges.
CHANNELS = ("spectrogram", "supremum", "infimum")
RANGE_COLUMNS = (*(f"channel_min.{c}" for c in CHANNELS),
                 *(f"channel_max.{c}" for c in CHANNELS))


@dataclass(frozen=True)
class FeatureConfig:
    """Disk radius for the local extrema maps."""

    disk_radius: int = 15

    def __post_init__(self) -> None:
        if self.disk_radius < 0:
            raise ValueError("disk_radius must be non-negative")


def spectrogram(spectra: np.ndarray) -> np.ndarray:
    """The magnitude of ``ofdm.block_spectra``'s output, unnormalized: shape
    (frames, bins) = (n_symbols, n_subcarriers)."""
    return np.abs(spectra)


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

    Each chain folds bands of EXTREMA_BAND_ROWS output rows, the last one
    shorter; a band reads its rows of the padding and 2r more, so a radius
    larger than the band is served too.  The dilation (max) chain runs
    first, then the erosion (min) chain in the same band buffer; each keeps
    its own order of exact max or min operations, so the bytes equal the
    one-band result.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    if not np.all(np.isfinite(matrix)):
        raise ValueError("matrix must be finite")
    rows, cols = matrix.shape
    span = (rows - 1) ** 2 + (cols - 1) ** 2
    radius = min(radius, math.isqrt(span - 1) + 1 if span else 0)  # the reach
    padded = np.pad(matrix, radius, mode="edge")
    chords = [[] for _ in range(radius + 1)]  # row offsets du by half-width
    for du in range(-radius, radius + 1):
        chords[math.isqrt(radius * radius - du * du)].append(du)
    run = np.empty((2 * min(rows, EXTREMA_BAND_ROWS) + 2 * radius, cols + 2 * radius))
    sup = np.empty_like(matrix)
    inf = np.empty_like(matrix)
    _chain(padded, chords, np.maximum, run, sup)
    _chain(padded, chords, np.minimum, run, inf)
    return sup, inf


def _chain(padded: np.ndarray, chords: list[list[int]], fold: np.ufunc,
           run: np.ndarray, out: np.ndarray) -> None:
    """Fold one extremum over the chord stack into ``out``.

    ``fold`` is np.maximum or np.minimum.  ``run``, as wide as ``padded``,
    holds one band at a time: with bands of b = (len(run) - 2r) // 2 output
    rows, the last one shorter, its first b + 2r rows take the band's padded
    rows and their running row extrema, and its last b rows the folded
    chords.  Each row is folded across its full padded width, so every fold
    is one pass over contiguous memory; a shift of up to r along a flattened
    row block crosses into a neighbouring row only in the padding columns,
    which the band's copy into ``out`` leaves out.
    """
    radius = len(chords) - 1
    rows, cols = out.shape
    width = padded.shape[1]
    band = (len(run) - 2 * radius) // 2
    for top in range(0, rows, band):
        height = min(band, rows - top)
        window = padded[top: top + height + 2 * radius].reshape(-1)
        acc = run[: height + 2 * radius].reshape(-1)
        np.copyto(acc, window)
        inner = acc[radius: len(acc) - radius]  # every shift below stays in the band
        folded = run[len(run) - height:].reshape(-1)
        np.copyto(folded, window[: height * width])  # the chord du = -r, of half-width 0
        for w, offsets in enumerate(chords):
            if w:
                fold(inner, window[radius - w: len(acc) - radius - w], out=inner)
                fold(inner, window[radius + w: len(acc) - radius + w], out=inner)
            for du in offsets if w else offsets[1:]:
                start = (radius + du) * width
                fold(folded, acc[start: start + height * width], out=folded)
        np.copyto(out[top: top + height],
                  folded.reshape(height, width)[:, radius: radius + cols])


def feature_shape(frame: FrameConfig) -> tuple[int, int, int]:
    """Shape of the feature stack of one sample of ``frame``."""
    return (frame.n_symbols, frame.n_subcarriers, len(CHANNELS))


def feature_tensor(spectra: np.ndarray, cfg: FeatureConfig,
                   out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Full feature stack of a sample's ``ofdm.block_spectra``, and its ranges
    in ``RANGE_COLUMNS`` order.

    The stack is written into ``out``, of ``feature_shape(frame)`` and any
    float dtype, and ``out`` is returned; without it, into a new float64
    array.  Each channel is computed in float64 and rounded once on store,
    so a float32 ``out`` holds the float64 stack cast to float32.
    """
    spec = spectrogram(spectra)
    maps = (spec, *local_extrema(spec, cfg.disk_radius))
    lo = np.array([plane.min() for plane in maps])
    hi = np.array([plane.max() for plane in maps])
    # Constant channels normalize to zero; lo restores the constant.
    span = np.where(hi > lo, hi - lo, 1.0)
    if out is None:
        out = np.empty(spec.shape + (len(maps),))
    for channel, plane in enumerate(maps):  # the planes are this call's own
        np.subtract(plane, lo[channel], out=plane)
        np.divide(plane, span[channel], out=out[..., channel])
    return out, np.concatenate([lo, hi])

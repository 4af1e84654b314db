"""Free-space optical link budget and receiver noise.

The composite amplitude gain of a line-of-sight optical link is

    h = sqrt(G_t * G_r * eta_t * eta_r * L_path * L_point)

with aperture gains ``G = (pi * D / lambda)**2``, free-space path loss
``L_path = (lambda / (4 pi d))**2`` and pointing loss
``L_point = exp(-8 * jitter**2 / divergence**2)``.  The link is exo-
atmospheric, so no turbulence or absorption terms appear.

``awgn`` draws circularly symmetric complex Gaussian samples of a power
given in watts: the receiver's noise floor, and the jammer's waveform at
its transmit power.  All dB values in this package are decibel-watts,
``10 * log10`` of a power quantity; ``threats`` converts a noise level in
dBW to watts once, where it generates the noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LinkBudget:
    """Geometry and optics of one transmitter/receiver pair."""

    tx_power_w: float
    distance_m: float
    wavelength_m: float
    tx_aperture_m: float
    rx_aperture_m: float
    tx_efficiency: float = 1.0
    rx_efficiency: float = 1.0
    jitter_rad: float = 0.0
    divergence_rad: float = 0.02

    def __post_init__(self) -> None:
        for name in ("tx_power_w", "distance_m", "wavelength_m",
                     "tx_aperture_m", "rx_aperture_m", "divergence_rad"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        for name in ("tx_efficiency", "rx_efficiency"):
            if not 0.0 < getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in (0, 1]")
        if not 0 <= self.jitter_rad < math.inf:
            raise ValueError("jitter_rad must be non-negative and finite")


def aperture_gain(aperture_m: float, wavelength_m: float) -> float:
    return (math.pi * aperture_m / wavelength_m) ** 2


def path_loss(distance_m: float, wavelength_m: float) -> float:
    return (wavelength_m / (4.0 * math.pi * distance_m)) ** 2


def pointing_loss(jitter_rad: float, divergence_rad: float) -> float:
    return math.exp(-8.0 * jitter_rad**2 / divergence_rad**2)


def gain_breakdown(link: LinkBudget) -> dict[str, float]:
    """Multiplicative factors of the squared gain, by name."""
    return {
        "tx_gain": aperture_gain(link.tx_aperture_m, link.wavelength_m),
        "rx_gain": aperture_gain(link.rx_aperture_m, link.wavelength_m),
        "tx_efficiency": link.tx_efficiency,
        "rx_efficiency": link.rx_efficiency,
        "path_loss": path_loss(link.distance_m, link.wavelength_m),
        "pointing_loss": pointing_loss(link.jitter_rad, link.divergence_rad),
    }


def channel_gain(link: LinkBudget) -> float:
    """Composite amplitude gain h > 0."""
    product = 1.0
    for factor in gain_breakdown(link).values():
        product *= factor
    return math.sqrt(product)


def awgn(length: int, power_w: float, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. complex Gaussian samples with E[|w|^2] = ``power_w`` watts."""
    if length <= 0:
        raise ValueError("length must be positive")
    if not 0 < power_w < math.inf:
        raise ValueError("power_w must be positive and finite")
    sigma = math.sqrt(power_w / 2.0)
    out = np.empty(length, dtype=complex)  # filled in place: no complex temporaries
    out.real = rng.standard_normal(length)
    out.imag = rng.standard_normal(length)
    out *= sigma
    return out

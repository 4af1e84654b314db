"""Intent-driven threat signal generation and capability labelling.

Three received-signal families, all built on the same legitimate CO-OFDM
transmission ``x`` with per-sample transmit amplitude ``a = sqrt(P) * h``:

* non-adversarial:  y = a_l * x + w
* disruptive:       y = a_l * x + h_j * alpha(n) * j(n) + w, where j(n) is
  complex Gaussian with per-sample power equal to the jammer's transmit
  power and alpha(n) is an i.i.d. Bernoulli on/off mask (per discrete-time
  sample) that obfuscates the attack,
* deceptive:        y = a_l * x + (a_s * s - a_l * (1 - err) * x) + w,
  a spoofed CO-OFDM signal ``s`` carrying independent malicious bits minus
  the spoofer's estimate of the legitimate component; ``err`` is the
  spoofer's fractional channel-estimation error, so the residual
  legitimate amplitude is ``err * a_l``.

Labelling policy: non-adversarial and disruptive samples carry the
legitimate receiver's BER (equalizing with the true legitimate
amplitude).  Deceptive samples instead carry the *adversary's* BER, i.e.
the receiver equalizes with the spoofer's amplitude and errors are
counted against the malicious bits; a deceptive signal that decodes
cleanly is a highly capable threat even though it barely disturbs the
legitimate metrics.  ``generate_components`` is the one branch on intent:
it returns the received sum with the amplitude and bits it is decoded against.

The capability label is ``log10(BER)`` floored at one error per sample
(``1 / bits_per_sample``) so error-free samples get a finite label.  A
``LabeledSample`` holds the received series' ``ofdm.block_spectra``, which
its BER is decoded from and ``features`` reads, and the raw BER and nothing
else: the scenario, and so the intent, is its caller's, and the label is
``label_log_ber`` of the raw BER (``experiments.dataset`` derives it when
it opens a file).

Generators are pure functions of (scenario, seed).  Each randomness
consumer draws from its own stream ``default_rng([seed, tag])``, with
tags 0 legitimate bits, 1 receiver noise, 2 jammer waveform, 3
obfuscation mask, 4 malicious bits and 5 the scenario that
``ScenarioSpace.draw`` picks for the seed.  So switching a threat knob
never perturbs the other components: a disruptive sample with
obfuscation probability 0 is bit-identical to the non-adversarial sample
at the same seed.

Powers are in watts where the signals are made: ``awgn`` takes the
jammer's transmit power as it is, and the scenario's noise level, in
dBW as its space states it, is converted once, ``10 ** (dBW / 10)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from numbers import Real
from typing import Optional

import numpy as np

from .channel import LinkBudget, awgn, channel_gain
from .ofdm import (
    FrameConfig,
    block_spectra,
    compute_ber,
    ofdm_demodulate,
    ofdm_modulate,
    qam_demodulate,
    qam_modulate,
    random_bits,
)


class ThreatKind(Enum):
    """Intent classes; the value is the intent index."""

    DECEPTIVE = 0
    DISRUPTIVE = 1
    NON_ADVERSARIAL = 2


# Indexed by intent index.
INTENT_NAMES = tuple(k.name.lower() for k in ThreatKind)


# Derived-stream tags; one PRNG stream per randomness consumer.
_STREAM_LEGIT_BITS = 0
_STREAM_NOISE = 1
_STREAM_JAMMER = 2
_STREAM_OBFUSCATION = 3
_STREAM_MALICIOUS_BITS = 4
_STREAM_SCENARIO = 5  # ScenarioSpace.draw


def _stream(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), tag])


@dataclass(frozen=True)
class ThreatScenario:
    """One fully specified generation setup."""

    kind: ThreatKind
    legit_link: LinkBudget
    noise_dbw: float
    frame: FrameConfig
    adversary_link: Optional[LinkBudget] = None
    obfuscation_prob: float = 0.5
    estimation_error: float = 0.3

    def __post_init__(self) -> None:
        if self.kind is not ThreatKind.NON_ADVERSARIAL and self.adversary_link is None:
            raise ValueError(f"{self.kind.name} scenario requires an adversary link")
        _check_fractions(self.obfuscation_prob, self.estimation_error)


def _check_fractions(obfuscation_prob: float, estimation_error: float) -> None:
    for name, value in (("obfuscation_prob", obfuscation_prob),
                        ("estimation_error", estimation_error)):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1]")


@dataclass
class LabeledSample:
    """Block spectra of the received series plus its raw BER, which the label is taken from."""

    spectra: np.ndarray
    raw_ber: float


def label_log_ber(ber: float, frame: FrameConfig) -> float:
    """Capability label: log10 of the BER, floored at one resolvable error."""
    if not 0.0 <= ber <= 1.0:
        raise ValueError("ber must lie in [0, 1]")
    floor = 1.0 / frame.bits_per_sample
    return float(np.log10(max(ber, floor)))


def _tx_amplitude(link: LinkBudget) -> float:
    """sqrt(P) * h."""
    return np.sqrt(link.tx_power_w) * channel_gain(link)


def generate_components(scenario: ThreatScenario, seed: int) -> dict:
    """All additive terms of one sample, their sum ``received``, and the
    ``label_amp`` and ``label_bits`` that the label is decoded against."""
    frame = scenario.frame
    length = frame.sample_len

    legit_bits = random_bits(frame.bits_per_sample, _stream(seed, _STREAM_LEGIT_BITS))
    x = ofdm_modulate(qam_modulate(legit_bits, frame), frame)
    legit_amp = _tx_amplitude(scenario.legit_link)
    legit_term = legit_amp * x
    noise = awgn(length, 10.0 ** (scenario.noise_dbw / 10.0), _stream(seed, _STREAM_NOISE))

    parts: dict = {
        "legit_bits": legit_bits,
        "legit_series": x,
        "legit_amp": legit_amp,
        "legit_term": legit_term,
        "noise": noise,
        "label_amp": legit_amp,
        "label_bits": legit_bits,
    }

    if scenario.kind is ThreatKind.DISRUPTIVE:
        adv = scenario.adversary_link
        waveform = awgn(length, adv.tx_power_w, _stream(seed, _STREAM_JAMMER))
        mask = _stream(seed, _STREAM_OBFUSCATION).binomial(
            1, scenario.obfuscation_prob, size=length
        )
        jam_term = channel_gain(adv) * mask * waveform
        parts.update(
            obfuscation_mask=mask,
            jam_term=jam_term,
            received=legit_term + jam_term + noise,
        )
    elif scenario.kind is ThreatKind.DECEPTIVE:
        malicious_bits = random_bits(
            frame.bits_per_sample, _stream(seed, _STREAM_MALICIOUS_BITS)
        )
        s = ofdm_modulate(qam_modulate(malicious_bits, frame), frame)
        adv_amp = _tx_amplitude(scenario.adversary_link)
        spoof_term = adv_amp * s
        estimate = legit_amp * (1.0 - scenario.estimation_error)
        # legit_term + (spoof_term - estimate * x) + noise, summed in one buffer.
        received = estimate * x
        np.subtract(spoof_term, received, out=received)
        np.add(legit_term, received, out=received)
        received += noise
        parts.update(
            malicious_bits=malicious_bits,
            adv_amp=adv_amp,
            spoof_term=spoof_term,
            received=received,
            label_amp=adv_amp,
            label_bits=malicious_bits,
        )
    else:
        parts["received"] = legit_term + noise
    return parts


def generate_sample(scenario: ThreatScenario, seed: int) -> LabeledSample:
    """Generate one labelled sample; deterministic in (scenario, seed)."""
    frame = scenario.frame
    parts = generate_components(scenario, seed)
    received, label_amp, label_bits = parts["received"], parts["label_amp"], parts["label_bits"]
    del parts  # frees the other full-length terms before decoding allocates its own
    spectra = block_spectra(received, frame)
    grid = ofdm_demodulate(spectra, complex(label_amp), frame)
    ber = compute_ber(label_bits, qam_demodulate(grid, frame))
    return LabeledSample(spectra=spectra, raw_ber=ber)


@dataclass(frozen=True)
class ScenarioSpace:
    """Value sets that per-sample scenario draws are taken from.

    Distances, powers and the noise level are drawn uniformly and
    independently; optics are fixed across the space.
    """

    legit_powers_w: tuple = (0.5,)
    legit_distances_m: tuple = (500e3, 750e3, 1500e3)
    adversary_powers_w: tuple = (0.25, 0.5)
    adversary_distances_m: tuple = (750e3, 1500e3, 3000e3)
    noise_dbw_levels: tuple = (-56.0, -57.0)
    wavelength_m: float = 1500e-9
    tx_aperture_m: float = 0.1
    rx_aperture_m: float = 0.2
    jitter_rad: float = 0.002
    divergence_rad: float = 0.02
    tx_efficiency: float = 1.0
    rx_efficiency: float = 1.0
    obfuscation_prob: float = 0.5
    estimation_error: float = 0.3

    def __post_init__(self) -> None:
        # What a draw would refuse is refused here by the same rules, named by its key;
        # their messages begin with the field, the key itself for optics and fractions.
        try:
            link = self._link(1.0, 1.0)  # the optics, at a power and a distance that pass
            _check_fractions(self.obfuscation_prob, self.estimation_error)
        except ValueError as exc:
            raise ValueError(f"space.{exc}") from None
        for name, attr in (("legit_powers_w", "tx_power_w"), ("legit_distances_m", "distance_m"),
                           ("adversary_powers_w", "tx_power_w"),
                           ("adversary_distances_m", "distance_m"), ("noise_dbw_levels", None)):
            values = getattr(self, name)
            if len(values) == 0:
                raise ValueError(f"space.{name} must be non-empty")
            for value in values:
                try:
                    if (isinstance(value, bool) or not isinstance(value, Real)
                            or not math.isfinite(value)):
                        raise ValueError("entries must be finite real numbers")
                    if attr:  # the LinkBudget field the entry becomes
                        replace(link, **{attr: value})
                    elif not -3000.0 < value < 3000.0:  # awgn's watts: positive, finite
                        raise ValueError("entries must lie in (-3000, 3000) dBW")
                except ValueError as exc:
                    raise ValueError(f"space.{name} holds {value!r}: {exc}") from None

    def _link(self, power_w: float, distance_m: float) -> LinkBudget:
        return LinkBudget(
            tx_power_w=power_w,
            distance_m=distance_m,
            wavelength_m=self.wavelength_m,
            tx_aperture_m=self.tx_aperture_m,
            rx_aperture_m=self.rx_aperture_m,
            tx_efficiency=self.tx_efficiency,
            rx_efficiency=self.rx_efficiency,
            jitter_rad=self.jitter_rad,
            divergence_rad=self.divergence_rad,
        )

    def draw(self, kind: ThreatKind, frame: FrameConfig, seed: int) -> ThreatScenario:
        """Draw one concrete scenario for the given intent from the sample seed's
        scenario stream, which no generator consumes."""
        rng = _stream(seed, _STREAM_SCENARIO)

        def pick(values):
            return values[rng.integers(len(values))]

        legit = self._link(pick(self.legit_powers_w), pick(self.legit_distances_m))
        adversary = None
        if kind is not ThreatKind.NON_ADVERSARIAL:
            adversary = self._link(
                pick(self.adversary_powers_w), pick(self.adversary_distances_m)
            )
        return ThreatScenario(
            kind=kind,
            legit_link=legit,
            noise_dbw=float(pick(self.noise_dbw_levels)),
            frame=frame,
            adversary_link=adversary,
            obfuscation_prob=self.obfuscation_prob,
            estimation_error=self.estimation_error,
        )

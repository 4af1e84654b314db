"""Tests for the three threat-signal generators and the labelling policy."""

import csv
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from cpaware import threats
from cpaware.assessment import write_report
from cpaware.channel import LinkBudget, channel_gain
from cpaware.ofdm import (
    FrameConfig,
    block_spectra,
    compute_ber,
    ofdm_demodulate,
    qam_demodulate,
)
from cpaware.threats import (
    INTENT_NAMES,
    ScenarioSpace,
    ThreatKind,
    ThreatScenario,
    generate_components,
    generate_sample,
    label_log_ber,
)

FRAME = FrameConfig(64, 8, 64)


def legit_link(distance_m=500e3, power_w=0.5) -> LinkBudget:
    return LinkBudget(tx_power_w=power_w, distance_m=distance_m,
                      wavelength_m=1500e-9, tx_aperture_m=0.1, rx_aperture_m=0.2,
                      jitter_rad=0.002, divergence_rad=0.02)


def scenario(kind, *, legit_d=500e3, adv_d=750e3, adv_p=0.5, noise_dbw=-56.0,
             p_obf=0.5, est_err=0.3, frame=FRAME) -> ThreatScenario:
    adversary = None
    if kind is not ThreatKind.NON_ADVERSARIAL:
        adversary = legit_link(distance_m=adv_d, power_w=adv_p)
    return ThreatScenario(kind=kind, legit_link=legit_link(distance_m=legit_d),
                          noise_dbw=noise_dbw, frame=frame,
                          adversary_link=adversary, obfuscation_prob=p_obf,
                          estimation_error=est_err)


class TestIntentEncoding:
    def test_one_hot_orientation(self, tmp_path):
        """The report's bits: the intent index, and high/moderate/low capability."""
        path = tmp_path / "report.csv"
        kinds = [ThreatKind.DECEPTIVE, ThreatKind.DISRUPTIVE, ThreatKind.NON_ADVERSARIAL]
        # BER 1e-1, 1e-3 and 1e-1: capability low (inverted), moderate and high.
        write_report(path, [k.value for k in kinds], [-1.0, -3.0, -1.0])
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["intent"] for r in rows] == list(INTENT_NAMES)
        assert [r["intent_bits"] for r in rows] == ["100", "010", "001"]
        assert [r["capability"] for r in rows] == ["low", "moderate", "high"]
        assert [r["capability_bits"] for r in rows] == ["001", "010", "100"]

    def test_generated_intent_matches_kind(self):
        """Each intent adds its own term, and the sample holds the block spectra
        of their sum."""
        terms = {ThreatKind.DECEPTIVE: "spoof_term", ThreatKind.DISRUPTIVE: "jam_term",
                 ThreatKind.NON_ADVERSARIAL: None}
        for kind, term in terms.items():
            parts = generate_components(scenario(kind), seed=3)
            assert {"spoof_term", "jam_term"} & set(parts) == ({term} if term else set())
            sample = generate_sample(scenario(kind), seed=3)
            assert (sample.spectra.tobytes()
                    == block_spectra(parts["received"], FRAME).tobytes())


class TestLabelLogBer:
    def test_simple_log(self):
        assert label_log_ber(1e-2, FRAME) == pytest.approx(-2.0, abs=1e-12)

    def test_floor_at_full_frame_size(self):
        frame = FrameConfig(512, 64, 600)
        assert frame.bits_per_sample == 614_400
        assert label_log_ber(0.0, frame) == pytest.approx(math.log10(1 / 614_400),
                                                          abs=1e-9)
        assert label_log_ber(0.0, frame) == pytest.approx(-5.7885, abs=1e-4)

    def test_ber_one_maps_to_zero(self):
        assert label_log_ber(1.0, FRAME) == 0.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            label_log_ber(1.5, FRAME)


class TestNonAdversarial:
    def test_noiseless_gives_floor_label(self):
        sc = scenario(ThreatKind.NON_ADVERSARIAL, noise_dbw=-300.0)
        sample = generate_sample(sc, seed=11)
        assert sample.raw_ber == 0.0
        assert label_log_ber(sample.raw_ber, FRAME) == pytest.approx(
            math.log10(1 / FRAME.bits_per_sample))

    def test_deterministic_bytes(self):
        sc = scenario(ThreatKind.NON_ADVERSARIAL)
        a = generate_sample(sc, seed=77)
        b = generate_sample(sc, seed=77)
        assert a.spectra.tobytes() == b.spectra.tobytes()
        assert a.raw_ber == b.raw_ber
        assert (generate_components(sc, seed=77)["received"].tobytes()
                == generate_components(sc, seed=77)["received"].tobytes())

    def test_ber_against_monte_carlo_oracle(self):
        """Generator BER at 1500 km vs a 20x-bits oracle at identical SNR."""
        frame = FrameConfig(512, 64, 60)
        sc = scenario(ThreatKind.NON_ADVERSARIAL, legit_d=1500e3, frame=frame)
        sample = generate_sample(sc, seed=5)

        amp = math.sqrt(0.5) * channel_gain(sc.legit_link)
        snr = 0.5 * channel_gain(sc.legit_link) ** 2 / 10.0 ** (sc.noise_dbw / 10.0)
        rng = np.random.default_rng(99)
        errors = total = 0
        for _ in range(20):
            ref = generate_sample(sc, seed=int(rng.integers(2**32)))
            errors += ref.raw_ber * frame.bits_per_sample
            total += frame.bits_per_sample
        oracle_ber = errors / total
        # Sanity: the oracle itself sits near the analytic value Q(sqrt(SNR)).
        assert oracle_ber == pytest.approx(stats.norm.sf(math.sqrt(snr)), rel=0.2)
        assert sample.raw_ber == pytest.approx(oracle_ber, rel=0.25)


class TestDisruptive:
    def test_zero_obfuscation_equals_non_adversarial_bit_exact(self):
        sc_jam = scenario(ThreatKind.DISRUPTIVE, p_obf=0.0)
        sc_clean = scenario(ThreatKind.NON_ADVERSARIAL)
        for seed in (0, 1, 31337):
            jammed = generate_sample(sc_jam, seed)
            clean = generate_sample(sc_clean, seed)
            np.testing.assert_array_equal(generate_components(sc_jam, seed)["received"],
                                          generate_components(sc_clean, seed)["received"])
            np.testing.assert_array_equal(jammed.spectra, clean.spectra)
            assert jammed.raw_ber == clean.raw_ber

    def test_strong_jammer_drives_ber_to_half(self):
        sc = scenario(ThreatKind.DISRUPTIVE, adv_d=750e3, adv_p=5e4, p_obf=1.0)
        sample = generate_sample(sc, seed=8)
        assert sample.raw_ber == pytest.approx(0.5, abs=0.02)

    def test_obfuscation_mask_is_bernoulli_per_sample(self):
        sc = scenario(ThreatKind.DISRUPTIVE, p_obf=0.5)
        parts = generate_components(sc, seed=21)
        mask = parts["obfuscation_mask"]
        assert mask.size == FRAME.sample_len
        assert set(np.unique(mask)) <= {0, 1}
        assert np.mean(mask) == pytest.approx(0.5, abs=0.03)

    def test_label_uses_legitimate_bits(self):
        sc = scenario(ThreatKind.DISRUPTIVE, adv_d=750e3, p_obf=1.0)
        sample = generate_sample(sc, seed=4)
        parts = generate_components(sc, seed=4)
        ber = _decode(parts["received"], parts["legit_amp"], parts["legit_bits"])
        assert sample.raw_ber == ber

    def test_jam_term_takes_the_adversary_power_in_watts(self):
        """At adversary power 0.3 W the jammer term is
        ``channel_gain * mask * sqrt(0.3 / 2) * (a + jb)`` of the jammer and
        obfuscation streams, bit for bit.  A dB round trip of 0.3 lands one
        ULP off, and with it the waveform's scale."""
        sc = scenario(ThreatKind.DISRUPTIVE, adv_p=0.3)
        seed, length = 5, FRAME.sample_len
        jammer = threats._stream(seed, threats._STREAM_JAMMER)
        waveform = np.empty(length, dtype=complex)
        waveform.real = jammer.standard_normal(length)
        waveform.imag = jammer.standard_normal(length)
        waveform *= math.sqrt(0.3 / 2.0)
        mask = threats._stream(seed, threats._STREAM_OBFUSCATION).binomial(1, 0.5, size=length)
        expected = channel_gain(sc.adversary_link) * mask * waveform
        got = generate_components(sc, seed)["jam_term"]
        np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))

    def test_requires_adversary_link(self):
        with pytest.raises(ValueError, match="adversary"):
            ThreatScenario(kind=ThreatKind.DISRUPTIVE, legit_link=legit_link(),
                           noise_dbw=-56.0, frame=FRAME)


def _decode(received, amplitude, ref_bits) -> float:
    grid = ofdm_demodulate(block_spectra(received, FRAME), complex(amplitude), FRAME)
    return compute_ber(ref_bits, qam_demodulate(grid, FRAME))


class TestDeceptive:
    def test_perfect_estimation_cancels_legit_component(self):
        """With zero estimation error the received signal holds no trace of x."""
        sc = scenario(ThreatKind.DECEPTIVE, est_err=0.0, noise_dbw=-300.0)
        parts = generate_components(sc, seed=13)
        residual = parts["received"] - parts["spoof_term"] - parts["noise"]
        x = parts["legit_series"]
        corr = abs(np.vdot(x, residual))
        assert corr <= 1e-6 * abs(np.vdot(x, x))

    def test_full_estimation_error_leaves_legit_untouched(self):
        sc = scenario(ThreatKind.DECEPTIVE, est_err=1.0)
        parts = generate_components(sc, seed=14)
        expected = parts["legit_term"] + parts["spoof_term"] + parts["noise"]
        np.testing.assert_array_equal(parts["received"], expected)

    def test_residual_coefficient_recovery(self):
        """Differencing two runs isolates the residual legit amplitude.

        Holding the seed fixed and varying only the estimation error, the
        received difference equals (err_a - err_b) * a_legit * x exactly,
        so projecting onto x recovers the coefficient.
        """
        sc_a = scenario(ThreatKind.DECEPTIVE, est_err=0.3)
        sc_b = scenario(ThreatKind.DECEPTIVE, est_err=0.0)
        parts = generate_components(sc_a, seed=15)
        y_a = parts["received"]
        y_b = generate_components(sc_b, seed=15)["received"]
        x = parts["legit_series"]
        coeff = np.vdot(x, y_a - y_b) / np.vdot(x, x)
        assert coeff == pytest.approx(0.3 * parts["legit_amp"], rel=1e-9)

    def test_label_counts_malicious_bits(self):
        """Capable spoofer: adversary decodes cleanly, legit receiver ruined."""
        sc = scenario(ThreatKind.DECEPTIVE, legit_d=1500e3, adv_d=750e3, adv_p=0.5)
        sample = generate_sample(sc, seed=16)
        parts = generate_components(sc, seed=16)
        assert sample.raw_ber == _decode(parts["received"], parts["adv_amp"],
                                         parts["malicious_bits"])
        assert sample.raw_ber < 1e-3
        legit_view = _decode(parts["received"], parts["legit_amp"], parts["legit_bits"])
        assert legit_view > 0.1

    def test_zero_power_adversary_degrades_to_noise(self):
        """err=0 plus a vanishing spoofer leaves (statistically) pure noise."""
        sc = scenario(ThreatKind.DECEPTIVE, est_err=0.0, adv_p=1e-30)
        parts = generate_components(sc, seed=17)
        noise_energy = np.mean(np.abs(parts["noise"]) ** 2)
        assert np.mean(np.abs(parts["received"]) ** 2) == pytest.approx(
            noise_energy, rel=1e-6
        )
        assert noise_energy == pytest.approx(10.0 ** (sc.noise_dbw / 10.0), rel=0.05)


class TestScenarioSpace:
    def test_draw_respects_value_sets(self):
        space = ScenarioSpace()
        for seed in range(20):
            sc = space.draw(ThreatKind.DISRUPTIVE, FRAME, seed)
            assert sc.legit_link.tx_power_w in space.legit_powers_w
            assert sc.legit_link.distance_m in space.legit_distances_m
            assert sc.adversary_link.tx_power_w in space.adversary_powers_w
            assert sc.adversary_link.distance_m in space.adversary_distances_m
            assert sc.noise_dbw in space.noise_dbw_levels
        benign = space.draw(ThreatKind.NON_ADVERSARIAL, FRAME, 20)
        assert benign.adversary_link is None

    def test_draw_picks_from_the_seed_scenario_stream(self):
        """A draw picks legit power, legit distance, adversary power, adversary
        distance and noise level, in that order, from ``default_rng([seed, 5])``,
        a stream that no generator of the sample consumes."""
        space = ScenarioSpace(legit_powers_w=(0.5, 1.0), adversary_powers_w=(0.25, 0.5, 2.0))
        for seed in (0, 7, 2**63 + 5):
            rng = np.random.default_rng([seed, 5])
            picks = [values[rng.integers(len(values))] for values in (
                space.legit_powers_w, space.legit_distances_m, space.adversary_powers_w,
                space.adversary_distances_m, space.noise_dbw_levels)]
            sc = space.draw(ThreatKind.DECEPTIVE, FRAME, seed)
            assert [sc.legit_link.tx_power_w, sc.legit_link.distance_m,
                    sc.adversary_link.tx_power_w, sc.adversary_link.distance_m,
                    sc.noise_dbw] == picks

    def test_rejects_empty_sets(self):
        with pytest.raises(ValueError):
            ScenarioSpace(legit_powers_w=())


class TestPeakMemory:
    @pytest.mark.parametrize("kind", list(ThreatKind), ids=INTENT_NAMES)
    def test_generation_drops_its_terms_before_decoding(self, kind):
        """Decoding runs after the sample's intermediate waveforms are freed,
        so one sample's heap peak stays within 9.5x its received series
        (10.3-12.2x when every term stays alive through the decode)."""
        sc = scenario(kind)
        received = generate_components(sc, seed=18)["received"]
        generate_sample(sc, seed=18)  # first-call allocations stay out of the peak
        tracemalloc.start()
        try:
            generate_sample(sc, seed=18)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 9.5 * received.nbytes

"""cpaware: intent-driven threat assessment for optical intersatellite links.

End-to-end pipeline: CO-OFDM signal simulation over a free-space optical
link, generation of non-adversarial / disruptive / deceptive received
signals, spectrogram-morphology feature tensors, a from-scratch
multitask detection network (intent classification + log-BER
regression), and grading on an 8-level threat scale, plus the
conventional sequential cascade as a benchmark.
"""

__version__ = "0.1.0"

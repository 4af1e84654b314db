"""cpaware: intent-driven threat assessment for optical intersatellite links.

End-to-end pipeline: CO-OFDM signal simulation over a free-space optical
link, generation of non-adversarial / disruptive / deceptive received
signals, spectrogram-morphology feature tensors, a from-scratch
multitask detection network (intent classification + log-BER
regression), and grading on an 8-level threat scale, plus the
conventional sequential cascade as a benchmark.
"""

from .assessment import AssessmentThresholds, assess
from .channel import LinkBudget, NoiseConfig, awgn, channel_gain
from .features import FeatureConfig, FeatureTensor, feature_tensor, local_extrema, spectrogram
from .ofdm import (
    FrameConfig,
    compute_ber,
    ofdm_demodulate,
    ofdm_modulate,
    qam_demodulate,
    qam_modulate,
    remove_cp,
)
from .threats import (
    LabeledSample,
    ScenarioSpace,
    ThreatKind,
    ThreatScenario,
    generate_sample,
    label_log_ber,
)

__version__ = "0.1.0"

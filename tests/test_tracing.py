"""A traced feature_tensor gives the benchmark its feature spans.

perfbench's Tracer keeps one stack of open spans, and its per-layer
metrics such as features.local_extrema_ms are read from the spans
feature_tensor, spectrogram and local_extrema, so they must open in that
order under feature_tensor.  spans.py is imported by path;
the benchmark's files are not changed.
"""

import importlib.util
from pathlib import Path

import numpy as np

from cpaware import features
from cpaware.ofdm import FrameConfig, block_spectra

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_feature_tensor_traces_in_order():
    spans = load_spans()
    frame = FrameConfig(256, 16, 256)
    rng = np.random.default_rng(0)
    received = rng.normal(size=frame.sample_len) + 1j * rng.normal(size=frame.sample_len)
    spectra = block_spectra(received, frame)
    tracer = spans.Tracer("feature-spans")
    with spans.Instrumentation(tracer):  # a span closed out of order raises here
        features.feature_tensor(spectra, features.FeatureConfig(6))
    by_id = {span["id"]: span for span in tracer.spans}
    extrema = [span for span in tracer.spans if span["name"] == "features.local_extrema"]
    assert len(extrema) == 1
    assert by_id[extrema[0]["parent"]]["name"] == "features.feature_tensor"
    # One span per traced call; none from the band helper.
    assert [span["name"] for span in tracer.spans] == [
        "features.feature_tensor", "features.spectrogram", "features.local_extrema"]
    assert all(span["end"] is not None for span in tracer.spans)

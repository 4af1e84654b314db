"""Dataset construction, training orchestration, metrics and presets."""

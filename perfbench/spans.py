"""Span tracing for the benchmark's traced runs, and the per-layer metrics.

The program under test is never edited.  While a traced pass runs, every
public function and method of every ``cpaware`` module, and each network
layer's ``forward``/``backward``, is replaced by a wrapper that records a
span; the originals are restored when the pass ends, so untraced passes
run the unmodified code.

A span is ``{id, parent, name, run, item, start, end[, attrs]}``.  ``item``
names the unit of work the span belongs to: ``sample-<n>`` inside a
generated sample, ``step-<n>`` inside a training step, else the enclosing
``pass-<n>``.  Spans stay in memory and are written as JSON lines when
the run ends; ``layer_metrics`` derives every per-layer metric from that
dump alone.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import statistics
import sys
import time
import weakref
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """In-memory span recorder with a stack of open spans."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._counters: dict[str, int] = defaultdict(int)
        self._t0 = time.perf_counter()

    def open(self, name: str, kind: str | None = None) -> dict:
        parent = self._stack[-1] if self._stack else None
        if kind is not None:
            item = f"{kind}-{self._counters[kind]}"
            self._counters[kind] += 1
        else:
            item = parent["item"] if parent else None
        span = {"id": len(self.spans), "parent": parent["id"] if parent else None,
                "name": name, "run": self.run_id, "item": item,
                "start": time.perf_counter() - self._t0, "end": None}
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: dict, attrs: dict | None = None) -> None:
        span["end"] = time.perf_counter() - self._t0
        if self._stack.pop() is not span:
            raise RuntimeError(f"span {span['name']} closed out of order")
        if attrs:
            span["attrs"] = attrs

    @contextmanager
    def span(self, name: str, kind: str | None = None, **attrs):
        span = self.open(name, kind)
        try:
            yield span
        finally:
            self.close(span, attrs)

    def record(self, name: str, **attrs) -> None:
        """A zero-length span carrying values, such as check results."""
        self.close(self.open(name), attrs)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


def read_dump(path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh]


# -- instrumentation -------------------------------------------------------

def _file_size(path) -> int:
    return os.path.getsize(path)


def _layer_forward_attrs(layer, x, out) -> dict:
    attrs = {"batch": int(x.shape[0]), "out_bytes": int(out.nbytes)}
    if type(layer).__name__ == "Conv2D":
        _, ho, wo, cout = out.shape
        k, cin = layer.kernel_size, layer.in_channels
        attrs["flop"] = int(2 * x.shape[0] * ho * wo * k * k * cin * cout)
    return attrs


# Per-span extras: (item kind, attrs from (args, kwargs, result)).
_SPECIAL = {
    "threats.generate_sample": ("sample", None),
    "training.train_step": ("step", lambda a, k, r: {"batch": len(a[1])}),
    "dataset.build_dataset": (None, lambda a, k, r: {"records": int(r)}),
    "dataset.write_dataset": (None, lambda a, k, r: {
        "bytes": _file_size(a[0]), "records": len(a[2])}),
    "dataset.Dataset.load_arrays": (None, lambda a, k, r: {"records": len(r[1])}),
    "checkpoint.save_model": (None, lambda a, k, r: {"bytes": _file_size(a[0])}),
    "baseline.SequentialAssessor.assess_batch": (None, lambda a, k, r: {
        "graded": len(a[1]), "gated": a[0].gated_count,
        "invoked": a[0].classifier_invocations}),
    "cli.main": (None, lambda a, k, r: {"command": str(a[0][0])}),
}


class Instrumentation:
    """Swaps traced wrappers into the loaded ``cpaware`` modules on enter."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._layer_names = weakref.WeakKeyDictionary()
        self._swaps: list[tuple[object, str, object, object]] = []
        modules = [m for n, m in sorted(sys.modules.items())
                   if n.startswith("cpaware.") and m is not None
                   and not hasattr(m, "__path__")]
        for module in modules:
            short = module.__name__.rsplit(".", 1)[1]
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, type):
                    self._wrap_class(short, obj)
                elif inspect.isfunction(obj) or hasattr(obj, "__wrapped__"):
                    wrapped = self._wrap(f"{short}.{name}", obj)
                    for other in modules:  # also rebind names imported elsewhere
                        for alias, value in list(vars(other).items()):
                            if value is obj:
                                self._swaps.append((other, alias, obj, wrapped))

    def _wrap_class(self, short: str, cls: type) -> None:
        qual = f"{short}.{cls.__name__}"
        for name, obj in list(vars(cls).items()):
            if not inspect.isfunction(obj):
                continue
            if short == "layers" and name in ("forward", "backward"):
                wrapped = self._wrap_layer(cls.__name__, name, obj)
            elif qual == "dataset.Dataset" and name == "__init__":
                wrapped = self._wrap(f"{qual}.open", obj)
            elif qual == "model.MultitaskNet" and name == "__init__":
                wrapped = self._wrap_model_init(obj)
            elif name.startswith("_"):
                continue
            else:
                wrapped = self._wrap(f"{qual}.{name}", obj)
            self._swaps.append((cls, name, obj, wrapped))

    def _wrap(self, name: str, fn):
        kind, attrs = _SPECIAL.get(name, (None, None))
        tracer = self.tracer

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name, kind)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close(span)
                raise
            tracer.close(span, attrs(args, kwargs, result) if attrs else None)
            return result
        return traced

    def _wrap_model_init(self, fn):
        names = self._layer_names

        @functools.wraps(fn)
        def init(model, *args, **kwargs):
            fn(model, *args, **kwargs)
            # The same prefixes MultitaskNet.named_params uses.
            for i, layer in enumerate(model.backbone):
                names[layer] = f"backbone.{i}"
            names[model.head_cls] = "head_cls"
            names[model.head_reg] = "head_reg"
        return init

    def _wrap_layer(self, cls_name: str, method: str, fn):
        tracer, names = self.tracer, self._layer_names

        @functools.wraps(fn)
        def traced(layer, x, *args, **kwargs):
            prefix = names.get(layer, cls_name)
            if method == "backward":
                tag = "bwd"
            else:
                train = args[0] if args else kwargs.get("train", True)
                tag = "fwd" if train else "infer"
            span = tracer.open(f"net.{prefix}.{tag}")
            try:
                out = fn(layer, x, *args, **kwargs)
            except BaseException:
                tracer.close(span)
                raise
            tracer.close(span, _layer_forward_attrs(layer, x, out)
                         if tag == "fwd" else None)
            return out
        return traced

    def __enter__(self):
        for owner, name, _, wrapped in self._swaps:
            setattr(owner, name, wrapped)
        return self

    def __exit__(self, *exc):
        for owner, name, original, _ in reversed(self._swaps):
            setattr(owner, name, original)
        return False


# -- metrics from a span dump ---------------------------------------------

GENERATION = ("ofdm.qam_modulate", "ofdm.ofdm_modulate", "channel.awgn",
              "ofdm.ofdm_demodulate", "ofdm.qam_demodulate")
STAGES = {"generate": "build", "train": "train", "eval": "eval",
          "baseline": "cascade", "assess": "assess"}


def _dur(span) -> float:
    return span["end"] - span["start"]


def _p50(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _ancestor(spans, span, name) -> int | None:
    """Id of the nearest enclosing span called ``name`` (ids index the dump)."""
    while span["parent"] is not None:
        span = spans[span["parent"]]
        if span["name"] == name:
            return span["id"]
    return None


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Every per-layer metric, derived from the span dump alone.

    Layers a workload never calls are absent here; the caller reports
    them as 0.
    """
    children = defaultdict(list)
    named = defaultdict(list)
    for s in spans:
        named[s["name"]].append(s)
        if s["parent"] is not None:
            children[s["parent"]].append(s)

    def p50_ms(name):
        return 1e3 * _p50([_dur(s) for s in named[name]])

    def descendants(span, stop=lambda s: False):
        for child in children[span["id"]]:
            yield child
            if not stop(child):
                yield from descendants(child, stop)

    m: dict[str, float] = {}

    # generation: per-sample p50 of the sample, per-sample sums of the parts
    m["threats.generate_sample_ms"] = p50_ms("threats.generate_sample")
    samples = [s["item"] for s in named["threats.generate_sample"]]
    per_sample = defaultdict(lambda: defaultdict(float))
    for name in GENERATION:
        for s in named[name]:
            per_sample[name][s["item"]] += _dur(s)
    for name in GENERATION:
        m[f"{name}_ms"] = 1e3 * _p50([per_sample[name][i] for i in samples])

    for name in ("spectrogram", "local_extrema", "feature_tensor"):
        m[f"features.{name}_ms"] = p50_ms(f"features.{name}")

    m["dataset.write_ms"] = p50_ms("dataset.write_dataset")
    m["dataset.open_ms"] = p50_ms("dataset.Dataset.open")
    m["dataset.load_arrays_ms"] = p50_ms("dataset.Dataset.load_arrays")
    m["dataset.bytes_per_sample"] = _p50(
        [s["attrs"]["bytes"] / s["attrs"]["records"] for s in named["dataset.write_dataset"]])

    # training loop
    steps = named["training.train_step"]
    m["training.step_p50_ms"] = 1e3 * _p50([_dur(s) for s in steps])
    # The tail is taken within each traced pass, whose step count the config
    # fixes, so it sits at the same percentile however many passes fit in a
    # run: the highest percentile with at least ten steps beyond it.  With
    # fewer than 11 steps a pass there is none and the tail reads 0.  The
    # step count and the percentile go to the run record, not the metrics.
    per_pass = defaultdict(list)
    for s in steps:
        per_pass[_ancestor(spans, s, "bench.pass")].append(_dur(s))
    m["training.steps_per_pass"] = _p50([len(v) for v in per_pass.values()])
    tails = []
    for step_s in per_pass.values():
        if len(step_s) > 10:
            step_s.sort()
            tails.append(step_s[len(step_s) - 11])
            m["training.step_tail_pct"] = 100.0 * (len(step_s) - 10) / len(step_s)
    m["training.step_tail_ms"] = 1e3 * _p50(tails)
    waits = []
    for run in named["training.train"]:
        kids = [c for c in children[run["id"]] if c["name"] == "training.train_step"]
        waits += [b["start"] - a["end"] for a, b in zip(kids, kids[1:])]
    m["training.data_wait_ms"] = 1e3 * _p50(waits)
    for tag in ("forward", "backward"):
        m[f"training.{tag}_ms"] = 1e3 * _p50(
            [_dur(c) for s in steps for c in children[s["id"]]
             if c["name"] == f"model.MultitaskNet.{tag}"])
    m["losses.ms"] = 1e3 * _p50(
        [sum(_dur(c) for c in children[s["id"]] if c["name"].startswith("losses."))
         for s in steps])
    m["optim.adam_ms"] = p50_ms("optim.Adam.step")

    # network layers
    conv_flop = act_bytes = 0.0
    seen = set()
    for s in spans:
        name = s["name"]
        if name.startswith("net.") and name.endswith(".fwd") and name not in seen:
            seen.add(name)
            batch = s["attrs"]["batch"]
            act_bytes += s["attrs"]["out_bytes"] / batch
            conv_flop += s["attrs"].get("flop", 0) / batch
    for name in named:
        if name.startswith("net.") and name.rsplit(".", 1)[1] in ("fwd", "bwd", "infer"):
            m[f"{name}_ms"] = p50_ms(name)
    m["net.conv_mflop_per_sample"] = conv_flop / 1e6
    m["net.activation_mb_per_sample"] = act_bytes / 2**20

    m["checkpoint.save_ms"] = p50_ms("checkpoint.save_model")
    m["checkpoint.load_ms"] = p50_ms("checkpoint.load_model")
    m["checkpoint.bytes"] = _p50([s["attrs"]["bytes"] for s in named["checkpoint.save_model"]])

    m["assessment.assess_us_per_sample"] = 1e6 * _p50(
        [_dur(s) for s in named["assessment.assess"]])
    m["assessment.write_report_ms"] = p50_ms("assessment.write_report")

    # cascade: the regressor always runs first, the classifier only on
    # samples the gate passes
    cascades = named["baseline.SequentialAssessor.assess_batch"]
    graded = sum(s["attrs"]["graded"] for s in cascades)
    m["baseline.gated_share"] = (
        sum(s["attrs"]["gated"] for s in cascades) / graded if graded else 0.0)
    m["baseline.classifier_invocations"] = _p50([s["attrs"]["invoked"] for s in cascades])
    predicts = [[c for c in children[s["id"]]
                 if c["name"] == "model.MultitaskNet.predict_batched"] for s in cascades]
    m["baseline.regressor_ms"] = 1e3 * _p50([_dur(p[0]) for p in predicts if p])
    m["baseline.classifier_ms"] = 1e3 * _p50([_dur(p[1]) for p in predicts if len(p) > 1])

    is_predict = lambda s: s["name"] == "model.MultitaskNet.predict_batched"  # noqa: E731
    evals = named["metrics.evaluate_multitask"] + named["metrics.evaluate_sequential"]
    m["metrics.self_ms"] = 1e3 * _p50(
        [_dur(e) - sum(_dur(d) for d in descendants(e, is_predict) if is_predict(d))
         for e in evals])
    m["metrics.loss_pass_ms"] = 1e3 * _p50(
        [_dur(c) for e in named["metrics.evaluate_sequential"]
         for c in children[e["id"]] if is_predict(c)])

    # trace accounting over the benchmark's pass spans
    passes = named["bench.pass"]
    traced = [s for s in passes if s["attrs"]["traced"]]
    untraced = [s for s in passes if not s["attrs"]["traced"] and not s["attrs"]["warmup"]]
    cli_self = sum(_dur(s) - sum(_dur(c) for c in children[s["id"]])
                   for s in spans if s["name"].startswith("cli."))
    m["cli.self_ms"] = 1e3 * cli_self / len(traced) if traced else 0.0
    if traced and untraced:
        m["trace.overhead_share"] = (_p50([_dur(s) for s in traced])
                                     / _p50([_dur(s) for s in untraced]) - 1.0)
    total = sum(_dur(s) for s in traced)
    if total:
        covered = sum(_dur(c) for s in traced for c in children[s["id"]])
        m["trace.unattributed_share"] = (total - covered) / total

    # stage throughput: samples handled per second of each CLI command
    work = defaultdict(float)
    wall = defaultdict(float)
    for s in named["cli.main"]:
        stage = STAGES.get(s["attrs"]["command"])
        if stage is None:
            continue
        wall[stage] += _dur(s)
        for d in descendants(s):
            if stage == "train":
                work[stage] += d["attrs"]["batch"] if d["name"] == "training.train_step" else 0
            elif stage == "build":
                work[stage] += d["attrs"]["records"] if d["name"] == "dataset.build_dataset" else 0
            elif d["name"] == "dataset.Dataset.load_arrays":
                work[stage] += d["attrs"]["records"]
    for stage in STAGES.values():
        if wall[stage]:
            m[f"stage.{stage}_samples_per_s"] = work[stage] / wall[stage]

    for check in named["bench.check"]:
        for key, value in check.get("attrs", {}).items():
            m[f"quality.{key}"] = float(value)

    return m

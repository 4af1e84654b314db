"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload desk_pipeline --seed 3 --seconds 30 --trace 0

The program is imported from ``src/`` of the same checkout.  Set-up runs
at least three times and for at least four seconds, and ``setup_s`` is its
median.  Timed passes then repeat
until ``--seconds`` is used up (at least three), and ``wall_s`` is the
median pass.  With ``--trace 1`` the passes alternate between untraced
and traced after one untraced warm-up pass, the spans are written to
``.perfbench_out/`` and the per-layer metrics are derived from that dump.

Every run ends with the correctness gate.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics of BENCHMARK.json with ``--trace 0``,
its per-layer metrics with ``--trace 1``).  A failed command or check
makes the exit code 1.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

SETUP_REPEATS = 3       # set-up runs at least this often ...
SETUP_MIN_SECONDS = 4.0  # ... and until it has taken this long in all
MIN_PASSES = 3         # untraced run
MIN_TRACED_PAIRS = 2   # traced run: at least this many traced and untraced passes


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("desk_pipeline", "full_build", "full_train"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("bench", "tiny"), default="bench",
                   help="tiny runs every code path at a 16x16 geometry in seconds")
    return p.parse_args(argv)


def import_program() -> None:
    """Put this checkout's src/ first on the path; refuse any other cpaware."""
    if not (SRC / "cpaware" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no program source at {SRC / 'cpaware'}")
    sys.path.insert(0, str(SRC))
    import cpaware
    if Path(cpaware.__file__).resolve().parent != (SRC / "cpaware").resolve():
        raise SystemExit(f"perfbench: imported cpaware from {cpaware.__file__}, not {SRC}")


# -- environment block ------------------------------------------------------

def _blas() -> tuple[str | None, int | None]:
    import numpy as np
    try:
        name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except Exception:  # numpy without the dict form of show_config
        name = None
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return name, int(fn())
    return name, None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return done.stdout.strip() or None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(args) -> dict:
    import numpy as np
    blas_name, blas_threads = _blas()
    return {
        "workload": args.workload, "seed": args.seed, "traced": bool(args.trace),
        "scale": args.scale, "numpy": np.__version__, "blas": blas_name,
        "blas_threads": blas_threads, "nproc": os.cpu_count(),
        "python": platform.python_version(), "cpu": _cpu_model(),
        "git_commit": _git_commit(), "source_sha256": _source_digest(),
    }


# -- measurement ------------------------------------------------------------

def measure(workload, tracer, instrumentation, seconds: float) -> list[float]:
    """Run timed passes; returns the untraced pass times (warm-up excluded)."""
    times = {False: [], True: []}

    def one_pass(traced: bool, warmup: bool = False) -> None:
        with tracer.span("bench.pass", kind="pass", traced=traced, warmup=warmup):
            start = time.perf_counter()
            if traced:
                with instrumentation:
                    workload.run_pass()
            else:
                workload.run_pass()
            elapsed = time.perf_counter() - start
        workload.check_pass()
        if not warmup:
            times[traced].append(elapsed)

    begin = time.perf_counter()
    if instrumentation is None:
        while (len(times[False]) < MIN_PASSES or time.perf_counter() - begin
               + statistics.median(times[False]) <= seconds):
            one_pass(False)
    else:
        one_pass(False, warmup=True)
        while (len(times[True]) < MIN_TRACED_PAIRS or time.perf_counter() - begin
               + statistics.median(times[True] + times[False]) <= seconds):
            one_pass(True)
            one_pass(False)
    return times[False]


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import_program()
    import spans
    import workloads

    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.scale}"
    workdir = WORK / f"{run_id}-{os.getpid()}"
    gate = workloads.Gate()
    tracer = spans.Tracer(run_id)
    workload = workloads.WORKLOADS[args.workload](workdir, args.seed, args.scale, gate)
    reference = json.loads((BENCH_DIR / "reference.json").read_text())
    env = environment(args)

    setup_times: list[float] = []
    pass_times: list[float] = []
    try:
        workdir.mkdir(parents=True)
        while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_MIN_SECONDS:
            start = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - start)
            workload.record_setup()
        instrumentation = spans.Instrumentation(tracer) if args.trace else None
        pass_times = measure(workload, tracer, instrumentation, args.seconds)
        workload.check_setup(reference)
        tracer.record("bench.check", **workload.quality)
    except workloads.CommandFailed:
        pass  # the gate has recorded it
    except Exception:  # any other failure ends the run as incorrect
        gate.failures.append(traceback.format_exc())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    OUT.mkdir(exist_ok=True)
    metrics: dict[str, float] = {}
    derived: dict[str, float] = {}
    if args.trace:
        dump = OUT / f"{run_id}.spans.jsonl"
        tracer.dump(dump)
        derived = spans.layer_metrics(spans.read_dump(dump))
        names = spec["per_layer"]
        metrics = {m["name"]: derived.get(m["name"], 0.0) for m in names}
    else:
        names = spec["end_to_end"]
        if pass_times and setup_times:
            metrics = {
                "wall_s": statistics.median(pass_times),
                "setup_s": statistics.median(setup_times),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
    units = {m["name"]: m["unit"] for m in names}
    result = {
        "correct": not gate.failures,
        "attempted": max(gate.attempted, 1),
        "failed": len(gate.failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }

    record = {"env": env, "setup_s": setup_times, "pass_s": pass_times,
              "quality": workload.quality, "layer_metrics": derived,
              "failures": gate.failures, **result}
    (OUT / f"{run_id}.json").write_text(json.dumps(record, indent=2, sort_keys=True))
    for failure in gate.failures:
        print(f"perfbench: FAILED: {failure}", file=sys.stderr)
    print(f"perfbench {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(setup_times)} set-ups, {len(pass_times)} untraced passes")
    for name, value in metrics.items():
        print(f"  {name:<40} {value:.6g} {units[name]}")
    print(f"  {'failed_share':<40} {result['failed']}/{result['attempted']}")
    if not args.trace:
        for name, value in workload.quality.items():
            print(f"  {'quality.' + name:<40} {value:.4f}")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""Run one benchmark workload of ``ispbench`` and print its metrics.

    python3 perfbench/run.py --workload frame --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/`` of
that checkout and nowhere else.  Standard output is ``name value unit``
lines, then one JSON object ``{"correct", "attempted", "failed",
"metrics"}`` as the last line.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced operations and reports
the per-layer metrics of ``layers.py``.  Progress goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("frame", "frame-p16", "sweep", "stream")
END_TO_END = {"op_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
SETUP_REPEATS = 15
MIN_STEPS = 2
PROGRESS_EVERY_S = 2.0

# a fresh interpreter's set-up: imports, synthetic mosaic, parameter generation
SETUP_CHILD = """\
import sys, time
t0 = time.perf_counter()
from workloads import WORKLOADS
WORKLOADS[sys.argv[1]].make_inputs(int(sys.argv[2]))
print(time.perf_counter() - t0)
"""


@dataclass
class Phase:
    """Timed operations and the checks made on their outputs."""

    times: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    per_op: list[dict[str, float]] = field(default_factory=list)  # spans and output values


def run_op(workload, inputs, phase: Phase, tracer=None) -> None:
    """One timed operation; its output is checked after the clock stops."""
    t0 = time.perf_counter()
    output = workload.op(inputs)
    phase.times.append(time.perf_counter() - t0)
    checked = workload.check(inputs, output)
    phase.attempted += len(checked.checks)
    phase.failed += checked.checks.count(False)
    spans = tracer.take() if tracer is not None else {}
    phase.per_op.append({**spans, **checked.layer})


def closed_loop(name: str, seconds: float, step) -> None:
    """Call ``step`` again as soon as it returns.

    Stops when another call of median length would overrun ``seconds``,
    after at least ``MIN_STEPS`` calls.
    """
    durations: list[float] = []
    start = last_note = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        step()
        now = time.perf_counter()
        durations.append(now - t0)
        if now - last_note >= PROGRESS_EVERY_S:
            print(f"[{name}] {len(durations)} steps, {now - start:.1f}/{seconds:g} s",
                  file=sys.stderr, flush=True)
            last_note = now
        if len(durations) >= MIN_STEPS and now + statistics.median(durations) > start + seconds:
            return


def failed_frac(phases) -> float:
    """Failed output checks over checks attempted, across phases."""
    return sum(p.failed for p in phases) / sum(p.attempted for p in phases)


def measure_setup(name: str, seed: int) -> float:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(HERE), str(SRC)]))
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, name, str(seed)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def metadata(workload, inputs, np_version: str) -> dict[str, str]:
    cpu = next(
        (line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
         if line.startswith("model name")),
        platform.processor() or "unknown",
    )
    l2 = _read("/sys/devices/system/cpu/cpu0/cache/index2/size").strip() or "unknown"
    rev = "none"  # a checkout without .git, as the benchmark is usually run
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or rev
        except (OSError, subprocess.TimeoutExpired):
            pass
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "meta.workload": workload.name,
        "meta.mosaic_seed": str(inputs.seed),
        "meta.python": platform.python_version(),
        "meta.numpy": np_version,
        "meta.nproc": str(os.cpu_count()),
        "meta.cpu_model": "_".join(cpu.split()),
        "meta.l2_size": l2,
        "meta.git_rev": rev,
        "meta.src_lines": str(src_lines),
    }


def end_to_end(workload, inputs, seed: int, seconds: float):
    setup = [measure_setup(workload.name, seed) for _ in range(SETUP_REPEATS)]
    phase = Phase()
    closed_loop(workload.name, seconds, lambda: run_op(workload, inputs, phase))
    values = {
        "op_s": statistics.median(phase.times),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return values, END_TO_END, (phase,)


def per_layer(workload, inputs, seed: int, seconds: float):
    """Untraced and traced operations alternate; their difference is the tracing overhead."""
    import layers

    synth, params = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.make_raw(seed)
        t1 = time.perf_counter()
        workload.make_params()
        synth.append(t1 - t0)
        params.append(time.perf_counter() - t1)
    untraced, traced = Phase(), Phase()
    tracer = layers.Tracer()

    def pair():
        run_op(workload, inputs, untraced)
        with tracer.installed():
            run_op(workload, inputs, traced, tracer)

    closed_loop(workload.name, seconds, pair)
    phases = (untraced, traced)
    values = layers.medians([layers.derive(op) for op in traced.per_op])
    base = statistics.median(untraced.times)
    values["trace_overhead_frac"] = (statistics.median(traced.times) - base) / base
    values["images.synth_s"] = statistics.median(synth)
    values["params.default_params_s"] = statistics.median(params)
    values["checks.failed_frac"] = failed_frac(phases)
    return values, layers.UNITS, phases


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # one process, one thread: numerical libraries must not start their own pools
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = "1"
    if not (SRC / "ispbench" / "__init__.py").is_file():
        print(f"error: no program at {SRC / 'ispbench'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import ispbench

    if not Path(ispbench.__file__).resolve().is_relative_to(SRC):
        print(f"error: ispbench imported from {ispbench.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    inputs = workload.make_inputs(args.seed)
    workload.prepare(inputs)
    meta = metadata(workload, inputs, numpy.__version__)
    measure = per_layer if args.trace else end_to_end
    values, units, phases = measure(workload, inputs, args.seed, args.seconds)

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    meta["meta.ops"] = str(sum(len(p.times) for p in phases))
    for name, value in meta.items():
        print(f"{name} {value} text")
    if not args.trace:
        print(f"checks.failed_frac {failed_frac(phases)!r} frac")
    for name, value in values.items():
        print(f"{name} {value!r} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

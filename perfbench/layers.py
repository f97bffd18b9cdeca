"""Per-layer metrics for the traced run, named after the modules of ``ispbench``.

Spans are taken from the benchmark's side: while ``Tracer.installed()`` is
active, the module attributes that ``kernels``, ``harness`` and
``dataflow`` look up at call time are replaced by timing wrappers, and the
originals are put back on exit.  Nothing in ``src/`` is edited.  Host
seconds (``_s``) and simulated quantities (``_cycles``, ``_units``) are
never mixed in one metric; the simulated ones are read off the program's
output.  The analytic model has no reference hardware data in the
repository, so its cycles are reported unvalidated, with no error figure.

A layer a workload does not run reads 0 on that workload.
"""

from __future__ import annotations

import contextlib
import statistics
import threading
import time
from collections import defaultdict

from ispbench import cache, dataflow, harness, kernels, perfmodel, report

STAGES = ("demosaic", "denoise", "transform", "gamut", "tonemap")
# NAMED_VARIANTS["gamut"] with "+" spelled "-"
GAMUT_LABELS = ("base", "RI", "RIW", "RIWC", "RIWC_128", "RIWB", "RIWB-U6")
KERNEL_FUNCS = {
    "demosaic": "demosaic",
    "denoise": "denoise",
    "transform": "transform",
    "gamut": "gamut_map",
    "tonemap": "tone_map",
}

FRAMES = "op_s on frame and frame-p16"
SWEEP = "op_s on sweep"
STREAM = "op_s on stream"
SETUP = "setup_s on every workload"


def _per_layer() -> list[tuple[str, str, str, str]]:
    """(name, unit, better, the end-to-end metric and workloads it should move)."""
    m = [(f"kernels.{s}_s", "s", "lower", FRAMES) for s in STAGES]
    m += [
        ("kernels.gamut_share", "frac", "lower", FRAMES),
        # base: gamut seconds / (pixels x control points) over all gamut_map calls
        ("kernels.gamut_ns_per_point_eval", "ns", "lower", FRAMES),
    ]
    m += [(f"variants.{s}_s", "s", "lower", SWEEP) for s in STAGES]
    m += [(f"variants.gamut.{label}_s", "s", "lower", SWEEP) for label in GAMUT_LABELS]
    m += [
        ("cache.s", "s", "lower", SWEEP),
        ("cache.accesses", "count", "lower", SWEEP),
        ("cache.misses", "count", "lower", SWEEP),
        ("cache.hit_rate", "frac", "higher", SWEEP),
        ("cache.accesses_per_s", "1/s", "higher", SWEEP),
        ("perfmodel.s", "s", "lower", SWEEP),
    ]
    m += [(f"perfmodel.gamut.{label}_cycles", "cycles", "lower", SWEEP) for label in GAMUT_LABELS]
    m += [(f"harness.{p}_s", "s", "lower", SWEEP) for p in ("upstream", "reference", "gate", "self")]
    m += [
        (f"dataflow.{s}.{k}_s", "s", "lower", STREAM)
        for s in STAGES
        for k in ("busy", "blocked_push", "blocked_pop")
    ]
    m += [
        ("dataflow.wall_us_per_pixel", "us", "lower", STREAM),
        ("dataflow.simulate_chain_s", "s", "lower", STREAM),
        ("dataflow.virtual_makespan_units", "units", "lower", STREAM),
        ("dataflow.bottleneck_agree", "flag", "higher", STREAM),
        ("images.synth_s", "s", "lower", SETUP),
        ("params.default_params_s", "s", "lower", SETUP),
        ("report.emit_s", "s", "lower", SWEEP),
        ("trace_overhead_frac", "frac", "lower", "none: traced minus untraced op_s, over untraced"),
        ("checks.failed_frac", "frac", "lower", "none: failed output checks over checks attempted"),
    ]
    return m


PER_LAYER = _per_layer()
UNITS = {name: unit for name, unit, _, _ in PER_LAYER}


class Tracer:
    """Accumulates span seconds and counts per metric until ``take`` is called."""

    def __init__(self):
        self._lock = threading.Lock()
        self._totals: dict[str, float] = defaultdict(float)
        self._depth = threading.local()

    def add(self, name: str, value: float) -> None:
        with self._lock:
            self._totals[name] += value

    def take(self) -> dict[str, float]:
        with self._lock:
            out = dict(self._totals)
            self._totals.clear()
        return out

    def _timed(self, fn, name_of):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                for name in name_of(args):
                    self.add(name, dt)

        return wrapper

    def _gamut(self, fn):
        timed = self._timed(fn, lambda args: ("kernels.gamut_s",))

        def wrapper(img, gp):
            self.add("kernels.gamut_evals", img.width * img.height * gp.n)
            return timed(img, gp)

        return wrapper

    def _cache(self, fn):
        """Times only the outermost simulator call; access_repeated calls access_trace."""

        def wrapper(sim, *args, **kwargs):
            depth = getattr(self._depth, "n", 0)
            self._depth.n = depth + 1
            before = (sim.hits + sim.misses, sim.misses)
            t0 = time.perf_counter()
            try:
                return fn(sim, *args, **kwargs)
            finally:
                self._depth.n = depth
                if depth == 0:
                    self.add("cache.s", time.perf_counter() - t0)
                    self.add("cache.accesses", sim.hits + sim.misses - before[0])
                    self.add("cache.misses", sim.misses - before[1])

        return wrapper

    def _variant_names(self, args):
        stage, cfg = args[0], args[1]
        names = [f"variants.{stage}_s"]
        if stage == "gamut":
            names.append(f"variants.gamut.{cfg.label().replace('+', '-')}_s")
        return names

    def _patches(self):
        """(owner, attribute, wrapper factory) for every name the traced run replaces."""
        def const(name):
            return lambda fn: self._timed(fn, lambda args: (name,))

        p = [
            (owner, func, self._gamut if stage == "gamut" else const(f"kernels.{stage}_s"))
            for owner in (kernels, dataflow)
            for stage, func in KERNEL_FUNCS.items()
        ]
        p += [
            (harness, "run_matrix", const("harness.run_matrix_s")),
            (harness, "stage_input", const("harness.upstream_s")),
            (harness, "reference_stage", const("harness.reference_s")),
            (harness, "max_rel_deviation", const("harness.gate_s")),
            (harness, "run_variant", lambda fn: self._timed(fn, self._variant_names)),
            (perfmodel, "estimate", const("perfmodel.s")),
            (perfmodel, "derive_descriptor", const("perfmodel.s")),
            (cache.ConstCacheSim, "access_trace", self._cache),
            (cache.ConstCacheSim, "access_repeated", self._cache),
            (dataflow, "simulate_chain", const("dataflow.simulate_chain_s")),
            (report, "emit_report", const("report.emit_s")),
        ]
        return p

    @contextlib.contextmanager
    def installed(self):
        """Replace the traced names for the duration of the block, then restore them."""
        saved = []
        try:
            for owner, attr, factory in self._patches():
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, factory(original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def derive(raw: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one operation from its spans, counts and output values."""
    m = dict(raw)
    k = {s: raw.get(f"kernels.{s}_s", 0.0) for s in STAGES}
    k_total = sum(k.values())
    m["kernels.gamut_share"] = k["gamut"] / k_total if k_total else 0.0
    evals = raw.get("kernels.gamut_evals", 0.0)
    m["kernels.gamut_ns_per_point_eval"] = k["gamut"] / evals * 1e9 if evals else 0.0
    if "harness.run_matrix_s" in raw:
        children = sum(
            raw.get(name, 0.0)
            for name in ("harness.upstream_s", "harness.reference_s", "harness.gate_s", "perfmodel.s")
        ) + sum(raw.get(f"variants.{s}_s", 0.0) for s in STAGES)
        m["harness.self_s"] = raw["harness.run_matrix_s"] - children
    accesses = raw.get("cache.accesses", 0.0)
    if accesses:
        m["cache.hit_rate"] = 1.0 - raw["cache.misses"] / accesses
        m["cache.accesses_per_s"] = accesses / raw["cache.s"]
    return m


def medians(per_op: list[dict[str, float]]) -> dict[str, float]:
    """Median over operations of every per-layer metric; 0 where a layer did not run."""
    names = [name for name, _, _, _ in PER_LAYER]
    return {name: statistics.median(op.get(name, 0.0) for op in per_op) for name in names}

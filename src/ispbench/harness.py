"""Benchmark orchestration: variant matrices, profiles, and dataflow runs.

Kernel inputs come from the reference chain up to the requested stage.  The
reference, each passing variant and, at stage ``pipeline``, each stage take
``reps`` samples through ``variants.sample``.  The reference's first sample
is the output the gate checks; a variant's first is ``run_variant``'s, with
the row's counters and first time, and its other ``reps - 1`` time
``variant_kernel`` alone, so ``traffic`` runs once per row.  A variant that
fails the gate is reported as FAILED with its maximum deviation and is not
timed again.
"""

from __future__ import annotations

import dataclasses
import statistics
from dataclasses import dataclass, field as dc_field
from datetime import datetime, timezone

from . import perfmodel
from .dataflow import ChannelConfig, run_pipeline_dataflow
from .images import RawBayerImage, load_ppm, mosaic_from_planar, synth_bayer
from .kernels import STAGE_NAMES, reference_stage, run_pipeline, stage_input
from .params import PerfModelConfig, PipelineParams, default_params, load_params_file
from .report import BenchReport, PipelineSection, VariantRow
from .variants import (
    NAMED_VARIANTS,
    DEFAULT_CACHE_BYTES,
    VariantConfig,
    VariantError,
    equivalence_tolerance,
    max_rel_deviation,
    parse_variant,
    run_variant,
    sample,
    variant_kernel,
)


@dataclass
class HarnessConfig:
    image_path: str | None = None
    synth_spec: str = "768x512:noise:1"
    params_path: str | None = None
    n_points: int = 3611
    param_seed: int = 7
    stage: str = "pipeline"
    variants: list[str] = dc_field(default_factory=list)
    reps: int = 10
    mode: str = "sequential"  # sequential | dataflow
    clock: str = "wall"  # wall | virtual
    cache_size: int | None = None
    channel_depth: int = 64
    out_format: str = "text"  # text | csv | json

    def __post_init__(self):
        if self.reps < 1:
            raise ValueError("repetitions must be >= 1")
        if self.stage not in STAGE_NAMES + ("pipeline",):
            raise ValueError(f"unknown stage {self.stage!r}")
        if self.mode not in ("sequential", "dataflow"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.clock not in ("wall", "virtual"):
            raise ValueError(f"unknown clock {self.clock!r}")
        if self.out_format not in ("text", "csv", "json"):
            raise ValueError(f"unknown format {self.out_format!r}")
        if self.stage in STAGE_NAMES and self.mode == "sequential":
            if self.cache_size is not None:
                if self.cache_size < 1024:  # labels count KB, and C_0 parses back to nothing
                    raise VariantError(f"cache size must be >= 1024 bytes, got {self.cache_size}")
                VariantConfig(cache_size_bytes=self.cache_size)  # rejects a non-power of two
            for label in self.variants:
                self.variant_config(label)

    def variant_config(self, label: str) -> VariantConfig:
        """The config ``label`` names on this stage; ``cache_size`` sets an unsized C."""
        vcfg = parse_variant(label)
        if self.cache_size is not None and vcfg.readonly_mode == "const_cache" and "_" not in label:
            vcfg = dataclasses.replace(vcfg, cache_size_bytes=self.cache_size)
        vcfg.validate_for(self.stage)
        return vcfg


def parse_synth_spec(spec: str) -> RawBayerImage:
    """``WxH:kind[:arg]`` -> mosaic; kinds: noise:SEED, gradient, constant:V,
    color:R,G,B."""
    parts = spec.split(":")
    try:
        w, h = (int(v) for v in parts[0].lower().split("x"))
    except ValueError:
        raise ValueError(f"bad synthetic image size in {spec!r}") from None
    kind = parts[1] if len(parts) > 1 else "noise"
    arg = parts[2] if len(parts) > 2 else None
    if kind == "noise":
        return synth_bayer(w, h, "noise", seed=int(arg) if arg else 0)
    if kind == "gradient":
        return synth_bayer(w, h, "gradient")
    if kind == "constant":
        return synth_bayer(w, h, "constant", value=float(arg) if arg else 0.5)
    if kind == "color":
        rgb = tuple(float(v) for v in arg.split(",")) if arg else (0.8, 0.5, 0.2)
        if len(rgb) != 3:
            raise ValueError(f"color kind needs R,G,B in {spec!r}")
        return synth_bayer(w, h, "color", rgb=rgb)
    raise ValueError(f"unknown synthetic kind {kind!r}")


def load_harness_inputs(
    cfg: HarnessConfig,
) -> tuple[RawBayerImage, PipelineParams, PerfModelConfig, str]:
    if cfg.image_path:
        raw = mosaic_from_planar(load_ppm(cfg.image_path))
        image_desc = cfg.image_path
    else:
        raw = parse_synth_spec(cfg.synth_spec)
        image_desc = cfg.synth_spec
    if cfg.params_path:
        params, perf = load_params_file(cfg.params_path)
    else:
        params = default_params(cfg.n_points, cfg.param_seed)
        perf = PerfModelConfig()
    return raw, params, perf, image_desc


def _meta(cfg: HarnessConfig, raw: RawBayerImage, params: PipelineParams, image_desc: str) -> dict:
    return {
        "image": image_desc,
        "width": raw.width,
        "height": raw.height,
        "n_points": params.gamut.n,
        "param_seed": cfg.param_seed,
        "stage": cfg.stage,
        "mode": cfg.mode,
        "clock": cfg.clock,
        "reps": 1 if cfg.mode == "dataflow" else cfg.reps,  # the runs actually made
        "channel_depth": cfg.channel_depth,
        "cache_size": cfg.cache_size if cfg.cache_size is not None else DEFAULT_CACHE_BYTES,
        "paper_comparison": "qualitative-only",
    }


def _stats_dict(stats) -> dict:
    return {
        name: {k: v for k, v in dataclasses.asdict(st).items() if k != "name"}
        for name, st in stats.items()
    }


def run_matrix(cfg: HarnessConfig, perturb=None) -> BenchReport:
    """Run the configured benchmark and assemble a report.

    ``perturb(stage, label, image) -> image`` is a verification hook applied
    to a variant's output before the equivalence gate.
    """
    raw, params, perf, image_desc = load_harness_inputs(cfg)
    meta = _meta(cfg, raw, params, image_desc)
    report = BenchReport(datetime.now(timezone.utc).isoformat(timespec="seconds"), meta)

    if cfg.mode == "dataflow":
        reference = run_pipeline(raw, params)
        result = run_pipeline_dataflow(
            raw, params, ChannelConfig(depth=cfg.channel_depth), clock=cfg.clock
        )
        matches = result.image == reference
        dataflow = {
            "clock": result.clock,
            "channel_depth": cfg.channel_depth,
            "output_matches": bool(matches),
            "stages": _stats_dict(result.stats),
            "makespan": result.makespan,
        }
        report.pipeline = PipelineSection(dataflow=dataflow)
        return report

    if cfg.stage == "pipeline":
        img, times = raw, {}
        for stage in STAGE_NAMES:
            img, samples = sample(cfg.reps, reference_stage, stage, img, params)
            times[stage] = statistics.fmean(samples)
        total = sum(times.values())
        report.pipeline = PipelineSection(
            stage_shares={stage: t / total for stage, t in times.items()},
            stage_times=times,
            reference_total=total,
        )
        return report

    stage = cfg.stage
    data = stage_input(stage, raw, params)
    reference, ref_times = sample(cfg.reps, reference_stage, stage, data, params)
    ref_mean = statistics.fmean(ref_times)
    meta["reference_time_mean"] = ref_mean
    meta["reference_time_min"] = min(ref_times)

    labels = cfg.variants or list(NAMED_VARIANTS[stage])
    for label in labels:
        vcfg = cfg.variant_config(label)
        out, counters, seconds = run_variant(stage, vcfg, data, params)
        if perturb is not None:
            out = perturb(stage, label, out)
        tol = equivalence_tolerance(stage, vcfg)
        deviation = max_rel_deviation(out.planes, reference.planes)
        passed = deviation <= tol
        estimate = perfmodel.estimate(
            perfmodel.derive_descriptor(stage, vcfg, raw.width, raw.height, params.gamut.n, perf),
            perf.costs,
        )
        row = VariantRow(
            stage=stage,
            variant=vcfg.label(),
            status="PASS" if passed else "FAILED",
            max_deviation=deviation,
            tolerance=tol,
            counters=dataclasses.asdict(counters),
            optimization_report=estimate.as_dict(),
        )
        report.rows.append(row)
        if not passed:
            row.note = "equivalence check failed; excluded from timing"
            continue
        _, extra = sample(cfg.reps - 1, variant_kernel(stage, vcfg, params), data)
        samples = [seconds, *extra]
        row.wall_time_mean, row.wall_time_min = statistics.fmean(samples), min(samples)
        row.speedup = ref_mean / row.wall_time_mean
    return report

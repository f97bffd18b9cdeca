"""Pre-execution analytic model of loop pipelining.

Estimates an initiation interval (II), a cycle count, and a coarse resource
figure for each kernel variant before running anything, mirroring what a
pre-synthesis report would show.

The II rule reads only R and I: a pipelined loop reaches II = 1 only when
the tool can prove iterations independent, which here requires both the
non-aliasing marker (R) and the ignore-assumed-deps marker (I).  Otherwise
the II falls back to ``assumed_dep_ii`` (a configurable stand-in for a
memory load-use dependence; there is no measured value behind it, and
reports flag it as assumed).  The model does not charge gamut's float
accumulation as a carried dependence: that is an assumption too, like
``assumed_dep_ii``.

Cycles: a pipelined loop of t iterations at initiation interval ii costs
``depth + ii * (t - 1)``.  When a kernel has an inner reduction loop the
outer loop is modeled as serialized around the pipelined inner loop, and
unrolling divides the inner trip count (ceiling division).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .params import PerfModelConfig
from .variants import VariantConfig, region_words


@dataclass(frozen=True)
class KernelDescriptor:
    outer_trip: int
    inner_trip: int = 0  # 0 when there is no inner loop
    unroll_factor: int = 1
    restrict_flag: bool = False
    ivdep_flag: bool = False
    pipeline_depth: int = 100
    assumed_dep_ii: int = 64
    mem_ops_per_iter: int = 1
    buffer_bytes: int = 0

    def __post_init__(self):
        if self.outer_trip < 1:
            raise ValueError(f"outer trip count must be >= 1, got {self.outer_trip}")
        if self.inner_trip < 0 or self.unroll_factor < 1:
            raise ValueError("inner trip must be >= 0 and unroll >= 1")
        if self.pipeline_depth < 1 or self.assumed_dep_ii < 1:
            raise ValueError("pipeline depth and assumed-dependence II must be >= 1")


@dataclass(frozen=True)
class PipelineEstimate:
    ii: int
    total_cycles: int
    resource_units: float
    fits: bool

    def as_dict(self) -> dict:
        return {
            "ii": self.ii,
            "total_cycles": self.total_cycles,
            "resource_units": self.resource_units,
            "fits": self.fits,
            "ii_is_assumed_standin": self.ii != 1,
        }


def estimate_ii(d: KernelDescriptor) -> int:
    """II = 1 iff restrict and ivdep are both set."""
    return 1 if d.restrict_flag and d.ivdep_flag else d.assumed_dep_ii


def estimate_cycles(d: KernelDescriptor, ii: int | None = None) -> int:
    if ii is None:
        ii = estimate_ii(d)
    if d.inner_trip == 0:
        return d.pipeline_depth + ii * (d.outer_trip - 1)
    # each outer iteration runs the pipelined inner loop to completion
    inner_eff = math.ceil(d.inner_trip / d.unroll_factor)
    return d.outer_trip * (d.pipeline_depth + ii * (inner_eff - 1))


def estimate(d: KernelDescriptor, costs: dict) -> PipelineEstimate:
    """II, cycles and resource units; ``costs`` is ``PerfModelConfig.costs``."""
    ii = estimate_ii(d)
    units = (
        costs["base_cost"]
        + d.unroll_factor * costs["datapath_cost"] * d.mem_ops_per_iter
        + d.buffer_bytes * costs["ram_cost"]
    )
    fits = units <= costs["capacity"]
    return PipelineEstimate(
        ii=ii, total_cycles=estimate_cycles(d, ii), resource_units=units, fits=fits
    )


# coarse per-iteration memory-op counts used by the resource model;
# for gamut this is one iteration of the inner reduction loop
_MEM_OPS = {
    "demosaic": {True: 12, False: 12},
    "denoise": {True: 30, False: 10},
    "transform": {True: 15, False: 7},
    "gamut": {True: 6, False: 6},
    "tonemap": {True: 9, False: 3},
}


def derive_descriptor(
    stage: str,
    cfg: VariantConfig,
    width: int,
    height: int,
    n_points: int,
    perf: PerfModelConfig | None = None,
) -> KernelDescriptor:
    """Build a descriptor from a stage's default loop structure and a config."""
    perf = perf or PerfModelConfig()
    pixels = width * height
    fused = cfg.fused_rewrite or stage == "demosaic"
    outer = pixels if fused else 3 * pixels
    inner = n_points if stage == "gamut" else 0
    return KernelDescriptor(
        outer_trip=outer,
        inner_trip=inner,
        unroll_factor=cfg.unroll_factor,
        restrict_flag=cfg.restrict_flag,
        ivdep_flag=cfg.ivdep_flag,
        pipeline_depth=perf.pipeline_depth,
        assumed_dep_ii=perf.assumed_dep_ii,
        mem_ops_per_iter=_MEM_OPS[stage][cfg.fused_rewrite],
        buffer_bytes=4 * region_words(stage, n_points) if cfg.readonly_mode == "buffered" else 0,
    )


def rank_variants(
    stage: str,
    cfgs: list[VariantConfig],
    width: int,
    height: int,
    n_points: int,
    perf: PerfModelConfig | None = None,
) -> list[tuple[VariantConfig, PipelineEstimate]]:
    """Sort configs by estimated cycles; ties by resources, then input order."""
    perf = perf or PerfModelConfig()
    rows = []
    for idx, cfg in enumerate(cfgs):
        cfg.validate_for(stage)
        est = estimate(derive_descriptor(stage, cfg, width, height, n_points, perf), perf.costs)
        rows.append((est.total_cycles, est.resource_units, idx, cfg, est))
    rows.sort(key=lambda row: row[:3])
    return [(cfg, est) for _, _, _, cfg, est in rows]

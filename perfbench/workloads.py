"""The four benchmark workloads: inputs made from a seed, one operation, checks.

Each workload is a closed loop run by one thread: the next operation starts
when the previous one returns.  ``make_inputs`` is the set-up a user pays
once; ``op`` is the timed operation; ``check`` compares its output with
values pinned from the initial commit (``pinned.json``, written by
``pin.py``) and is never timed.

The mosaic seed is ``seed % PIN_SEEDS``, so every seed the benchmark can be
given maps to an input whose outputs are pinned bit for bit.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from ispbench import harness, kernels, report
from ispbench.dataflow import ChannelConfig, run_pipeline_dataflow
from ispbench.images import PlanarImage, RawBayerImage, synth_bayer
from ispbench.kernels import STAGE_NAMES
from ispbench.params import PipelineParams, default_params

PIN_SEEDS = 32
PARAM_SEED = 7
CHANNEL_DEPTH = 64
PINNED_PATH = Path(__file__).with_name("pinned.json")


@functools.cache
def pinned() -> dict:
    return json.loads(PINNED_PATH.read_text())


def mosaic_seed(seed: int) -> int:
    return seed % PIN_SEEDS


@dataclass
class Inputs:
    seed: int  # mosaic seed, already reduced modulo PIN_SEEDS
    raw: RawBayerImage
    params: PipelineParams
    expected: PlanarImage | None = None  # reference output, for workloads that compare


@dataclass
class Checked:
    """Outcome of checking one operation's output."""

    checks: list[bool]
    layer: dict[str, float] = field(default_factory=dict)  # per-layer values read off the output


def image_digest(img: PlanarImage) -> str:
    planes = img.planes
    h = hashlib.sha256(f"{planes.dtype.str}{planes.shape}".encode())
    h.update(planes.tobytes())
    return h.hexdigest()


def counters_digest(rows) -> str:
    """Digest of every variant row's traffic counters, in report order."""
    doc = [[row.stage, row.variant, row.counters] for row in rows]
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def virtual_stats(result) -> dict:
    """Virtual-clock makespan and per-stage (busy, blocked push, blocked pop) units."""
    return {
        "makespan": result.makespan,
        "stages": {
            name: [st.busy_time, st.blocked_push_time, st.blocked_pop_time]
            for name, st in result.stats.items()
        },
    }


@dataclass(frozen=True)
class Workload:
    name: str
    width: int
    height: int
    n_points: int

    def make_raw(self, seed: int) -> RawBayerImage:
        return synth_bayer(self.width, self.height, "noise", seed=mosaic_seed(seed))

    def make_params(self) -> PipelineParams:
        return default_params(self.n_points, PARAM_SEED)

    def make_inputs(self, seed: int) -> Inputs:
        return Inputs(mosaic_seed(seed), self.make_raw(seed), self.make_params())

    def prepare(self, inputs: Inputs) -> None:
        """Untimed preparation of what ``check`` compares against."""

    def op(self, inputs: Inputs):
        raise NotImplementedError

    def check(self, inputs: Inputs, output) -> Checked:
        raise NotImplementedError


class FrameWorkload(Workload):
    """One frame through the five public kernels, in ``run_pipeline``'s order.

    Every stage's output must match its pinned digest.  Under the default
    parameters the gamut output saturates the tone curve, so the final image
    alone is nearly constant and would not show a wrong gamut result.
    """

    def op(self, inputs: Inputs) -> tuple[PlanarImage, ...]:
        p = inputs.params
        mosaic = kernels.demosaic(inputs.raw)
        median = kernels.denoise(mosaic)
        balanced = kernels.transform(median, p.transform)
        mapped = kernels.gamut_map(balanced, p.gamut)
        return mosaic, median, balanced, mapped, kernels.tone_map(mapped, p.tone)

    def check(self, inputs: Inputs, output: tuple[PlanarImage, ...]) -> Checked:
        pins = pinned()[self.name][str(inputs.seed)]
        return Checked([image_digest(img) == pin for img, pin in zip(output, pins, strict=True)])


class SweepWorkload(Workload):
    """``run_matrix`` for each stage over its named variants, gate on, reps=1."""

    def op(self, inputs: Inputs, perturb=None) -> list:
        reports = []
        for stage in STAGE_NAMES:
            cfg = harness.HarnessConfig(
                synth_spec=f"{self.width}x{self.height}:noise:{inputs.seed}",
                n_points=self.n_points,
                param_seed=PARAM_SEED,
                stage=stage,
                reps=1,
            )
            rep = harness.run_matrix(cfg, perturb=perturb)
            report.emit_report(rep, "json")
            reports.append(rep)
        return reports

    def check(self, inputs: Inputs, output: list) -> Checked:
        rows = [row for rep in output for row in rep.rows]
        checks = [row.status == "PASS" for row in rows]
        checks.append(counters_digest(rows) == pinned()["sweep_counters"][str(inputs.seed)])
        layer = {
            f"perfmodel.gamut.{row.variant.replace('+', '-')}_cycles": float(
                row.optimization_report["total_cycles"]
            )
            for row in rows
            if row.stage == "gamut"
        }
        return Checked(checks, layer)


class StreamWorkload(Workload):
    """``run_pipeline_dataflow`` on the wall clock, then on the virtual clock."""

    def prepare(self, inputs: Inputs) -> None:
        inputs.expected = kernels.run_pipeline(inputs.raw, inputs.params)

    def op(self, inputs: Inputs) -> tuple:
        ch = ChannelConfig(depth=CHANNEL_DEPTH)
        wall = run_pipeline_dataflow(inputs.raw, inputs.params, ch, clock="wall")
        virtual = run_pipeline_dataflow(inputs.raw, inputs.params, ch, clock="virtual")
        return wall, virtual

    def check(self, inputs: Inputs, output: tuple) -> Checked:
        wall, virtual = output
        checks = [
            wall.image == inputs.expected,
            virtual.image == inputs.expected,
            virtual_stats(virtual) == pinned()["stream_virtual"],
        ]
        layer = {"dataflow.wall_us_per_pixel": wall.makespan / (self.width * self.height) * 1e6}
        for name, st in wall.stats.items():
            layer[f"dataflow.{name}.busy_s"] = st.busy_time
            layer[f"dataflow.{name}.blocked_push_s"] = st.blocked_push_time
            layer[f"dataflow.{name}.blocked_pop_s"] = st.blocked_pop_time
        layer["dataflow.virtual_makespan_units"] = virtual.makespan

        def busiest(stats):
            return max(stats.values(), key=lambda st: st.busy_time).name

        layer["dataflow.bottleneck_agree"] = float(busiest(wall.stats) == busiest(virtual.stats))
        return Checked(checks, layer)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        FrameWorkload("frame", 256, 192, 3611),
        FrameWorkload("frame-p16", 768, 512, 16),
        SweepWorkload("sweep", 64, 48, 3611),
        StreamWorkload("stream", 128, 96, 16),
    )
}

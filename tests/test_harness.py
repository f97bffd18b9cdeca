"""Harness configuration, reference timing and the dataflow mode of ``run_matrix``."""

from __future__ import annotations

import math
import statistics
from types import SimpleNamespace

import numpy as np
import pytest

from ispbench import dataflow, harness, variants
from ispbench.harness import HarnessConfig, load_harness_inputs, parse_synth_spec, run_matrix
from ispbench.images import PlanarImage, synth_bayer
from ispbench.kernels import STAGE_NAMES, gamut_map, stage_input
from ispbench.params import save_params_file
from ispbench.variants import NAMED_VARIANTS

from _helpers import in_range_params, overflow_params


@pytest.mark.parametrize(
    "spec,kind,kwargs",
    [
        ("8x6", "noise", {}),
        ("8x6:noise", "noise", {}),
        ("8x6:noise:3", "noise", {"seed": 3}),
        ("8x6:gradient", "gradient", {}),
        ("8x6:constant", "constant", {}),
        ("8x6:constant:0.25", "constant", {"value": 0.25}),
        ("8x6:color", "color", {}),
        ("8x6:color:0.1,0.2,0.3", "color", {"rgb": (0.1, 0.2, 0.3)}),
    ],
)
def test_a_synth_spec_passes_only_the_arguments_it_gives(spec, kind, kwargs):
    raw = parse_synth_spec(spec)
    assert np.array_equal(raw.mosaic, synth_bayer(8, 6, kind, **kwargs).mosaic), spec


@pytest.mark.parametrize("clock", ["wall", "virtual"])
def test_dataflow_mode_matches_and_reports_a_makespan(clock):
    cfg = HarnessConfig(mode="dataflow", synth_spec="16x12:noise:1", n_points=5, clock=clock)
    flow = run_matrix(cfg).pipeline.dataflow
    assert flow["clock"] == clock and flow["output_matches"] is True
    assert flow["makespan"] > 0
    assert all(st["items_processed"] == 16 * 12 for st in flow["stages"].values())


def test_a_halved_gamut_fails_the_dataflow_gate_at_3611_points(monkeypatch, tmp_path):
    path = tmp_path / "params.json"
    save_params_file(path, in_range_params(3611))
    cfg = HarnessConfig(
        mode="dataflow", synth_spec="64x48:noise:1", params_path=str(path), clock="wall"
    )
    assert run_matrix(cfg).all_passed
    original = dataflow.gamut_map

    def halved(img, gp):
        out = original(img, gp)
        return PlanarImage(width=out.width, height=out.height, planes=out.planes * np.float32(0.5))

    monkeypatch.setattr(dataflow, "gamut_map", halved)
    report = run_matrix(cfg)
    assert report.pipeline.dataflow["output_matches"] is False
    assert not report.all_passed


@pytest.mark.parametrize("size", ["16x12", "64x48"])
def test_identical_non_finite_gamut_outputs_pass_every_variant(tmp_path, size):
    path = tmp_path / "overflow.json"
    save_params_file(path, overflow_params())
    cfg = HarnessConfig(stage="gamut", synth_spec=f"{size}:noise:1", params_path=str(path), reps=1)
    raw, params, _, _ = load_harness_inputs(cfg)
    reference = gamut_map(stage_input("gamut", raw, params), params.gamut).planes
    assert np.isinf(reference).any()
    report = run_matrix(cfg)
    assert [row.variant for row in report.rows] == list(NAMED_VARIANTS["gamut"])
    assert all(row.status == "PASS" and row.max_deviation == 0.0 for row in report.rows)
    assert report.all_passed


def test_an_infinite_value_against_a_finite_one_fails_the_gate():
    def perturb(stage, label, image):
        if label == "RIW":
            image.planes[0, 0, 0] = np.inf
        return image

    cfg = HarnessConfig(stage="gamut", synth_spec="16x12:noise:1", n_points=5, reps=1)
    rows = {row.variant: row for row in run_matrix(cfg, perturb=perturb).rows}
    assert rows["RIW"].status == "FAILED" and rows["RIW"].max_deviation == np.inf
    assert all(row.status == "PASS" for label, row in rows.items() if label != "RIW")


def test_the_gates_reference_run_is_the_first_timing_sample(monkeypatch):
    calls = []
    original = harness.reference_stage

    def counted(*args):
        calls.append(args[0])
        return original(*args)

    monkeypatch.setattr(harness, "reference_stage", counted)
    cfg = HarnessConfig(stage="transform", synth_spec="16x12:noise:1", n_points=5, reps=3)
    report = run_matrix(cfg)
    assert calls == ["transform"] * 3
    assert 0 < report.meta["reference_time_min"] <= report.meta["reference_time_mean"]
    assert all(row.status == "PASS" for row in report.rows)


def test_the_pipeline_stage_reports_shares_summing_to_1_in_stage_order():
    cfg = HarnessConfig(stage="pipeline", synth_spec="16x12:noise:1", n_points=5, reps=1)
    p = run_matrix(cfg).pipeline
    assert list(p.stage_shares) == list(p.stage_times) == list(STAGE_NAMES)
    assert math.isclose(sum(p.stage_shares.values()), 1.0)
    assert p.reference_total == sum(p.stage_times.values())


def test_the_pipeline_stage_averages_every_rep(monkeypatch):
    # a fake clock on which the n-th reference_stage call takes n seconds
    clock, calls = [0.0], []
    original = harness.reference_stage

    def counted(stage, data, params):
        calls.append(stage)
        clock[0] += len(calls)
        return original(stage, data, params)

    monkeypatch.setattr(harness, "reference_stage", counted)
    monkeypatch.setattr(variants, "time", SimpleNamespace(perf_counter=lambda: clock[0]))
    cfg = HarnessConfig(stage="pipeline", synth_spec="16x12:noise:1", n_points=5, reps=5)
    p = run_matrix(cfg).pipeline
    assert len(calls) == 5 * len(STAGE_NAMES) and set(calls) == set(STAGE_NAMES)
    means = {s: statistics.fmean(n for n, c in enumerate(calls, 1) if c == s) for s in STAGE_NAMES}
    assert p.stage_times == means
    assert p.stage_shares == {s: t / sum(means.values()) for s, t in means.items()}


@pytest.mark.parametrize("stage", STAGE_NAMES)
def test_traffic_is_counted_once_per_variant_row_whatever_reps(monkeypatch, stage):
    calls = []
    original = variants.traffic

    def counted(*args, **kwargs):
        calls.append(args[1].label())
        return original(*args, **kwargs)

    monkeypatch.setattr(variants, "traffic", counted)
    rows = {}
    for reps in (1, 3):
        calls.clear()
        cfg = HarnessConfig(stage=stage, synth_spec="16x12:noise:1", n_points=5, reps=reps)
        rows[reps] = run_matrix(cfg).rows
        assert calls == [row.variant for row in rows[reps]] == list(NAMED_VARIANTS[stage])
        assert all(0 < row.wall_time_min <= row.wall_time_mean for row in rows[reps])

    def untimed(row):
        return row.variant, row.status, row.max_deviation, row.counters

    assert [untimed(row) for row in rows[3]] == [untimed(row) for row in rows[1]]

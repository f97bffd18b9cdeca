"""Harness configuration, reference timing and the dataflow mode of ``run_matrix``."""

from __future__ import annotations

import pytest

from ispbench import harness
from ispbench.harness import HarnessConfig, run_matrix
from ispbench.variants import VariantError


@pytest.mark.parametrize("clock", ["wall", "virtual"])
def test_dataflow_mode_matches_and_reports_a_makespan(clock):
    cfg = HarnessConfig(mode="dataflow", synth_spec="16x12:noise:1", n_points=5, clock=clock)
    flow = run_matrix(cfg).pipeline.dataflow
    assert flow["clock"] == clock and flow["output_matches"] is True
    assert flow["makespan"] > 0
    assert all(st["items_processed"] == 16 * 12 for st in flow["stages"].values())


def test_cache_size_must_be_at_least_1kb():
    with pytest.raises(VariantError, match="1024"):
        HarnessConfig(stage="gamut", cache_size=512)
    assert HarnessConfig(stage="gamut", cache_size=1024).variant_config("RIWC").label() == "RIWC_1"


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

"""Report serialization: lossless JSON, fixed CSV header bytes, text makespan."""

from __future__ import annotations

import pytest

from ispbench.harness import HarnessConfig, run_matrix
from ispbench.report import CSV_HEADER, emit_report, report_from_json

CSV_HEADER_BYTES = (
    b"stage,variant,status,max_deviation,tolerance,wall_time_mean,wall_time_min,speedup,"
    b"global_reads,global_writes,readonly_reads,cache_hits,cache_misses,buffer_bytes,"
    b"ii,total_cycles,resource_units,fits\n"
)


@pytest.fixture(scope="module")
def sweep():
    return run_matrix(HarnessConfig(stage="gamut", synth_spec="16x12:noise:1", n_points=5, reps=1))


@pytest.fixture(scope="module", params=["wall", "virtual"])
def flow(request):
    cfg = HarnessConfig(
        mode="dataflow", synth_spec="16x12:noise:1", n_points=5, clock=request.param
    )
    return run_matrix(cfg)


def test_json_round_trips_a_sweep_report(sweep):
    assert len(sweep.rows) == 7
    assert report_from_json(emit_report(sweep, "json")) == sweep


def test_json_round_trips_a_dataflow_report(flow):
    assert report_from_json(emit_report(flow, "json")) == flow


def test_csv_header_bytes_are_fixed(sweep):
    assert CSV_HEADER.encode() == CSV_HEADER_BYTES
    csv = emit_report(sweep, "csv")
    assert csv.startswith(CSV_HEADER_BYTES)
    assert len(csv.splitlines()) == 1 + len(sweep.rows)


def test_text_report_shows_the_makespan_on_both_clocks(flow):
    text = emit_report(flow, "text").decode()
    assert f"makespan {flow.pipeline.dataflow['makespan']:.6g}" in text


def test_unknown_format_raises(sweep):
    with pytest.raises(ValueError):
        emit_report(sweep, "xml")

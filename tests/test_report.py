"""Report serialization: lossless JSON, fixed CSV header bytes, text makespan."""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from ispbench.dataflow import StageStats
from ispbench.harness import HarnessConfig, _stats_dict, run_matrix
from ispbench.perfmodel import PipelineEstimate
from ispbench.report import (
    CSV_HEADER,
    BenchReport,
    PipelineSection,
    VariantRow,
    emit_report,
    report_from_json,
)
from ispbench.variants import AccessCounters

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


def fixed_report() -> BenchReport:
    """One PASS row, one FAILED row and a dataflow section, every value fixed."""
    counters = dataclasses.asdict(AccessCounters(96, 48, 0, 30, 6, 0))
    opt = PipelineEstimate(1, 4100, 12.5, True).as_dict()
    rows = [
        VariantRow("gamut", "RIWC", "PASS", 0.0, 0.0, 0.25, 0.125, 1.5, counters, opt),
        VariantRow(
            "gamut", "RIWB+U6", "FAILED", 0.5, 1e-4, counters=counters, optimization_report=opt,
            note="equivalence check failed; excluded from timing",
        ),
    ]
    stats = {"denoise": StageStats("denoise", 24, 0.5, 0.25, 0.125, 1.0)}
    flow = {
        "clock": "wall",
        "channel_depth": 3,
        "output_matches": True,
        "stages": _stats_dict(stats),
        "makespan": 2.0,
    }
    meta = {"width": 16, "height": 12}
    return BenchReport("2026-01-01T00:00:00+00:00", meta, rows, PipelineSection(dataflow=flow))


def test_csv_and_json_bytes_of_a_fixed_report():
    report = fixed_report()
    assert emit_report(report, "csv") == CSV_HEADER_BYTES + (
        b"gamut,RIWC,PASS,0.0,0.0,0.25,0.125,1.5,96,48,0,30,6,0,1,4100,12.5,true\n"
        b"gamut,RIWB+U6,FAILED,0.5,0.0001,,,,96,48,0,30,6,0,1,4100,12.5,true\n"
    )
    digest = hashlib.sha256(emit_report(report, "json")).hexdigest()
    assert digest == "115d474e2aba245f702f91b0643ee4ae9dc23d0dbe0b6ed9abffc338f181ca14"


def test_text_report_shows_the_makespan_on_both_clocks(flow):
    text = emit_report(flow, "text").decode()
    assert f"makespan {flow.pipeline.dataflow['makespan']:.6g}" in text


def test_text_report_sizes_the_variant_column_to_its_longest_label():
    report = fixed_report()
    assert "\ngamut      RIWC       PASS    " in emit_report(report, "text").decode()  # 10 wide
    report.rows[1].variant = "RIW+U99999999999"
    lines = emit_report(report, "text").decode().splitlines()
    header = next(line for line in lines if line.startswith("stage"))
    rows = [line for line in lines if line.startswith("gamut ")]
    for row, line in zip(report.rows, rows):
        assert line.index(row.status) == header.index("status"), line
    assert len({len(line.split("  [")[0]) for line in rows}) == 1, rows  # every column in line


def test_text_report_header_is_as_wide_as_its_rows():
    lines = emit_report(fixed_report(), "text").decode().splitlines()
    header = next(line for line in lines if line.startswith("stage"))
    rows = [line for line in lines if line.startswith("gamut ") and "  [" not in line]
    assert rows and all(len(line) == len(header) for line in rows), [header, *rows]


def test_unknown_format_raises(sweep):
    with pytest.raises(ValueError):
        emit_report(sweep, "xml")

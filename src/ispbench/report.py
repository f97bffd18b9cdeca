"""Benchmark report assembly and serialization (text, CSV, JSON).

All three output formats derive from the same ``BenchReport`` object.  JSON
is schema-versioned and round-trips losslessly through ``report_from_json``;
the CSV header is a fixed byte sequence so downstream tooling can rely on
column order; the text form is a human-readable table that quotes variant
labels verbatim.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

SCHEMA_VERSION = 1

CSV_COLUMNS = (
    "stage",
    "variant",
    "status",
    "max_deviation",
    "tolerance",
    "wall_time_mean",
    "wall_time_min",
    "speedup",
    "global_reads",
    "global_writes",
    "readonly_reads",
    "cache_hits",
    "cache_misses",
    "buffer_bytes",
    "ii",
    "total_cycles",
    "resource_units",
    "fits",
)

CSV_HEADER = ",".join(CSV_COLUMNS) + "\n"


@dataclass
class VariantRow:
    stage: str
    variant: str
    status: str  # PASS | FAILED
    max_deviation: float | None = None
    tolerance: float | None = None
    wall_time_mean: float | None = None
    wall_time_min: float | None = None
    speedup: float | None = None
    counters: dict | None = None
    optimization_report: dict | None = None
    note: str = ""


@dataclass
class PipelineSection:
    stage_shares: dict | None = None
    stage_times: dict | None = None
    reference_total: float | None = None
    dataflow: dict | None = None


@dataclass
class BenchReport:
    timestamp: str
    meta: dict
    rows: list[VariantRow] = field(default_factory=list)
    pipeline: PipelineSection | None = None
    schema_version: int = SCHEMA_VERSION

    @property
    def all_passed(self) -> bool:
        rows_ok = all(r.status == "PASS" for r in self.rows)
        flow_ok = True
        if self.pipeline is not None and self.pipeline.dataflow is not None:
            flow_ok = bool(self.pipeline.dataflow.get("output_matches", False))
        return rows_ok and flow_ok


def report_to_dict(r: BenchReport) -> dict:
    return asdict(r)


def report_from_dict(d: dict) -> BenchReport:
    rows = [VariantRow(**row) for row in d.get("rows", [])]
    pipeline = PipelineSection(**d["pipeline"]) if d.get("pipeline") is not None else None
    return BenchReport(
        timestamp=d["timestamp"],
        meta=d["meta"],
        rows=rows,
        pipeline=pipeline,
        schema_version=d.get("schema_version", SCHEMA_VERSION),
    )


def report_from_json(data: bytes | str) -> BenchReport:
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    return report_from_dict(json.loads(data))


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _emit_csv(r: BenchReport) -> str:
    """One line per row; each column is looked up in the row, its counters, then its report."""
    lines = [CSV_HEADER.rstrip("\n")]
    for row in r.rows:
        cells = {**(row.optimization_report or {}), **(row.counters or {}), **vars(row)}
        lines.append(",".join(_csv_cell(cells.get(column)) for column in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def _fmt(value, width=12, digits=6):
    if value is None:
        return " " * (width - 1) + "-"
    if isinstance(value, float):
        return f"{value:>{width}.{digits}g}"
    return f"{value:>{width}}"


def _emit_text(r: BenchReport) -> str:
    out = []
    out.append(f"run: {r.timestamp}")
    for key in sorted(r.meta):
        out.append(f"  {key}: {r.meta[key]}")
    if r.rows:
        out.append("")
        header = (
            f"{'stage':<10} {'variant':<10} {'status':<8}"
            f"{_fmt('mean_s', 12)} {_fmt('min_s', 12)} {_fmt('speedup', 10)}"
            f"{_fmt('max_dev', 12)} {_fmt('cycles', 14)} {_fmt('ii', 6)}"
        )
        out.append(header)
        out.append("-" * len(header))
        for row in r.rows:
            opt = row.optimization_report or {}
            out.append(
                f"{row.stage:<10} {row.variant:<10} {row.status:<8}"
                f"{_fmt(row.wall_time_mean, 12)} {_fmt(row.wall_time_min, 12)}"
                f" {_fmt(row.speedup, 10)}{_fmt(row.max_deviation, 12)}"
                f"{_fmt(opt.get('total_cycles'), 14)} {_fmt(opt.get('ii'), 6)}"
                + (f"  [{row.note}]" if row.note else "")
            )
    if r.pipeline is not None:
        p = r.pipeline
        if p.stage_shares:
            out.append("")
            out.append("pipeline stage shares:")
            for stage, share in p.stage_shares.items():
                tm = (p.stage_times or {}).get(stage)
                out.append(f"  {stage:<10} {share:>8.4f}" + (f"  ({tm:.4f}s)" if tm else ""))
            if p.reference_total is not None:
                out.append(f"  total      {p.reference_total:.4f}s")
        if p.dataflow:
            out.append("")
            out.append(
                f"dataflow ({p.dataflow.get('clock')}, depth {p.dataflow.get('channel_depth')}):"
                f" output_matches={p.dataflow.get('output_matches')}"
            )
            for name, st in p.dataflow.get("stages", {}).items():
                out.append(
                    f"  {name:<10} items={st['items_processed']:>8}"
                    f" busy={st['busy_time']:.6g}"
                    f" blocked_push={st['blocked_push_time']:.6g}"
                    f" blocked_pop={st['blocked_pop_time']:.6g}"
                )
            if "makespan" in p.dataflow:
                out.append(f"  makespan {p.dataflow['makespan']:.6g}")
    out.append("")
    return "\n".join(out)


def emit_report(r: BenchReport, fmt: str) -> bytes:
    if fmt == "json":
        return (json.dumps(report_to_dict(r), sort_keys=True, indent=2) + "\n").encode("utf-8")
    if fmt == "csv":
        return _emit_csv(r).encode("utf-8")
    if fmt == "text":
        return _emit_text(r).encode("utf-8")
    raise ValueError(f"unknown report format {fmt!r}")

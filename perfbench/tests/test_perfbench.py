"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import layers  # noqa: E402
import run  # noqa: E402
from ispbench import cache, harness  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _bench() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_metric_names_are_valid_and_match_benchmark_json():
    bench = _bench()
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert len(names) == len(set(names))
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in layers.PER_LAYER
    ]
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS) == list(run.WORKLOAD_NAMES)


def test_wrappers_are_restored_after_the_traced_block():
    targets = [(owner, attr) for owner, attr, _ in layers.Tracer()._patches()]
    assert (cache.ConstCacheSim, "access_repeated") in targets and (harness, "run_variant") in targets
    before = [getattr(owner, attr) for owner, attr in targets]
    with pytest.raises(RuntimeError):
        with layers.Tracer().installed():
            assert all(getattr(o, a) is not f for (o, a), f in zip(targets, before))
            raise RuntimeError("leave the block early")
    assert all(getattr(o, a) is f for (o, a), f in zip(targets, before))


def test_traced_stream_op_is_correct_and_fills_its_layers():
    w = WORKLOADS["stream"]
    inputs = w.make_inputs(3)
    w.prepare(inputs)
    tracer = layers.Tracer()
    with tracer.installed():
        checked = w.check(inputs, w.op(inputs))
    assert all(checked.checks)
    m = layers.derive({**tracer.take(), **checked.layer})
    assert m["dataflow.simulate_chain_s"] > 0
    assert m["kernels.gamut_s"] > 0 and m["kernels.gamut_ns_per_point_eval"] > 0
    assert m["dataflow.virtual_makespan_units"] == 1400896.0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_pinned_outputs_reproduce(name):
    w = WORKLOADS[name]
    inputs = w.make_inputs(1 + 7 * len(name))  # one seed per workload
    w.prepare(inputs)
    checked = w.check(inputs, w.op(inputs))
    assert checked.checks and all(checked.checks)


def test_failed_frac_counts_a_failure_injected_through_perturb():
    w = WORKLOADS["sweep"]
    inputs = w.make_inputs(1)

    def perturb(stage, label, image):
        if stage == "gamut" and label == "RIW":
            image.planes[0, 0, 0] += 1.0
        return image

    checks = w.check(inputs, w.op(inputs, perturb=perturb)).checks
    assert checks.count(False) == 1
    phase = run.Phase(attempted=len(checks), failed=checks.count(False))
    assert run.failed_frac([phase]) == 1 / 25


def test_run_prints_lines_then_every_per_layer_metric():
    done = _run(["--workload", "stream", "--seed", "5", "--seconds", "1", "--trace", "1"])
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [name for name, _, _, _ in layers.PER_LAYER]
    assert result["metrics"]["dataflow.bottleneck_agree"]["value"] in (0.0, 1.0)
    assert all(len(line.split(" ")) == 3 and NAME.match(line.split(" ")[0]) for line in lines[:-1])


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(["--workload", "frame", "--seed", "1", "--seconds", "1"], cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""

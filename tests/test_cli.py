"""CLI exit codes: 0 when every variant passes, 1 only for a gate failure, 2 for bad input."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ispbench
from ispbench import cli, harness
from ispbench.harness import HarnessConfig
from ispbench.params import save_params_file
from ispbench.variants import VariantError

from _helpers import overflow_params

GAMUT = ["--stage", "gamut", "--synth", "16x12:noise:1", "--n-points", "5", "--reps", "1"]


def test_passing_run_exits_0(capsys):
    assert cli.main(GAMUT) == 0
    assert "PASS" in capsys.readouterr().out


def test_gate_failure_exits_1(monkeypatch, capsys):
    def perturb(stage, label, image):
        if label == "RIW":
            image.planes[0, 0, 0] += 1.0
        return image

    monkeypatch.setattr(cli, "run_matrix", lambda cfg: harness.run_matrix(cfg, perturb=perturb))
    assert cli.main(GAMUT) == 1
    assert "FAILED" in capsys.readouterr().out


def test_an_unroll_far_past_the_point_count_passes_at_once(capsys):
    assert cli.main([*GAMUT, "--variants", "RIW+U99999999999"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_identical_non_finite_outputs_exit_0(tmp_path, capsys):
    path = tmp_path / "overflow.json"
    save_params_file(path, overflow_params())
    assert cli.main([*GAMUT[:4], "--params", str(path), "--reps", "1"]) == 0
    assert "FAILED" not in capsys.readouterr().out


def test_dataflow_mode_records_the_one_run_it_makes_not_reps(capsys):
    flags = ["--mode", "dataflow", "--synth", "16x12:noise:1", "--n-points", "5", "--reps", "3"]
    assert cli.main([*flags, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["meta"]["reps"] == 1


@pytest.mark.parametrize(
    "flags",
    [
        ["--reps", "0"],
        ["--stage", "gamut", "--variants", "XYZ"],
        ["--stage", "denoise", "--variants", "U6"],
        ["--stage", "gamut", "--cache-size", "100"],
        ["--stage", "gamut", "--cache-size", "128"],
        ["--mode", "dataflow", "--channel-depth", "0"],
        ["--stage", "gamut", "--variants", f"RIW+U{2**63}"],  # past a C long
        ["--stage", "gamut", "--variants", "RIW+U" + "9" * 400],  # past a float
    ],
    ids=[
        "reps_0", "unparsable_label", "unroll_on_denoise", "cache_size_100", "cache_size_128",
        "channel_depth_0", "unroll_2_63", "unroll_400_digits",
    ],
)
def test_malformed_flags_exit_2(capsys, flags):
    assert cli.main(["--synth", "4x4:noise:1", "--n-points", "3", *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize(
    "kwargs",
    [{"variants": ["XYZ"]}, {"stage": "denoise", "variants": ["U6"]}, {"cache_size": 100}],
)
def test_harness_config_rejects_variant_flags(kwargs):
    with pytest.raises(VariantError):
        HarnessConfig(**{"stage": "gamut", **kwargs})


def test_variant_flags_are_checked_only_where_they_are_used():
    HarnessConfig(stage="pipeline", variants=["XYZ"], cache_size=100)
    HarnessConfig(stage="gamut", mode="dataflow", variants=["XYZ"], cache_size=100)


def test_process_exits_2_without_a_traceback():
    src = str(Path(ispbench.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "ispbench.cli", "--reps", "0"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr and "repetitions must be >= 1" in proc.stderr

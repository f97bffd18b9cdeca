"""Parameter-file loading: malformed documents raise ParamsError, and the CLI exits 2."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ispbench
from ispbench import cli
from ispbench.params import (
    GamutParams,
    ParamsError,
    PerfModelConfig,
    ToneLUT,
    load_params_file,
    save_params_file,
)
from ispbench.variants import region_words

from _helpers import rand_params

BAD_DOCS = {
    "costs_not_object": {"perfmodel": {"costs": [1]}},
    "cost_not_number": {"perfmodel": {"costs": {"base_cost": "cheap"}}},
    "unknown_cost_key": {"perfmodel": {"costs": {"bse_cost": 1.0}}},
    "n_not_number": {"gamut": {"n": [3]}},
    "n_zero": {"gamut": {"n": 0}},
    "seed_negative": {"gamut": {"n": 4, "seed": -1}},
    "gamma_zero": {"tone": {"kind": "gamma", "gamma": 0}},
    "gamma_not_number": {"tone": {"kind": "gamma", "gamma": {}}},
    "depth_not_number": {"perfmodel": {"pipeline_depth": [100]}},
    "transform_ragged": {"transform": [[1, 0, 0], [0, 1]]},
    "ctrl_pts_not_numeric": {"gamut": {"ctrl_pts": [["a", 0, 0]], "weights": [[0, 0, 0]],
                                       "coefs": [[0, 0, 0]] * 4}},
}


def _write(tmp_path: Path, doc) -> Path:
    path = tmp_path / "params.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("name", list(BAD_DOCS))
def test_malformed_params_raise_params_error(tmp_path, name):
    with pytest.raises(ParamsError):
        load_params_file(_write(tmp_path, BAD_DOCS[name]))


def test_known_costs_override_defaults(tmp_path):
    doc = {"gamut": {"n": 4}, "perfmodel": {"costs": {"ram_cost": 1}}}
    params, perf = load_params_file(_write(tmp_path, doc))
    assert params.gamut.n == 4
    assert perf.costs == {"base_cost": 50.0, "datapath_cost": 4.0, "ram_cost": 1.0,
                          "capacity": 100000.0}


def test_tone_lut_keeps_each_channel_contiguous():
    # the tone map reads lut.T[c] per channel; a C-ordered table would copy it
    levels = np.arange(768, dtype=np.float32).reshape(256, 3)
    t = ToneLUT(levels)
    assert t.lut.T.flags.c_contiguous and np.array_equal(t.lut, levels)


def test_gamut_params_are_views_into_one_table_in_region_order():
    gp = rand_params(5, seed=3).gamut
    assert gp.table.shape == (14, 3) and gp.table.size == region_words("gamut", 5)
    assert gp.table.dtype == np.float32 and gp.table.flags.c_contiguous
    for view, rows in ((gp.ctrl_pts, np.s_[:5]), (gp.weights, np.s_[5:10]), (gp.coefs, np.s_[10:])):
        assert view.base is gp.table and np.array_equal(view, gp.table[rows])
    assert gp == GamutParams(gp.ctrl_pts.copy(), gp.weights.copy(), gp.coefs.copy())
    assert gp != GamutParams(gp.ctrl_pts, -gp.weights, gp.coefs)


def test_save_then_load_is_bit_identical(tmp_path):
    params = rand_params(17, seed=3)
    perf = PerfModelConfig(
        pipeline_depth=37, assumed_dep_ii=9,
        costs={"base_cost": 51.5, "datapath_cost": 3.1, "ram_cost": 0.07, "capacity": 2e5},
    )
    path = tmp_path / "params.json"
    save_params_file(path, params, perf)
    loaded, loaded_perf = load_params_file(path)
    pairs = [
        (loaded.transform.m, params.transform.m),
        (loaded.gamut.ctrl_pts, params.gamut.ctrl_pts),
        (loaded.gamut.weights, params.gamut.weights),
        (loaded.gamut.coefs, params.gamut.coefs),
        (loaded.tone.lut, params.tone.lut),
    ]
    for got, want in pairs:
        assert got.dtype == np.float32 and np.array_equal(got.view(np.uint32), want.view(np.uint32))
    assert loaded_perf == perf


@pytest.mark.parametrize("name", ["costs_not_object", "n_not_number", "gamma_zero"])
def test_cli_exits_2_on_malformed_params(tmp_path, capsys, name):
    path = _write(tmp_path, BAD_DOCS[name])
    code = cli.main(["--params", str(path), "--stage", "transform", "--synth", "4x4:noise:1",
                     "--reps", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err


def test_cli_process_exit_code_and_stderr(tmp_path):
    path = _write(tmp_path, BAD_DOCS["gamma_zero"])
    src = str(Path(ispbench.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "ispbench.cli", "--params", str(path), "--stage", "transform",
         "--synth", "4x4:noise:1", "--reps", "1"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr and "gamma must be positive" in proc.stderr

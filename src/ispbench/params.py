"""Pipeline parameter types and the JSON parameter-file loader.

A parameter file is a single JSON document:

.. code-block:: json

    {
      "transform": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
      "gamut": {"n": 3611, "seed": 7},
      "tone": {"kind": "gamma", "gamma": 2.2},
      "perfmodel": {"pipeline_depth": 100, "assumed_dep_ii": 64,
                    "costs": {"base_cost": 50.0, "datapath_cost": 4.0,
                              "ram_cost": 0.05, "capacity": 100000.0}}
    }

``gamut`` may instead spell out ``ctrl_pts`` / ``weights`` / ``coefs``
explicitly, and ``tone`` may carry a full 256x3 ``lut``.  The ``perfmodel``
section is optional and feeds the analytic model defaults.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

DEFAULT_GAMUT_POINTS = 3611
TONE_LEVELS = 256


class ParamsError(ValueError):
    pass


def _f32(x, name: str) -> np.ndarray:
    try:
        return np.asarray(x, dtype=np.float32)
    except (TypeError, ValueError) as exc:
        raise ParamsError(f"{name} must be a numeric array: {exc}") from exc


def _number(spec: dict, key: str, default, kind=float):
    """``kind(spec[key])``, or the default; a value of the wrong type is a ParamsError."""
    value = spec.get(key, default)
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParamsError(f"{key} must be a number, got {value!r}") from exc


def _as_f32(x, shape, name: str) -> np.ndarray:
    arr = _f32(x, name)
    if arr.shape != shape:
        raise ParamsError(f"{name} must have shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ParamsError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class TransformMatrix:
    """3x3 color transform; row = output channel, column = input channel; stored C-contiguous."""

    m: np.ndarray

    def __post_init__(self):
        m = _as_f32(self.m, (3, 3), "transform matrix")
        object.__setattr__(self, "m", np.ascontiguousarray(m))

    def __eq__(self, other):
        if not isinstance(other, TransformMatrix):
            return NotImplemented
        return np.array_equal(self.m, other.m)


@dataclass(frozen=True)
class GamutParams:
    """Control points, per-channel weights, and the 4x3 affine bias.

    All three are views into one contiguous ``(2n + 4, 3)`` float32 ``table``,
    in the order of the traffic model's gamut region (points, weights, bias),
    which is how the compiled gamut loop reads them.
    """

    ctrl_pts: np.ndarray  # (n, 3)
    weights: np.ndarray  # (n, 3)
    coefs: np.ndarray  # (4, 3): constant row, then one row per input channel
    table: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = np.asarray(self.ctrl_pts).shape[0] if np.asarray(self.ctrl_pts).ndim == 2 else 0
        if n < 1:
            raise ParamsError("gamut needs at least one control point")
        table = np.empty((2 * n + 4, 3), np.float32)
        views = {"ctrl_pts": table[:n], "weights": table[n : 2 * n], "coefs": table[2 * n :]}
        for name, view in views.items():
            view[...] = _as_f32(getattr(self, name), view.shape, name)
            object.__setattr__(self, name, view)
        object.__setattr__(self, "table", table)

    @property
    def n(self) -> int:
        return self.ctrl_pts.shape[0]

    def __eq__(self, other):
        if not isinstance(other, GamutParams):
            return NotImplemented
        return np.array_equal(self.table, other.table)


@dataclass(frozen=True)
class ToneLUT:
    """256x3 lookup table; row = quantized input level, column = channel.

    Stored channel-major (Fortran order), so ``lut.T`` gives each channel's
    256 levels as one contiguous row without a copy.
    """

    lut: np.ndarray

    def __post_init__(self):
        lut = _as_f32(self.lut, (TONE_LEVELS, 3), "tone lut")
        object.__setattr__(self, "lut", np.asfortranarray(lut))

    def __eq__(self, other):
        if not isinstance(other, ToneLUT):
            return NotImplemented
        return np.array_equal(self.lut, other.lut)


@dataclass(frozen=True)
class PipelineParams:
    transform: TransformMatrix
    gamut: GamutParams
    tone: ToneLUT


@dataclass(frozen=True)
class PerfModelConfig:
    """Defaults for the analytic loop-pipelining model."""

    pipeline_depth: int = 100
    assumed_dep_ii: int = 64
    costs: dict = field(
        default_factory=lambda: {
            "base_cost": 50.0,
            "datapath_cost": 4.0,
            "ram_cost": 0.05,
            "capacity": 100000.0,
        }
    )


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def gamma_tone(gamma: float = 2.2) -> ToneLUT:
    levels = (np.arange(TONE_LEVELS, dtype=np.float32) / np.float32(255.0)) ** np.float32(
        1.0 / gamma
    )
    return ToneLUT(np.repeat(levels[:, None], 3, axis=1))


def random_gamut(n: int = DEFAULT_GAMUT_POINTS, seed: int = 7) -> GamutParams:
    rng = np.random.default_rng(seed)
    ctrl_pts = rng.random((n, 3), dtype=np.float32)
    weights = (rng.random((n, 3), dtype=np.float32) - np.float32(0.5)) * np.float32(2.0)
    coefs = (rng.random((4, 3), dtype=np.float32) - np.float32(0.5)) * np.float32(2.0)
    return GamutParams(ctrl_pts=ctrl_pts, weights=weights, coefs=coefs)


def default_params(n_points: int = DEFAULT_GAMUT_POINTS, seed: int = 7) -> PipelineParams:
    """Deterministic benchmark defaults: mild white balance, seeded gamut, gamma."""
    wb = TransformMatrix(np.diag([1.15, 1.0, 0.85]).astype(np.float32))
    return PipelineParams(transform=wb, gamut=random_gamut(n_points, seed), tone=gamma_tone())


# ---------------------------------------------------------------------------
# File I/O
# ---------------------------------------------------------------------------

def _gamut_from_spec(spec) -> GamutParams:
    if not isinstance(spec, dict):
        raise ParamsError("gamut section must be an object")
    if "ctrl_pts" in spec:
        for key in ("weights", "coefs"):
            if key not in spec:
                raise ParamsError(f"explicit gamut needs {key!r}")
        return GamutParams(
            ctrl_pts=_f32(spec["ctrl_pts"], "ctrl_pts"),
            weights=_f32(spec["weights"], "weights"),
            coefs=_f32(spec["coefs"], "coefs"),
        )
    n = _number(spec, "n", DEFAULT_GAMUT_POINTS, int)
    if n < 1:
        raise ParamsError(f"gamut needs at least one control point, got n={n}")
    seed = _number(spec, "seed", 7, int)
    if seed < 0:
        raise ParamsError(f"gamut seed must be >= 0, got {seed}")
    return random_gamut(n, seed)


def _tone_from_spec(spec) -> ToneLUT:
    if not isinstance(spec, dict):
        raise ParamsError("tone section must be an object")
    if "lut" in spec:
        return ToneLUT(spec["lut"])
    kind = spec.get("kind", "identity")
    if kind == "identity":
        return gamma_tone(1.0)
    if kind == "gamma":
        gamma = _number(spec, "gamma", 2.2)
        if not gamma > 0:
            raise ParamsError(f"gamma must be positive, got {gamma}")
        return gamma_tone(gamma)
    raise ParamsError(f"unknown tone kind {kind!r}")


def load_params_file(path: str | Path) -> tuple[PipelineParams, PerfModelConfig]:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ParamsError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParamsError("parameter file must contain a JSON object")
    transform = TransformMatrix(doc.get("transform", np.eye(3).tolist()))
    gamut = _gamut_from_spec(doc.get("gamut", {}))
    tone = _tone_from_spec(doc.get("tone", {"kind": "identity"}))
    pm = doc.get("perfmodel", {})
    if not isinstance(pm, dict):
        raise ParamsError("perfmodel section must be an object")
    defaults = PerfModelConfig()
    costs = pm.get("costs", {})
    if not isinstance(costs, dict):
        raise ParamsError("perfmodel costs must be an object")
    unknown = sorted(set(costs) - set(defaults.costs))
    if unknown:
        raise ParamsError(f"unknown perfmodel cost keys {unknown}; known: {sorted(defaults.costs)}")
    perf = PerfModelConfig(
        pipeline_depth=_number(pm, "pipeline_depth", defaults.pipeline_depth, int),
        assumed_dep_ii=_number(pm, "assumed_dep_ii", defaults.assumed_dep_ii, int),
        costs={**defaults.costs, **{k: _number(costs, k, None) for k in costs}},
    )
    if perf.pipeline_depth <= 0 or perf.assumed_dep_ii < 1:
        raise ParamsError("perfmodel depths must be positive")
    return PipelineParams(transform=transform, gamut=gamut, tone=tone), perf


def save_params_file(path: str | Path, params: PipelineParams,
                     perf: PerfModelConfig | None = None) -> None:
    doc = {
        "transform": params.transform.m.tolist(),
        "gamut": {
            "ctrl_pts": params.gamut.ctrl_pts.tolist(),
            "weights": params.gamut.weights.tolist(),
            "coefs": params.gamut.coefs.tolist(),
        },
        "tone": {"lut": params.tone.lut.tolist()},
    }
    if perf is not None:
        doc["perfmodel"] = {
            "pipeline_depth": perf.pipeline_depth,
            "assumed_dep_ii": perf.assumed_dep_ii,
            "costs": perf.costs,
        }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")

"""Reference implementations of the five pipeline stages.

These are the correctness oracles every optimization variant is checked
against, so the per-element float32 operation order is part of the contract:

* demosaic neighbor sums accumulate up, down, left, right (edge neighbors)
  and upper-left, upper-right, lower-left, lower-right (diagonals), then
  multiply by 0.25 (or 0.5 for two-neighbor means);
* the transform is ``(m0*r + m1*g) + m2*b`` per output channel;
* the gamut distance is ``sqrt((dr*dr + dg*dg) + db*db)`` and the weighted
  distances accumulate in control-point order, left to right, in float32,
  starting from point 0's term (so a ``-0.0`` first term survives);
* the gamut bias terms are added in the order constant, r-term, g-term,
  b-term;
* the tone map's LUT row is ``floor(v*255 + 0.5)`` clamped to [0, 255] by
  ``fmax`` then ``fmin``, as ``images.tone_index`` computes it.

Every kernel is one call into a compiled C loop (``_kernels.c``, through
``ctypes``), so ispbench needs a C compiler (``cc``). The library is built
on first import into the package's ``__pycache__``, under a name keyed by
the source, the flags and the host CPU's flags, and loaded from there
afterwards without starting a process. A build removes the other builds
there (of an older source, other flags or another CPU). A missing or
failing compiler is an ``ImportError`` that names the command. Built with
``-ffp-contract=off`` and without ``-ffast-math``, the loops keep the
float32 order above: no multiply is fused into its add and subnormals are
kept.

Demosaic, denoise, transform and the tone map work one output row at a
time, reading their input rows in place (a channel or row stride may be
anything; the pixels of a row must be adjacent, or the input is copied
first), and allocate nothing besides their output. Gamut walks blocks of 64
pixels outside and the control points inside, so a block's sums stay in
registers.

The 3x3 median is Paeth's 19-exchange network (Devillard's opt_med9): each
row's horizontal triple is sorted, then med3(max of the lows, med3 of the
mids, min of the highs) is the median of the nine. Every exchange is
``(fmin(x_i, x_j), maximum(x_i, x_j))`` with NumPy's NaN rules, written as
compare-and-select, so a NaN goes to the high side. ``denoise`` and the
wall-clock dataflow worker (through ``_median_row``) run the same loop.

The median is one element of its window, never an arithmetic result, and
NaN ranks above +inf as in ``np.sort``. Equal values are interchangeable
except for zeros: on a +0.0/-0.0 tie an exchange keeps its first operand
on both sides, so a zero median's sign is a function of the window, but it
need not match the scalar oracle's.

All arithmetic is float32 end to end; nothing clamps between stages (only
the tone-map index is clamped).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
from pathlib import Path

import numpy as np

from .images import PlanarImage, RawBayerImage
from .params import GamutParams, PipelineParams, ToneLUT, TransformMatrix

CFLAGS = ("-O3", "-march=native", "-ffp-contract=off", "-fno-math-errno", "-shared", "-fPIC")


def _build(source: Path, target: Path, cc: str = "cc") -> None:
    """Compile ``source`` into the shared library ``target``.

    The compiler writes a name of its own, which is then renamed onto
    ``target``, so a process that finds ``target`` finds it whole.
    """
    import subprocess  # here, not at the top: a warm import never compiles

    tmp = target.with_name(f"{target.name}.{os.getpid()}.tmp")
    cmd = [cc, *CFLAGS, "-o", str(tmp), str(source)]
    try:
        subprocess.run(cmd, check=True, capture_output=True, text=True)
    except (OSError, subprocess.CalledProcessError) as exc:
        tmp.unlink(missing_ok=True)
        detail = getattr(exc, "stderr", None) or exc
        raise ImportError(f"ispbench needs a C compiler; `{' '.join(cmd)}` failed: {detail}") from exc
    os.replace(tmp, target)


def _load():
    """The compiled kernels, from ``__pycache__``; built there if missing."""
    source = Path(__file__).with_name("_kernels.c")
    try:
        with open("/proc/cpuinfo", "rb") as f:
            cpu = next((line for line in f if line.startswith(b"flags")), b"")
    except OSError:
        cpu = b""
    key = hashlib.sha256(b"\0".join([source.read_bytes(), " ".join(CFLAGS).encode(), cpu]))
    target = source.parent / "__pycache__" / f"_kernels-{key.hexdigest()[:16]}.so"
    if not target.exists():
        target.parent.mkdir(exist_ok=True)
        _build(source, target)
        for stale in target.parent.glob("_kernels-*.so"):  # never another build's *.tmp
            if stale != target:
                stale.unlink(missing_ok=True)
    lib = ctypes.CDLL(str(target))
    ptr, num = ctypes.c_void_p, ctypes.c_long
    signatures = {
        "demosaic": [ptr, num, num, num, ptr],
        "denoise": [ptr, num, num, num, num, ptr],
        "median_row": [ptr, num, ptr, num, ptr, num, num, ptr],
        "transform": [ptr, num, num, num, num, ptr, ptr],
        "gamut": [ptr, num, num, num, ptr, num, num, num, num, ptr],
        "tone_map": [ptr, num, num, num, num, ptr, ptr],
    }
    for name, argtypes in signatures.items():
        fn = getattr(lib, name)
        fn.argtypes, fn.restype = argtypes, None
    return lib


_lib = _load()


def _rows(a: np.ndarray) -> np.ndarray:
    """``a``, or a copy of it if the compiled loops cannot read its rows in place.

    They read float32 rows whose pixels are adjacent and aligned; the other
    axes may have any strides.
    """
    return a if a.strides[-1] == 4 and a.flags.aligned else np.array(a, np.float32, order="C")


def _strides(a: np.ndarray) -> list[int]:
    """``a``'s strides in elements, but the last (the pixels of a row)."""
    return [s // 4 for s in a.strides[:-1]]


# the chain, in order: (stage, kernel attribute name, PipelineParams field or None);
# names, not functions, so that a stage runs whatever the module attribute holds
STAGES = (
    ("demosaic", "demosaic", None),
    ("denoise", "denoise", None),
    ("transform", "transform", "transform"),
    ("gamut", "gamut_map", "gamut"),
    ("tonemap", "tone_map", "tone"),
)
STAGE_NAMES = tuple(stage for stage, _, _ in STAGES)


def demosaic(raw: RawBayerImage) -> PlanarImage:
    """Bilinear RGGB interpolation with edge replication.

    R sites take G from the 4 edge neighbors and B from the 4 diagonals;
    G sites take R and B from their 2 co-linear neighbors; B sites mirror
    R sites. One call of the compiled loop.
    """
    h, w = raw.height, raw.width
    mosaic = _rows(raw.mosaic)
    out = np.empty((3, h, w), np.float32)
    _lib.demosaic(mosaic.ctypes.data, *_strides(mosaic), h, w, out.ctypes.data)
    return PlanarImage(width=w, height=h, planes=out)


def denoise(img: PlanarImage) -> PlanarImage:
    """Per-channel 3x3 median with edge replication (a selection network).

    One call of the compiled loop, which takes each output row's median from
    the three input rows around it, as ``_median_row`` does for one row.
    """
    h, w = img.height, img.width
    planes = _rows(img.planes)
    out = np.empty((3, h, w), np.float32)
    _lib.denoise(planes.ctypes.data, *_strides(planes), h, w, out.ctypes.data)
    return PlanarImage(width=w, height=h, planes=out)


def _median_row(top: np.ndarray, middle: np.ndarray, bottom: np.ndarray) -> np.ndarray:
    """The 3x3 median of the ``(3, w)`` row ``middle`` between ``top`` and ``bottom``.

    Returns a fresh ``(3, 1, w)`` row, bit for bit the row ``denoise`` makes
    from the same three rows; edge columns replicate.
    """
    w = middle.shape[-1]
    if not top.shape == middle.shape == bottom.shape == (3, w):
        raise ValueError(f"need three (3, w) rows, got {top.shape}, {middle.shape}, {bottom.shape}")
    rows = [_rows(row) for row in (top, middle, bottom)]
    out = np.empty((3, 1, w), np.float32)
    args = [x for row in rows for x in (row.ctypes.data, *_strides(row))]
    _lib.median_row(*args, w, out.ctypes.data)
    return out


def transform(img: PlanarImage, m: TransformMatrix) -> PlanarImage:
    """out = m . [r, g, b]^T per pixel, as ``(m0*r + m1*g) + m2*b``; no clamping.

    One call of the compiled loop.
    """
    h, w = img.height, img.width
    planes, mat = _rows(img.planes), np.ascontiguousarray(m.m)
    out = np.empty((3, h, w), np.float32)
    _lib.transform(planes.ctypes.data, *_strides(planes), h, w, mat.ctypes.data, out.ctypes.data)
    return PlanarImage(width=w, height=h, planes=out)


def gamut_point_major(
    flat: np.ndarray, gp: GamutParams, channels=(0, 1, 2), unroll: int = 1
) -> np.ndarray:
    """Gamut over flat ``(3, pixels)`` planes; returns ``(len(channels), pixels)``.

    Point ``i`` goes to lane ``i % unroll``; each lane starts from its first
    term and adds the rest left to right (a lane with no points is zero),
    then the lanes fold left to right and the bias terms follow in order.
    ``unroll=1`` is the reference order. ``channels`` must be a contiguous
    run of channel indices. One call of the compiled loop; besides its
    output it allocates nothing. An empty lane adds +0.0 and a second one
    changes no bit, so the loop runs at most ``n + 1`` lanes.
    """
    c0, nc = channels[0], len(channels)
    if tuple(channels) != tuple(range(3)[c0 : c0 + nc]):
        raise ValueError(f"channels must be a contiguous run of 0, 1, 2, got {channels}")
    flat = np.asarray(flat, np.float32)
    if flat.ndim != 2 or len(flat) != 3 or unroll < 1:
        raise ValueError(f"need (3, pixels) planes and unroll >= 1, got {flat.shape}, {unroll}")
    out = np.empty((nc, flat.shape[1]), np.float32)
    chan_stride, pix_stride = (s // 4 for s in flat.strides)
    _lib.gamut(
        flat.ctypes.data, chan_stride, pix_stride, flat.shape[1],
        gp.table.ctypes.data, c0, nc, gp.n, min(unroll, gp.n + 1), out.ctypes.data,
    )
    return out


def gamut_map(img: PlanarImage, gp: GamutParams) -> PlanarImage:
    """Weighted sum of distances to the control points, plus an affine bias.

    Each pixel's float32 sum runs strictly left to right over the points and
    equals a scalar loop over them bit for bit.
    """
    h, w = img.height, img.width
    out = gamut_point_major(img.planes.reshape(3, h * w), gp)
    return PlanarImage(width=w, height=h, planes=out.reshape(3, h, w))


def tone_map(img: PlanarImage, t: ToneLUT) -> PlanarImage:
    """Look each value's ``tone_index`` row up in its channel's LUT column.

    One call of the compiled loop, which quantizes as ``tone_index`` does.
    """
    h, w = img.height, img.width
    planes = _rows(img.planes)
    out = np.empty((3, h, w), np.float32)
    # ToneLUT stores one contiguous row of 256 levels per channel
    _lib.tone_map(planes.ctypes.data, *_strides(planes), h, w, t.lut.ctypes.data, out.ctypes.data)
    return PlanarImage(width=w, height=h, planes=out)


def reference_stage(stage: str, data, params: PipelineParams):
    """Run one stage by name on its natural input."""
    for name, kernel, field in STAGES:
        if name == stage:
            fn = globals()[kernel]  # looked up now, so a patched module attribute takes effect
            return fn(data) if field is None else fn(data, getattr(params, field))
    raise ValueError(f"unknown stage {stage!r}")


def stage_input(stage: str, raw: RawBayerImage, params: PipelineParams):
    """Produce the reference input for a stage by running its upstream chain."""
    if stage not in STAGE_NAMES:
        raise ValueError(f"unknown stage {stage!r}")
    data = raw
    for name in STAGE_NAMES[: STAGE_NAMES.index(stage)]:
        data = reference_stage(name, data, params)
    return data


def run_pipeline(raw: RawBayerImage, params: PipelineParams) -> PlanarImage:
    """Run the five stages in order."""
    last = STAGE_NAMES[-1]
    return reference_stage(last, stage_input(last, raw, params), params)

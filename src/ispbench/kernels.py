"""Reference implementations of the five pipeline stages.

These are the correctness oracles every optimization variant is checked
against, so the per-element float32 operation order is part of the contract:

* demosaic neighbor sums accumulate up, down, left, right (edge neighbors)
  and upper-left, upper-right, lower-left, lower-right (diagonals), then
  multiply by 0.25 (or 0.5 for two-neighbor means);
* the gamut distance is ``sqrt((dr*dr + dg*dg) + db*db)`` and the weighted
  distances accumulate in control-point order, left to right, in float32,
  starting from point 0's term (so a ``-0.0`` first term survives);
* the gamut bias terms are added in the order constant, r-term, g-term,
  b-term.

Gamut is one compiled C loop (``_gamut.c``, called through ``ctypes``), so
ispbench needs a C compiler (``cc``). It is built on first import into the
package's ``__pycache__``, under a name keyed by the source, the flags and
the host CPU's flags, and loaded from there afterwards without starting a
process. A build removes the other builds there (of an older source, other
flags or another CPU). A missing or failing compiler is an ``ImportError``
that names the command. The loop walks blocks of 64 pixels outside and the
control points inside, so a block's sums stay in registers, and it keeps
the float32 order above: built with ``-ffp-contract=off`` and without
``-ffast-math``, no multiply is fused into its add and subnormals are kept.

The 3x3 median is Paeth's 19-exchange network (Devillard's opt_med9) in two
parts: ``_sort3`` sorts each row's horizontal triple in 6 ufunc calls, and
``_median_of_sorted`` takes med3(max of the lows, med3 of the mids, min of the
highs) over three sorted rows in 12, which is the median of the nine. Every
exchange is ``(fmin(x_i, x_j), maximum(x_i, x_j))``, so a NaN goes to the high
side. ``denoise`` and the wall-clock dataflow worker both call these two.

The median is one element of its window, never an arithmetic result, and
NaN ranks above +inf as in ``np.sort``. Equal values are interchangeable
except for zeros: when a window holds both +0.0 and -0.0 and the median is
zero, its sign is unspecified (it need not match the scalar oracle's, and
``np.fmin`` itself may pick either zero of a tie by the element's place in
its loop).

Demosaic, denoise, transform and the tone map walk row strips and write
straight into their output; besides it they allocate only scratch the size
of one strip, reused from strip to strip. Demosaic and denoise edge-pad each
strip into one buffer and work on it flat, one contiguous pass per step
(positions that straddle a row edge are computed and dropped), because
NumPy's strided loops run several times slower than its contiguous ones.

All arithmetic is float32 end to end; nothing clamps between stages (only
the tone-map index is clamped).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
from pathlib import Path

import numpy as np

from .images import PlanarImage, RawBayerImage, _quantize
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


def _load_gamut():
    """The compiled gamut loop, from ``__pycache__``; built there if missing."""
    source = Path(__file__).with_name("_gamut.c")
    try:
        with open("/proc/cpuinfo", "rb") as f:
            cpu = next((line for line in f if line.startswith(b"flags")), b"")
    except OSError:
        cpu = b""
    key = hashlib.sha256(b"\0".join([source.read_bytes(), " ".join(CFLAGS).encode(), cpu]))
    target = source.parent / "__pycache__" / f"_gamut-{key.hexdigest()[:16]}.so"
    if not target.exists():
        target.parent.mkdir(exist_ok=True)
        _build(source, target)
        for stale in target.parent.glob("_gamut-*.so"):  # never another build's *.tmp
            if stale != target:
                stale.unlink(missing_ok=True)
    fn = ctypes.CDLL(str(target)).gamut
    ptr, num = ctypes.c_void_p, ctypes.c_long
    fn.argtypes = [ptr, num, num, num, ptr, num, num, num, num, ptr]
    fn.restype = None
    return fn


_gamut = _load_gamut()

# row strips: demosaic, denoise, transform and the tone map walk strips of
# max(1, STRIP_PIXELS // w) rows and reuse per-call scratch the size of one
# strip (denoise: nine buffers, about 1.5 MB at 768 wide). On a 2-vCPU Xeon
# with 2 MB L2 per core, the four kernels chained at 768x512 took 25.7 / 22.8 /
# 22.6 / 22.7 ms at 8k / 12k / 16k / 24k pixels and at 256x192 3.00 / 2.87 /
# 3.24 / 3.53 ms (medians of 21)
STRIP_PIXELS = 12288

F32 = np.float32

# demosaic neighbor sums as (dy, dx) offsets into the padded mosaic, in
# summation order; each is scaled by 1 / its neighbor count
DEMOSAIC_SUMS = {
    "up_down": ((0, 1), (2, 1)),
    "left_right": ((1, 0), (1, 2)),
    "edges": ((0, 1), (2, 1), (1, 0), (1, 2)),  # up, down, left, right
    "diagonals": ((0, 0), (0, 2), (2, 0), (2, 2)),  # upper-left, upper-right, lower-left, lower-right
}

# (row parity, column parity, (R, G, B) sources) of the four RGGB sites
DEMOSAIC_SITES = (
    (0, 0, ("center", "edges", "diagonals")),  # R
    (0, 1, ("left_right", "center", "up_down")),  # G on an R row
    (1, 0, ("up_down", "center", "left_right")),  # G on a B row
    (1, 1, ("diagonals", "edges", "center")),  # B
)

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


def _pad_rows(src: np.ndarray, y0: int, y1: int, dst: np.ndarray) -> np.ndarray:
    """Rows ``y0 - 1 .. y1`` of ``src`` (..., h, w) into ``dst`` (..., y1 - y0 + 2, w + 2).

    Rows above and below the image and the two side columns replicate the edge.
    """
    dst[..., 0, 1:-1] = src[..., max(y0 - 1, 0), :]
    dst[..., 1:-1, 1:-1] = src[..., y0:y1, :]
    dst[..., -1, 1:-1] = src[..., min(y1, src.shape[-2] - 1), :]
    dst[..., 0] = dst[..., 1]
    dst[..., -1] = dst[..., -2]
    return dst


def _strips(h: int, w: int):
    """``(y0, y1)`` of each row strip of about ``STRIP_PIXELS`` pixels, top first."""
    rows = max(1, STRIP_PIXELS // w)
    return [(y0, min(y0 + rows, h)) for y0 in range(0, h, rows)]


def demosaic(raw: RawBayerImage) -> PlanarImage:
    """Bilinear RGGB interpolation with edge replication.

    R sites take G from the 4 edge neighbors and B from the 4 diagonals;
    G sites take R and B from their 2 co-linear neighbors; B sites mirror
    R sites. Walks row strips: each strip is edge-padded into one reused
    buffer, the four scaled neighbor sums are taken flat over the whole
    strip, and each site copies the ones it needs into the output.
    """
    h, w = raw.height, raw.width
    pw = w + 2  # padded row length
    out = np.empty((3, h, w), np.float32)
    strips = _strips(h, w)
    rows = strips[0][1]
    pad = np.empty((rows + 2) * pw, np.float32)
    sums = np.empty((len(DEMOSAIC_SUMS), rows * pw), np.float32)
    for y0, y1 in strips:
        n = y1 - y0
        p = _pad_rows(raw.mosaic, y0, y1, pad[: (n + 2) * pw].reshape(n + 2, pw)).ravel()
        k = n * pw - 2  # the neighbors of padded position f sit at f + dy * pw + dx
        views = {"center": p[pw + 1 :][: n * pw].reshape(n, pw)[:, :w]}
        for buf, (name, offsets) in zip(sums, DEMOSAIC_SUMS.items()):
            acc = buf[:k]
            (dy0, dx0), (dy1, dx1) = offsets[:2]
            np.add(p[dy0 * pw + dx0 :][:k], p[dy1 * pw + dx1 :][:k], out=acc)
            for dy, dx in offsets[2:]:
                acc += p[dy * pw + dx :][:k]
            acc *= F32(1 / len(offsets))  # flat, then copied out: strided ufuncs are slow
            views[name] = buf[: n * pw].reshape(n, pw)[:, :w]
        for py, px, sources in DEMOSAIC_SITES:
            site = np.s_[(py + y0) % 2 :: 2, px::2]  # the strip's sites of row parity py
            for dst, name in zip(out[:, y0:y1], sources):
                dst[site] = views[name][site]
    return PlanarImage(width=w, height=h, planes=out)


def _sort3(a, b, c, lo, mid, hi, t):
    """Sort ``a, b, c`` elementwise into ``lo <= mid <= hi``; ``t`` is scratch.

    Exchanges (1, 2), (0, 1), (1, 2) of opt_med9 on one row's triple. Inputs
    are not written.
    """
    np.fmin(b, c, out=mid)
    np.maximum(b, c, out=hi)
    np.fmin(a, mid, out=lo)
    np.maximum(a, mid, out=t)
    np.fmin(t, hi, out=mid)
    np.maximum(t, hi, out=hi)


def _median_of_sorted(top, middle, bottom, out, t1, t2, t3):
    """``out`` = the median of three sorted ``(lo, mid, hi)`` rows; ``t1``-``t3`` are scratch.

    med3(max of the lows, med3 of the mids, min of the highs): exchanges 10-19
    of opt_med9, in their order. Inputs are not written.
    """
    (lo0, mid0, hi0), (lo1, mid1, hi1), (lo2, mid2, hi2) = top, middle, bottom
    np.maximum(lo0, lo1, out=t1)
    np.fmin(hi1, hi2, out=t2)
    np.fmin(mid1, mid2, out=t3)
    np.maximum(mid1, mid2, out=out)
    np.maximum(t1, lo2, out=t1)  # max of the lows
    np.maximum(mid0, t3, out=t3)
    np.fmin(hi0, t2, out=t2)  # min of the highs
    np.fmin(t3, out, out=t3)  # med3 of the mids
    np.fmin(t3, t2, out=out)
    np.maximum(t3, t2, out=t2)
    np.maximum(t1, out, out=out)
    np.fmin(out, t2, out=out)
    return out


def denoise(img: PlanarImage) -> PlanarImage:
    """Per-channel 3x3 median with edge replication (a selection network).

    Walks row strips. Each strip is edge-padded into one reused buffer and
    processed flat, so every step is one contiguous pass: ``_sort3`` sorts
    the horizontal triple at each padded position once, then
    ``_median_of_sorted`` merges the sorted triples one and two padded rows
    down. Flat positions that straddle a row or channel edge are computed and
    dropped.
    """
    h, w = img.height, img.width
    pw = w + 2  # padded row length
    out = np.empty_like(img.planes)
    strips = _strips(h, w)
    size = 3 * (strips[0][1] + 2) * pw
    pad = np.empty(size, np.float32)
    # two blocks, not one of 8 rows: the larger block raised the peak RSS of a
    # 768x512 chain by ~1 MB (glibc's mmap threshold moves with freed block sizes)
    sort_scratch = np.empty((4, size), np.float32)
    merge_scratch = np.empty((4, size), np.float32)
    for y0, y1 in strips:
        n = y1 - y0
        m = 3 * (n + 2) * pw
        p = pad[:m]
        _pad_rows(img.planes, y0, y1, p.reshape(3, n + 2, pw))
        k = m - 2  # positions that start a horizontal triple
        lo, mid, hi, t = (s[:k] for s in sort_scratch)
        _sort3(p[:k], p[1:][:k], p[2:][:k], lo, mid, hi, t)
        k -= 2 * pw  # positions that start a 3x3 window
        rows = [(lo[d:][:k], mid[d:][:k], hi[d:][:k]) for d in (0, pw, 2 * pw)]
        _median_of_sorted(*rows, *(s[:k] for s in merge_scratch))
        out[:, y0:y1] = merge_scratch[0, :m].reshape(3, n + 2, pw)[:, :n, :w]
    return PlanarImage(width=w, height=h, planes=out)


def transform(img: PlanarImage, m: TransformMatrix) -> PlanarImage:
    """out = m . [r, g, b]^T per pixel, as ``(m0*r + m1*g) + m2*b``; no clamping.

    Walks row strips; each product broadcasts one matrix column over all
    three output channels of the strip.
    """
    h, w = img.height, img.width
    columns = m.m.T[:, :, None, None]  # column k as a (3, 1, 1) channel vector
    out = np.empty_like(img.planes)
    strips = _strips(h, w)
    scratch = np.empty((3, strips[0][1], w), np.float32)
    for y0, y1 in strips:
        r, g, b = img.planes[:, y0:y1]
        acc, t = out[:, y0:y1], scratch[:, : y1 - y0]
        np.multiply(columns[0], r, out=acc)
        acc += np.multiply(columns[1], g, out=t)
        acc += np.multiply(columns[2], b, out=t)
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
    output it allocates nothing.
    """
    c0, nc = channels[0], len(channels)
    if tuple(channels) != tuple(range(3)[c0 : c0 + nc]):
        raise ValueError(f"channels must be a contiguous run of 0, 1, 2, got {channels}")
    flat = np.asarray(flat, np.float32)
    if flat.ndim != 2 or len(flat) != 3 or unroll < 1:
        raise ValueError(f"need (3, pixels) planes and unroll >= 1, got {flat.shape}, {unroll}")
    out = np.empty((nc, flat.shape[1]), np.float32)
    chan_stride, pix_stride = (s // 4 for s in flat.strides)
    _gamut(
        flat.ctypes.data, chan_stride, pix_stride, flat.shape[1],
        gp.table.ctypes.data, c0, nc, gp.n, unroll, out.ctypes.data,
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

    Walks row strips, quantizing all three channels of a strip at once.
    """
    h, w = img.height, img.width
    out = np.empty_like(img.planes)
    lut = t.lut.T  # (3, 256): ToneLUT stores one contiguous row per channel
    strips = _strips(h, w)
    scaled = np.empty((3, strips[0][1], w), np.float32)
    index = np.empty((3, strips[0][1], w), np.int64)
    for y0, y1 in strips:
        k = index[:, : y1 - y0]
        _quantize(img.planes[:, y0:y1], scaled[:, : y1 - y0], k)
        for c in range(3):
            lut[c].take(k[c], out=out[c, y0:y1], mode="wrap")  # in range; no bounds buffer
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

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

Gamut runs point-major: for each chunk of pixels the outer loop walks the
control points and every addition updates the whole chunk at once, which
keeps each pixel's sum in the order above without materializing a
(pixels, points) block.

The median is one element of its window, never an arithmetic result, and
NaN ranks above +inf as in ``np.sort``. Equal values are interchangeable
except for zeros: when a window holds both +0.0 and -0.0 and the median is
zero, its sign is unspecified (it need not match the scalar oracle's).

All arithmetic is float32 end to end; nothing clamps between stages (only
the tone-map index is clamped).
"""

from __future__ import annotations

import time

import numpy as np

from .images import PlanarImage, RawBayerImage, planar_from_planes
from .params import GamutParams, PipelineParams, ToneLUT, TransformMatrix

# gamut working set: a chunk of CHUNK_PIXELS pixels meets BLOCK_SLOTS // chunk
# control points at a time; the (points, chunk) distances, the point-major
# (points, C, chunk) products and the unroll lanes share one page-aligned
# scratch of about 1.2 MB that stays in a per-core L2. On a 2 MB-L2 Xeon a grid
# of 4k-16k pixels x 32k-128k slots found no setting better than 16k / 64k at
# all four benchmark shapes (32k slots: frame -3 %, sweep's per-channel rows +12 %)
CHUNK_PIXELS = 16384
BLOCK_SLOTS = 65536

# median working set: a strip of MEDIAN_STRIP pixels keeps its padded rows and
# the network's (3, strip) float32 temporaries, about 1 MB, in a per-core L2;
# at 768x512 on a 4 MB-L2 Xeon, 8k-12k pixels timed best (13 ms), 4k and 24k
# 10-20 % slower
MEDIAN_STRIP = 8192

# Paeth's 19 compare-exchanges for the median of nine (Devillard's opt_med9):
# (i, j) leaves the smaller value in slot i and the larger in slot j; "lo" and
# "hi" mark exchanges of which only that side is read again
MEDIAN9_NETWORK = (
    (1, 2, "both"), (4, 5, "both"), (7, 8, "both"),
    (0, 1, "both"), (3, 4, "both"), (6, 7, "both"),
    (1, 2, "both"), (4, 5, "both"), (7, 8, "both"),
    (0, 3, "hi"), (5, 8, "lo"), (4, 7, "both"),
    (3, 6, "hi"), (1, 4, "hi"), (2, 5, "lo"),
    (4, 7, "lo"), (4, 2, "both"), (6, 4, "hi"), (4, 2, "lo"),
)

F32 = np.float32

STAGE_NAMES = ("demosaic", "denoise", "transform", "gamut", "tonemap")


def demosaic(raw: RawBayerImage) -> PlanarImage:
    """Bilinear RGGB interpolation with edge replication.

    R sites take G from the 4 edge neighbors and B from the 4 diagonals;
    G sites take R and B from their 2 co-linear neighbors; B sites mirror
    R sites.
    """
    h, w = raw.height, raw.width
    p = np.pad(raw.mosaic, 1, mode="edge")
    quarter = F32(0.25)
    half = F32(0.5)

    # neighbor views of the padded mosaic, aligned to output coordinates
    ctr = p[1:-1, 1:-1]
    up = p[:-2, 1:-1]
    dn = p[2:, 1:-1]
    lf = p[1:-1, :-2]
    rt = p[1:-1, 2:]
    ul = p[:-2, :-2]
    ur = p[:-2, 2:]
    dl = p[2:, :-2]
    dr = p[2:, 2:]

    r = np.empty((h, w), np.float32)
    g = np.empty((h, w), np.float32)
    b = np.empty((h, w), np.float32)

    ee = np.s_[0::2, 0::2]  # R sites
    eo = np.s_[0::2, 1::2]  # G sites on R rows
    oe = np.s_[1::2, 0::2]  # G sites on B rows
    oo = np.s_[1::2, 1::2]  # B sites

    r[ee] = ctr[ee]
    g[ee] = (((up[ee] + dn[ee]) + lf[ee]) + rt[ee]) * quarter
    b[ee] = (((ul[ee] + ur[ee]) + dl[ee]) + dr[ee]) * quarter

    g[eo] = ctr[eo]
    r[eo] = (lf[eo] + rt[eo]) * half
    b[eo] = (up[eo] + dn[eo]) * half

    g[oe] = ctr[oe]
    r[oe] = (up[oe] + dn[oe]) * half
    b[oe] = (lf[oe] + rt[oe]) * half

    b[oo] = ctr[oo]
    g[oo] = (((up[oo] + dn[oo]) + lf[oo]) + rt[oo]) * quarter
    r[oo] = (((ul[oo] + ur[oo]) + dl[oo]) + dr[oo]) * quarter

    return planar_from_planes(r, g, b)


def _median9(window: list[np.ndarray]) -> np.ndarray:
    """Elementwise fifth-smallest of nine equal-shape arrays; inputs are not written.

    The compare-exchange is ``(fmin(a, b), maximum(a, b))``: a NaN goes to
    the larger side, so NaN orders last as in ``np.sort``.
    """
    p = list(window)
    for i, j, keep in MEDIAN9_NETWORK:
        a, b = p[i], p[j]
        if keep != "hi":
            p[i] = np.fmin(a, b)
        if keep != "lo":
            p[j] = np.maximum(a, b)
    return p[4]


def _median3x3(rows3, w: int) -> np.ndarray:
    """3x3 median of ``w`` columns from three edge-padded (..., w + 2) row blocks, top first."""
    return _median9([r[..., dx : dx + w] for r in rows3 for dx in range(3)])


def denoise(img: PlanarImage) -> PlanarImage:
    """Per-channel 3x3 median with edge replication (a selection network).

    Walks row strips of about ``MEDIAN_STRIP`` pixels; each strip's three
    vertically shifted views of the padded planes meet in ``_median3x3``.
    """
    h, w = img.height, img.width
    p = np.pad(img.planes, ((0, 0), (1, 1), (1, 1)), mode="edge")
    out = np.empty_like(img.planes)
    rows = max(1, MEDIAN_STRIP // w)
    for y0 in range(0, h, rows):
        y1 = min(y0 + rows, h)
        out[:, y0:y1] = _median3x3([p[:, y0 + dy : y1 + dy] for dy in range(3)], w)
    return PlanarImage(width=w, height=h, planes=out)


def transform(img: PlanarImage, m: TransformMatrix) -> PlanarImage:
    """out = m . [r, g, b]^T per pixel; no clamping."""
    r, g, b = img.planes
    mm = m.m
    out = np.empty_like(img.planes)
    for c in range(3):
        out[c] = (mm[c, 0] * r + mm[c, 1] * g) + mm[c, 2] * b
    return PlanarImage(width=img.width, height=img.height, planes=out)


def gamut_point_major(
    flat: np.ndarray, gp: GamutParams, channels=(0, 1, 2), unroll: int = 1
) -> np.ndarray:
    """Gamut over flat ``(3, pixels)`` planes; returns ``(len(channels), pixels)``.

    Point ``i`` goes to lane ``i % unroll``; each lane starts from its first
    term and adds the rest left to right (a lane with no points is zero),
    then the lanes fold left to right and the bias terms follow in order.
    ``unroll=1`` is the reference order. The products are point-major,
    ``(points, C, chunk)``, so adding a point into its lane is one contiguous
    run of ``C * chunk`` floats, not C strided rows.
    """
    n, pts, total = gp.n, gp.ctrl_pts, flat.shape[1]
    chans = list(channels)
    nc = len(chans)
    wt = gp.weights[:, chans, None]  # (n, C, 1)
    coefs = gp.coefs[:, chans, None]  # (4, C, 1)
    out = np.empty((nc, total), np.float32)
    chunk = max(1, min(CHUNK_PIXELS, total))
    block = max(1, min(n, BLOCK_SLOTS // chunk))
    # one page-aligned scratch holds dist, prod and lanes, each 1 KB past the one
    # before; tmp is the head of prod, which is written only after the sqrt
    sizes = (block * chunk, block * nc * chunk, unroll * nc * chunk)
    buf = np.empty(sum(sizes) + 2 * 256 + 1024, np.float32)
    at = (-buf.ctypes.data % 4096) // 4
    dist, prod, lanes = (buf[at + sum(sizes[:j]) + 256 * j :][:m] for j, m in enumerate(sizes))
    dist, tmp = dist.reshape(block, chunk), prod[: block * chunk].reshape(block, chunk)
    prod, lanes = prod.reshape(block, nc, chunk), lanes.reshape(unroll, nc, chunk)
    lanes[...] = 0  # lanes past n stay 0
    for s in range(0, total, chunk):
        e = min(s + chunk, total)
        k = e - s
        r, g, b = flat[0, s:e], flat[1, s:e], flat[2, s:e]
        for ps in range(0, n, block):
            pe = min(ps + block, n)
            d, t, p = dist[: pe - ps, :k], tmp[: pe - ps, :k], prod[: pe - ps, :, :k]
            np.subtract(r, pts[ps:pe, 0, None], out=d)
            d *= d
            for x, col in ((g, 1), (b, 2)):
                np.subtract(x, pts[ps:pe, col, None], out=t)
                t *= t
                d += t
            np.sqrt(d, out=d)
            np.multiply(d[:, None], wt[ps:pe], out=p)
            for i in range(ps, pe):
                if i < unroll:
                    lanes[i, :, :k] = p[i - ps]
                else:
                    lanes[i % unroll, :, :k] += p[i - ps]
        acc = out[:, s:e]
        acc[...] = lanes[0, :, :k]
        for j in range(1, unroll):
            acc += lanes[j, :, :k]
        acc += coefs[0]
        for row, x in enumerate((r, g, b), 1):
            acc += coefs[row] * x
    return out


def gamut_map(img: PlanarImage, gp: GamutParams) -> PlanarImage:
    """Weighted sum of distances to the control points, plus an affine bias.

    Point-major: each control point's weighted distance is added to every
    pixel of a chunk in turn, so each pixel's float32 sum runs strictly left
    to right and equals a scalar loop over points bit for bit.
    """
    h, w = img.height, img.width
    out = gamut_point_major(img.planes.reshape(3, h * w), gp)
    return PlanarImage(width=w, height=h, planes=out.reshape(3, h, w))


def tone_index(values: np.ndarray) -> np.ndarray:
    """Quantize to the LUT row: clamp(round(v*255), 0, 255), ties away from 0.

    ``floor(x + 0.5)`` rounds ties away from zero for every ``x >= 0``, and
    any ``x < 0`` clamps to row 0 either way. NaN maps to row 0 (``fmax``
    prefers the non-NaN operand), +inf to 255.
    """
    scaled = np.floor(values * F32(255.0) + F32(0.5))
    return np.fmin(np.fmax(scaled, 0.0), 255.0).astype(np.int64)


def _tone_map_indexed(img: PlanarImage, t: ToneLUT, rows: np.ndarray | None = None):
    """The tone map; ``rows``, when given, receives the ``(3, h, w)`` LUT rows it read."""
    out = np.empty_like(img.planes)
    for c in range(3):
        if rows is None:  # drop the int64 rows before the lookup result: lower peak memory
            out[c] = t.lut[tone_index(img.planes[c]), c]
        else:
            rows[c] = tone_index(img.planes[c])
            out[c] = t.lut[rows[c], c]
    return PlanarImage(width=img.width, height=img.height, planes=out)


def tone_map(img: PlanarImage, t: ToneLUT) -> PlanarImage:
    return _tone_map_indexed(img, t)


def run_pipeline(
    raw: RawBayerImage, params: PipelineParams, with_times: bool = False
) -> PlanarImage | tuple[PlanarImage, dict[str, float]]:
    """Run the five stages in order; optionally report per-stage wall time."""
    times: dict[str, float] = {}

    def timed(name, fn, *args):
        t0 = time.perf_counter()
        result = fn(*args)
        times[name] = time.perf_counter() - t0
        return result

    img = timed("demosaic", demosaic, raw)
    img = timed("denoise", denoise, img)
    img = timed("transform", transform, img, params.transform)
    img = timed("gamut", gamut_map, img, params.gamut)
    img = timed("tonemap", tone_map, img, params.tone)
    if with_times:
        return img, times
    return img


def reference_stage(stage: str, data, params: PipelineParams):
    """Dispatch one stage by name on its natural input."""
    if stage == "demosaic":
        return demosaic(data)
    if stage == "denoise":
        return denoise(data)
    if stage == "transform":
        return transform(data, params.transform)
    if stage == "gamut":
        return gamut_map(data, params.gamut)
    if stage == "tonemap":
        return tone_map(data, params.tone)
    raise ValueError(f"unknown stage {stage!r}")


def stage_input(stage: str, raw: RawBayerImage, params: PipelineParams):
    """Produce the reference input for a stage by running its upstream chain."""
    if stage == "demosaic":
        return raw
    img = demosaic(raw)
    if stage == "denoise":
        return img
    img = denoise(img)
    if stage == "transform":
        return img
    img = transform(img, params.transform)
    if stage == "gamut":
        return img
    img = gamut_map(img, params.gamut)
    if stage == "tonemap":
        return img
    raise ValueError(f"unknown stage {stage!r}")

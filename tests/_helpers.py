"""Shared test utilities: deterministic inputs and scalar oracle kernels.

The oracles here are deliberate re-derivations: plain per-pixel Python
loops in float32, independent of the vectorized implementations they check.
"""

from __future__ import annotations

import numpy as np

from ispbench.cache import LINE_BYTES, CacheAccessError, ConstCacheSim
from ispbench.dataflow import StageStats
from ispbench.images import PlanarImage, RawBayerImage
from ispbench.params import (
    GamutParams,
    PipelineParams,
    ToneLUT,
    TransformMatrix,
    gamma_tone,
    random_gamut,
)

F = np.float32


def rand_planar(width=8, height=6, seed=0, lo=0.0, hi=1.0) -> PlanarImage:
    rng = np.random.default_rng(seed)
    planes = (lo + (hi - lo) * rng.random((3, height, width))).astype(np.float32)
    return PlanarImage(width=width, height=height, planes=planes)


def rand_raw(width=8, height=6, seed=0) -> RawBayerImage:
    rng = np.random.default_rng(seed)
    return RawBayerImage(
        width=width, height=height, mosaic=rng.random((height, width), dtype=np.float32)
    )


def rand_params(n=16, seed=1) -> PipelineParams:
    rng = np.random.default_rng(seed + 1000)
    return PipelineParams(
        transform=TransformMatrix((rng.random((3, 3)) - 0.5).astype(np.float32)),
        gamut=random_gamut(n, seed),
        tone=ToneLUT(rng.random((256, 3)).astype(np.float32)),
    )


def in_range_params(n=3611, seed=2) -> PipelineParams:
    """Params whose gamut moves every pixel of the unit cube by less than 0.5.

    A distance inside the unit cube is at most sqrt(3), so weights with
    sum |w| * sqrt(3) < 0.5 per channel, plus identity affine coefs, keep the
    output within 0.5 of the input, and the tone map sees a wrong gamut
    (unlike ``random_gamut`` at 3611 points, whose output clamps to LUT rows
    0 and 255).  Identity transform, gamma tone curve.
    """
    rng = np.random.default_rng(seed)
    weights = rng.random((n, 3)) - 0.5
    weights *= 0.45 / (np.abs(weights).sum(axis=0) * np.sqrt(3))
    coefs = np.zeros((4, 3))
    coefs[1:] = np.eye(3)
    gamut = GamutParams(rng.random((n, 3)), weights, coefs)
    return PipelineParams(transform=TransformMatrix(np.eye(3)), gamut=gamut, tone=gamma_tone())


# ---------------------------------------------------------------------------
# Scalar oracles
# ---------------------------------------------------------------------------

def demosaic_oracle(raw: RawBayerImage) -> PlanarImage:
    h, w = raw.height, raw.width
    m = raw.mosaic
    quarter, half = F(0.25), F(0.5)

    def at(y, x):
        return m[min(max(y, 0), h - 1), min(max(x, 0), w - 1)]

    out = np.empty((3, h, w), np.float32)
    for y in range(h):
        for x in range(w):
            edges = ((at(y - 1, x) + at(y + 1, x)) + at(y, x - 1)) + at(y, x + 1)
            diags = ((at(y - 1, x - 1) + at(y - 1, x + 1)) + at(y + 1, x - 1)) + at(
                y + 1, x + 1
            )
            if y % 2 == 0 and x % 2 == 0:  # R site
                r, g, b = at(y, x), edges * quarter, diags * quarter
            elif y % 2 == 0:  # G on an R row: R left/right, B up/down
                g = at(y, x)
                r = (at(y, x - 1) + at(y, x + 1)) * half
                b = (at(y - 1, x) + at(y + 1, x)) * half
            elif x % 2 == 0:  # G on a B row: R up/down, B left/right
                g = at(y, x)
                r = (at(y - 1, x) + at(y + 1, x)) * half
                b = (at(y, x - 1) + at(y, x + 1)) * half
            else:  # B site
                b, g, r = at(y, x), edges * quarter, diags * quarter
            out[0, y, x], out[1, y, x], out[2, y, x] = r, g, b
    return PlanarImage(width=w, height=h, planes=out)


def denoise_oracle(img: PlanarImage) -> PlanarImage:
    h, w = img.height, img.width
    out = np.empty((3, h, w), np.float32)
    for c in range(3):
        plane = img.planes[c]
        for y in range(h):
            for x in range(w):
                window = [
                    plane[min(max(y + dy, 0), h - 1), min(max(x + dx, 0), w - 1)]
                    for dy in (-1, 0, 1)
                    for dx in (-1, 0, 1)
                ]
                out[c, y, x] = sorted(window)[4]
    return PlanarImage(width=w, height=h, planes=out)


def transform_oracle(img: PlanarImage, m: TransformMatrix) -> PlanarImage:
    h, w = img.height, img.width
    out = np.empty((3, h, w), np.float32)
    mm = m.m
    for y in range(h):
        for x in range(w):
            r, g, b = img.planes[0, y, x], img.planes[1, y, x], img.planes[2, y, x]
            for c in range(3):
                out[c, y, x] = (mm[c, 0] * r + mm[c, 1] * g) + mm[c, 2] * b
    return PlanarImage(width=w, height=h, planes=out)


def gamut_oracle(img: PlanarImage, gp: GamutParams, unroll: int = 1) -> PlanarImage:
    """Two-loop scalar gamut: distances first, then left-to-right accumulation.

    With ``unroll`` > 1 the accumulation runs in that many partial sums
    (remainder chunk last, lanes folded left to right).
    """
    h, w = img.height, img.width
    n = gp.n
    pts, wts, coefs = gp.ctrl_pts, gp.weights, gp.coefs
    out = np.empty((3, h, w), np.float32)
    for y in range(h):
        for x in range(w):
            r, g, b = img.planes[0, y, x], img.planes[1, y, x], img.planes[2, y, x]
            d = np.empty(n, np.float32)
            for i in range(n):
                dr = r - pts[i, 0]
                dg = g - pts[i, 1]
                db = b - pts[i, 2]
                d[i] = np.sqrt((dr * dr + dg * dg) + db * db)
            for c in range(3):
                lanes = [F(0.0)] * unroll
                for i in range(n):
                    lanes[i % unroll] = lanes[i % unroll] + wts[i, c] * d[i]
                acc = lanes[0]
                for j in range(1, unroll):
                    acc = acc + lanes[j]
                acc = acc + coefs[0, c]
                acc = acc + coefs[1, c] * r
                acc = acc + coefs[2, c] * g
                acc = acc + coefs[3, c] * b
                out[c, y, x] = acc
    return PlanarImage(width=w, height=h, planes=out)


def tone_oracle(img: PlanarImage, t: ToneLUT) -> PlanarImage:
    h, w = img.height, img.width
    out = np.empty((3, h, w), np.float32)
    for c in range(3):
        for y in range(h):
            for x in range(w):
                v = img.planes[c, y, x] * F(255.0)
                idx = int(np.sign(v) * np.floor(np.abs(v) + F(0.5)))
                idx = min(max(idx, 0), 255)
                out[c, y, x] = t.lut[idx, c]
    return PlanarImage(width=w, height=h, planes=out)


def simulate_chain_oracle(
    latencies: list[float], items: int, depth: int, names: list[str] | None = None
) -> tuple[list[StageStats], float]:
    """Item-by-item event loop of a bounded-queue stage chain.

    Per stage and item: wait for input (except the source), compute for the
    stage latency, then wait for space in the output queue (a slot frees
    when the consumer pops).  Waiting for the very first input is warmup,
    not blocking, so a stage's accounting starts at its first pop.
    """
    k = len(latencies)
    names = names or [f"stage{i}" for i in range(k)]
    stats = [StageStats(name=names[i], items_processed=items) for i in range(k)]
    pops = [np.empty(items) for _ in range(k)]  # pop time per item, per stage
    push_done = [0.0] * k  # push completion of this stage's previous item
    cur_push = [0.0] * k
    for j in range(items):
        for i in range(k):
            if j == 0:
                start = 0.0 if i == 0 else cur_push[i - 1]
            elif i == 0:
                start = push_done[0]
            else:
                start = max(push_done[i], cur_push[i - 1])
                stats[i].blocked_pop_time += start - push_done[i]
            done = start + latencies[i]
            stats[i].busy_time += latencies[i]
            if i < k - 1 and j >= depth:
                pushed = max(done, pops[i + 1][j - depth])
            else:
                pushed = done
            stats[i].blocked_push_time += pushed - done
            pops[i][j] = start
            cur_push[i] = pushed
            push_done[i] = pushed
    for s in stats:
        s.wall_time = s.busy_time + s.blocked_push_time + s.blocked_pop_time
    return stats, cur_push[k - 1]


def cache_access(sim: ConstCacheSim, offset: int) -> bool:
    """Touch one byte offset of ``sim``'s region; returns True on hit."""
    if not 0 <= offset < sim.region_bytes:
        raise CacheAccessError(f"offset {offset} outside registered region [0, {sim.region_bytes})")
    line = int(offset) // LINE_BYTES
    slot = line % sim.lines
    if sim.tags[slot] == line:
        sim.hits += 1
        return True
    sim.tags[slot] = line
    sim.misses += 1
    return False


def planar_from_planes(r: np.ndarray, g: np.ndarray, b: np.ndarray) -> PlanarImage:
    planes = np.stack([r, g, b]).astype(np.float32, copy=False)
    h, w = r.shape
    return PlanarImage(width=w, height=h, planes=planes)


def planar_from_rgb(rgb_rows) -> PlanarImage:
    """Build a PlanarImage from nested [[(r,g,b), ...], ...] rows."""
    arr = np.asarray(rgb_rows, dtype=np.float32)
    return planar_from_planes(arr[..., 0], arr[..., 1], arr[..., 2])

"""Optimization-variant engine: configurable kernels with traffic instrumentation.

A variant is described by ``VariantConfig`` and a short label built from the
knob letters::

    R        non-aliasing pointers      (metadata, feeds the analytic model)
    I        ignore assumed loop deps   (metadata, feeds the analytic model)
    W        fused rewrite: produce R, G, B of a pixel in one iteration
    C[_kb]   read-only operands through the constant-cache simulator
    B        read-only operands copied once into a local buffer
    +U<n>    unroll the gamut inner reduction by n

so ``RIWB+U6`` is restrict+ivdep, fused, buffered, unroll 6, and ``C_128``
is a 128 KB constant cache alone.  ``base`` (or the empty string) is the
unoptimized channel-sequential kernel.

Counters model the nominal single-work-item loop of each variant: the
arithmetic itself is vectorized, but every loop level bumps the counters it
would have generated, and constant-cache runs replay the exact per-pixel
offset trace through the simulator.  Read-only regions are flat and
contiguous per kernel (gamut: control points, then weights, then the bias
coefficients), and the per-pixel access order is an ascending sweep of that
region.

R and I never change output or counters; every other knob must leave the
output equal to the reference kernel -- bit-exact except for unrolled gamut,
which reassociates the accumulation into ``unroll_factor`` lanes: point
``i`` goes to lane ``i % unroll_factor``, each lane starts from its first
term (a lane with no points is zero), and the lanes fold left to right
before the bias terms.  Every gamut variant runs the reference point-major
loop (``kernels.gamut_point_major``); the channel-sequential ones call it
once per channel and so recompute the distances each time.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .cache import ConstCacheSim
from .images import PlanarImage, RawBayerImage
from .kernels import F32, STAGE_NAMES, gamut_point_major, tone_index
from .params import GamutParams, PipelineParams, ToneLUT, TransformMatrix

READONLY_MODES = ("none", "const_cache", "buffered")
READONLY_STAGES = ("transform", "gamut", "tonemap")
DEFAULT_CACHE_BYTES = 16384

# named configurations exercised by the harness, per stage
NAMED_VARIANTS = {
    "demosaic": ("base", "R", "I", "RI"),
    "denoise": ("base", "RI", "RIW"),
    "transform": ("base", "RI", "RIW", "RIWC", "RIWB"),
    "gamut": ("base", "RI", "RIW", "RIWC", "RIWC_128", "RIWB", "RIWB+U6"),
    "tonemap": ("base", "RI", "RIW", "RIWC", "RIWB"),
}


class VariantError(ValueError):
    pass


@dataclass(frozen=True)
class VariantConfig:
    restrict_flag: bool = False
    ivdep_flag: bool = False
    fused_rewrite: bool = False
    readonly_mode: str = "none"
    unroll_factor: int = 1
    cache_size_bytes: int = DEFAULT_CACHE_BYTES

    def __post_init__(self):
        if self.readonly_mode not in READONLY_MODES:
            raise VariantError(f"unknown readonly mode {self.readonly_mode!r}")
        if self.unroll_factor < 1:
            raise VariantError(f"unroll factor must be >= 1, got {self.unroll_factor}")
        size = self.cache_size_bytes
        if size < 64 or size & (size - 1):
            raise VariantError(f"cache size must be a power of two >= 64, got {size}")

    def validate_for(self, stage: str) -> None:
        if stage not in STAGE_NAMES:
            raise VariantError(f"unknown stage {stage!r}")
        if self.unroll_factor > 1 and stage != "gamut":
            raise VariantError(f"unrolling only applies to gamut, not {stage}")
        if self.readonly_mode != "none" and stage not in READONLY_STAGES:
            raise VariantError(f"{stage} has no read-only operands to {self.readonly_mode}")
        if self.fused_rewrite and stage == "demosaic":
            raise VariantError("demosaic already produces R, G, B per iteration")

    def label(self) -> str:
        parts = ""
        if self.restrict_flag:
            parts += "R"
        if self.ivdep_flag:
            parts += "I"
        if self.fused_rewrite:
            parts += "W"
        if self.readonly_mode == "const_cache":
            parts += "C"
            if self.cache_size_bytes != DEFAULT_CACHE_BYTES:
                parts += f"_{self.cache_size_bytes // 1024}"
        elif self.readonly_mode == "buffered":
            parts += "B"
        if self.unroll_factor > 1:
            parts += ("+" if parts else "") + f"U{self.unroll_factor}"
        return parts or "base"


_VARIANT_RE = re.compile(r"^(R)?(I)?(W)?(?:(C)(?:_(\d+))?|(B))?(?:\+?U(\d+))?$")


def parse_variant(text: str) -> VariantConfig:
    """Parse a variant label; inverse of ``VariantConfig.label``."""
    s = text.strip()
    if s in ("", "base"):
        return VariantConfig()
    m = _VARIANT_RE.match(s)
    if not m:
        raise VariantError(f"cannot parse variant {text!r}")
    r, i, w, cflag, kb, bflag, unroll = m.groups()
    mode = "const_cache" if cflag else ("buffered" if bflag else "none")
    cache = int(kb) * 1024 if kb else DEFAULT_CACHE_BYTES
    return VariantConfig(
        restrict_flag=bool(r),
        ivdep_flag=bool(i),
        fused_rewrite=bool(w),
        readonly_mode=mode,
        unroll_factor=int(unroll) if unroll else 1,
        cache_size_bytes=cache,
    )


def valid_variant_space(stage: str, unrolls=(1, 2, 5, 6)):
    """Every valid VariantConfig for a stage (finite unroll set for gamut)."""
    out = []
    for restrict in (False, True):
        for ivdep in (False, True):
            for fused in (False, True) if stage != "demosaic" else (False,):
                modes = READONLY_MODES if stage in READONLY_STAGES else ("none",)
                for mode in modes:
                    factors = unrolls if stage == "gamut" else (1,)
                    for u in factors:
                        out.append(
                            VariantConfig(
                                restrict_flag=restrict,
                                ivdep_flag=ivdep,
                                fused_rewrite=fused,
                                readonly_mode=mode,
                                unroll_factor=u,
                            )
                        )
    return out


def equivalence_tolerance(stage: str, cfg: VariantConfig) -> float:
    """0.0 means bit-exact; unrolled gamut reassociates the accumulation."""
    if stage == "gamut" and cfg.unroll_factor > 1:
        return 1e-4
    return 0.0


def max_rel_deviation(out: np.ndarray, ref: np.ndarray) -> float:
    """Infinity-norm deviation relative to the reference's largest magnitude."""
    scale = float(np.max(np.abs(ref))) if ref.size else 0.0
    diff = float(np.max(np.abs(out.astype(np.float64) - ref.astype(np.float64))))
    if diff == 0.0:
        return 0.0
    return diff / max(scale, np.finfo(np.float32).tiny)


@dataclass
class AccessCounters:
    """Memory-traffic record for one instrumented kernel run.

    ``global_reads``/``global_writes`` count pixel-data elements.
    Read-only operand accesses land in ``readonly_reads`` when they go to
    global memory (uncached mode counts every access, buffered mode counts
    the one-time fill), or in ``cache_hits``/``cache_misses`` when routed
    through the constant-cache simulator.
    """

    global_reads: int = 0
    global_writes: int = 0
    readonly_reads: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    buffer_bytes: int = 0
    wall_time: float = 0.0

    def traffic_fields(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d.pop("wall_time")
        return d

    def same_traffic(self, other: "AccessCounters") -> bool:
        return self.traffic_fields() == other.traffic_fields()


# ---------------------------------------------------------------------------
# Read-only region layouts (word = 4-byte float)
# ---------------------------------------------------------------------------

def transform_region_bytes() -> int:
    return 36


def gamut_region_bytes(n: int) -> int:
    return 4 * (6 * n + 12)


def tone_region_bytes() -> int:
    return 4 * 256 * 3


def transform_trace(fused: bool):
    """Per-pixel byte-offset traces over the 3x3 matrix region."""
    if fused:
        return [4 * np.arange(9, dtype=np.int64)]
    return [4 * (3 * c + np.arange(3, dtype=np.int64)) for c in range(3)]


def gamut_trace(n: int, fused: bool):
    """Per-pixel traces over [points | weights | coefs]; ascending sweeps."""
    if fused:
        return [4 * np.arange(6 * n + 12, dtype=np.int64)]
    traces = []
    for c in range(3):
        pts = np.arange(3 * n, dtype=np.int64)
        wcol = 3 * n + 3 * np.arange(n, dtype=np.int64) + c
        ccol = 6 * n + 3 * np.arange(4, dtype=np.int64) + c
        traces.append(4 * np.concatenate([pts, wcol, ccol]))
    return traces


# ---------------------------------------------------------------------------
# Instrumented kernels
# ---------------------------------------------------------------------------

def _demosaic_variant(raw: RawBayerImage, counters: AccessCounters) -> PlanarImage:
    """Row-by-row bilinear RGGB interpolation (independent of the reference)."""
    h, w = raw.height, raw.width
    mos = raw.mosaic
    quarter = F32(0.25)
    half = F32(0.5)
    out = np.empty((3, h, w), np.float32)

    def padded(y):
        row = np.empty(w + 2, np.float32)
        row[1:-1] = mos[y]
        row[0] = mos[y, 0]
        row[-1] = mos[y, -1]
        return row

    for y in range(h):
        ym = padded(max(y - 1, 0))
        yc = padded(y)
        yp = padded(min(y + 1, h - 1))
        ctr = yc[1:-1]
        up, dn = ym[1:-1], yp[1:-1]
        lf, rt = yc[:-2], yc[2:]
        ul, ur = ym[:-2], ym[2:]
        dl, dr = yp[:-2], yp[2:]
        r, g, b = out[0, y], out[1, y], out[2, y]
        if y % 2 == 0:
            ee, eo = np.s_[0::2], np.s_[1::2]
            r[ee] = ctr[ee]
            g[ee] = (((up[ee] + dn[ee]) + lf[ee]) + rt[ee]) * quarter
            b[ee] = (((ul[ee] + ur[ee]) + dl[ee]) + dr[ee]) * quarter
            g[eo] = ctr[eo]
            r[eo] = (lf[eo] + rt[eo]) * half
            b[eo] = (up[eo] + dn[eo]) * half
        else:
            oe, oo = np.s_[0::2], np.s_[1::2]
            g[oe] = ctr[oe]
            r[oe] = (up[oe] + dn[oe]) * half
            b[oe] = (lf[oe] + rt[oe]) * half
            b[oo] = ctr[oo]
            g[oo] = (((up[oo] + dn[oo]) + lf[oo]) + rt[oo]) * quarter
            r[oo] = (((ul[oo] + ur[oo]) + dl[oo]) + dr[oo]) * quarter
        # 9 mosaic reads at R/B sites, 5 at G sites: 7 per pixel on average
        counters.global_reads += (w // 2) * 9 + (w // 2) * 5
        counters.global_writes += 3 * w
    return PlanarImage(width=w, height=h, planes=out)


def _median_plane(plane: np.ndarray) -> np.ndarray:
    h, w = plane.shape
    p = np.pad(plane, 1, mode="edge")
    stack = np.empty((h, w, 9), np.float32)
    k = 0
    for dy in range(3):
        for dx in range(3):
            stack[..., k] = p[dy : dy + h, dx : dx + w]
            k += 1
    stack.sort(axis=-1)
    return stack[..., 4]


def _denoise_variant(
    img: PlanarImage, cfg: VariantConfig, counters: AccessCounters
) -> PlanarImage:
    # 9 window reads and 1 write per (pixel, channel) in either loop order
    h, w = img.height, img.width
    out = np.empty_like(img.planes)
    for c in range(3):
        out[c] = _median_plane(img.planes[c])
        counters.global_reads += 9 * w * h
        counters.global_writes += w * h
    return PlanarImage(width=w, height=h, planes=out)


def _readonly_accounting(
    counters: AccessCounters,
    cfg: VariantConfig,
    region_bytes: int,
    per_pixel_traces,
    pixels: int,
    dynamic_traces=None,
) -> None:
    """Record read-only traffic for one kernel run.

    ``per_pixel_traces`` is a list of per-pixel offset traces replayed once
    per pixel each (one entry per channel pass for unfused kernels).  Value
    dependent kernels pass full ``dynamic_traces`` instead.
    """
    elements = region_bytes // 4
    if cfg.readonly_mode == "none":
        if dynamic_traces is not None:
            counters.readonly_reads += sum(len(t) for t in dynamic_traces)
        else:
            counters.readonly_reads += sum(len(t) for t in per_pixel_traces) * pixels
        return
    if cfg.readonly_mode == "buffered":
        counters.readonly_reads += elements
        counters.buffer_bytes += region_bytes
        return
    sim = ConstCacheSim(cfg.cache_size_bytes, region_bytes)
    if dynamic_traces is not None:
        for trace in dynamic_traces:
            sim.access_trace(trace)
    else:
        for trace in per_pixel_traces:
            sim.access_repeated(trace, pixels)
    counters.cache_hits += sim.hits
    counters.cache_misses += sim.misses


def _transform_variant(
    img: PlanarImage, m: TransformMatrix, cfg: VariantConfig, counters: AccessCounters
) -> PlanarImage:
    h, w = img.height, img.width
    pixels = w * h
    r, g, b = img.planes
    mm = m.m
    out = np.empty_like(img.planes)
    for c in range(3):
        out[c] = (mm[c, 0] * r + mm[c, 1] * g) + mm[c, 2] * b
    if cfg.fused_rewrite:
        counters.global_reads += 3 * pixels
    else:
        # channel-sequential: each output element re-reads r, g, and b
        counters.global_reads += 9 * pixels
    counters.global_writes += 3 * pixels
    _readonly_accounting(
        counters, cfg, transform_region_bytes(), transform_trace(cfg.fused_rewrite), pixels
    )
    return PlanarImage(width=w, height=h, planes=out)


def _gamut_variant(
    img: PlanarImage, gp: GamutParams, cfg: VariantConfig, counters: AccessCounters
) -> PlanarImage:
    h, w = img.height, img.width
    pixels = w * h
    n = gp.n
    flat = img.planes.reshape(3, pixels)
    u = cfg.unroll_factor
    if cfg.fused_rewrite:
        out = gamut_point_major(flat, gp, unroll=u)
        counters.global_reads += 3 * pixels
    else:
        # channel-sequential: the distance set is recomputed per channel
        out = np.concatenate([gamut_point_major(flat, gp, (c,), u) for c in range(3)])
        counters.global_reads += 9 * pixels
    counters.global_writes += 3 * pixels
    _readonly_accounting(
        counters, cfg, gamut_region_bytes(n), gamut_trace(n, cfg.fused_rewrite), pixels
    )
    return PlanarImage(width=w, height=h, planes=out.reshape(3, h, w))


def _tone_variant(
    img: PlanarImage, lut: ToneLUT, cfg: VariantConfig, counters: AccessCounters
) -> PlanarImage:
    h, w = img.height, img.width
    pixels = w * h
    out = np.empty_like(img.planes)
    indices = np.empty((3, pixels), np.int64)
    for c in range(3):
        idx = tone_index(img.planes[c])
        indices[c] = idx.reshape(pixels)
        out[c] = lut.lut[idx, c]
    counters.global_reads += 3 * pixels
    counters.global_writes += 3 * pixels
    word = 3 * indices + np.arange(3, dtype=np.int64)[:, None]
    if cfg.fused_rewrite:
        traces = [4 * word.T.reshape(-1)]  # per pixel: R, G, B accesses
    else:
        traces = [4 * word[c] for c in range(3)]  # per channel pass
    _readonly_accounting(
        counters, cfg, tone_region_bytes(), None, pixels, dynamic_traces=traces
    )
    return PlanarImage(width=w, height=h, planes=out)


def run_variant(
    stage: str, cfg: VariantConfig, data, params: PipelineParams
) -> tuple[PlanarImage, AccessCounters]:
    """Run one instrumented kernel variant; rejects invalid pairings first."""
    cfg.validate_for(stage)
    counters = AccessCounters()
    t0 = time.perf_counter()
    if stage == "demosaic":
        out = _demosaic_variant(data, counters)
    elif stage == "denoise":
        out = _denoise_variant(data, cfg, counters)
    elif stage == "transform":
        out = _transform_variant(data, params.transform, cfg, counters)
    elif stage == "gamut":
        out = _gamut_variant(data, params.gamut, cfg, counters)
    elif stage == "tonemap":
        out = _tone_variant(data, params.tone, cfg, counters)
    else:
        raise VariantError(f"unknown stage {stage!r}")
    counters.wall_time = time.perf_counter() - t0
    return out, counters


def counters_for_reference(
    stage: str,
    width: int,
    height: int,
    n_points: int = 3611,
    readonly_mode: str = "none",
) -> AccessCounters:
    """Closed-form traffic prediction for the per-pixel loop at unroll 1.

    Used to audit the instrumentation.  Cache hit/miss splits depend on the
    trace and cache size, so ``const_cache`` predictions are not available
    here; run the simulator instead.
    """
    if readonly_mode == "const_cache":
        raise ValueError("const_cache prediction requires the cache simulator")
    if readonly_mode not in ("none", "buffered"):
        raise ValueError(f"unknown readonly mode {readonly_mode!r}")
    pixels = width * height
    c = AccessCounters()
    per_pixel_readonly = {"transform": 9, "gamut": 6 * n_points + 12, "tonemap": 3}
    if stage == "demosaic":
        c.global_reads = 7 * pixels
        c.global_writes = 3 * pixels
    elif stage == "denoise":
        c.global_reads = 27 * pixels
        c.global_writes = 3 * pixels
    elif stage in per_pixel_readonly:
        c.global_reads = 3 * pixels
        c.global_writes = 3 * pixels
        region_elements = {
            "transform": 9,
            "gamut": 6 * n_points + 12,
            "tonemap": 256 * 3,
        }[stage]
        if readonly_mode == "none":
            c.readonly_reads = per_pixel_readonly[stage] * pixels
        else:
            c.readonly_reads = region_elements
            c.buffer_bytes = 4 * region_elements
    else:
        raise ValueError(f"unknown stage {stage!r}")
    if readonly_mode == "buffered" and stage not in READONLY_STAGES:
        raise ValueError(f"{stage} has no read-only operands")
    return c

"""Optimization-variant engine: the reference kernels plus one traffic model.

A variant is described by ``VariantConfig`` and a short label built from the
knob letters::

    R        non-aliasing pointers      (metadata, feeds the analytic model)
    I        ignore assumed loop deps   (metadata, feeds the analytic model)
    W        fused rewrite: produce R, G, B of a pixel in one iteration
    C[_kb]   read-only operands through a constant cache of kb KB (16 unsized)
    B        read-only operands copied once into a local buffer
    +U<n>    unroll the gamut inner reduction by n

so ``RIWB+U6`` is restrict+ivdep, fused, buffered, unroll 6, and ``C_128``
is a 128 KB constant cache alone.  ``base`` (or the empty string) is the
unoptimized channel-sequential kernel.

A variant run has three parts:

1. ``variant_kernel``, the only part the clock times, so the seconds
   ``run_variant`` returns are the kernel's alone.  Demosaic, denoise,
   transform and tone map run ``kernels.reference_stage`` whatever the
   config; gamut runs the compiled reference loop
   (``kernels.gamut_flat``) with ``unroll_factor`` lanes, once per
   channel when channel-sequential, so that variant recomputes the
   distances for every channel;
2. after the clock stops, ``traffic``: the counters of the variant's
   nominal single-work-item loop, from one table of accesses per pixel
   (``pixel_accesses``, which the model and the virtual clock read too) and
   the size of each stage's flat read-only region (``region_words``; gamut:
   control points, then weights, then the bias coefficients, as
   ``GamutParams.table`` holds them);
3. for ``C``, the cache replay: the read-only accesses as ``(trace,
   repeats)`` passes of byte offsets, each an ascending sweep of the region
   per pixel, replayed through ``ConstCacheSim.access_repeated``.  The tone
   map's accesses depend on the pixel values, so its trace is one pass over
   the whole image with ``repeats=1``, from the LUT rows
   ``images.tone_index`` gives.

``run_variant`` runs all three once and returns the output, the
``AccessCounters`` (traffic only) and the kernel's seconds.  The counters do
not change from run to run, so further timing reps call ``variant_kernel``
alone, through ``sample``, the one timing loop the harness also times the
reference kernels with.

R and I change neither the output nor the counters; they only feed the
analytic model, so rows that differ only in R and I differ in wall time by
noise.  Fused versus channel-sequential and unrolling change the work.  The
output equals the reference kernel's bit for bit, except for unrolled
gamut, which reassociates the accumulation into ``unroll_factor`` lanes:
point ``i`` goes to lane ``i % unroll_factor``, each lane starts from its
first term (a lane with no points is zero), and the lanes fold left to
right before the bias terms.
"""

from __future__ import annotations

import itertools
import re
import time
from dataclasses import dataclass

import numpy as np

from .cache import ConstCacheSim
from .images import PlanarImage, tone_index
from .kernels import STAGE_NAMES, gamut_flat, reference_stage
from .params import TONE_LEVELS, PipelineParams

READONLY_MODES = ("none", "const_cache", "buffered")
READONLY_STAGES = ("transform", "gamut", "tonemap")
DEFAULT_CACHE_BYTES = 16384
MAX_UNROLL = 2**63 - 1  # a C long; far larger ones overflow the model's float arithmetic

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
        if not 1 <= self.unroll_factor <= MAX_UNROLL:
            raise VariantError(f"unroll factor must be 1 to 2**63 - 1, got {self.unroll_factor}")
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
    try:
        unroll_factor = int(unroll) if unroll else 1
        cache = int(kb) * 1024 if kb else DEFAULT_CACHE_BYTES
    except ValueError:  # more digits than sys.get_int_max_str_digits() converts
        raise VariantError(f"variant label {s[:20]!r}... has a number too long to read") from None
    return VariantConfig(
        restrict_flag=bool(r),
        ivdep_flag=bool(i),
        fused_rewrite=bool(w),
        readonly_mode=mode,
        unroll_factor=unroll_factor,
        cache_size_bytes=cache,
    )


def valid_variant_space(stage: str):
    """Every VariantConfig that ``validate_for(stage)`` accepts; gamut unrolls 1, 2, 5 or 6."""
    out = []
    bools = (False, True)
    for knobs in itertools.product(bools, bools, bools, READONLY_MODES, (1, 2, 5, 6)):
        cfg = VariantConfig(*knobs)
        try:
            cfg.validate_for(stage)
        except VariantError:
            continue
        out.append(cfg)
    return out


def equivalence_tolerance(stage: str, cfg: VariantConfig) -> float:
    """0.0 means bit-exact; unrolled gamut reassociates the accumulation."""
    if stage == "gamut" and cfg.unroll_factor > 1:
        return 1e-4
    return 0.0


def max_rel_deviation(out: np.ndarray, ref: np.ndarray) -> float:
    """Infinity-norm deviation relative to the reference's largest finite magnitude.

    Equal elements, and NaN in both outputs, count 0; any other mismatch
    that involves a non-finite value is an infinite deviation.
    """
    differ = out != ref  # a NaN differs from everything, itself included
    if not differ.any():
        return 0.0
    o, r = out[differ].astype(np.float64), ref[differ].astype(np.float64)
    diff = np.abs(o - r)  # unequal, so never inf - inf
    diff[np.isnan(diff)] = np.inf  # a NaN on one side ...
    diff[np.isnan(o) & np.isnan(r)] = 0.0  # ... or on both
    worst = float(diff.max())
    if worst == 0.0:
        return 0.0
    finite = np.abs(ref[np.isfinite(ref)])
    scale = float(finite.max()) if finite.size else 0.0
    return worst / max(scale, np.finfo(np.float32).tiny)


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


# global reads of pixel data per pixel, (channel-sequential, fused): demosaic
# reads 9 mosaic values at R/B sites and 5 at G sites, denoise a 3x3 window
# per channel in either loop order, and the channel-sequential transform and
# gamut re-read r, g and b for every output channel
GLOBAL_READS = {
    "demosaic": (7, 7),
    "denoise": (27, 27),
    "transform": (9, 3),
    "gamut": (9, 3),
    "tonemap": (3, 3),
}


def region_words(stage: str, n: int) -> int:
    """Size of a stage's flat read-only region in 4-byte words."""
    return {"transform": 9, "gamut": 6 * n + 12, "tonemap": 3 * TONE_LEVELS}[stage]


def pixel_accesses(stage: str, fused: bool, n: int) -> tuple[int, int, int]:
    """One pixel's (global reads, global writes, uncached read-only reads).

    The read-only reads are the length of one pixel's ``_passes`` traces.
    """
    gamut = (6 if fused else 12) * n + 12
    readonly = {"transform": 9, "gamut": gamut, "tonemap": 3}.get(stage, 0)
    return GLOBAL_READS[stage][fused], 3, readonly


def _passes(stage: str, fused: bool, n: int, pixels: int, indices) -> list:
    """Read-only byte-offset traces as ``(trace, repeats)`` passes, for the cache replay."""
    if stage == "tonemap":
        if indices is None:
            raise ValueError("the tone map's trace needs its (3, pixels) LUT indices")
        word = 3 * indices + np.arange(3)[:, None]
        if fused:
            return [(4 * word.T.reshape(-1), 1)]  # per pixel: R, G, B accesses
        return [(4 * word[c], 1) for c in range(3)]  # one pass per channel
    if stage == "transform":
        per_pixel = [np.arange(9)] if fused else [3 * c + np.arange(3) for c in range(3)]
    elif fused:
        per_pixel = [np.arange(6 * n + 12)]
    else:  # every point, then column c of the weight and bias rows
        words = np.arange(6 * n + 12).reshape(-1, 3)
        per_pixel = [np.concatenate([words[:n].ravel(), words[n:, c]]) for c in range(3)]
    return [(4 * trace, pixels) for trace in per_pixel]


def traffic(
    stage: str, cfg: VariantConfig, width: int, height: int, n_points: int, indices=None
) -> AccessCounters:
    """Counters of a variant's nominal loop; a tone-map ``C`` also needs ``indices``.

    Uncached read-only operands count every access, buffered ones the
    one-time fill of the region, and constant-cache ones the simulator's
    hits and misses; only the last replays traces.
    """
    pixels = width * height
    reads, writes, readonly = pixel_accesses(stage, cfg.fused_rewrite, n_points)
    counters = AccessCounters(global_reads=reads * pixels, global_writes=writes * pixels)
    if cfg.readonly_mode == "none" or stage not in READONLY_STAGES:
        counters.readonly_reads = readonly * pixels
        return counters
    words = region_words(stage, n_points)
    if cfg.readonly_mode == "buffered":
        counters.readonly_reads, counters.buffer_bytes = words, 4 * words
        return counters
    sim = ConstCacheSim(cfg.cache_size_bytes, 4 * words)
    for trace, repeats in _passes(stage, cfg.fused_rewrite, n_points, pixels, indices):
        sim.access_repeated(trace, repeats)
    counters.cache_hits, counters.cache_misses = sim.hits, sim.misses
    return counters


def sample(reps: int, fn, *args) -> tuple:
    """Time ``reps`` calls of ``fn(*args)``: the first output (or None) and every call's time."""
    first, times = None, []
    for _ in range(reps):
        t0 = time.perf_counter()
        out = fn(*args)
        times.append(time.perf_counter() - t0)
        if first is None:
            first = out
        del out  # only the first output is kept, so at most two are alive
    return first, times


def variant_kernel(stage: str, cfg: VariantConfig, params: PipelineParams):
    """The kernel a variant runs, as ``data -> PlanarImage``: what its clock times."""
    if stage != "gamut":
        return lambda data: reference_stage(stage, data, params)
    channels = [None] if cfg.fused_rewrite else [0, 1, 2]

    def gamut(data):
        flat = data.planes.reshape(3, -1)
        planes = [gamut_flat(flat, params.gamut, c, cfg.unroll_factor) for c in channels]
        planes = np.concatenate(planes).reshape(data.planes.shape)
        return PlanarImage(width=data.width, height=data.height, planes=planes)

    return gamut


def run_variant(
    stage: str, cfg: VariantConfig, data, params: PipelineParams
) -> tuple[PlanarImage, AccessCounters, float]:
    """Run one instrumented kernel variant; rejects invalid pairings first.

    Returns the output, its counters and the seconds of one ``variant_kernel``
    call: the clock stops before ``traffic`` counts the accesses and, for a
    tone-map ``C`` row, before the LUT rows its replay reads are taken.
    """
    cfg.validate_for(stage)
    out, (seconds,) = sample(1, variant_kernel(stage, cfg, params), data)
    replay = stage == "tonemap" and cfg.readonly_mode == "const_cache"  # only C reads LUT rows
    indices = tone_index(data.planes).reshape(3, -1) if replay else None
    return out, traffic(stage, cfg, out.width, out.height, params.gamut.n, indices), seconds

"""Every variant against its oracle, with outputs and traffic counters pinned.

The pinned values come from the earlier variant engine, which re-implemented
four of the kernels and counted traffic with a fixed formula per kernel; the
engine built on the reference kernels and ``traffic`` reproduces them exactly.
"""

from __future__ import annotations

import dataclasses
import hashlib
import re
import time

import numpy as np
import pytest

from ispbench import kernels, variants
from ispbench.images import tone_index
from ispbench.kernels import STAGE_NAMES
from ispbench.cache import LINE_BYTES
from ispbench.variants import (
    READONLY_STAGES,
    VariantConfig,
    VariantError,
    max_rel_deviation,
    parse_variant,
    pixel_accesses,
    region_words,
    run_variant,
    sample,
    traffic,
    valid_variant_space,
)

from _helpers import (
    GAMUT_BLOCK,
    demosaic_oracle,
    denoise_oracle,
    gamut_oracle,
    max_rel_deviation_oracle,
    rand_params,
    rand_planar,
    rand_raw,
    tone_oracle,
    transform_oracle,
)

SIZES = ((6, 4), (16, 10))
CACHES = (64, 16384)

# (stage, size, n for gamut, fused, readonly mode or C<cache bytes>) ->
# (global_reads, global_writes, readonly_reads, cache_hits, cache_misses,
# buffer_bytes); R, I and the unroll factor never change them
COUNTERS = {
    ("demosaic", "6x4", None, False, "none"): (168, 72, 0, 0, 0, 0),
    ("demosaic", "16x10", None, False, "none"): (1120, 480, 0, 0, 0, 0),
    ("denoise", "6x4", None, False, "none"): (648, 72, 0, 0, 0, 0),
    ("denoise", "6x4", None, True, "none"): (648, 72, 0, 0, 0, 0),
    ("denoise", "16x10", None, False, "none"): (4320, 480, 0, 0, 0, 0),
    ("denoise", "16x10", None, True, "none"): (4320, 480, 0, 0, 0, 0),
    ("transform", "6x4", None, False, "none"): (216, 72, 216, 0, 0, 0),
    ("transform", "6x4", None, False, "C64"): (216, 72, 0, 215, 1, 0),
    ("transform", "6x4", None, False, "B"): (216, 72, 9, 0, 0, 36),
    ("transform", "6x4", None, True, "none"): (72, 72, 216, 0, 0, 0),
    ("transform", "6x4", None, True, "C64"): (72, 72, 0, 215, 1, 0),
    ("transform", "6x4", None, True, "B"): (72, 72, 9, 0, 0, 36),
    ("transform", "6x4", None, False, "C16384"): (216, 72, 0, 215, 1, 0),
    ("transform", "6x4", None, True, "C16384"): (72, 72, 0, 215, 1, 0),
    ("transform", "16x10", None, False, "none"): (1440, 480, 1440, 0, 0, 0),
    ("transform", "16x10", None, False, "C64"): (1440, 480, 0, 1439, 1, 0),
    ("transform", "16x10", None, False, "B"): (1440, 480, 9, 0, 0, 36),
    ("transform", "16x10", None, True, "none"): (480, 480, 1440, 0, 0, 0),
    ("transform", "16x10", None, True, "C64"): (480, 480, 0, 1439, 1, 0),
    ("transform", "16x10", None, True, "B"): (480, 480, 9, 0, 0, 36),
    ("transform", "16x10", None, False, "C16384"): (1440, 480, 0, 1439, 1, 0),
    ("transform", "16x10", None, True, "C16384"): (480, 480, 0, 1439, 1, 0),
    ("gamut", "6x4", 3, False, "none"): (216, 72, 1152, 0, 0, 0),
    ("gamut", "6x4", 3, False, "C64"): (216, 72, 0, 1008, 144, 0),
    ("gamut", "6x4", 3, False, "B"): (216, 72, 30, 0, 0, 120),
    ("gamut", "6x4", 3, True, "none"): (72, 72, 720, 0, 0, 0),
    ("gamut", "6x4", 3, True, "C64"): (72, 72, 0, 672, 48, 0),
    ("gamut", "6x4", 3, True, "B"): (72, 72, 30, 0, 0, 120),
    ("gamut", "6x4", 3, False, "C16384"): (216, 72, 0, 1150, 2, 0),
    ("gamut", "6x4", 3, True, "C16384"): (72, 72, 0, 718, 2, 0),
    ("gamut", "6x4", 17, False, "none"): (216, 72, 5184, 0, 0, 0),
    ("gamut", "6x4", 17, False, "C64"): (216, 72, 0, 4632, 552, 0),
    ("gamut", "6x4", 17, False, "B"): (216, 72, 114, 0, 0, 456),
    ("gamut", "6x4", 17, True, "none"): (72, 72, 2736, 0, 0, 0),
    ("gamut", "6x4", 17, True, "C64"): (72, 72, 0, 2544, 192, 0),
    ("gamut", "6x4", 17, True, "B"): (72, 72, 114, 0, 0, 456),
    ("gamut", "6x4", 17, False, "C16384"): (216, 72, 0, 5176, 8, 0),
    ("gamut", "6x4", 17, True, "C16384"): (72, 72, 0, 2728, 8, 0),
    ("gamut", "16x10", 3, False, "none"): (1440, 480, 7680, 0, 0, 0),
    ("gamut", "16x10", 3, False, "C64"): (1440, 480, 0, 6720, 960, 0),
    ("gamut", "16x10", 3, False, "B"): (1440, 480, 30, 0, 0, 120),
    ("gamut", "16x10", 3, True, "none"): (480, 480, 4800, 0, 0, 0),
    ("gamut", "16x10", 3, True, "C64"): (480, 480, 0, 4480, 320, 0),
    ("gamut", "16x10", 3, True, "B"): (480, 480, 30, 0, 0, 120),
    ("gamut", "16x10", 3, False, "C16384"): (1440, 480, 0, 7678, 2, 0),
    ("gamut", "16x10", 3, True, "C16384"): (480, 480, 0, 4798, 2, 0),
    ("gamut", "16x10", 17, False, "none"): (1440, 480, 34560, 0, 0, 0),
    ("gamut", "16x10", 17, False, "C64"): (1440, 480, 0, 30880, 3680, 0),
    ("gamut", "16x10", 17, False, "B"): (1440, 480, 114, 0, 0, 456),
    ("gamut", "16x10", 17, True, "none"): (480, 480, 18240, 0, 0, 0),
    ("gamut", "16x10", 17, True, "C64"): (480, 480, 0, 16960, 1280, 0),
    ("gamut", "16x10", 17, True, "B"): (480, 480, 114, 0, 0, 456),
    ("gamut", "16x10", 17, False, "C16384"): (1440, 480, 0, 34552, 8, 0),
    ("gamut", "16x10", 17, True, "C16384"): (480, 480, 0, 18232, 8, 0),
    ("tonemap", "6x4", None, False, "none"): (72, 72, 72, 0, 0, 0),
    ("tonemap", "6x4", None, False, "C64"): (72, 72, 0, 5, 67, 0),
    ("tonemap", "6x4", None, False, "B"): (72, 72, 768, 0, 0, 3072),
    ("tonemap", "6x4", None, True, "none"): (72, 72, 72, 0, 0, 0),
    ("tonemap", "6x4", None, True, "C64"): (72, 72, 0, 4, 68, 0),
    ("tonemap", "6x4", None, True, "B"): (72, 72, 768, 0, 0, 3072),
    ("tonemap", "6x4", None, False, "C16384"): (72, 72, 0, 44, 28, 0),
    ("tonemap", "6x4", None, True, "C16384"): (72, 72, 0, 44, 28, 0),
    ("tonemap", "16x10", None, False, "none"): (480, 480, 480, 0, 0, 0),
    ("tonemap", "16x10", None, False, "C64"): (480, 480, 0, 33, 447, 0),
    ("tonemap", "16x10", None, False, "B"): (480, 480, 768, 0, 0, 3072),
    ("tonemap", "16x10", None, True, "none"): (480, 480, 480, 0, 0, 0),
    ("tonemap", "16x10", None, True, "C64"): (480, 480, 0, 33, 447, 0),
    ("tonemap", "16x10", None, True, "B"): (480, 480, 768, 0, 0, 3072),
    ("tonemap", "16x10", None, False, "C16384"): (480, 480, 0, 432, 48, 0),
    ("tonemap", "16x10", None, True, "C16384"): (480, 480, 0, 432, 48, 0),
}

# sha256 over the outputs of valid_variant_space at both cache sizes, in order
DIGESTS = {
    ("demosaic", "6x4", None): "d84422d264769b8d5282d0e512438d997904e18cd0c4b022de39db45e6f528ef",
    ("demosaic", "16x10", None): "7760cac28d25b3f575bc02d0ba2f5865a40600fad387d723b635dc56950ea498",
    ("denoise", "6x4", None): "c91d368e465438eed7b38e776a8afe92dc65988daf31df3545a8a6815d293cca",
    ("denoise", "16x10", None): "a1a055fce739e2006e78cdfb00f074565380c7b64507328819856b4e7cee6e6c",
    ("transform", "6x4", None): "6ef17f56a8a5445367659ceab3a568287f6e4716f21d45d9e5277ccd08e76dd1",
    ("transform", "16x10", None): "27fcb4723f35fbaae78e93edb39fd43dc0f4a258820eba29872fdf5a344f55b6",
    ("gamut", "6x4", 3): "4b714e355b204668c51fd994e2fe76c20b68783f82a0842bc81497d02941c441",
    ("gamut", "6x4", 17): "5b25ade500629fd61a4ea1998c678b0829b336604a531750dcd4119b1389f312",
    ("gamut", "16x10", 3): "34c7d2a57e16795caef808646b89f46b4463982a8f906289104ffde4efaa5398",
    ("gamut", "16x10", 17): "932409d09277ffa9f86bc08886ee2ba4357d80eaa3138a34f1927946cd3f91d7",
    ("tonemap", "6x4", None): "72024cfc820f46d2605332bc412bc0e861656d5266dd27dbb6f7eb8669933a32",
    ("tonemap", "16x10", None): "d149ce77e426ebf33f942e00b78d379be56868cca83e050a1a0f516e4024fed0",
}

# the closed-form counters_for_reference(stage, 16, 10, 17, mode) that traffic
# replaced, for the fused loop at unroll 1
CLOSED_FORM = {
    ("demosaic", "none"): (1120, 480, 0, 0, 0, 0),
    ("denoise", "none"): (4320, 480, 0, 0, 0, 0),
    ("transform", "none"): (480, 480, 1440, 0, 0, 0),
    ("transform", "buffered"): (480, 480, 9, 0, 0, 36),
    ("gamut", "none"): (480, 480, 18240, 0, 0, 0),
    ("gamut", "buffered"): (480, 480, 114, 0, 0, 456),
    ("tonemap", "none"): (480, 480, 480, 0, 0, 0),
    ("tonemap", "buffered"): (480, 480, 768, 0, 0, 3072),
}

ORACLES = {
    "demosaic": lambda data, p: demosaic_oracle(data),
    "denoise": lambda data, p: denoise_oracle(data),
    "transform": lambda data, p: transform_oracle(data, p.transform),
    "tonemap": lambda data, p: tone_oracle(data, p.tone),
}


def _mode(cfg) -> str:
    if cfg.readonly_mode == "const_cache":
        return f"C{cfg.cache_size_bytes}"
    return {"none": "none", "buffered": "B"}[cfg.readonly_mode]


@pytest.mark.parametrize("stage", STAGE_NAMES)
def test_variant_space_matches_pinned_counters_and_outputs(stage):
    for w, h in SIZES:
        for n in (3, 17):
            params = rand_params(n, seed=2)
            if stage == "demosaic":
                data = rand_raw(w, h, seed=5)
            else:  # values past [0, 1] so the tone-map index clamps
                data = rand_planar(w, h, seed=5, lo=-0.2, hi=1.2)
            oracle = None
            if stage in ORACLES:
                oracle = ORACLES[stage](data, params).planes.view(np.uint32)
            case = (stage, f"{w}x{h}", n if stage == "gamut" else None)
            digest = hashlib.sha256()
            for cache in CACHES:
                for cfg in valid_variant_space(stage):
                    cfg = dataclasses.replace(cfg, cache_size_bytes=cache)
                    out, counters, _ = run_variant(stage, cfg, data, params)
                    digest.update(out.planes.tobytes())
                    if oracle is not None:
                        assert np.array_equal(out.planes.view(np.uint32), oracle), cfg.label()
                    key = case + (cfg.fused_rewrite, _mode(cfg))
                    assert tuple(dataclasses.asdict(counters).values()) == COUNTERS[key], key
            assert digest.hexdigest() == DIGESTS[case], case


def _check_gamut_space(n: int) -> None:
    img = rand_planar(6, 4, seed=5)
    params = rand_params(n, seed=2)
    oracles = {}
    for cfg in valid_variant_space("gamut"):
        u = cfg.unroll_factor
        if u not in oracles:
            oracles[u] = gamut_oracle(img, params.gamut, unroll=u).planes.view(np.uint32)
        out, counters, _ = run_variant("gamut", cfg, img, params)
        assert np.array_equal(out.planes.view(np.uint32), oracles[u]), cfg.label()
        key = ("gamut", "6x4", n, cfg.fused_rewrite, _mode(cfg))
        assert tuple(dataclasses.asdict(counters).values()) == COUNTERS[key], cfg.label()


@pytest.mark.parametrize("n", [3, 17])  # n=3 puts unroll 5 and 6 past the last point
def test_every_gamut_variant_matches_oracle_and_pinned_counters(n):
    _check_gamut_space(n)


def test_gamut_variants_across_chunk_and_point_block_edges():
    # B + 1 and 2B + 1 pixels for the compiled loop's B-pixel blocks, so the
    # last block holds one pixel; n=3 puts unroll 5 and 6 past the last point
    for n in (3, 17):
        params = rand_params(n, seed=2)
        for k in (GAMUT_BLOCK + 1, 2 * GAMUT_BLOCK + 1):
            img = rand_planar(k, 1, seed=k)
            oracles = {}
            for cfg in valid_variant_space("gamut"):
                u = cfg.unroll_factor
                if u not in oracles:
                    oracles[u] = gamut_oracle(img, params.gamut, unroll=u).planes.view(np.uint32)
                out, _, _ = run_variant("gamut", cfg, img, params)
                assert np.array_equal(out.planes.view(np.uint32), oracles[u]), (cfg.label(), k)


@pytest.mark.parametrize("stage, mode", list(CLOSED_FORM))
def test_traffic_of_the_fused_loop_equals_the_old_closed_form(stage, mode):
    indices = tone_index(rand_planar(16, 10, seed=5).planes).reshape(3, -1)
    cfg = VariantConfig(fused_rewrite=True, readonly_mode=mode)
    counters = traffic(stage, cfg, 16, 10, 17, indices)
    assert tuple(dataclasses.asdict(counters).values()) == CLOSED_FORM[(stage, mode)]


def test_tone_map_traffic_needs_its_indices():
    # only the cache replays the LUT rows; every other mode counts without them
    with pytest.raises(ValueError):
        traffic("tonemap", VariantConfig(readonly_mode="const_cache"), 16, 10, 17)
    assert traffic("tonemap", VariantConfig(), 16, 10, 17).readonly_reads == 480


@pytest.mark.parametrize("n", [1, 16, 3611])
@pytest.mark.parametrize("fused", [False, True])
@pytest.mark.parametrize("stage", STAGE_NAMES)
def test_pixel_accesses_are_one_pixels_replayed_traces(stage, fused, n):
    # the uncached count, the model and the virtual clock read the table;
    # the cache replays the traces, so the two must not drift apart
    readonly = pixel_accesses(stage, fused, n)[2]
    if stage not in READONLY_STAGES:
        assert readonly == 0
        return
    passes = variants._passes(stage, fused, n, 1, np.zeros((3, 1), dtype=np.int64))
    assert readonly == sum(len(trace) * repeats for trace, repeats in passes)


@pytest.mark.parametrize(
    "stage, n", [("gamut", 3611), ("gamut", 5), ("transform", 5), ("tonemap", 5)]
)
@pytest.mark.parametrize("fused", ["", "W"])
def test_a_cache_past_the_region_counts_as_the_one_that_covers_it(stage, n, fused):
    # the simulator keeps at most the power-of-two line count that covers the
    # region, so a 1 TB cache counts like it and allocates no more tags
    region_lines = -(-4 * region_words(stage, n) // LINE_BYTES)
    cover_kb = max(1, (1 << (region_lines - 1).bit_length()) * LINE_BYTES // 1024)
    data = rand_planar(16, 10, seed=5, lo=-0.2, hi=1.2)
    indices = tone_index(data.planes).reshape(3, -1)
    counts = [
        traffic(stage, parse_variant(f"RI{fused}C_{kb}"), 16, 10, n, indices)
        for kb in (cover_kb, 1073741824)
    ]
    assert counts[0] == counts[1]
    accesses = 16 * 10 * pixel_accesses(stage, bool(fused), n)[2]
    assert counts[0].cache_hits + counts[0].cache_misses == accesses


@pytest.mark.parametrize("label", ["RIW+U" + "9" * 5000, "RIWC_" + "9" * 5000], ids=["U", "C"])
def test_a_number_past_ints_digit_limit_names_its_label(label):
    with pytest.raises(VariantError, match=re.escape(label[:12])):
        parse_variant(label)


@pytest.mark.parametrize("stage", STAGE_NAMES)
def test_wall_time_is_the_kernels_alone(monkeypatch, stage):
    # traffic, and the tone map's LUT rows for it, run after the clock stops
    original = variants.traffic

    def slow(*args, **kwargs):
        time.sleep(0.2)
        return original(*args, **kwargs)

    monkeypatch.setattr(variants, "traffic", slow)
    params = rand_params(3, seed=2)
    data = rand_raw(16, 10, seed=5) if stage == "demosaic" else rand_planar(16, 10, seed=5)
    assert run_variant(stage, VariantConfig(), data, params)[2] < 0.2


def test_sample_times_every_call_and_keeps_the_first_output():
    outputs = iter(range(5))
    first, times = sample(3, lambda: next(outputs))
    assert first == 0 and len(times) == 3 and all(t >= 0 for t in times)
    assert next(outputs) == 3
    assert sample(0, lambda: 1 / 0) == (None, [])


def test_every_tone_map_variant_runs_the_reference_tone_map_once(monkeypatch):
    calls = []
    original = kernels.tone_map

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(kernels, "tone_map", counted)
    params, data = rand_params(3, seed=2), rand_planar(16, 10, seed=5, lo=-0.2, hi=1.2)
    for cfg in valid_variant_space("tonemap"):
        calls.clear()
        run_variant("tonemap", cfg, data, params)
        assert len(calls) == 1, cfg.label()


def test_only_a_constant_cache_tone_map_row_takes_the_lut_rows(monkeypatch):
    # the LUT rows feed the C replay alone; traffic rejects a C call without them
    calls = []
    original = variants.tone_index

    def counted(values):
        calls.append(values.shape)
        return original(values)

    monkeypatch.setattr(variants, "tone_index", counted)
    params, data = rand_params(3, seed=2), rand_planar(16, 10, seed=5, lo=-0.2, hi=1.2)
    for cfg in valid_variant_space("tonemap"):
        calls.clear()
        run_variant("tonemap", cfg, data, params)
        assert len(calls) == (1 if cfg.readonly_mode == "const_cache" else 0), cfg.label()


def test_gate_deviation_on_non_finite_values():
    ref = np.float32([np.inf, -np.inf, np.nan, 1.0, -0.0, 2.0])
    assert max_rel_deviation(ref.copy(), ref) == 0.0
    for i, value in [(0, 1.0), (0, -np.inf), (1, np.nan), (2, 1.0), (3, np.inf), (3, np.nan)]:
        out = ref.copy()
        out[i] = value
        assert max_rel_deviation(out, ref) == np.inf, (i, value)
    out = ref.copy()
    out[3] = 1.5  # the scale is the largest finite reference magnitude, 2
    assert max_rel_deviation(out, ref) == 0.25


def test_gate_deviation_matches_the_whole_array_formula():
    values = np.float32([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan, 1e-45, 3e38, 0.5])
    rng = np.random.default_rng(0)
    for i in range(3000):
        ref = rng.choice(values, size=i % 9)  # sizes 0 and 1 included
        out = ref.copy()
        for j in rng.integers(ref.size, size=rng.integers(3)) if ref.size else ():
            kind = rng.integers(3)  # another value, a neighbouring float, a small relative step
            with np.errstate(over="ignore", invalid="ignore"):
                if kind == 0:
                    out[j] = rng.choice(values)
                elif kind == 1:
                    out[j] = np.nextafter(out[j], np.float32(rng.choice([-np.inf, np.inf])))
                else:
                    out[j] *= np.float32(1 + rng.choice([1e-7, -1e-5, 1e-3]))
        with np.errstate(over="ignore", invalid="raise"):  # never inf - inf
            assert max_rel_deviation(out, ref) == max_rel_deviation_oracle(out, ref), (ref, out)


@pytest.mark.parametrize("stage", STAGE_NAMES)
def test_every_label_parses_back_to_its_config(stage):
    for cfg in valid_variant_space(stage):
        assert parse_variant(cfg.label()) == cfg, cfg.label()
        if cfg.readonly_mode == "const_cache":
            for size in (1 << k for k in range(10, 18)):  # 1 KB ... 128 KB
                sized = dataclasses.replace(cfg, cache_size_bytes=size)
                assert parse_variant(sized.label()) == sized, sized.label()

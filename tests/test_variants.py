"""Gamut variants against the scalar oracle, with their traffic counters pinned."""

from __future__ import annotations

import numpy as np
import pytest

from ispbench import kernels
from ispbench.variants import run_variant, valid_variant_space

from _helpers import gamut_oracle, rand_params, rand_planar

# (n, fused, readonly mode) -> (global_reads, global_writes, readonly_reads,
# cache_hits, cache_misses, buffer_bytes) on a 6x4 image; R, I and the unroll
# factor never change them
GAMUT_COUNTERS = {
    (3, False, "none"): (216, 72, 1152, 0, 0, 0),
    (3, False, "const_cache"): (216, 72, 0, 1150, 2, 0),
    (3, False, "buffered"): (216, 72, 30, 0, 0, 120),
    (3, True, "none"): (72, 72, 720, 0, 0, 0),
    (3, True, "const_cache"): (72, 72, 0, 718, 2, 0),
    (3, True, "buffered"): (72, 72, 30, 0, 0, 120),
    (17, False, "none"): (216, 72, 5184, 0, 0, 0),
    (17, False, "const_cache"): (216, 72, 0, 5176, 8, 0),
    (17, False, "buffered"): (216, 72, 114, 0, 0, 456),
    (17, True, "none"): (72, 72, 2736, 0, 0, 0),
    (17, True, "const_cache"): (72, 72, 0, 2728, 8, 0),
    (17, True, "buffered"): (72, 72, 114, 0, 0, 456),
}


def _check_gamut_space(n: int) -> None:
    img = rand_planar(6, 4, seed=5)
    params = rand_params(n, seed=2)
    oracles = {}
    for cfg in valid_variant_space("gamut"):
        u = cfg.unroll_factor
        if u not in oracles:
            oracles[u] = gamut_oracle(img, params.gamut, unroll=u).planes.view(np.uint32)
        out, counters = run_variant("gamut", cfg, img, params)
        assert np.array_equal(out.planes.view(np.uint32), oracles[u]), cfg.label()
        fields = tuple(counters.traffic_fields().values())
        assert fields == GAMUT_COUNTERS[(n, cfg.fused_rewrite, cfg.readonly_mode)], cfg.label()


@pytest.mark.parametrize("n", [3, 17])  # n=3 puts unroll 5 and 6 past the last point
def test_every_gamut_variant_matches_oracle_and_pinned_counters(n):
    _check_gamut_space(n)


def test_gamut_variants_across_chunk_and_point_block_edges(monkeypatch):
    # 24 pixels in chunks of 5; blocks of 2 points, so unroll lanes start in
    # different blocks
    monkeypatch.setattr(kernels, "CHUNK_PIXELS", 5)
    monkeypatch.setattr(kernels, "BLOCK_SLOTS", 10)
    _check_gamut_space(17)

"""The constant-cache simulator's vectorized replays against a per-offset loop.

Every read-only trace a variant records goes through ``access_repeated``,
so its counts and final tags must equal ``cache_access`` once per offset.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ispbench.cache import CacheAccessError, ConstCacheSim

from _helpers import cache_access


@st.composite
def traces(draw):
    """(cache bytes, region bytes, warm-up trace, trace); caches of 1-64 lines."""
    size = 64 << draw(st.integers(0, 6))
    region = draw(st.integers(1, 8192))
    offsets = st.integers(0, region - 1)
    return size, region, draw(st.lists(offsets, max_size=40)), draw(st.lists(offsets, max_size=80))


def _pair(size: int, region: int, warm: list[int]) -> tuple[ConstCacheSim, ConstCacheSim]:
    sims = ConstCacheSim(size, region), ConstCacheSim(size, region)
    for sim in sims:
        for offset in warm:
            cache_access(sim, offset)
    return sims


def _state(sim: ConstCacheSim):
    return sim.hits, sim.misses, sim.tags.tolist()


@pytest.mark.parametrize("warm_start", [False, True])
@settings(max_examples=60, deadline=None)
@given(case=traces())
def test_access_trace_matches_per_offset_access(warm_start, case):
    size, region, warm, trace = case
    loop, fast = _pair(size, region, warm if warm_start else [])
    misses = sum(not cache_access(loop, offset) for offset in trace)
    assert fast.access_trace(np.array(trace, dtype=np.int64)) == misses
    assert _state(fast) == _state(loop)


@pytest.mark.parametrize("warm_start", [False, True])
@pytest.mark.parametrize("repeats", [0, 1, 2, 5])
@settings(max_examples=40, deadline=None)
@given(case=traces())
def test_access_repeated_matches_per_offset_access(warm_start, repeats, case):
    size, region, warm, trace = case
    loop, fast = _pair(size, region, warm if warm_start else [])
    misses = sum(not cache_access(loop, offset) for _ in range(repeats) for offset in trace)
    assert fast.access_repeated(np.array(trace, dtype=np.int64), repeats) == misses
    assert _state(fast) == _state(loop)


@pytest.mark.parametrize("region, cover", [(1, 1), (64, 1), (65, 2), (4096, 64), (86712, 2048)])
def test_a_cache_keeps_at_most_the_lines_that_cover_its_region(region, cover):
    assert ConstCacheSim(1 << 40, region).tags.size == cover  # not 2**34 tags
    assert ConstCacheSim(64 * cover, region).tags.size == cover
    assert ConstCacheSim(64, region).tags.size == 1


@pytest.mark.parametrize("offset", [-1, 100, 4096])
def test_offset_outside_the_region_raises(offset):
    sim = ConstCacheSim(64, 100)
    with pytest.raises(CacheAccessError):
        sim.access_trace(np.array([0, offset]))
    with pytest.raises(CacheAccessError):
        sim.access_repeated(np.array([0, offset]), 2)
    assert sim.accesses == 0 and (sim.tags == -1).all()

"""Channel dataflow against the sequential pipeline, on both clocks."""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ispbench import dataflow
from ispbench.dataflow import (
    ChannelConfig,
    StageFault,
    run_pipeline_dataflow,
    simulate_chain,
    stage_cost_units,
)
from ispbench.kernels import (
    STAGE_NAMES,
    demosaic,
    denoise,
    gamut_map,
    run_pipeline,
    stage_input,
    tone_index,
)

from _helpers import in_range_params, rand_params, rand_raw, simulate_chain_oracle

SHAPES = [(2, 2), (2, 4), (6, 4), (34, 18)]
KERNELS = {
    "demosaic": "demosaic",
    "denoise": "_median_of_sorted",  # the wall-clock median worker's one merge per row
    "transform": "transform",
    "gamut": "gamut_map",
    "tonemap": "tone_map",
}


def run_joined(fn, timeout=60.0):
    """``fn()`` in a thread; a run that hangs fails the test instead of stalling it."""
    box = {}

    def target():
        try:
            box["value"] = fn()
        except BaseException as exc:  # noqa: BLE001 - handed to the test
            box["error"] = exc

    t = threading.Thread(target=target, daemon=True)
    t.start()
    t.join(timeout)
    assert not t.is_alive(), "dataflow run did not finish"
    return box


@pytest.mark.parametrize("w,h", SHAPES)
def test_wall_output_equals_run_pipeline_bit_for_bit(w, h):
    raw, params = rand_raw(w, h, seed=w * h), rand_params(4)
    ref = run_pipeline(raw, params)
    for depth in (1, 3, 64, w * h + 1):
        result = run_pipeline_dataflow(raw, params, ChannelConfig(depth), clock="wall")
        assert result.image == ref, depth


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf, by design
@pytest.mark.parametrize("h", [2, 18])
def test_wall_output_is_byte_identical_with_non_finite_and_signed_zero_edges(h):
    # PlanarImage == treats NaN as unequal, so compare bytes
    w = 6
    raw, params = rand_raw(w, h, seed=h), rand_params(4)
    special = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0], np.float32)
    m = raw.mosaic
    m[0], m[-1] = np.resize(special, w), np.resize(special[::-1], w)
    m[:, 0], m[:, -1] = np.resize(special[1:], h), np.resize(special[::-2], h)
    # the tone LUT hides the median's NaNs and zero signs, so check the median stage too
    rgb = demosaic(raw)
    worker = dataflow._denoise_rows(h)
    rows = [out for row in rgb.planes.transpose(1, 0, 2) for out in worker(row)]
    assert np.stack(rows, axis=1).tobytes() == denoise(rgb).planes.tobytes()
    assert not np.isfinite(rgb.planes[:, [0, -1]]).all()
    ref = run_pipeline(raw, params).planes.tobytes()
    for depth in (1, w * h + 1):
        result = run_pipeline_dataflow(raw, params, ChannelConfig(depth), clock="wall")
        assert result.image.planes.tobytes() == ref, depth


@pytest.mark.parametrize("h", [2, 4, 18])
def test_wall_median_computes_each_row_once_and_only_that_row(monkeypatch, h):
    w, calls = 8, []

    def recording(name):
        original = getattr(dataflow, name)

        def record(*args):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(dataflow, name, record)

    recording("_sort3")
    recording("_median_of_sorted")
    raw, params = rand_raw(w, h), rand_params(4)
    result = run_pipeline_dataflow(raw, params, ChannelConfig(3), clock="wall")
    assert result.image == run_pipeline(raw, params)
    # one sort per padded row as it arrives, one merge per emitted row
    assert calls.count("_sort3") == h and calls.count("_median_of_sorted") == h


def test_a_wall_run_starts_no_thread(monkeypatch):
    original, seen = dataflow.gamut_map, set()

    def recording(img, gp):
        seen.add((threading.get_ident(), threading.active_count()))
        return original(img, gp)

    monkeypatch.setattr(dataflow, "gamut_map", recording)
    raw, params = rand_raw(16, 12), rand_params(4)
    ref = run_pipeline(raw, params)
    before = threading.active_count()
    for _ in range(20):
        assert run_pipeline_dataflow(raw, params, ChannelConfig(16), clock="wall").image == ref
    assert threading.active_count() == before
    assert seen == {(threading.get_ident(), before)}


@pytest.mark.parametrize("depth", [1, 64, 10_000])
def test_wall_busy_and_blocked_spans_never_overlap(depth):
    # one thread: a stage is busy, blocked or idle at any instant, and only one stage is busy
    raw, params = rand_raw(32, 24), rand_params(16)
    result = run_joined(
        lambda: run_pipeline_dataflow(raw, params, ChannelConfig(depth), clock="wall")
    )["value"]
    rounding = 1 + 1e-12
    for st in result.stats.values():
        spans = st.busy_time + st.blocked_push_time + st.blocked_pop_time
        assert spans <= st.wall_time * rounding, st
    assert sum(st.busy_time for st in result.stats.values()) <= result.makespan * rounding
    assert result.stats["demosaic"].blocked_pop_time == 0.0  # the source never waits for input


def test_both_clocks_name_gamut_the_bottleneck_at_3611_points():
    raw, params = rand_raw(16, 12), rand_params(3611)
    for clock in ("wall", "virtual"):
        stats = run_pipeline_dataflow(raw, params, ChannelConfig(64), clock=clock).stats
        assert max(stats.values(), key=lambda st: st.busy_time).name == "gamut", clock


def test_both_clocks_equal_run_pipeline_at_3611_points_where_the_tone_map_sees_the_gamut():
    raw, params = rand_raw(64, 48), in_range_params(3611)
    ref = run_pipeline(raw, params).planes.tobytes()
    for clock in ("wall", "virtual"):
        result = run_pipeline_dataflow(raw, params, ChannelConfig(64), clock=clock)
        assert result.image.planes.tobytes() == ref, clock
    # not vacuous: the gamut output spreads over the LUT instead of clamping to rows 0 and 255
    mapped = gamut_map(stage_input("gamut", raw, params), params.gamut)
    assert np.unique(tone_index(mapped.planes)).size > 200


@pytest.mark.parametrize("clock", ["wall", "virtual"])
def test_every_stage_counts_every_pixel(clock):
    raw, params = rand_raw(6, 4), rand_params(4)
    result = run_pipeline_dataflow(raw, params, ChannelConfig(3), clock=clock)
    assert list(result.stats) == list(STAGE_NAMES)
    assert all(st.items_processed == 24 for st in result.stats.values())
    assert result.makespan > 0


@pytest.mark.parametrize("depth", [1, 64])
@pytest.mark.parametrize("stage", list(KERNELS))
def test_a_failing_kernel_raises_stage_fault_naming_its_stage(monkeypatch, stage, depth):
    w, h = 6, 8
    fail_on = h // 2 if stage in ("transform", "gamut", "tonemap") else 1
    original = getattr(dataflow, KERNELS[stage])
    calls = 0

    def failing(*args):
        nonlocal calls
        calls += 1
        if calls == fail_on:
            raise RuntimeError(f"fault in {stage}")
        return original(*args)

    monkeypatch.setattr(dataflow, KERNELS[stage], failing)
    raw, params = rand_raw(w, h), rand_params(4)
    box = run_joined(lambda: run_pipeline_dataflow(raw, params, ChannelConfig(depth)))
    assert isinstance(box.get("error"), StageFault), box
    assert box["error"].stage == stage
    assert isinstance(box["error"].cause, RuntimeError)
    assert calls == fail_on


def test_virtual_clock_accounts_for_all_time_exactly():
    raw, params = rand_raw(6, 4), rand_params(4)
    result = run_pipeline_dataflow(raw, params, ChannelConfig(2), clock="virtual")
    assert result.image == run_pipeline(raw, params)
    for st in result.stats.values():
        assert st.busy_time + st.blocked_push_time + st.blocked_pop_time == st.wall_time


def _stats(stats):
    return [
        (s.name, s.items_processed, s.busy_time, s.blocked_push_time, s.blocked_pop_time,
         s.wall_time)
        for s in stats
    ]


def test_simulate_chain_matches_a_hand_computed_depth_1_chain():
    # latencies 1, 3, 2 and one slot per channel: the source's third item is
    # ready at t=3 but waits until t=4, when the middle stage pops item 1;
    # the sink waits 1 unit for items 1 and 2
    stats, makespan = simulate_chain([1.0, 3.0, 2.0], 3, 1, ["a", "b", "c"])
    assert _stats(stats) == [
        ("a", 3, 3.0, 1.0, 0.0, 4.0),
        ("b", 3, 9.0, 0.0, 0.0, 9.0),
        ("c", 3, 6.0, 0.0, 2.0, 8.0),
    ]
    assert makespan == 12.0


@st.composite
def chains(draw):
    """Integer latencies (ties likely) with the bottleneck first, mid-chain or last."""
    k = draw(st.integers(1, 6))
    pool = draw(st.lists(st.integers(1, 200), min_size=1, max_size=3))
    latencies = draw(st.lists(st.sampled_from(pool), min_size=k, max_size=k))
    where = draw(st.sampled_from([0, k // 2, k - 1]))
    latencies[where] = draw(st.integers(max(latencies), 200))
    items = draw(st.integers(1, 3000))
    return [float(v) for v in latencies], items, draw(st.integers(1, items + 5))


@settings(max_examples=60, deadline=None)
@given(case=chains())
@example(case=([145.0, 181.0, 41.0, 73.0, 57.0, 183.0], 1001, 1))  # ~560-block transient
@example(case=([7.0, 7.0, 7.0], 1000, 8))  # tied bottlenecks, items a multiple of depth
@example(case=([3.0, 1.0, 2.0], 1001, 8))  # a trailing partial block after the exit
def test_block_scan_equals_the_item_by_item_loop_exactly(case):
    latencies, items, depth = case
    stats, makespan = simulate_chain(latencies, items, depth)
    want_stats, want_makespan = simulate_chain_oracle(latencies, items, depth)
    assert makespan == want_makespan
    assert _stats(stats) == _stats(want_stats)


@pytest.mark.parametrize("latencies", [[1.0, 2.5], [1.0, float("inf")], [float("nan")]])
def test_non_integral_latencies_raise_value_error(latencies):
    with pytest.raises(ValueError, match="integers"):
        simulate_chain(latencies, 10, 2)


@pytest.mark.parametrize("latencies", [[1.0, 0.0], [-3.0, 2.0]])
def test_non_positive_latencies_raise_value_error(latencies):
    with pytest.raises(ValueError, match="positive"):
        simulate_chain(latencies, 10, 2)


@pytest.mark.parametrize("n", [1, 16, 3611])
def test_virtual_latencies_are_the_fused_loops_access_counts(n):
    assert stage_cost_units(n) == {
        "demosaic": 10.0, "denoise": 30.0, "transform": 15.0, "gamut": 6.0 * n + 18, "tonemap": 9.0
    }


def test_virtual_run_at_128x96_with_16_points_pins_its_makespan():
    result = run_pipeline_dataflow(
        rand_raw(128, 96), rand_params(16), ChannelConfig(64), clock="virtual"
    )
    assert result.makespan == 1400896.0
    assert {name: st.busy_time for name, st in result.stats.items()} == {
        "demosaic": 122880.0, "denoise": 368640.0, "transform": 184320.0, "gamut": 1400832.0,
        "tonemap": 110592.0,
    }
    assert [st.blocked_push_time for st in result.stats.values()] == [
        1255777.0, 1017417.0, 1207809.0, 0.0, 0.0
    ]
    assert [st.blocked_pop_time for st in result.stats.values()] == [0.0, 0.0, 1308.0, 0.0, 1290135.0]


def test_bad_depth_and_unknown_clock_raise_value_error():
    with pytest.raises(ValueError):
        ChannelConfig(0)
    with pytest.raises(ValueError, match="slot"):
        simulate_chain([1.0], 3, 0)
    with pytest.raises(ValueError, match="unknown clock"):
        run_pipeline_dataflow(rand_raw(2, 2), rand_params(4), clock="sundial")

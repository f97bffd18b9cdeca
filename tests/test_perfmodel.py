"""The analytic loop-pipelining model: the II rule, the cycle formula, buffer sizes."""

from __future__ import annotations

import itertools
import math

import pytest

from ispbench.params import PerfModelConfig
from ispbench.perfmodel import (
    KernelDescriptor,
    derive_descriptor,
    estimate,
    estimate_cycles,
    estimate_ii,
)
from ispbench.variants import READONLY_STAGES, VariantConfig, traffic


@pytest.mark.parametrize(
    "restrict, ivdep, carried", list(itertools.product((False, True), repeat=3))
)
def test_ii_is_one_iff_restrict_and_ivdep_without_a_carried_dependence(restrict, ivdep, carried):
    d = KernelDescriptor(
        outer_trip=10, restrict_flag=restrict, ivdep_flag=ivdep,
        has_true_carried_dep=carried, assumed_dep_ii=7,
    )
    assert estimate_ii(d) == (1 if restrict and ivdep and not carried else 7)


@pytest.mark.parametrize("ii", [1, 64])
def test_cycles_of_a_single_pipelined_loop(ii):
    d = KernelDescriptor(outer_trip=1000, pipeline_depth=100, unroll_factor=6)
    assert estimate_cycles(d, ii) == 100 + ii * 999  # unrolling needs an inner loop


@pytest.mark.parametrize("inner, unroll", [(3611, 1), (3611, 6), (17, 5), (5, 6), (1, 1)])
def test_cycles_of_an_outer_loop_around_a_pipelined_inner_loop(inner, unroll):
    d = KernelDescriptor(
        outer_trip=12, inner_trip=inner, unroll_factor=unroll, pipeline_depth=100,
        assumed_dep_ii=64,
    )
    for ii in (1, 64):
        assert estimate_cycles(d, ii) == 12 * (100 + ii * (math.ceil(inner / unroll) - 1))
    assert estimate(d, PerfModelConfig().costs).total_cycles == estimate_cycles(d, 64)


@pytest.mark.parametrize("stage", READONLY_STAGES)
@pytest.mark.parametrize("n", [3, 3611])
def test_buffered_descriptor_holds_the_buffer_that_traffic_counts(stage, n):
    cfg = VariantConfig(fused_rewrite=True, readonly_mode="buffered")
    counted = traffic(stage, cfg, 16, 10, n).buffer_bytes
    assert counted > 0
    assert derive_descriptor(stage, cfg, 16, 10, n).buffer_bytes == counted
    unbuffered = VariantConfig(fused_rewrite=True)
    assert derive_descriptor(stage, unbuffered, 16, 10, n).buffer_bytes == 0

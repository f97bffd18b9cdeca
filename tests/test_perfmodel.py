"""The analytic loop-pipelining model: the II rule, the cycle formula, buffer sizes."""

from __future__ import annotations

import hashlib
import itertools
import json
import math

import pytest

from ispbench.kernels import STAGE_NAMES
from ispbench.params import PerfModelConfig
from ispbench.perfmodel import (
    KernelDescriptor,
    derive_descriptor,
    estimate,
    estimate_cycles,
    estimate_ii,
    rank_variants,
)
from ispbench.variants import (
    NAMED_VARIANTS,
    READONLY_STAGES,
    VariantConfig,
    parse_variant,
    traffic,
    valid_variant_space,
)


@pytest.mark.parametrize("restrict, ivdep", list(itertools.product((False, True), repeat=2)))
def test_ii_is_one_iff_restrict_and_ivdep(restrict, ivdep):
    d = KernelDescriptor(outer_trip=10, restrict_flag=restrict, ivdep_flag=ivdep, assumed_dep_ii=7)
    assert estimate_ii(d) == (1 if restrict and ivdep else 7)


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


def test_rank_of_the_named_gamut_variants_at_sweep_size():
    # the four W rows tie on cycles: RIWB pays for its buffer in resources,
    # and the other three keep their input order
    cfgs = [parse_variant(label) for label in NAMED_VARIANTS["gamut"]]
    ranked = rank_variants("gamut", cfgs, 64, 48, 3611)
    assert [cfg.label() for cfg, _ in ranked] == [
        "RIWB+U6", "RIW", "RIWC", "RIWC_128", "RIWB", "RI", "base"
    ]
    assert [est.total_cycles for _, est in ranked[1:5]] == [11397120] * 4
    units = [est.resource_units for _, est in ranked[1:5]]
    assert units[:3] == [units[0]] * 3 and units[3] > units[0]
    reverse = [cfg.label() for cfg, _ in rank_variants("gamut", cfgs[::-1], 64, 48, 3611)]
    assert reverse[1:5] == ["RIWC_128", "RIWC", "RIW", "RIWB"]


def test_every_estimate_over_the_whole_variant_space_is_pinned():
    # every stage's valid_variant_space ranked at sweep size with the paper's
    # point count and at 768x512 with 16 points; a change to any estimate,
    # or to the rank order, must re-pin this digest on purpose
    digest, count = hashlib.sha256(), 0
    for width, height, n in ((64, 48, 3611), (768, 512, 16)):
        for stage in STAGE_NAMES:
            for cfg, est in rank_variants(stage, valid_variant_space(stage), width, height, n):
                digest.update(json.dumps([cfg.label(), est.as_dict()]).encode())
                count += 1
    assert count == 312
    assert digest.hexdigest() == "6c0b1b5fa34aeb17ea6a30a2059097d83a56a1d55d0e5d272b16efee99d433c0"

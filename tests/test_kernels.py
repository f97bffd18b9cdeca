"""Reference kernels against the scalar oracles in ``_helpers``."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ispbench import kernels
from ispbench.images import PlanarImage
from ispbench.params import GamutParams, ToneLUT

from _helpers import (
    demosaic_oracle,
    denoise_oracle,
    gamut_oracle,
    rand_params,
    rand_planar,
    rand_raw,
    tone_oracle,
    transform_oracle,
)

SHAPES = [(1, 1), (2, 2), (5, 3), (7, 5)]


def bits(img: PlanarImage) -> np.ndarray:
    return img.planes.view(np.uint32)


@pytest.mark.parametrize("w,h", [(2, 2), (4, 6), (6, 4)])
def test_pointwise_and_window_kernels_match_oracles(w, h):
    params = rand_params(4)
    raw = rand_raw(w, h, seed=w + h)  # mosaics have even sides; planar images need not
    img = rand_planar(w + 1, h + 1, seed=w * h, lo=-0.2, hi=1.2)
    assert np.array_equal(bits(kernels.demosaic(raw)), bits(demosaic_oracle(raw)))
    assert np.array_equal(bits(kernels.denoise(img)), bits(denoise_oracle(img)))
    assert np.array_equal(
        bits(kernels.transform(img, params.transform)), bits(transform_oracle(img, params.transform))
    )
    assert kernels.tone_map(img, params.tone) == tone_oracle(img, params.tone)


def three_valued(w: int, h: int, seed: int) -> PlanarImage:
    rng = np.random.default_rng(seed)
    planes = rng.choice(np.array([0.25, 0.5, 0.75], np.float32), size=(3, h, w))
    return PlanarImage(width=w, height=h, planes=planes)


def sorted_median(img: PlanarImage) -> np.ndarray:
    """Edge-replicated 3x3 median through ``np.sort`` (NaN sorts last)."""
    h, w = img.height, img.width
    p = np.pad(img.planes, ((0, 0), (1, 1), (1, 1)), mode="edge")
    stack = np.stack([p[:, dy : dy + h, dx : dx + w] for dy in range(3) for dx in range(3)])
    return np.sort(stack, axis=0)[4]


@pytest.mark.parametrize("w,h", [(1, 1), (1, 5), (5, 1), (2, 2), (7, 5), (34, 18)])
def test_denoise_matches_oracle_bit_for_bit(w, h):
    for img in (rand_planar(w, h, seed=w * h, lo=-0.2, hi=1.2), three_valued(w, h, seed=w + h)):
        assert np.array_equal(bits(kernels.denoise(img)), bits(denoise_oracle(img)))


# strips of 1, 2 and 3 rows
STRIPS = pytest.mark.parametrize(
    "strip", [lambda w: 1, lambda w: 3 * w - 1, lambda w: 3 * w + 1], ids=["1", "3w-1", "3w+1"]
)


@pytest.mark.parametrize("w,h", [(7, 5), (34, 19)])
@STRIPS
def test_denoise_strip_edges(monkeypatch, w, h, strip):
    # strips of 1, 2 and 3 rows; h leaves a shorter last strip for 2 and 3
    monkeypatch.setattr(kernels, "STRIP_PIXELS", strip(w))
    for img in (rand_planar(w, h, seed=3), three_valued(w, h, seed=4)):
        assert np.array_equal(bits(kernels.denoise(img)), bits(denoise_oracle(img)))


@pytest.mark.parametrize("w,h", [(1, 1), (7, 5), (34, 19)])
@STRIPS
def test_denoise_equals_sorted_median_on_the_whole_padded_image(monkeypatch, w, h, strip):
    monkeypatch.setattr(kernels, "STRIP_PIXELS", strip(w))
    rng = np.random.default_rng(w + h)
    planes = rng.choice(np.array([0.0, -0.0, 0.5, np.nan, -np.inf], np.float32), size=(3, h, w))
    img = PlanarImage(width=w, height=h, planes=planes)
    before = planes.tobytes()
    want = sorted_median(img)
    got = kernels.denoise(img).planes
    assert planes.tobytes() == before  # the input is not written
    assert np.array_equal(got, want, equal_nan=True)
    # zeros compare by value: on a +0/-0 tie, np.fmin's SIMD loop can return either
    # operand depending on the element's place in the loop, not on the operands
    # (NumPy 2.4 with AVX-512: over 40 contiguous (+0, -0) pairs, -0 at all but index 32)
    nonzero = got != 0  # NaN included: a NaN median is a window element, payload and all
    assert np.array_equal(got[nonzero].view(np.uint32), want[nonzero].view(np.uint32))


@pytest.mark.parametrize("w,h", [(2, 2), (6, 10), (34, 10)])
@STRIPS
def test_demosaic_strip_edges(monkeypatch, w, h, strip):
    # mosaic heights are even: 3-row strips start on odd rows and leave a 1-row last strip
    monkeypatch.setattr(kernels, "STRIP_PIXELS", strip(w))
    raw = rand_raw(w, h, seed=w * h)
    assert np.array_equal(bits(kernels.demosaic(raw)), bits(demosaic_oracle(raw)))


def special_values(w: int, h: int, seed: int) -> PlanarImage:
    """Random planes with NaN, +-inf and -0.0 mixed in."""
    img = rand_planar(w, h, seed=seed, lo=-0.2, hi=1.2)
    rng = np.random.default_rng(seed)
    specials = np.array([np.nan, np.inf, -np.inf, -0.0], np.float32)
    mask = rng.random(img.planes.shape) < 0.3
    img.planes[mask] = rng.choice(specials, size=int(mask.sum()))
    return img


def transform_by_planes(img: PlanarImage, m) -> np.ndarray:
    """The transform one whole plane at a time."""
    r, g, b = img.planes
    return np.stack([(m.m[c, 0] * r + m.m[c, 1] * g) + m.m[c, 2] * b for c in range(3)])


@pytest.mark.parametrize("w,h", [(1, 1), (7, 5), (34, 19)])
@STRIPS
def test_transform_strip_edges_and_special_values(monkeypatch, w, h, strip):
    # the scalar oracle's inf - inf NaN differs in sign from an array add's, so
    # special values are checked against whole-plane array arithmetic
    monkeypatch.setattr(kernels, "STRIP_PIXELS", strip(w))
    m = rand_params(4).transform
    plain, special = rand_planar(w, h, seed=5, lo=-0.2, hi=1.2), special_values(w, h, seed=6)
    assert kernels.transform(plain, m).planes.tobytes() == transform_oracle(plain, m).planes.tobytes()
    with np.errstate(invalid="ignore"):  # inf - inf
        for img in (plain, special):
            assert kernels.transform(img, m).planes.tobytes() == transform_by_planes(img, m).tobytes()


def tone_by_planes(img: PlanarImage, t: ToneLUT) -> np.ndarray:
    """The tone map one whole plane at a time."""
    return np.stack([t.lut[kernels.tone_index(img.planes[c]), c] for c in range(3)])


@pytest.mark.parametrize("w,h", [(1, 1), (7, 5), (34, 19)])
@STRIPS
def test_tone_map_strip_edges_and_special_values(monkeypatch, w, h, strip):
    monkeypatch.setattr(kernels, "STRIP_PIXELS", strip(w))
    t = rand_params(4).tone
    plain, special = rand_planar(w, h, seed=7, lo=-0.2, hi=1.2), special_values(w, h, seed=8)
    assert kernels.tone_map(plain, t) == tone_oracle(plain, t)
    for img in (plain, special):
        assert kernels.tone_map(img, t).planes.tobytes() == tone_by_planes(img, t).tobytes()
        rows = np.empty((3, h, w), np.int64)
        out = kernels._tone_map_indexed(img, t, rows)
        assert np.array_equal(rows, kernels.tone_index(img.planes))
        assert out.planes.tobytes() == tone_by_planes(img, t).tobytes()


@pytest.mark.parametrize("kernel", ["demosaic", "denoise", "transform", "tone_map"])
def test_cheap_kernels_allocate_under_half_their_output_besides_it(kernel):
    # 768x512: strip scratch, not frame-sized temporaries
    params = rand_params(4)
    raw, img = rand_raw(768, 512), rand_planar(768, 512, lo=-0.2, hi=1.2)
    args = {
        "demosaic": (raw,),
        "denoise": (img,),
        "transform": (img, params.transform),
        "tone_map": (img, params.tone),
    }[kernel]
    tracemalloc.start()
    try:
        out = getattr(kernels, kernel)(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - out.planes.nbytes < out.planes.nbytes / 2


@pytest.mark.parametrize("w,h", [(1, 1), (2, 2), (7, 5), (34, 18)])
def test_denoise_orders_nan_last_like_sort(w, h):
    rng = np.random.default_rng(w * h)
    planes = rng.choice(np.array([np.nan, np.inf, -np.inf, 0.5, 1.0], np.float32), size=(3, h, w))
    planes[rng.random((3, h, w)) < 0.5] = np.nan
    img = PlanarImage(width=w, height=h, planes=planes)
    assert np.array_equal(kernels.denoise(img).planes, sorted_median(img), equal_nan=True)


def test_denoise_signed_zero_ties_equal_oracle_by_value():
    # the sign of a zero median is unspecified when its window holds both zeros
    rng = np.random.default_rng(6)
    planes = rng.choice(np.array([0.0, -0.0, 1.0], np.float32), size=(3, 8, 24))
    img = PlanarImage(width=24, height=8, planes=planes)
    assert np.all(kernels.denoise(img).planes == denoise_oracle(img).planes)


@pytest.mark.parametrize("n", [1, 3, 17])
@pytest.mark.parametrize("w,h", SHAPES)
def test_gamut_matches_oracle_bit_for_bit(w, h, n):
    img = rand_planar(w, h, seed=10 * w + h, lo=-0.5, hi=1.5)
    gp = rand_params(n, seed=n).gamut
    assert np.array_equal(bits(kernels.gamut_map(img, gp)), bits(gamut_oracle(img, gp)))


@pytest.mark.parametrize("n", [3, 17])
def test_gamut_chunk_and_point_block_edges(monkeypatch, n):
    # 15 pixels in chunks of 4 (last chunk 3); blocks of 2 points (last block 1)
    monkeypatch.setattr(kernels, "CHUNK_PIXELS", 4)
    monkeypatch.setattr(kernels, "BLOCK_SLOTS", 8)
    img = rand_planar(5, 3, seed=2)
    gp = rand_params(n, seed=5).gamut
    assert np.array_equal(bits(kernels.gamut_map(img, gp)), bits(gamut_oracle(img, gp)))


@settings(max_examples=80, deadline=None)
@given(
    w=st.integers(1, 12),
    h=st.integers(1, 12),
    n=st.integers(1, 40),
    unroll=st.sampled_from([1, 2, 5, 6]),
    channels=st.sampled_from([(0, 1, 2), (0,), (1,), (2,)]),
    chunk=st.integers(1, 20),
    slots=st.integers(1, 60),
    seed=st.integers(0, 2**16),
)
def test_gamut_point_major_matches_oracle_at_any_chunk_block_and_lane_split(
    w, h, n, unroll, channels, chunk, slots, seed
):
    img = rand_planar(w, h, seed=seed, lo=-0.5, hi=1.5)
    gp = rand_params(n, seed=seed).gamut
    want = gamut_oracle(img, gp, unroll=unroll).planes.reshape(3, -1)[list(channels)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "CHUNK_PIXELS", chunk)
        mp.setattr(kernels, "BLOCK_SLOTS", slots)
        got = kernels.gamut_point_major(img.planes.reshape(3, -1), gp, channels, unroll)
    assert np.array_equal(got.view(np.uint32), want.view(np.uint32))


@pytest.mark.parametrize(
    "n, unroll, channels",
    [pytest.param(1, 1, (0, 1, 2), id="1"), pytest.param(2, 1, (0, 1, 2), id="2")]
    + [
        pytest.param(n, 2, ch, id=f"u2-n{n}-c{len(ch)}")
        for n in (1, 2, 3)
        for ch in ((0, 1, 2), (1,))
    ]
    + [pytest.param(2, 1, (1,), id="2-c1")],
)
def test_gamut_keeps_a_negative_zero_first_term(n, unroll, channels):
    # every point sits on the pixel, so each weighted distance is w * 0 = -0.0;
    # each lane starts from its first term, and only a lane with no points
    # (n < unroll) is +0.0, which the fold adds. The unrolled oracle starts
    # every lane at +0.0, so it is no reference here.
    img = rand_planar(1, 1, seed=4)
    pixel = img.planes[:, 0, 0]
    gp = GamutParams(
        ctrl_pts=np.tile(pixel, (n, 1)),
        weights=np.full((n, 3), -0.5, np.float32),
        coefs=np.full((4, 3), -0.0, np.float32),
    )
    out = kernels.gamut_point_major(img.planes.reshape(3, 1), gp, channels, unroll)
    assert out.shape == (len(channels), 1)
    assert np.all(out == 0) and np.all(np.signbit(out) == (n >= unroll))


def test_tone_index_maps_non_finite_values_to_defined_rows():
    values = np.array([np.nan, np.inf, -np.inf, -0.3, 0.5, 2.0], np.float32)
    assert kernels.tone_index(values).tolist() == [0, 255, 0, 0, 128, 255]


def test_tone_index_equals_rounding_half_away_from_zero():
    # every 4099th float32 bit pattern (both signs, subnormals, NaNs), the infinities,
    # and the exact ties v * 255 == k + 0.5 of every row k, which the stride misses
    pattern = np.arange(0, 2**32, 4099, dtype=np.uint64).astype(np.uint32).view(np.float32)
    ties = (np.arange(256, dtype=np.float32) + np.float32(0.5)) / np.float32(255.0)
    values = np.concatenate([pattern, np.float32([np.inf, -np.inf, -0.0]), ties, -ties])
    with np.errstate(over="ignore", invalid="ignore"):  # large values, signalling NaNs
        x = values * np.float32(255.0)
        rounded = np.sign(x) * np.floor(np.abs(x) + np.float32(0.5))  # ties away from zero
        old = np.fmin(np.fmax(rounded, 0.0), 255.0)
        assert np.array_equal(kernels.tone_index(values), old.astype(np.int64))


def test_tone_map_accepts_nan_pixels():
    planes = np.full((3, 1, 2), np.nan, np.float32)
    planes[:, 0, 1] = np.inf
    lut = ToneLUT(np.arange(256 * 3, dtype=np.float32).reshape(256, 3))
    out = kernels.tone_map(PlanarImage(width=2, height=1, planes=planes), lut).planes
    assert out[:, 0, 0].tolist() == lut.lut[0].tolist()
    assert out[:, 0, 1].tolist() == lut.lut[255].tolist()


def hand_chain(raw, params) -> list:
    """The raw input, then each stage's output: the public kernels called one by one."""
    mosaic = kernels.demosaic(raw)
    median = kernels.denoise(mosaic)
    balanced = kernels.transform(median, params.transform)
    mapped = kernels.gamut_map(balanced, params.gamut)
    return [raw, mosaic, median, balanced, mapped, kernels.tone_map(mapped, params.tone)]


def as_bytes(data) -> bytes:
    return (data.planes if isinstance(data, PlanarImage) else data.mosaic).tobytes()


def test_stage_input_and_reference_stage_equal_the_kernels_chained_by_hand():
    raw, params = rand_raw(8, 6, seed=3), rand_params(5)
    chain = hand_chain(raw, params)
    for i, stage in enumerate(kernels.STAGE_NAMES):
        data = kernels.stage_input(stage, raw, params)
        assert as_bytes(data) == as_bytes(chain[i]), stage
        assert as_bytes(kernels.reference_stage(stage, data, params)) == as_bytes(chain[i + 1])
    assert as_bytes(kernels.run_pipeline(raw, params)) == as_bytes(chain[-1])


@pytest.mark.parametrize("stage", ["sharpen", "pipeline", ""])
def test_unknown_stage_raises_value_error(stage):
    raw, params = rand_raw(4, 4), rand_params(3)
    with pytest.raises(ValueError, match="unknown stage"):
        kernels.stage_input(stage, raw, params)
    with pytest.raises(ValueError, match="unknown stage"):
        kernels.reference_stage(stage, kernels.demosaic(raw), params)


def test_run_pipeline_times_every_stage_in_order():
    raw, params = rand_raw(8, 6), rand_params(5)
    img, times = kernels.run_pipeline(raw, params, with_times=True)
    assert list(times) == list(kernels.STAGE_NAMES)
    assert all(t >= 0 for t in times.values())
    assert as_bytes(img) == as_bytes(kernels.run_pipeline(raw, params))


def test_the_chain_looks_each_kernel_up_at_call_time(monkeypatch):
    # tracers replace kernels by module attribute, so the chain must not hold function objects
    original, calls = kernels.gamut_map, []

    def counted(img, gp):
        calls.append(img.width)
        return original(img, gp)

    monkeypatch.setattr(kernels, "gamut_map", counted)
    raw, params = rand_raw(4, 4), rand_params(3)
    kernels.run_pipeline(raw, params)
    assert len(calls) == 1
    data = kernels.stage_input("tonemap", raw, params)
    assert len(calls) == 2
    kernels.reference_stage("gamut", kernels.stage_input("gamut", raw, params), params)
    assert len(calls) == 3
    assert as_bytes(data) == as_bytes(hand_chain(raw, params)[4])

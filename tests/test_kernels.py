"""Reference kernels against the scalar oracles in ``_helpers``."""

from __future__ import annotations

import ctypes
import hashlib
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ispbench import kernels
from ispbench.images import PlanarImage, RawBayerImage, tone_index
from ispbench.params import GamutParams, ToneLUT, TransformMatrix, random_gamut
from ispbench.variants import sample

from _helpers import (
    GAMUT_BLOCK,
    F,
    GAMUT_SOURCE,
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


def channel(rows: tuple) -> int | None:
    """``gamut_flat``'s channel for the output rows ``rows``: all three, or one."""
    return None if rows == (0, 1, 2) else rows[0]


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


# the input is a strip cut from a larger buffer: its rows are 3 elements
# longer than the image, its planes a row apart, and it starts 1, 3w - 1 or
# 3w + 1 elements into the buffer, so its rows start off the vector alignment
STRIPS = pytest.mark.parametrize(
    "strip", [lambda w: 1, lambda w: 3 * w - 1, lambda w: 3 * w + 1], ids=["1", "3w-1", "3w+1"]
)


def cut_strip(a: np.ndarray, offset: int) -> np.ndarray:
    """``a`` (..., h, w) copied into a view of a larger buffer, starting ``offset`` elements in."""
    *lead, h, w = a.shape
    padded = (*lead, h + 1, w + 3)
    buf = np.full(offset + int(np.prod(padded)), np.nan, np.float32)
    view = buf[offset:].reshape(padded)[..., :h, :w]
    view[...] = a
    return view


def strip_image(img: PlanarImage, offset: int) -> PlanarImage:
    return PlanarImage(width=img.width, height=img.height, planes=cut_strip(img.planes, offset))


@pytest.mark.parametrize("w,h", [(7, 5), (34, 19)])
@STRIPS
def test_denoise_strip_edges(w, h, strip):
    for img in (rand_planar(w, h, seed=3), three_valued(w, h, seed=4)):
        got = kernels.denoise(strip_image(img, strip(w)))
        assert np.array_equal(bits(got), bits(denoise_oracle(img)))


@pytest.mark.parametrize("w,h", [(1, 1), (7, 5), (34, 19)])
@STRIPS
def test_denoise_equals_sorted_median_on_the_whole_padded_image(w, h, strip):
    rng = np.random.default_rng(w + h)
    planes = rng.choice(np.array([0.0, -0.0, 0.5, np.nan, -np.inf], np.float32), size=(3, h, w))
    img = strip_image(PlanarImage(width=w, height=h, planes=planes), strip(w))
    before = img.planes.base.tobytes()
    want = sorted_median(img)
    got = kernels.denoise(img).planes
    assert img.planes.base.tobytes() == before  # the input is not written
    assert np.array_equal(got, want, equal_nan=True)
    # zeros compare by value: on a +0/-0 tie the network keeps an exchange's
    # first operand, np.sort the stable order
    nonzero = got != 0  # NaN included: a NaN median is a window element, payload and all
    assert np.array_equal(got[nonzero].view(np.uint32), want[nonzero].view(np.uint32))


@pytest.mark.parametrize("w,h", [(2, 2), (6, 10), (34, 10)])
@STRIPS
def test_demosaic_strip_edges(w, h, strip):
    raw = rand_raw(w, h, seed=w * h)
    cut = RawBayerImage(width=w, height=h, mosaic=cut_strip(raw.mosaic, strip(w)))
    assert np.array_equal(bits(kernels.demosaic(cut)), bits(demosaic_oracle(raw)))


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
def test_transform_strip_edges_and_special_values(w, h, strip):
    # the scalar oracle's inf - inf NaN differs in sign from an array add's, so
    # special values are checked against whole-plane array arithmetic
    m = rand_params(4).transform
    plain, special = rand_planar(w, h, seed=5, lo=-0.2, hi=1.2), special_values(w, h, seed=6)
    got = kernels.transform(strip_image(plain, strip(w)), m)
    assert got.planes.tobytes() == transform_oracle(plain, m).planes.tobytes()
    with np.errstate(invalid="ignore"):  # inf - inf
        for img in (plain, special):
            got = kernels.transform(strip_image(img, strip(w)), m)
            assert got.planes.tobytes() == transform_by_planes(img, m).tobytes()


def tone_by_planes(img: PlanarImage, t: ToneLUT) -> np.ndarray:
    """The tone map one whole plane at a time."""
    return np.stack([t.lut[tone_index(img.planes[c]), c] for c in range(3)])


@pytest.mark.parametrize("w,h", [(1, 1), (7, 5), (34, 19)])
@STRIPS
def test_tone_map_strip_edges_and_special_values(w, h, strip):
    t = rand_params(4).tone
    plain, special = rand_planar(w, h, seed=7, lo=-0.2, hi=1.2), special_values(w, h, seed=8)
    assert kernels.tone_map(strip_image(plain, strip(w)), t) == tone_oracle(plain, t)
    for img in (plain, special):
        got = kernels.tone_map(strip_image(img, strip(w)), t)
        assert got.planes.tobytes() == tone_by_planes(img, t).tobytes()


def test_cheap_kernels_copy_an_input_whose_row_pixels_are_not_adjacent():
    # reversed columns (a negative pixel stride) and a Fortran-order mosaic
    params = rand_params(4)
    img = rand_planar(9, 4, seed=2, lo=-0.2, hi=1.2)
    flipped = PlanarImage(width=9, height=4, planes=img.planes[:, :, ::-1])
    plain = PlanarImage(width=9, height=4, planes=flipped.planes.copy())
    for kernel, args in (
        ("denoise", ()), ("transform", (params.transform,)), ("tone_map", (params.tone,))
    ):
        got = getattr(kernels, kernel)(flipped, *args).planes
        assert got.tobytes() == getattr(kernels, kernel)(plain, *args).planes.tobytes(), kernel
    raw = rand_raw(6, 4, seed=1)
    fortran = RawBayerImage(width=6, height=4, mosaic=np.asfortranarray(raw.mosaic))
    assert kernels.demosaic(fortran).planes.tobytes() == kernels.demosaic(raw).planes.tobytes()


def test_median_rows_make_any_row_range_and_reject_one_outside_the_planes():
    img = rand_planar(5, 4, seed=3, lo=-0.2, hi=1.2)
    whole = kernels.denoise(img).planes
    for y0, y1 in [(0, 0), (0, 1), (1, 3), (3, 4), (0, 4)]:
        got = kernels._median_rows(img.planes, y0, y1)
        assert got.height == y1 - y0 and got.planes.tobytes() == whole[:, y0:y1].tobytes()
    for planes, y0, y1 in [(img.planes, -1, 1), (img.planes, 2, 1), (img.planes, 0, 5),
                           (img.planes, 5, 5), (img.planes[:2], 0, 1)]:
        with pytest.raises(ValueError, match="y0 <= y1"):  # it would read outside the planes
            kernels._median_rows(planes, y0, y1)


# widths on either side of the compiled loops' 16- and 64-float vector steps
VECTOR_WIDTHS = [1, 2, 15, 16, 17, 63, 64, 65]


@pytest.mark.parametrize("w", VECTOR_WIDTHS)
def test_cheap_kernels_match_oracles_at_vector_widths(w):
    params = rand_params(4)
    m, t = params.transform, params.tone
    for h in (1, 2, 3, 5):
        plain = rand_planar(w, h, seed=w * h, lo=-0.2, hi=1.2)
        special = special_values(w, h, seed=w + h)
        assert np.array_equal(bits(kernels.denoise(plain)), bits(denoise_oracle(plain))), h
        got = kernels.denoise(special).planes
        assert np.array_equal(got, sorted_median(special), equal_nan=True), h
        assert np.array_equal(
            bits(kernels.transform(plain, m)), bits(transform_oracle(plain, m))
        ), h
        assert kernels.tone_map(plain, t) == tone_oracle(plain, t), h
        with np.errstate(invalid="ignore"):  # inf - inf
            got = kernels.transform(special, m).planes
            assert got.tobytes() == transform_by_planes(special, m).tobytes(), h
        assert kernels.tone_map(special, t).planes.tobytes() == tone_by_planes(special, t).tobytes()


@pytest.mark.parametrize("w", [2, 14, 16, 18, 62, 64, 66])
def test_demosaic_matches_oracle_at_vector_widths(w):
    for h in (2, 4, 6):
        raw = rand_raw(w, h, seed=w * h)
        assert np.array_equal(bits(kernels.demosaic(raw)), bits(demosaic_oracle(raw))), h


def test_a_transposed_matrix_is_stored_row_by_row():
    x = np.arange(9, dtype=np.float32).reshape(3, 3).T / 8
    assert x.dtype == np.float32 and not x.flags.c_contiguous
    m = TransformMatrix(x)
    assert m.m.flags.c_contiguous and np.array_equal(m.m, x)
    img = rand_planar(5, 3, seed=4, lo=-0.2, hi=1.2)
    assert np.array_equal(bits(kernels.transform(img, m)), bits(transform_oracle(img, m)))


def test_every_kernel_makes_one_call_through_the_one_path(monkeypatch):
    calls = []
    original = kernels._call

    def counted(entry, *args):
        calls.append(entry)
        return original(entry, *args)

    monkeypatch.setattr(kernels, "_call", counted)
    params, raw, img = rand_params(4), rand_raw(6, 4), rand_planar(6, 4)
    for name, entry, run in [
        ("demosaic", kernels._lib.demosaic, lambda: kernels.demosaic(raw)),
        ("denoise", kernels._lib.denoise, lambda: kernels.denoise(img)),
        ("transform", kernels._lib.transform, lambda: kernels.transform(img, params.transform)),
        ("gamut", kernels._lib.gamut, lambda: kernels.gamut_map(img, params.gamut)),
        ("tone_map", kernels._lib.tone_map, lambda: kernels.tone_map(img, params.tone)),
    ]:
        calls.clear()
        run()
        assert calls == [entry], name


def test_transform_does_not_fuse_a_multiply_into_its_add():
    # pixel (3, 3, 3) and w1 = 1 + 2^-23: -3 + fl(3 * w1) = 2^-21 in rows 0
    # and 1, while a fused multiply-add rounds once to 3 * 2^-23
    w1 = np.float32(1 + 2**-23)
    assert np.float64(-3) + np.float64(3) * np.float64(w1) == 3 * 2**-23  # exact
    m = TransformMatrix(np.array([[-1, w1, 0], [0, -1, w1], [w1, 0, -1]], np.float32))
    img = PlanarImage(width=1, height=1, planes=np.full((3, 1, 1), 3, np.float32))
    out = kernels.transform(img, m).planes.ravel()
    assert out.tolist() == [2**-21] * 3
    assert np.array_equal(out.view(np.uint32), bits(transform_oracle(img, m)).ravel())


def test_demosaic_sums_its_neighbors_in_the_documented_order():
    # R site (2, 2) with up 1, down and left 2^-24, right 0: up, down, left,
    # right rounds 1 + 2^-24 to 1 twice, so G is 0.25; summed right to left,
    # the two 2^-24 would add to 2^-23 first and G would be 0.25 + 2^-25
    mosaic = np.zeros((6, 6), np.float32)
    mosaic[1, 2], mosaic[3, 2], mosaic[2, 1] = 1, 2**-24, 2**-24
    raw = RawBayerImage(width=6, height=6, mosaic=mosaic)
    right_to_left = ((F(0) + F(2**-24)) + F(2**-24)) + F(1)
    assert right_to_left * F(0.25) == F(0.25 + 2**-25)
    got = kernels.demosaic(raw)
    assert got.planes[1, 2, 2] == F(0.25)
    assert np.array_equal(bits(got), bits(demosaic_oracle(raw)))


def test_tone_map_rows_equal_tone_index_at_every_rounding_edge():
    # the 5 float32 values either side of each (k + 0.5) / 255 (k = 0..255),
    # the exact quotient's float32, and NaN, +-inf, +-0, subnormals and +-1e30
    edges = (np.arange(256) + 0.5) / 255
    near = edges.astype(np.float32)
    steps = [near]
    for direction in (np.inf, -np.inf):
        v = near
        for _ in range(5):
            v = np.nextafter(v, np.float32(direction))
            steps.append(v)
    special = np.float32([np.nan, np.inf, -np.inf, 0.0, -0.0, 1e-40, -1e-40, 1e-45, 1e30, -1e30])
    values = np.concatenate(steps + [special])
    # LUT row k holds k + 1000 * channel, so the output names the row it read
    lut = ToneLUT(np.arange(256)[:, None] + 1000.0 * np.arange(3))
    img = PlanarImage(width=values.size, height=1, planes=np.tile(values, (3, 1, 1)))
    with np.errstate(over="ignore"):  # 1e30 * 255
        want = tone_index(values)
    got = kernels.tone_map(img, lut).planes[:, 0]
    assert np.array_equal(got, want + 1000.0 * np.arange(3)[:, None])
    assert set(want[-len(special):]) == {0, 255} and np.unique(want).size == 256


@pytest.mark.parametrize("kernel", ["demosaic", "denoise", "transform", "tone_map"])
def test_cheap_kernels_allocate_under_half_their_output_besides_it(kernel):
    # 768x512: the compiled loops allocate no scratch; what a call allocates
    # besides its output is Python objects
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
    assert peak - out.planes.nbytes < min(out.planes.nbytes / 2, 4096)


@pytest.mark.parametrize("channels, unroll", [((0, 1, 2), 1), ((1,), 6)])
def test_gamut_point_major_allocates_only_its_output_and_one_scratch_block(
    monkeypatch, channels, unroll
):
    # the scratch block is the compiled loop's fixed rgb/acc/lane arrays of
    # BLOCK pixels on the C stack; on the heap, with NumPy's ufunc buffers cut
    # to 16 elements, what a call allocates besides its one np.empty block is
    # Python objects, the same at any row width: no per-point or per-bias
    # temporaries
    gp, real_empty, blocks, excess = rand_params(16, seed=1).gamut, np.empty, [], {}

    def empty(*args, **kwargs):
        blocks.append(real_empty(*args, **kwargs))
        return blocks[-1]

    bufsize = np.getbufsize()
    for w in (128, 2048):
        flat = rand_planar(w, 1, seed=w).planes.reshape(3, w)
        kernels.gamut_flat(flat, gp, channel(channels), unroll)
        blocks.clear()
        monkeypatch.setattr(np, "empty", empty)
        np.setbufsize(16)
        tracemalloc.start()
        try:
            out = kernels.gamut_flat(flat, gp, channel(channels), unroll)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            np.setbufsize(bufsize)
            monkeypatch.undo()
        assert len(blocks) == 1 and blocks[0] is out
        excess[w] = peak - out.nbytes
    assert abs(excess[2048] - excess[128]) < 512, excess


@pytest.mark.parametrize("bad", [3, -1, (0,), (0, 1, 2), "1"])
def test_gamut_flat_rejects_a_channel_other_than_none_0_1_or_2(bad):
    flat = rand_planar(4, 1).planes.reshape(3, 4)
    with pytest.raises(ValueError, match="channel must be"):
        kernels.gamut_flat(flat, rand_params(3).gamut, bad)


@pytest.mark.parametrize("shape, unroll", [((3, 4), 0), ((3, 4), -1), ((2, 4), 1), ((12,), 1)])
def test_gamut_point_major_rejects_other_shapes_and_unroll_below_one(shape, unroll):
    # the compiled loop would read past the planes or never end
    with pytest.raises(ValueError, match="unroll >= 1"):
        kernels.gamut_flat(np.zeros(shape, np.float32), rand_params(3).gamut, 0, unroll)


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


# 1, B - 1, B, B + 1 and 2B + 1 pixels for the compiled loop's B-pixel blocks
EDGE_PIXELS = [1, GAMUT_BLOCK - 1, GAMUT_BLOCK, GAMUT_BLOCK + 1, 2 * GAMUT_BLOCK + 1]


@pytest.mark.parametrize("n", [3, 17])
def test_gamut_chunk_and_point_block_edges(n):
    # each pixel count as one row, as a row view whose channels sit further
    # apart than the row is long (the dataflow mode's rows), and as one whose
    # pixels are not adjacent (copied first)
    gp = rand_params(n, seed=5).gamut
    for k in EDGE_PIXELS:
        img = rand_planar(k, 1, seed=k)
        want = bits(gamut_oracle(img, gp))
        assert np.array_equal(bits(kernels.gamut_map(img, gp)), want), k
        wide = np.zeros((3, k + 5), np.float32)
        wide[:, :k] = img.planes[:, 0]
        got = kernels.gamut_flat(wide[:, :k], gp)
        assert np.array_equal(got.view(np.uint32), want.reshape(3, k)), k
        spread = np.zeros((3, 2 * k), np.float32)
        spread[:, ::2] = img.planes[:, 0]
        got = kernels.gamut_flat(spread[:, ::2], gp)
        assert np.array_equal(got.view(np.uint32), want.reshape(3, k)), k


def test_gamut_reads_params_given_in_column_major_order():
    gp = rand_params(17, seed=5).gamut
    cm = GamutParams(*(np.asfortranarray(a) for a in (gp.ctrl_pts, gp.weights, gp.coefs)))
    img = rand_planar(9, 2, seed=1)
    assert np.array_equal(bits(kernels.gamut_map(img, cm)), bits(kernels.gamut_map(img, gp)))


@settings(max_examples=80, deadline=None)
@given(
    k=st.sampled_from(EDGE_PIXELS),
    n=st.integers(1, 40),
    unroll=st.sampled_from([1, 2, 5, 6, 7]),
    channels=st.sampled_from([(0, 1, 2), (0,), (1,), (2,)]),
    seed=st.integers(0, 2**16),
)
def test_gamut_point_major_matches_oracle_at_any_chunk_block_and_lane_split(
    k, n, unroll, channels, seed
):
    img = rand_planar(k, 1, seed=seed, lo=-0.5, hi=1.5)
    gp = rand_params(n, seed=seed).gamut
    want = gamut_oracle(img, gp, unroll=unroll).planes.reshape(3, -1)[list(channels)]
    got = kernels.gamut_flat(img.planes.reshape(3, -1), gp, channel(channels), unroll)
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
    out = kernels.gamut_flat(img.planes.reshape(3, 1), gp, channel(channels), unroll)
    assert out.shape == (len(channels), 1)
    assert np.all(out == 0) and np.all(np.signbit(out) == (n >= unroll))


@pytest.mark.parametrize("channels", [(0, 1, 2), (1,)])
@pytest.mark.parametrize("n", [1, 2, 3, 7, 40])
def test_gamut_lanes_past_the_last_point_change_no_bit(n, channels):
    # a lane past point n holds no point: the first adds +0.0 and the rest
    # change nothing, so the loop stops at n + 1 lanes. The oracle walks every
    # lane and starts each at +0.0, which gives the same bits once the fold
    # holds an empty lane.
    rng = np.random.default_rng(n)
    pixels = rng.random((3, 8), dtype=np.float32)
    pixels[:, 1] = -0.0
    pts = rng.random((n, 3), dtype=np.float32)
    pts[0] = pixels[:, 0]  # a zero distance
    weights = rng.random((n, 3), dtype=np.float32) - np.float32(0.5)
    weights[-1] = -0.0
    gp = GamutParams(pts, weights, np.full((4, 3), -0.0, np.float32))
    img = PlanarImage(width=8, height=1, planes=pixels.reshape(3, 1, 8))
    lanes = kernels.gamut_flat(pixels, gp, channel(channels), n + 1).view(np.uint32)
    for unroll in (n + 2, n + 5, 3 * n + 7):
        want = gamut_oracle(img, gp, unroll=unroll).planes.reshape(3, 8)[list(channels)]
        assert np.array_equal(lanes, want.view(np.uint32)), unroll
    for unroll in (10**6, 2**63 - 1):  # each would walk its lanes for every pixel block
        got = kernels.gamut_flat(pixels, gp, channel(channels), unroll)
        assert np.array_equal(got.view(np.uint32), lanes), unroll


def ieee_gamut(pixels: np.ndarray, weights: np.ndarray, unroll: int):
    """The kernel's and the oracle's bits on ``pixels`` (3, k) with ``weights`` (n, 3)."""
    n, k = len(weights), pixels.shape[1]
    rng = np.random.default_rng(n)
    gp = GamutParams(rng.random((n, 3)), weights, rng.random((4, 3)) + 0.5)  # no zero coef
    img = PlanarImage(width=k, height=1, planes=pixels.reshape(3, 1, k).astype(np.float32))
    with np.errstate(all="ignore"):
        want = gamut_oracle(img, gp, unroll=unroll).planes.reshape(3, k)
    got = kernels.gamut_flat(pixels.astype(np.float32), gp, None, unroll)
    return got.view(np.uint32), want.view(np.uint32)


TINY = np.float32(1e-40)  # subnormal


@pytest.mark.parametrize("unroll", [1, 3])
@pytest.mark.parametrize(
    "special",
    [np.nan, np.inf, -np.inf, TINY, -TINY],
    ids=["nan", "inf", "-inf", "subnormal", "-subnormal"],
)
def test_gamut_bits_equal_oracle_on_non_finite_and_subnormal_pixels(special, unroll):
    # each pixel has the special value in no, one or all channels; a NaN
    # output has one source per pixel (the coefs are nonzero, so no 0 * inf)
    k = 2 * GAMUT_BLOCK + 3
    pixels = np.random.default_rng(1).random((3, k)).astype(np.float32)
    pixels[0, 1::4] = special
    pixels[1, 2::4] = special
    pixels[:, 3::4] = special
    got, want = ieee_gamut(pixels, np.random.default_rng(2).random((7, 3)) - 0.5, unroll)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("unroll", [1, 3])
def test_gamut_bits_equal_oracle_on_subnormal_and_overflowing_weights(unroll):
    # subnormal weights make subnormal terms; weights near the float32 maximum
    # overflow to +-inf terms, and opposite infinities in a lane make a NaN
    # (non-finite weights themselves are rejected by GamutParams)
    big = np.finfo(np.float32).max / 2
    weights = np.array(
        [[TINY, -TINY, 3 * TINY], [big, -TINY, TINY], [-big, TINY, big], [TINY, big, -big]],
        np.float32,
    )
    pixels = np.random.default_rng(3).random((3, GAMUT_BLOCK + 1)) * 4 - 2
    pixels[:, ::5] = TINY  # subnormal distances' squares underflow
    got, want = ieee_gamut(pixels, weights, unroll)
    assert np.array_equal(got, want)


def test_gamut_does_not_fuse_a_multiply_into_its_add():
    # two points at distance 3 from the pixel, channel 0 weights -1 and
    # 1 + 2^-23: the second add is -3 + fl(3 * (1 + 2^-23)) = 2^-21, while a
    # fused multiply-add rounds once to 3 * 2^-23
    w1 = np.float32(1 + 2**-23)
    exact = np.float64(-3) + np.float64(3) * np.float64(w1)  # exact in float64
    assert np.float32(exact) != np.float32(-3) + np.float32(3) * w1
    gp = GamutParams(
        ctrl_pts=np.full((2, 3), 0.5) + [[3, 0, 0]],
        weights=[[-1, 0, 0], [w1, 0, 0]],
        coefs=np.zeros((4, 3)),
    )
    out = kernels.gamut_flat(np.full((3, 1), 0.5, np.float32), gp)
    assert out[0, 0] == np.float32(2**-21)


def test_importing_ispbench_leaves_subnormals_on():
    # a library built with -ffast-math sets flush-to-zero for the whole process
    import ispbench  # noqa: F401

    kernels.gamut_flat(np.zeros((3, 1), np.float32), rand_params(3).gamut)
    assert np.float32(1e-40) * np.float32(1) != 0


def exported_functions(source: str) -> dict[str, list[str]]:
    """The non-``static`` functions a C source defines: name -> its parameters."""
    text = re.sub(r"/\*.*?\*/|^#[^\n]*", "", source, flags=re.S | re.M)
    found, depth, start = {}, 0, 0
    for i, ch in enumerate(text):
        if ch == "{" and depth == 0:
            head = re.fullmatch(r"\s*(.*?)\b(\w+)\s*\((.*)\)\s*", text[start:i], re.S)
            if head and "static" not in head[1].split():
                found[head[2]] = [p.strip() for p in head[3].split(",")]
        depth += (ch == "{") - (ch == "}")
        if ch in ";}" and depth == 0:
            start = i + 1
    return found


def test_the_ctypes_table_matches_the_c_signatures():
    # a stale entry makes ctypes pass the wrong arguments without any error
    exported = exported_functions(GAMUT_SOURCE.read_text())
    assert sorted(exported) == ["demosaic", "denoise", "gamut", "tone_map", "transform"]
    for name, params in exported.items():
        want = [ctypes.c_void_p if "*" in p else ctypes.c_long for p in params]
        assert all("*" in p or p.split()[:-1] == ["long"] for p in params), (name, params)
        assert getattr(kernels._lib, name).argtypes == want, name


def test_a_missing_compiler_is_an_import_error_that_names_it(tmp_path):
    with pytest.raises(ImportError, match="no-such-cc"):
        kernels._build(GAMUT_SOURCE, tmp_path / "kernels.so", cc="no-such-cc")
    assert list(tmp_path.iterdir()) == []


def test_a_failed_compile_is_an_import_error_with_the_compiler_output(tmp_path):
    source = tmp_path / "broken.c"
    source.write_text("void gamut(void) { syntax error }\n")
    with pytest.raises(ImportError, match=r"(?s)cc -O3 .*broken\.c.*error"):
        kernels._build(source, tmp_path / "broken.so")
    assert list(tmp_path.iterdir()) == [source]


# run in a fresh interpreter: the gamut of a fixed 77-pixel image, as a digest
GAMUT_CHILD = """\
import hashlib, sys
import numpy as np
from ispbench import kernels
from ispbench.params import random_gamut
assert kernels.__file__.startswith(sys.argv[1]), kernels.__file__
flat = np.random.default_rng(0).random((3, 77), dtype=np.float32)
out = kernels.gamut_flat(flat, random_gamut(40, 7), None, 3)
print(hashlib.sha256(out.tobytes()).hexdigest())
"""


def gamut_child(root, prelude: str = "") -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(root))
    return subprocess.Popen(
        [sys.executable, "-c", prelude + GAMUT_CHILD, str(root)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def test_two_cold_imports_at_once_both_build_and_agree(tmp_path):
    package = Path(kernels.__file__).parent
    shutil.copytree(package, tmp_path / "ispbench", ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "ispbench" / "__pycache__").mkdir()
    (tmp_path / "ispbench" / "__pycache__" / "_kernels-0123456789abcdef.so").write_bytes(b"stale")
    children = [gamut_child(tmp_path) for _ in range(2)]
    results = [child.communicate(timeout=120) + (child.returncode,) for child in children]
    assert [code for _, _, code in results] == [0, 0], results
    flat = np.random.default_rng(0).random((3, 77), dtype=np.float32)
    out = kernels.gamut_flat(flat, random_gamut(40, 7), None, 3)
    assert {stdout.strip() for stdout, _, _ in results} == {hashlib.sha256(out.tobytes()).hexdigest()}
    built = sorted(p.name for p in (tmp_path / "ispbench" / "__pycache__").glob("_kernels*"))
    assert len(built) == 1 and built[0].endswith(".so"), built  # no stale build, no temporary


def test_a_warm_import_starts_no_process():
    # this interpreter's import has built the library already
    prelude = """\
import sys
def refuse(event, args):
    if event.split(".")[0] in ("subprocess", "os") and any(
        word in event for word in ("Popen", "system", "spawn", "fork", "exec")
    ):
        raise RuntimeError(f"started a process: {event}")
sys.addaudithook(refuse)
"""
    child = gamut_child(Path(kernels.__file__).parents[1], prelude)
    stdout, stderr = child.communicate(timeout=120)
    assert child.returncode == 0, stderr


def test_tone_index_maps_non_finite_values_to_defined_rows():
    values = np.array([np.nan, np.inf, -np.inf, -0.3, 0.5, 2.0], np.float32)
    assert tone_index(values).tolist() == [0, 255, 0, 0, 128, 255]


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
        assert np.array_equal(tone_index(values), old.astype(np.int64))


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
    # run_pipeline only chains; a caller times each stage's call with variants.sample
    raw, params = rand_raw(8, 6), rand_params(5)
    img, times = raw, []
    for stage in kernels.STAGE_NAMES:
        img, samples = sample(2, kernels.reference_stage, stage, img, params)
        times += samples
    assert len(times) == 2 * len(kernels.STAGE_NAMES) and all(t >= 0 for t in times)
    assert as_bytes(img) == as_bytes(kernels.run_pipeline(raw, params))
    with pytest.raises(TypeError):
        kernels.run_pipeline(raw, params, with_times=True)


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

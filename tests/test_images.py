import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ispbench.images import (
    ImageFormatError,
    PlanarImage,
    RawBayerImage,
    load_ppm,
    load_raw_planar,
    mosaic_from_planar,
    save_ppm,
    save_raw_planar,
    synth_bayer,
)

from _helpers import planar_from_planes, planar_from_rgb


class TestPpm:
    def test_single_red_pixel(self, tmp_path):
        path = tmp_path / "one.ppm"
        path.write_bytes(b"P6\n1 1\n255\n" + bytes([255, 0, 0]))
        img = load_ppm(path)
        assert img.width == 1 and img.height == 1
        assert img.planes[0, 0, 0] == 1.0
        assert img.planes[1, 0, 0] == 0.0
        assert img.planes[2, 0, 0] == 0.0

    def test_two_pixels_scale_by_255(self, tmp_path):
        path = tmp_path / "two.ppm"
        path.write_bytes(b"P6\n2 1\n255\n" + bytes([0, 0, 0, 255, 255, 255]))
        img = load_ppm(path)
        for c in range(3):
            assert list(img.planes[c, 0]) == [0.0, 1.0]

    def test_unsupported_magic(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P5\n1 1\n255\n\x00")
        with pytest.raises(ImageFormatError, match="magic"):
            load_ppm(path)

    def test_truncated_payload_names_offset(self, tmp_path):
        path = tmp_path / "short.ppm"
        path.write_bytes(b"P6\n2 2\n255\n" + bytes(5))
        with pytest.raises(ImageFormatError, match="truncated"):
            load_ppm(path)

    def test_bad_maxval(self, tmp_path):
        path = tmp_path / "hdr.ppm"
        path.write_bytes(b"P6\n1 1\n65535\n\x00\x00\x00\x00\x00\x00")
        with pytest.raises(ImageFormatError, match="maxval"):
            load_ppm(path)

    def test_comments_in_header(self, tmp_path):
        path = tmp_path / "c.ppm"
        path.write_bytes(b"P6\n# a comment\n1 1\n255\n" + bytes([10, 20, 30]))
        img = load_ppm(path)
        assert img.planes[1, 0, 0] == np.float32(20) / np.float32(255)

    def test_quantization_rounds_half_away(self, tmp_path):
        img = planar_from_rgb([[(1.0, 0.5, 0.0)]])
        path = tmp_path / "q.ppm"
        save_ppm(img, path)
        assert path.read_bytes().endswith(bytes([255, 128, 0]))

    def test_save_clamps_out_of_range(self, tmp_path):
        img = planar_from_rgb([[(1.2, -0.1, 0.3)]])
        path = tmp_path / "clamp.ppm"
        save_ppm(img, path)
        assert path.read_bytes().endswith(bytes([255, 0, 77]))

    @settings(max_examples=30, deadline=None)
    @given(w=st.integers(1, 5), h=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
    def test_round_trip_on_grid(self, tmp_path_factory, w, h, seed):
        rng = np.random.default_rng(seed)
        levels = rng.integers(0, 256, size=(3, h, w)).astype(np.float32)
        img = PlanarImage(width=w, height=h, planes=levels / np.float32(255.0))
        path = tmp_path_factory.mktemp("ppm") / "rt.ppm"
        save_ppm(img, path)
        assert load_ppm(path) == img


class TestRawPlanar:
    def test_one_plane_is_bayer(self, tmp_path):
        path = tmp_path / "m.raw"
        np.array([0.25, 0.5, 0.75, 1.0], dtype="<f4").tofile(path)
        loaded = load_raw_planar(path, 2, 2, planes=1)
        assert isinstance(loaded, RawBayerImage)
        assert list(loaded.mosaic.reshape(-1)) == [0.25, 0.5, 0.75, 1.0]

    def test_length_mismatch_message(self, tmp_path):
        path = tmp_path / "bad.raw"
        path.write_bytes(bytes(23))
        with pytest.raises(ImageFormatError, match="expected 8"):
            load_raw_planar(path, 2, 1, planes=1)

    def test_round_trip_preserves_subnormals(self, tmp_path):
        vals = np.array(
            [0.0, 1.0, np.float32(1e-40), np.finfo(np.float32).tiny, 0.375, 1e-45],
            dtype=np.float32,
        ).reshape(2, 3)
        planes = np.stack([vals, vals * 2, vals * 3]).astype(np.float32)
        img = PlanarImage(width=3, height=2, planes=planes)
        path = tmp_path / "rt.raw"
        save_raw_planar(img, path)
        back = load_raw_planar(path, 3, 2)
        assert isinstance(back, PlanarImage)
        assert back == img

    @settings(max_examples=25, deadline=None)
    @given(
        values=st.lists(
            st.floats(width=32, allow_nan=False, allow_infinity=False),
            min_size=18,
            max_size=18,
        )
    )
    def test_round_trip_bit_exact(self, tmp_path_factory, values):
        planes = np.asarray(values, dtype=np.float32).reshape(3, 2, 3)
        img = PlanarImage(width=3, height=2, planes=planes)
        path = tmp_path_factory.mktemp("raw") / "p.raw"
        save_raw_planar(img, path)
        back = load_raw_planar(path, 3, 2)
        assert isinstance(back, PlanarImage)
        assert back == img

    def test_bayer_loader_rejects_out_of_range(self, tmp_path):
        path = tmp_path / "neg.raw"
        np.array([-1.0, 0.5, 0.5, 0.5], dtype="<f4").tofile(path)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            load_raw_planar(path, 2, 2, planes=1)


class TestSynth:
    def test_constant(self):
        raw = synth_bayer(4, 4, "constant", value=0.5)
        assert np.all(raw.mosaic == np.float32(0.5))

    def test_color_site_map(self):
        raw = synth_bayer(4, 4, "color", rgb=(0.2, 0.4, 0.6))
        assert raw.mosaic[0, 0] == np.float32(0.2)
        assert raw.mosaic[0, 1] == np.float32(0.4)
        assert raw.mosaic[1, 0] == np.float32(0.4)
        assert raw.mosaic[1, 1] == np.float32(0.6)

    def test_noise_deterministic(self):
        a = synth_bayer(6, 4, "noise", seed=7)
        b = synth_bayer(6, 4, "noise", seed=7)
        assert np.array_equal(a.mosaic, b.mosaic)
        c = synth_bayer(6, 4, "noise", seed=8)
        assert not np.array_equal(a.mosaic, c.mosaic)

    def test_gradient_in_range(self):
        raw = synth_bayer(8, 6, "gradient")
        assert raw.mosaic.min() >= 0.0 and raw.mosaic.max() <= 1.0

    @pytest.mark.parametrize("w,h", [(3, 4), (4, 3), (0, 4), (2, 1)])
    def test_bad_dimensions_rejected(self, w, h):
        with pytest.raises(ValueError):
            synth_bayer(w, h, "constant", value=0.1)


class TestContainers:
    def test_mosaic_shape_checked(self):
        with pytest.raises(ValueError, match="shape"):
            RawBayerImage(width=4, height=2, mosaic=np.zeros((4, 2), np.float32))

    def test_mosaic_range_checked(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            RawBayerImage(width=2, height=2, mosaic=np.full((2, 2), 1.5, np.float32))

    def test_planar_serialized_layout_is_plane_major(self):
        img = planar_from_planes(
            np.full((2, 2), 1.0, np.float32),
            np.full((2, 2), 2.0, np.float32),
            np.full((2, 2), 3.0, np.float32),
        )
        flat = np.frombuffer(img.planes.tobytes(), dtype=np.float32)
        assert list(flat) == [1.0] * 4 + [2.0] * 4 + [3.0] * 4

    def test_mosaic_from_planar_samples_sites(self):
        img = planar_from_rgb(
            [
                [(0.1, 0.2, 0.3), (0.4, 0.5, 0.6)],
                [(0.7, 0.8, 0.9), (0.15, 0.25, 0.35)],
            ]
        )
        raw = mosaic_from_planar(img)
        assert raw.mosaic[0, 0] == np.float32(0.1)  # R site
        assert raw.mosaic[0, 1] == np.float32(0.5)  # G site
        assert raw.mosaic[1, 0] == np.float32(0.8)  # G site
        assert raw.mosaic[1, 1] == np.float32(0.35)  # B site

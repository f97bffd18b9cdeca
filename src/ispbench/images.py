"""Image containers, file I/O, and synthetic inputs for the workbench.

Two containers are used throughout:

* ``RawBayerImage`` -- a single-channel RGGB mosaic as produced by a sensor,
  values are 32-bit floats in [0, 1].
* ``PlanarImage`` -- three full-resolution channel planes stored R, then G,
  then B.  The serialized layout (``planes.tobytes()``) is all R rows,
  followed by all G rows, followed by all B rows, which is also the memory
  layout the benchmark kernels assume.

On-disk formats: binary PPM (P6, 8-bit) for interchange, and a trivial raw
planar dump (little-endian IEEE-754 float32, plane-major) for bit-exact
round trips.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

LINE = "\n"


class ImageFormatError(ValueError):
    """Raised for malformed image files; ``offset`` is the failing byte."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)
        self.offset = offset


def tone_index(values: np.ndarray) -> np.ndarray:
    """Quantize to 8 bits: clamp(round(v*255), 0, 255), ties away from 0.

    Gives the tone map's LUT row and the byte ``save_ppm`` writes.
    ``floor(x + 0.5)`` rounds ties away from zero for every ``x >= 0``, and
    any ``x < 0`` clamps to row 0 either way. NaN maps to row 0 (``fmax``
    prefers the non-NaN operand), +inf to 255, -inf and -0.0 to 0.
    """
    scaled = values * np.float32(255.0)
    scaled += np.float32(0.5)
    np.floor(scaled, out=scaled)
    np.fmax(scaled, np.float32(0.0), out=scaled)
    np.fmin(scaled, np.float32(255.0), out=scaled)
    return scaled.astype(np.int64)  # scaled is integral


@dataclass(frozen=True)
class RawBayerImage:
    """RGGB mosaic: R at (even row, even col), B at (odd, odd)."""

    width: int
    height: int
    mosaic: np.ndarray  # (height, width) float32 in [0, 1]

    def __post_init__(self):
        if self.width < 2 or self.height < 2:
            raise ValueError(f"dimensions must be >= 2, got {self.width}x{self.height}")
        if self.width % 2 or self.height % 2:
            raise ValueError(f"dimensions must be even, got {self.width}x{self.height}")
        if self.mosaic.shape != (self.height, self.width):
            raise ValueError(
                f"mosaic shape {self.mosaic.shape} != (height, width) = "
                f"({self.height}, {self.width})"
            )
        if self.mosaic.dtype != np.float32:
            raise ValueError(f"mosaic dtype must be float32, got {self.mosaic.dtype}")
        if not np.all((self.mosaic >= 0.0) & (self.mosaic <= 1.0)):
            raise ValueError("mosaic values must lie in [0, 1]")

    def __eq__(self, other):
        if not isinstance(other, RawBayerImage):
            return NotImplemented
        return (
            self.width == other.width
            and self.height == other.height
            and np.array_equal(self.mosaic, other.mosaic)
        )


@dataclass(frozen=True)
class PlanarImage:
    """Three channel planes (R, G, B), each (height, width) float32."""

    width: int
    height: int
    planes: np.ndarray  # (3, height, width) float32

    def __post_init__(self):
        if self.planes.shape != (3, self.height, self.width):
            raise ValueError(
                f"planes shape {self.planes.shape} != (3, {self.height}, {self.width})"
            )
        if self.planes.dtype != np.float32:
            raise ValueError(f"planes dtype must be float32, got {self.planes.dtype}")

    def __eq__(self, other):
        if not isinstance(other, PlanarImage):
            return NotImplemented
        return (
            self.width == other.width
            and self.height == other.height
            and np.array_equal(self.planes, other.planes)
        )


# ---------------------------------------------------------------------------
# PPM (P6, 8-bit)
# ---------------------------------------------------------------------------

def _read_ppm_token(data: bytes, pos: int) -> tuple[bytes, int]:
    """Read the next whitespace-delimited header token, skipping comments."""
    n = len(data)
    while pos < n:
        c = data[pos : pos + 1]
        if c == b"#":
            while pos < n and data[pos : pos + 1] not in (b"\n", b"\r"):
                pos += 1
        elif c.isspace():
            pos += 1
        else:
            break
    if pos >= n:
        raise ImageFormatError("truncated header", offset=pos)
    start = pos
    while pos < n and not data[pos : pos + 1].isspace() and data[pos : pos + 1] != b"#":
        pos += 1
    return data[start:pos], pos


def load_ppm(path: str | Path) -> PlanarImage:
    """Load a binary PPM (P6, maxval 255); samples scale to [0, 1] by 1/255."""
    data = Path(path).read_bytes()
    if data[:2] != b"P6":
        raise ImageFormatError(f"unsupported magic {data[:2]!r}, expected b'P6'", offset=0)
    pos = 2
    fields = []
    for _ in range(3):
        tok, pos = _read_ppm_token(data, pos)
        try:
            fields.append(int(tok))
        except ValueError:
            raise ImageFormatError(f"malformed header token {tok!r}", offset=pos - len(tok))
    width, height, maxval = fields
    if width <= 0 or height <= 0:
        raise ImageFormatError(f"invalid dimensions {width}x{height}", offset=2)
    if maxval != 255:
        raise ImageFormatError(f"unsupported maxval {maxval}, expected 255", offset=pos)
    # exactly one whitespace byte separates the header from the payload
    if pos >= len(data) or not data[pos : pos + 1].isspace():
        raise ImageFormatError("missing header/payload separator", offset=pos)
    pos += 1
    need = width * height * 3
    if len(data) - pos < need:
        raise ImageFormatError(
            f"truncated payload: expected {need} bytes, got {len(data) - pos}",
            offset=len(data),
        )
    pixels = np.frombuffer(data, dtype=np.uint8, count=need, offset=pos)
    interleaved = pixels.reshape(height, width, 3).astype(np.float32) / np.float32(255.0)
    planes = np.ascontiguousarray(interleaved.transpose(2, 0, 1))
    return PlanarImage(width=width, height=height, planes=planes)


def save_ppm(img: PlanarImage, path: str | Path) -> None:
    """Write binary PPM; each value maps to its ``tone_index`` row as one byte."""
    bytes8 = tone_index(img.planes).astype(np.uint8)
    interleaved = np.ascontiguousarray(bytes8.transpose(1, 2, 0))
    header = f"P6{LINE}{img.width} {img.height}{LINE}255{LINE}".encode("ascii")
    Path(path).write_bytes(header + interleaved.tobytes())


# ---------------------------------------------------------------------------
# Raw planar float32 dumps
# ---------------------------------------------------------------------------

def load_raw_planar(
    path: str | Path, width: int, height: int, planes: int | None = None
) -> RawBayerImage | PlanarImage:
    """Load a raw planar float32 file (little-endian, plane-major).

    One plane yields a ``RawBayerImage``, three a ``PlanarImage``.  When
    ``planes`` is None the plane count is inferred from the file size.
    """
    data = Path(path).read_bytes()
    per_plane = 4 * width * height
    if planes is None:
        if per_plane and len(data) == per_plane:
            planes = 1
        elif per_plane and len(data) == 3 * per_plane:
            planes = 3
        else:
            raise ImageFormatError(
                f"file is {len(data)} bytes; expected {per_plane} (1 plane) or "
                f"{3 * per_plane} (3 planes) for {width}x{height}"
            )
    expected = per_plane * planes
    if len(data) != expected:
        raise ImageFormatError(
            f"length mismatch: expected {expected} bytes "
            f"({width}x{height}x{planes} float32), got {len(data)}"
        )
    values = np.frombuffer(data, dtype="<f4").astype(np.float32, copy=True)
    if planes == 1:
        return RawBayerImage(width=width, height=height, mosaic=values.reshape(height, width))
    if planes == 3:
        return PlanarImage(width=width, height=height, planes=values.reshape(3, height, width))
    raise ImageFormatError(f"unsupported plane count {planes}, expected 1 or 3")


def save_raw_planar(img: RawBayerImage | PlanarImage, path: str | Path) -> None:
    """Write the bit-exact raw planar dump read back by ``load_raw_planar``."""
    array = img.mosaic if isinstance(img, RawBayerImage) else img.planes
    Path(path).write_bytes(np.ascontiguousarray(array, dtype="<f4").tobytes())


def mosaic_from_planar(img: PlanarImage) -> RawBayerImage:
    """Re-mosaic an RGB image by sampling each channel at its RGGB sites."""
    if img.width % 2 or img.height % 2:
        raise ValueError("re-mosaicking needs even dimensions")
    mosaic = np.empty((img.height, img.width), dtype=np.float32)
    mosaic[0::2, 0::2] = img.planes[0, 0::2, 0::2]
    mosaic[0::2, 1::2] = img.planes[1, 0::2, 1::2]
    mosaic[1::2, 0::2] = img.planes[1, 1::2, 0::2]
    mosaic[1::2, 1::2] = img.planes[2, 1::2, 1::2]
    np.clip(mosaic, 0.0, 1.0, out=mosaic)
    return RawBayerImage(width=img.width, height=img.height, mosaic=mosaic)


# ---------------------------------------------------------------------------
# Synthetic mosaics
# ---------------------------------------------------------------------------

def synth_bayer(
    width: int,
    height: int,
    kind: str = "noise",
    *,
    value: float = 0.5,
    rgb: tuple[float, float, float] = (0.8, 0.5, 0.2),
    seed: int = 0,
) -> RawBayerImage:
    """Generate a deterministic RGGB mosaic.

    kinds: ``constant`` (every site = value), ``color`` (r/g/b placed at
    their RGGB sites), ``gradient`` (diagonal ramp), ``noise`` (seeded
    uniform noise).
    """
    if width % 2 or height % 2 or width < 2 or height < 2:
        raise ValueError(f"dimensions must be even and >= 2, got {width}x{height}")
    if kind == "constant":
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"constant value {value} outside [0, 1]")
        mosaic = np.full((height, width), value, dtype=np.float32)
    elif kind == "color":
        r, g, b = rgb
        mosaic = np.empty((height, width), dtype=np.float32)
        mosaic[0::2, 0::2] = r
        mosaic[0::2, 1::2] = g
        mosaic[1::2, 0::2] = g
        mosaic[1::2, 1::2] = b
    elif kind == "gradient":
        ys = np.arange(height, dtype=np.float32) / np.float32(max(height - 1, 1))
        xs = np.arange(width, dtype=np.float32) / np.float32(max(width - 1, 1))
        mosaic = ((ys[:, None] + xs[None, :]) * np.float32(0.5)).astype(np.float32)
    elif kind == "noise":
        rng = np.random.default_rng(seed)
        mosaic = rng.random((height, width), dtype=np.float32)
    else:
        raise ValueError(f"unknown mosaic kind {kind!r}")
    return RawBayerImage(width=width, height=height, mosaic=mosaic)

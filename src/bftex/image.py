"""Grayscale raster I/O and convolution primitives.

Images are plain 2-D float64 numpy arrays in row-major order, intensities
nominally in [0, 1] after loading.  A stack of same-size images is one
array whose last two axes are the image; the filters here work on each
image of a stack alone.  Binary PGM (P5) is the native format; PNG
decoding is available when Pillow is installed.
"""

import csv
import math
import os
from functools import lru_cache

import numpy as np
from scipy.ndimage import convolve1d

LUMA_WEIGHTS = (0.299, 0.587, 0.114)


class ImageFormatError(ValueError):
    """Malformed or unsupported image file."""

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class NonFiniteImageError(ValueError):
    """Image with a NaN or infinite pixel."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index  # position of the image in its stack, if any


def _read_pgm_token(buf, pos):
    """Return (token, new_pos), skipping whitespace and # comments."""
    n = len(buf)
    while pos < n:
        c = buf[pos:pos + 1]
        if c.isspace():
            pos += 1
        elif c == b"#":
            while pos < n and buf[pos:pos + 1] != b"\n":
                pos += 1
        else:
            break
    start = pos
    while pos < n and not buf[pos:pos + 1].isspace():
        pos += 1
    if start == pos:
        raise ImageFormatError("unexpected end of PGM header", offset=start)
    return buf[start:pos], pos


def _pgm_pixels(buf):
    """(samples, maxval) of the binary (P5) PGM file held in ``buf``.

    The samples are a read-only view of the payload in ``buf``, uint8 or,
    when maxval is above 255, big-endian uint16.
    """
    if buf[:2] != b"P5":
        raise ImageFormatError("not a binary PGM (missing P5 magic)", offset=0)
    pos = 2
    fields = []
    for _ in range(3):
        tok, pos = _read_pgm_token(buf, pos)
        try:
            fields.append(int(tok))
        except ValueError:
            raise ImageFormatError(f"non-numeric PGM header field {tok!r}",
                                   offset=pos - len(tok)) from None
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise ImageFormatError(f"invalid PGM dimensions {width}x{height}", offset=2)
    if not 0 < maxval < 65536:
        raise ImageFormatError(f"unsupported PGM maxval {maxval}", offset=2)
    pos += 1  # single whitespace after maxval
    dtype = np.dtype(">u2" if maxval > 255 else np.uint8)
    need = width * height * dtype.itemsize
    have = min(need, max(len(buf) - pos, 0))
    if have < need:
        raise ImageFormatError(
            f"truncated PGM payload: expected {need} bytes, got {have}",
            offset=pos + have)
    data = np.frombuffer(buf, dtype=dtype, count=width * height, offset=pos)
    return data.reshape(height, width), maxval


def _read_pixels(path):
    """(samples, maxval) of a grayscale image file; ``samples / maxval`` is
    the image on [0, 1].

    The one reader behind ``load_image`` and the experiment harness, which
    keeps a suite's images as read and scales a block at a time.  PGM
    samples are as stored (see _pgm_pixels), gray PNG samples as decoded,
    and a colour PNG gives float64 luma.
    """
    with open(path, "rb") as f:
        magic = f.read(8)
        if magic[:2] == b"P5":
            f.seek(0)
            return _pgm_pixels(f.read())
    if magic != b"\x89PNG\r\n\x1a\n":
        raise ImageFormatError(f"unsupported image format in {path!r}",
                               offset=0)
    try:
        from PIL import Image
    except ImportError:
        raise ImageFormatError(
            "PNG support requires Pillow (pip install bftex[png])") from None
    with Image.open(path) as im:
        # palette indices and bilevel bools are not intensities, and an
        # alpha channel is not a colour
        if im.mode in ("P", "PA"):
            im = im.convert("RGB")
        elif im.mode in ("1", "LA"):
            im = im.convert("L")
        arr = np.asarray(im)
    # Pillow decodes 16-bit gray as I;16 (uint16) or I (int32), depending
    # on its version
    maxval = 65535.0 if arr.dtype.itemsize > 1 else 255.0
    if arr.ndim == 3:
        arr = arr.astype(np.float64)
        arr = (LUMA_WEIGHTS[0] * arr[..., 0] + LUMA_WEIGHTS[1] * arr[..., 1]
               + LUMA_WEIGHTS[2] * arr[..., 2])
    return arr, maxval


def load_pgm(path):
    """Read a binary (P5) PGM file into a float image scaled to [0, 1]."""
    with open(path, "rb") as f:
        buf = f.read()
    return np.divide(*_pgm_pixels(buf), dtype=np.float64)


def load_image(path):
    """Load a grayscale image (PGM mandatory, PNG via Pillow) scaled to [0, 1].

    Color inputs are converted to luma with the standard 0.299/0.587/0.114
    weights before scaling.  Palette PNGs are looked up to RGB first, and
    bilevel and gray+alpha PNGs are read as 8-bit gray.
    """
    return np.divide(*_read_pixels(path), dtype=np.float64)


def save_pgm(img, path):
    """Write an 8-bit binary PGM (maxval 255), clamping intensities to
    [0, 1] first."""
    img = np.asarray(img, dtype=np.float64)
    q = np.rint(np.clip(img, 0.0, 1.0) * 255).astype(np.uint8)
    h, w = q.shape
    if q.size == 0:
        raise ValueError(f"{path}: cannot write a {w}x{h} image (no pixels)")
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(q.tobytes())


def save_csv_matrix(img, path):
    """Write an image as full-precision CSV (one row per scanline)."""
    img = np.asarray(img, dtype=np.float64)
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        for row in img:
            writer.writerow([repr(float(v)) for v in row])


def check_finite(img):
    """Raise NonFiniteImageError when an image has a NaN or infinite pixel.

    On a stack the error's ``index`` is the first such image's position
    along the flattened leading axes.
    """
    finite = np.isfinite(img).all(axis=(-2, -1))
    if finite.all():
        return
    if finite.ndim == 0:
        raise NonFiniteImageError("image has NaN or infinite pixels")
    index = int(np.argmin(finite.ravel()))
    raise NonFiniteImageError(
        f"image {index} of the stack has NaN or infinite pixels", index)


@lru_cache(maxsize=None)
def gaussian_kernel_1d(sigma):
    """Read-only sampled 1-D Gaussian, radius ceil(3*sigma), normalized to
    unit sum; built once per sigma."""
    if not 0 < sigma < math.inf:
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    radius = math.ceil(3.0 * sigma)
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    taps = np.exp(-(x * x) / (2.0 * sigma * sigma))
    kernel = taps / taps.sum()
    kernel.setflags(write=False)
    return kernel


def gaussian_derivative_kernel_1d(sigma, order):
    """Sampled derivative-of-Gaussian kernel (order 1 or 2).

    Scaled so that correlation reproduces the exact derivative of a
    polynomial ramp: order 1 responds 1 to slope-1 ramps, order 2 responds
    0 to constants and linear ramps and 2 to x^2.
    """
    g = gaussian_kernel_1d(sigma)
    radius = len(g) // 2
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    if order == 1:
        taps = x * g / (sigma * sigma)
        slope = np.dot(x, taps)
        if slope == 0.0:  # every off-centre tap underflowed to 0
            raise ValueError(f"sigma={sigma} is too small for a first "
                             f"derivative kernel: its off-centre taps "
                             f"underflow to 0")
        return taps / slope
    if order == 2:
        taps = (x * x / sigma ** 4 - 1.0 / sigma ** 2) * g
        taps -= taps.mean()  # exact zero response to constants
        return taps * (2.0 / np.dot(x * x, taps))
    raise ValueError(f"derivative order must be 1 or 2, got {order}")


def convolve_separable(img, kernel_row=None, kernel_col=None):
    """Separable correlation with clamp-to-edge borders over the last two
    axes, so each image of a stack is filtered alone.

    kernel_col runs down the columns (axis -2), kernel_row along the rows
    (axis -1).  With one kernel given, it is applied along both axes (the
    usual isotropic Gaussian case).  Kernels here are symmetric or are
    built for correlation semantics, so no flipping is performed.
    """
    img = np.asarray(img, dtype=np.float64)
    if kernel_col is None:
        kernel_col = kernel_row
    if kernel_row is None:
        kernel_row = kernel_col
    out = convolve1d(img, kernel_col[::-1], axis=-2, mode="nearest")
    return convolve1d(out, kernel_row[::-1], axis=-1, mode="nearest")


def gaussian_blur(img, sigma):
    k = gaussian_kernel_1d(sigma)
    return convolve_separable(img, k)

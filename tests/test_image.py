import struct
import sys
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bftex.image import (LUMA_WEIGHTS, ImageFormatError, NonFiniteImageError,
                         _read_pixels, check_finite, convolve_separable,
                         gaussian_derivative_kernel_1d, gaussian_kernel_1d,
                         load_image, save_csv_matrix, save_pgm)

from oracles import derivative_kernel, load_csv_matrix


def write_pgm_bytes(path, header, payload):
    with open(path, "wb") as f:
        f.write(header)
        f.write(payload)


class TestPgmIO:
    def test_load_8bit(self, tmp_path):
        p = tmp_path / "a.pgm"
        write_pgm_bytes(p, b"P5\n2 2\n255\n", bytes([0, 255, 128, 64]))
        img = load_image(p)
        assert img.shape == (2, 2)
        np.testing.assert_allclose(img.ravel(), [0.0, 1.0, 128 / 255, 64 / 255])

    def test_load_16bit(self, tmp_path):
        p = tmp_path / "b.pgm"
        write_pgm_bytes(p, b"P5\n1 1\n65535\n", (65535).to_bytes(2, "big"))
        np.testing.assert_allclose(load_image(p), [[1.0]])

    def test_header_comments(self, tmp_path):
        p = tmp_path / "c.pgm"
        write_pgm_bytes(p, b"P5\n# a comment\n2 1\n255\n", bytes([10, 20]))
        img = load_image(p)
        assert img.shape == (1, 2)

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "t.pgm"
        write_pgm_bytes(p, b"P5\n2 2\n255\n", bytes([0, 1, 2]))
        with pytest.raises(ImageFormatError, match="truncated"):
            load_image(p)

    def test_malformed_header_reports_offset(self, tmp_path):
        p = tmp_path / "m.pgm"
        write_pgm_bytes(p, b"P5\nxx 2\n255\n", bytes(4))
        with pytest.raises(ImageFormatError, match="byte offset"):
            load_image(p)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "n.pgm"
        p.write_bytes(b"P2\n1 1\n255\n0")
        with pytest.raises(ImageFormatError):
            load_image(p)

    def test_unsupported_maxval(self, tmp_path):
        p = tmp_path / "o.pgm"
        write_pgm_bytes(p, b"P5\n1 1\n70000\n", bytes(4))
        with pytest.raises(ImageFormatError, match="maxval"):
            load_image(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_image(tmp_path / "nope.pgm")

    def test_roundtrip_within_quantization(self, tmp_path, rng):
        img = rng.random((7, 9))
        p = tmp_path / "r.pgm"
        save_pgm(img, p)
        back = load_image(p)
        assert np.max(np.abs(back - img)) <= 1.0 / 255.0 + 1e-12

    def test_save_clamps_out_of_range(self, tmp_path):
        p = tmp_path / "cl.pgm"
        save_pgm(np.array([[1.5, -0.3]]), p)
        raw = p.read_bytes()
        assert raw[-2:] == bytes([255, 0])

    @pytest.mark.parametrize("shape", [(0, 0), (0, 4), (3, 0)])
    def test_save_rejects_image_without_pixels(self, tmp_path, shape):
        # load_image rejects such a file, so none is written
        p = tmp_path / "empty.pgm"
        with pytest.raises(ValueError, match="no pixels"):
            save_pgm(np.zeros(shape), p)
        assert not p.exists()


def write_png(path, pixels, bit_depth, color_type=None, palette=None):
    """Write an array of ints as an unfiltered, non-interlaced PNG, without
    Pillow: (h, w) gray or (h, w, 3) RGB by default, or the given PNG colour
    type (3 palette indices with `palette` as (n, 3) RGB entries, 4 gray
    and alpha as (h, w, 2)).  Bit depth 1 packs eight pixels a byte."""
    pixels = np.asarray(pixels, dtype=">u2" if bit_depth == 16 else np.uint8)
    h, w = pixels.shape[:2]
    if color_type is None:
        color_type = 2 if pixels.ndim == 3 else 0
    if bit_depth == 1:
        pixels = np.packbits(pixels, axis=1)

    def chunk(kind, data):
        return (struct.pack(">I", len(data)) + kind + data
                + struct.pack(">I", zlib.crc32(kind + data)))

    ihdr = struct.pack(">IIBBBBB", w, h, bit_depth, color_type, 0, 0, 0)
    plte = (b"" if palette is None else
            chunk(b"PLTE", np.asarray(palette, dtype=np.uint8).tobytes()))
    scanlines = b"".join(b"\0" + row.tobytes() for row in pixels)
    path.write_bytes(b"\x89PNG\r\n\x1a\n" + chunk(b"IHDR", ihdr) + plte
                     + chunk(b"IDAT", zlib.compress(scanlines))
                     + chunk(b"IEND", b""))


class TestPngIO:
    def test_without_pillow_names_it(self, tmp_path, monkeypatch):
        p = tmp_path / "a.png"
        write_png(p, [[0, 255]], 8)
        monkeypatch.setitem(sys.modules, "PIL", None)  # import fails
        with pytest.raises(ImageFormatError, match="Pillow"):
            load_image(p)

    def test_decodes_gray_and_rgb(self, tmp_path):
        pytest.importorskip("PIL")
        gray8 = np.array([[0, 255, 128], [64, 1, 254]])
        gray16 = np.array([[0, 65535, 4660], [1, 32768, 65534]])
        rgb = np.array([[[255, 0, 0], [0, 255, 0], [0, 0, 255]],
                        [[10, 200, 30], [255, 255, 255], [0, 0, 0]]])
        luma = sum(w * rgb[..., c] for c, w in enumerate(LUMA_WEIGHTS))
        for name, pixels, bit_depth, want in (
                ("gray8", gray8, 8, gray8 / 255.0),
                ("gray16", gray16, 16, gray16 / 65535.0),
                ("rgb", rgb, 8, luma / 255.0)):
            p = tmp_path / f"{name}.png"
            write_png(p, pixels, bit_depth)
            img = load_image(p)
            assert img.dtype == np.float64 and img.shape == (2, 3), name
            np.testing.assert_allclose(img, want, rtol=0, atol=1e-12,
                                       err_msg=name)

    def test_palette_bilevel_and_alpha_read_as_intensities(self, tmp_path):
        pytest.importorskip("PIL")
        palette = np.array([[255, 0, 0], [0, 0, 255], [10, 200, 30]])
        index = np.array([[0, 1, 2], [2, 2, 0]])
        luma = sum(w * palette[index][..., c]
                   for c, w in enumerate(LUMA_WEIGHTS))
        bilevel = np.array([[1, 0, 1], [0, 0, 1]])
        gray = np.array([[0, 255, 128], [64, 1, 254]])
        gray_alpha = np.stack([gray, 255 - gray], axis=-1)
        for name, pixels, bit_depth, color_type, want in (
                ("palette", index, 8, 3, luma / 255.0),
                ("bilevel", bilevel, 1, 0, bilevel * 1.0),
                ("gray_alpha", gray_alpha, 8, 4, gray / 255.0)):
            p = tmp_path / f"{name}.png"
            write_png(p, pixels, bit_depth, color_type,
                      palette if color_type == 3 else None)
            img = load_image(p)
            assert img.dtype == np.float64 and img.shape == (2, 3), name
            np.testing.assert_allclose(img, want, rtol=0, atol=1e-12,
                                       err_msg=name)


def bits(img):
    """An array's dtype and bytes, so that equal bits compare equal."""
    return img.dtype, img.shape, img.tobytes()


class TestReadPixels:
    """One reader serves load_image and the harness: the samples as the
    file stores them, and the maxval that scales them."""

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(h=st.integers(1, 6), w=st.integers(1, 7),
           maxval=st.sampled_from([1, 255, 256, 1000, 65535]), data=st.data())
    def test_pgm_samples_as_stored(self, tmp_path, h, w, maxval, data):
        dtype = np.dtype(np.uint8 if maxval < 256 else ">u2")
        # samples may exceed maxval: they scale past 1 as they always have
        samples = np.array(data.draw(st.lists(
            st.integers(0, np.iinfo(dtype).max), min_size=h * w,
            max_size=h * w)), dtype=dtype).reshape(h, w)
        p = tmp_path / "h.pgm"
        write_pgm_bytes(p, f"P5\n{w} {h}\n{maxval}\n".encode(),
                        samples.tobytes())
        pixels, got_maxval = _read_pixels(p)
        assert got_maxval == maxval
        assert pixels.dtype == dtype and np.array_equal(pixels, samples)
        base = pixels
        while isinstance(base, np.ndarray):
            base = base.base
        assert isinstance(base, bytes)  # a view of the file's bytes
        # the whole payload cast to float64, then one division
        want = samples.astype(np.float64) / maxval
        assert bits(load_image(p)) == bits(want)
        assert bits(load_image(p)) == \
            bits(np.divide(*_read_pixels(p), dtype=np.float64))

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(h=st.integers(1, 3), w=st.integers(1, 4),
           maxval=st.sampled_from([1, 255, 256, 65535]), data=st.data())
    def test_pgm_header_separators(self, tmp_path, h, w, maxval, data):
        # between header fields: runs of the six whitespace bytes and of
        # '#' comments running to a newline, starting with whitespace so
        # that no comment joins the field before it
        space = st.sampled_from([b" ", b"\t", b"\r", b"\n", b"\x0b", b"\x0c"])
        comment = st.binary(max_size=6).map(
            lambda text: b"#" + text.replace(b"\n", b"") + b"\n")
        sep = st.tuples(space, st.lists(st.one_of(space, comment),
                                        max_size=4)).map(
            lambda parts: parts[0] + b"".join(parts[1]))
        header = b"P5" + b"".join(data.draw(sep) + str(field).encode()
                                  for field in (w, h, maxval))
        header += data.draw(space)  # the one byte before the payload
        dtype = np.dtype(np.uint8 if maxval < 256 else ">u2")
        samples = np.array(data.draw(st.lists(
            st.integers(0, maxval), min_size=h * w, max_size=h * w)),
            dtype=dtype).reshape(h, w)
        p = tmp_path / "s.pgm"
        write_pgm_bytes(p, header, samples.tobytes())
        assert bits(load_image(p)) == bits(samples.astype(np.float64) / maxval)
        whole = p.read_bytes()
        for n in range(len(whole)):
            p.write_bytes(whole[:n])
            with pytest.raises(ImageFormatError):
                load_image(p)

    def test_unknown_format_rejected(self, tmp_path):
        p = tmp_path / "x.bmp"
        p.write_bytes(b"BM" + bytes(20))
        with pytest.raises(ImageFormatError, match="unsupported image format"):
            _read_pixels(p)

    def test_png_modes(self, tmp_path):
        pytest.importorskip("PIL")
        gray8 = np.array([[0, 255, 128], [64, 1, 254]])
        gray16 = np.array([[0, 65535, 4660], [1, 32768, 65534]])
        rgb = np.array([[[255, 0, 0], [0, 255, 0], [0, 0, 255]],
                        [[10, 200, 30], [255, 255, 255], [0, 0, 0]]])
        palette = np.array([[255, 0, 0], [0, 0, 255], [10, 200, 30]])
        index = np.array([[0, 1, 2], [2, 2, 0]])
        bilevel = np.array([[1, 0, 1], [0, 0, 1]])
        luma = lambda c: sum(w * c[..., i] for i, w in enumerate(LUMA_WEIGHTS))
        # name, pixels, bit depth, colour type, samples, maxval
        for name, pixels, depth, ctype, samples, maxval in (
                ("gray8", gray8, 8, None, gray8, 255.0),
                # Pillow gives I;16 (uint16) or I (int32) by version
                ("gray16", gray16, 16, None, gray16, 65535.0),
                ("rgb", rgb, 8, None, luma(rgb.astype(np.float64)), 255.0),
                ("palette", index, 8, 3,
                 luma(palette[index].astype(np.float64)), 255.0),
                ("bilevel", bilevel, 1, 0, bilevel * 255, 255.0),
                ("gray_alpha", np.stack([gray8, 255 - gray8], axis=-1), 8, 4,
                 gray8, 255.0)):
            p = tmp_path / f"{name}.png"
            write_png(p, pixels, depth, ctype,
                      palette if ctype == 3 else None)
            got, got_maxval = _read_pixels(p)
            assert got_maxval == maxval, name
            if samples.dtype == np.float64:  # colour: luma before scaling
                assert got.dtype == np.float64, name
                np.testing.assert_allclose(got, samples, rtol=0, atol=1e-9,
                                           err_msg=name)
            else:  # gray: the decoded integers
                assert got.dtype.kind in "ui", name
                assert np.array_equal(got, samples), name
            assert bits(load_image(p)) == \
                bits(np.divide(got, maxval, dtype=np.float64)), name


class TestCsvIO:
    def test_roundtrip_exact(self, tmp_path, rng):
        img = rng.standard_normal((5, 4))
        p = tmp_path / "m.csv"
        save_csv_matrix(img, p)
        back = load_csv_matrix(p)
        np.testing.assert_array_equal(back, img)


class TestGaussianKernel:
    def test_sigma1_shape_and_values(self):
        k = gaussian_kernel_1d(1.0)
        assert len(k) == 7
        # taps proportional to exp(-i^2/2), normalized to unit sum
        x = np.arange(-3, 4)
        expected = np.exp(-x ** 2 / 2.0)
        expected /= expected.sum()
        np.testing.assert_allclose(k, expected, rtol=0, atol=1e-15)
        assert abs(k.sum() - 1.0) < 1e-12

    def test_tiny_sigma_is_near_delta(self):
        k = gaussian_kernel_1d(0.01)
        assert len(k) == 3
        assert k[1] == pytest.approx(1.0, abs=1e-12)
        assert k[0] < 1e-12 and k[2] < 1e-12

    def test_sigma4(self):
        k = gaussian_kernel_1d(4.0)
        assert len(k) == 25
        assert abs(k.sum() - 1.0) < 1e-12

    def test_positive_symmetric_decreasing(self):
        for sigma in (0.5, 1.0, 2.7):
            k = gaussian_kernel_1d(sigma)
            assert np.all(k > 0)
            np.testing.assert_array_equal(k, k[::-1])
            half = k[len(k) // 2:]
            assert np.all(np.diff(half) < 0)

    def test_invalid_sigma(self):
        with pytest.raises(ValueError):
            gaussian_kernel_1d(0.0)
        with pytest.raises(ValueError):
            gaussian_kernel_1d(-1.0)

    def test_built_once_per_sigma_and_read_only(self):
        k = gaussian_kernel_1d(1.7)
        assert gaussian_kernel_1d(1.7) is k
        with pytest.raises(ValueError):
            k[0] = 1.0


class TestDerivativeKernels:
    def test_first_order_reproduces_ramp_slope(self):
        d = gaussian_derivative_kernel_1d(1.0, 1)
        x = np.arange(-3, 4, dtype=float)
        assert np.dot(x, d) == pytest.approx(1.0)
        assert d.sum() == pytest.approx(0.0, abs=1e-15)

    def test_second_order_annihilates_linear(self):
        d = gaussian_derivative_kernel_1d(1.5, 2)
        x = np.arange(-len(d) // 2 + 1, len(d) // 2 + 1, dtype=float)
        assert d.sum() == pytest.approx(0.0, abs=1e-15)
        assert np.dot(x * x, d) == pytest.approx(2.0)

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            gaussian_derivative_kernel_1d(1.0, 3)

    @pytest.mark.parametrize("order", [1, 2])
    def test_equals_written_out_kernel(self, order):
        for sigma in np.linspace(0.1, 6.0, 300):
            assert np.array_equal(gaussian_derivative_kernel_1d(sigma, order),
                                  derivative_kernel(sigma, order))

    def test_invalid_sigma(self):
        with pytest.raises(ValueError, match="sigma must be positive"):
            gaussian_derivative_kernel_1d(0.0, 1)

    def test_first_order_names_too_small_sigma(self):
        # at sigma <= 0.025 every off-centre tap underflows to 0; order 2
        # degrades to the [1, -2, 1] stencil instead.  pytest turns
        # warnings into errors, so no RuntimeWarning may come first.
        with pytest.raises(ValueError, match=r"sigma=0\.02 is too small"):
            gaussian_derivative_kernel_1d(0.02, 1)
        assert np.array_equal(gaussian_derivative_kernel_1d(0.026, 1),
                              [-0.5, 0.0, 0.5])
        np.testing.assert_allclose(gaussian_derivative_kernel_1d(0.02, 2),
                                   [1.0, -2.0, 1.0])


def dense_convolve_2d(img, kernel_1d):
    """Brute-force 2-D correlation with the outer-product kernel and
    replicate borders; the oracle for the separable path."""
    r = len(kernel_1d) // 2
    k2 = np.outer(kernel_1d, kernel_1d)
    padded = np.pad(img, r, mode="edge")
    out = np.zeros_like(img, dtype=np.float64)
    h, w = img.shape
    for i in range(h):
        for j in range(w):
            out[i, j] = np.sum(padded[i:i + 2 * r + 1, j:j + 2 * r + 1] * k2)
    return out


class TestConvolveSeparable:
    def test_matches_dense_oracle(self, rng):
        k = gaussian_kernel_1d(1.3)
        for _ in range(5):
            img = rng.random((9, 9))
            got = convolve_separable(img, k)
            want = dense_convolve_2d(img, k)
            np.testing.assert_allclose(got, want, atol=1e-9)

    def test_constant_preserved(self):
        img = np.full((6, 8), 0.37)
        out = convolve_separable(img, gaussian_kernel_1d(2.0))
        np.testing.assert_allclose(out, img, atol=1e-12)

    def test_impulse_gives_sampled_gaussian(self):
        img = np.zeros((5, 5))
        img[2, 2] = 1.0
        k = gaussian_kernel_1d(1.0)
        out = convolve_separable(img, k)
        want = dense_convolve_2d(img, k)
        np.testing.assert_allclose(out, want, atol=1e-9)
        # center equals the 2-D kernel peak
        assert out[2, 2] == pytest.approx(k[3] * k[3])

    def test_degenerate_1x1(self):
        out = convolve_separable(np.array([[0.42]]), gaussian_kernel_1d(1.0))
        assert out[0, 0] == pytest.approx(0.42, abs=1e-12)

    def test_stack_equals_each_image_alone(self, rng):
        # axes -2 and -1 are filtered, so no image bleeds into the next
        g = gaussian_kernel_1d(1.5)
        d = gaussian_derivative_kernel_1d(1.0, 1)
        stack = rng.random((2, 3, 11, 7))
        stack[0, 1] = 0.0  # a flat image between two textured ones
        for kernels in ({"kernel_row": g}, {"kernel_row": d, "kernel_col": g},
                        {"kernel_row": g, "kernel_col": d}):
            got = convolve_separable(stack, **kernels)
            assert got.shape == stack.shape
            for i in np.ndindex(stack.shape[:2]):
                assert np.array_equal(got[i],
                                      convolve_separable(stack[i], **kernels))


class TestCheckFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_names_first_bad_image_of_a_stack(self, rng, bad):
        stack = rng.random((2, 3, 5, 4))
        stack[1, 0, 4, 3] = bad  # flat index 3
        stack[1, 2, 0, 0] = bad  # a later bad image is not the one named
        with pytest.raises(NonFiniteImageError,
                           match="image 3 of the stack") as info:
            check_finite(stack)
        assert info.value.index == 3

    def test_single_image_has_no_index(self, rng):
        img = rng.random((5, 4))
        check_finite(img)
        check_finite(img[None])
        img[2, 2] = np.nan
        with pytest.raises(NonFiniteImageError,
                           match="^image has NaN or infinite pixels$") as info:
            check_finite(img)
        assert info.value.index is None

import numpy as np
import pytest

from bftex.image import (ImageFormatError, convolve_separable,
                         gaussian_derivative_kernel_1d, gaussian_kernel_1d,
                         load_image, load_pgm, save_csv_matrix, save_pgm)

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
        img = load_pgm(p)
        assert img.shape == (1, 2)

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "t.pgm"
        write_pgm_bytes(p, b"P5\n2 2\n255\n", bytes([0, 1, 2]))
        with pytest.raises(ImageFormatError, match="truncated"):
            load_pgm(p)

    def test_malformed_header_reports_offset(self, tmp_path):
        p = tmp_path / "m.pgm"
        write_pgm_bytes(p, b"P5\nxx 2\n255\n", bytes(4))
        with pytest.raises(ImageFormatError, match="byte offset"):
            load_pgm(p)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "n.pgm"
        p.write_bytes(b"P2\n1 1\n255\n0")
        with pytest.raises(ImageFormatError):
            load_image(p)

    def test_unsupported_maxval(self, tmp_path):
        p = tmp_path / "o.pgm"
        write_pgm_bytes(p, b"P5\n1 1\n70000\n", bytes(4))
        with pytest.raises(ImageFormatError, match="maxval"):
            load_pgm(p)

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

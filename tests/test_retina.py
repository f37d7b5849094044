import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bftex.image import NonFiniteImageError, gaussian_kernel_1d
from bftex.retina import BfParams, bf_preprocess, dog_filter, split_maps
from oracles import dog_kernel
from test_image import dense_convolve_2d

# seeded and small: every run draws the same examples
FAST = settings(max_examples=25, deadline=None, derandomize=True)


class TestBfParams:
    def test_defaults(self):
        p = BfParams()
        assert (p.sigma1, p.sigma2, p.epsilon) == (1.0, 4.0, 0.1)

    @pytest.mark.parametrize("s1,s2", [(4.0, 2.0), (2.0, 2.0), (0.0, 4.0),
                                       (-1.0, 4.0)])
    def test_sigma_ordering_enforced(self, s1, s2):
        with pytest.raises(ValueError):
            BfParams(sigma1=s1, sigma2=s2)

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError):
            BfParams(epsilon=-0.01)


class TestDogFilter:
    def test_constant_image_gives_zero(self):
        out = dog_filter(np.full((16, 16), 0.5), BfParams())
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_continuous_kernel_origin_value(self):
        # 1/(2 pi) - 1/(32 pi) = 15/(32 pi) for sigma1=1, sigma2=4
        assert dog_kernel(0.0, 0.0, 1.0, 4.0) == \
            pytest.approx(15.0 / (32.0 * math.pi))

    def test_step_edge_signs_and_oracle(self):
        img = np.zeros((32, 32))
        img[:, 16:] = 1.0
        p = BfParams()
        out = dog_filter(img, p)
        # the narrow-minus-wide kernel responds with opposite signs on the
        # two sides of the edge and decays to zero away from it
        assert out[16, 14] < 0
        assert out[16, 17] > 0
        assert out[16, 14] == pytest.approx(-out[16, 17], abs=1e-9)
        assert abs(out[16, 1]) < 1e-6  # far from the edge
        k1 = gaussian_kernel_1d(p.sigma1)
        k2 = gaussian_kernel_1d(p.sigma2)
        want = dense_convolve_2d(img, k1) - dense_convolve_2d(img, k2)
        np.testing.assert_allclose(out, want, atol=1e-9)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_pixel_rejected(self, rng, bad):
        img = rng.random((16, 16))
        img[4, 9] = bad
        with pytest.raises(ValueError, match="NaN or infinite pixels"):
            dog_filter(img, BfParams())

    def test_linearity(self, rng):
        p = BfParams()
        x, y = rng.random((20, 20)), rng.random((20, 20))
        a, b = 1.7, -0.4
        got = dog_filter(a * x + b * y, p)
        want = a * dog_filter(x, p) + b * dog_filter(y, p)
        np.testing.assert_allclose(got, want, atol=1e-9)

    def test_illumination_offset_invariance(self, rng):
        p = BfParams()
        img = rng.random((20, 20))
        np.testing.assert_allclose(dog_filter(img + 0.73, p),
                                   dog_filter(img, p), atol=1e-9)

    def test_commutes_with_quarter_rotation(self, rng):
        p = BfParams()
        img = rng.random((24, 24))
        np.testing.assert_allclose(dog_filter(np.rot90(img), p),
                                   np.rot90(dog_filter(img, p)), atol=1e-9)


class TestSplitMaps:
    def test_zero_response_goes_nowhere(self):
        maps = split_maps(np.zeros((4, 4)), 0.0)
        assert np.all(maps.plus == 0) and np.all(maps.minus == 0)

    def test_threshold_semantics(self):
        resp = np.array([[0.2, -0.3], [0.05, -0.05]])
        maps = split_maps(resp, 0.1)
        np.testing.assert_array_equal(maps.plus, [[0.2, 0.0], [0.0, 0.0]])
        np.testing.assert_array_equal(maps.minus, [[0.0, 0.3], [0.0, 0.0]])

    def test_threshold_is_inclusive(self):
        maps = split_maps(np.array([[0.1, -0.1]]), 0.1)
        assert maps.plus[0, 0] == 0.1
        assert maps.minus[0, 1] == 0.1

    def test_reconstruction_identity(self, rng):
        resp = rng.standard_normal((12, 12)) * 0.2
        eps = 0.05
        maps = split_maps(resp, eps)
        strong = np.abs(resp) >= eps
        np.testing.assert_array_equal((maps.plus - maps.minus)[strong],
                                      resp[strong])
        assert np.all((maps.plus - maps.minus)[~strong] == 0)

    def test_disjoint_support(self, rng):
        maps = split_maps(rng.standard_normal((15, 15)), 0.0)
        assert np.all(maps.plus * maps.minus == 0)
        assert np.all(maps.plus >= 0) and np.all(maps.minus >= 0)

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError):
            split_maps(np.zeros((2, 2)), -0.1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_response_rejected(self, rng, bad):
        # a NaN would otherwise go to neither map and read as a flat pixel
        resp = rng.standard_normal((6, 6))
        resp[2, 3] = bad
        with pytest.raises(NonFiniteImageError):
            split_maps(resp, 0.1)


class TestBfPreprocess:
    def test_composition(self, rng):
        img = rng.random((20, 20))
        p = BfParams()
        maps = bf_preprocess(img, p)
        want = split_maps(dog_filter(img, p), p.epsilon)
        np.testing.assert_array_equal(maps.plus, want.plus)
        np.testing.assert_array_equal(maps.minus, want.minus)
        np.testing.assert_array_equal(maps.raw, want.raw)

    def test_constant_image_yields_empty_maps(self):
        maps = bf_preprocess(np.full((16, 16), 0.8))
        assert np.all(maps.plus == 0) and np.all(maps.minus == 0)

    def test_default_params_used(self, rng):
        img = rng.random((16, 16))
        a = bf_preprocess(img)
        b = bf_preprocess(img, BfParams(1.0, 4.0, 0.1))
        np.testing.assert_array_equal(a.raw, b.raw)


class TestProperties:
    @FAST
    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(8, 24),
           offset=st.floats(-10.0, 10.0))
    def test_dog_invariant_to_constant_offset(self, seed, size, offset):
        img = np.random.default_rng(seed).random((size, size))
        np.testing.assert_allclose(dog_filter(img + offset, BfParams()),
                                   dog_filter(img, BfParams()), atol=1e-12)

    @staticmethod
    def response(seed, size, epsilon):
        """Signed response with exact threshold and zero values mixed in."""
        rng = np.random.default_rng(seed)
        resp = rng.standard_normal((size, size)) * 0.2
        edges = np.array([epsilon, -epsilon, 0.0])
        pick = rng.integers(0, 6, size=resp.shape)
        return np.where(pick < 3, edges[np.minimum(pick, 2)], resp)

    @FAST
    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 16),
           epsilon=st.floats(0.0, 0.5))
    def test_maps_nonnegative_and_disjoint(self, seed, size, epsilon):
        maps = split_maps(self.response(seed, size, epsilon), epsilon)
        assert np.all(maps.plus >= 0) and np.all(maps.minus >= 0)
        assert not np.any((maps.plus > 0) & (maps.minus > 0))

    @FAST
    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 16),
           epsilon=st.floats(0.0, 0.5))
    def test_maps_reconstruct_strong_response(self, seed, size, epsilon):
        raw = self.response(seed, size, epsilon)
        maps = split_maps(raw, epsilon)
        strong = np.abs(raw) >= epsilon
        np.testing.assert_array_equal((maps.plus - maps.minus)[strong],
                                      raw[strong])

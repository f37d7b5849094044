import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bftex.baselines import dog_only, gamma_correct, gaussian_derivative
from bftex.retina import BfParams, dog_filter


class TestGammaCorrect:
    def test_identity_at_gamma_one(self, rng):
        img = rng.random((8, 8))
        np.testing.assert_array_equal(gamma_correct(img, 1.0), img)

    def test_square_root(self):
        assert gamma_correct(np.array([[0.25]]), 0.5)[0, 0] == pytest.approx(0.5)

    def test_fixed_point_at_one(self):
        out = gamma_correct(np.ones((3, 3)), 2.2)
        np.testing.assert_allclose(out, 1.0)

    def test_monotone(self, rng):
        img = np.sort(rng.random(50))
        out = gamma_correct(img.reshape(1, -1), 2.2).ravel()
        assert np.all(np.diff(out) >= 0)

    def test_invalid_gamma(self):
        with pytest.raises(ValueError):
            gamma_correct(np.zeros((2, 2)), 0.0)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(unit=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=16),
           signed=st.lists(st.floats(-100.0, 100.0), min_size=1, max_size=16),
           gamma=st.floats(0.1, 5.0))
    def test_power_on_unit_interval_and_odd(self, unit, signed, gamma):
        unit = np.array(unit)
        assert np.array_equal(gamma_correct(unit, gamma),
                              np.power(unit, gamma))
        signed = np.array(signed)
        out = gamma_correct(signed, gamma)
        assert np.isfinite(out).all()
        np.testing.assert_array_equal(gamma_correct(-signed, gamma), -out)


class TestDogOnly:
    def test_delegates_to_dog_filter(self, rng):
        img = rng.random((16, 16))
        np.testing.assert_array_equal(
            dog_only(img, 1.0, 4.0),
            dog_filter(img, BfParams(sigma1=1.0, sigma2=4.0)))

    def test_constant_gives_zeros(self):
        np.testing.assert_allclose(dog_only(np.full((10, 10), 0.3), 1.0, 3.0),
                                   0.0, atol=1e-12)

    def test_step_edge_signed_response(self):
        img = np.zeros((24, 24))
        img[:, 12:] = 1.0
        out = dog_only(img, 1.0, 4.0)
        # narrow-minus-wide kernel: negative on the dark side, positive on
        # the light side
        assert out[12, 10] < 0 and out[12, 13] > 0

    def test_requires_sigma_ordering(self):
        with pytest.raises(ValueError):
            dog_only(np.zeros((8, 8)), 4.0, 2.0)


class TestGaussianDerivative:
    def test_order0_preserves_constant(self):
        img = np.full((12, 12), 0.6)
        np.testing.assert_allclose(gaussian_derivative(img, 1.0, 0), img,
                                   atol=1e-12)

    def test_order1_zero_on_constant(self):
        out = gaussian_derivative(np.full((12, 12), 0.5), 1.0, 1)
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_order1_constant_magnitude_on_ramp(self):
        w = 40
        img = np.tile(np.arange(w, dtype=float) / w, (w, 1))
        out = gaussian_derivative(img, 1.0, 1)
        interior = out[4:-4, 4:-4]
        np.testing.assert_allclose(interior, 1.0 / w, atol=1e-6)

    def test_order1_nonnegative(self, rng):
        out = gaussian_derivative(rng.random((16, 16)), 1.0, 1)
        assert np.all(out >= 0)

    def test_order2_annihilates_constant_and_ramp(self):
        w = 30
        const = np.full((w, w), 0.4)
        np.testing.assert_allclose(gaussian_derivative(const, 1.0, 2), 0.0,
                                   atol=1e-9)
        ramp = np.tile(np.arange(w, dtype=float) / w, (w, 1))
        out = gaussian_derivative(ramp, 1.0, 2)
        np.testing.assert_allclose(out[4:-4, 4:-4], 0.0, atol=1e-9)

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            gaussian_derivative(np.zeros((8, 8)), 1.0, 3)

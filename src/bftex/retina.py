"""Retina-inspired band-pass preprocessing.

A difference-of-Gaussians filter (two unit-mass separable blurs with
sigma1 < sigma2) models the bipolar-cell response; the signed response is
then split into non-negative ON and OFF maps with a small stability
threshold epsilon that zeroes out near-uniform regions.
"""

from dataclasses import dataclass

import numpy as np

from .image import check_finite, convolve_separable, gaussian_kernel_1d

DEFAULT_SIGMA1 = 1.0
DEFAULT_SIGMA2 = 4.0
DEFAULT_EPSILON = 0.1


@dataclass(frozen=True)
class BfParams:
    """Band-pass filter parameters: blur std-devs and split threshold."""

    sigma1: float = DEFAULT_SIGMA1
    sigma2: float = DEFAULT_SIGMA2
    epsilon: float = DEFAULT_EPSILON

    def __post_init__(self):
        if not 0 < self.sigma1 < self.sigma2:
            raise ValueError(
                f"require 0 < sigma1 < sigma2, got sigma1={self.sigma1}, "
                f"sigma2={self.sigma2}")
        if self.epsilon < 0:
            raise ValueError(f"epsilon must be >= 0, got {self.epsilon}")


@dataclass(frozen=True)
class BfMaps:
    """ON/OFF response pair plus the raw signed band-pass response.

    plus and minus are everywhere >= 0 with pointwise disjoint support;
    plus - minus reconstructs raw wherever |raw| clears the threshold.
    """

    plus: np.ndarray
    minus: np.ndarray
    raw: np.ndarray


def dog_filter(img, params):
    """Band-pass the image: blur at sigma1 minus blur at sigma2.

    Both blurs use unit-normalized kernels, so the response to a constant
    image is exactly zero (DC cancels by construction).  An image with a
    NaN or infinite pixel is rejected.
    """
    img = np.asarray(img, dtype=np.float64)
    check_finite(img)
    k1 = gaussian_kernel_1d(params.sigma1)
    k2 = gaussian_kernel_1d(params.sigma2)
    return convolve_separable(img, k1) - convolve_separable(img, k2)


def split_maps(response, epsilon):
    """Split a signed response into non-negative ON (plus) and OFF (minus) maps.

    plus(p) = response(p) where response(p) >= epsilon, else 0;
    minus(p) = |response(p)| where response(p) <= -epsilon, else 0.
    Exactly-zero responses go to neither map (relevant only for epsilon=0),
    so no pixel is ever counted on both sides.
    """
    if epsilon < 0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    response = np.asarray(response, dtype=np.float64)
    on = (response >= epsilon) & (response > 0)
    off = (response <= -epsilon) & (response < 0)
    plus = np.where(on, response, 0.0)
    minus = np.where(off, -response, 0.0)
    return BfMaps(plus=plus, minus=minus, raw=response)


def bf_preprocess(img, params=None):
    """Full preprocessing: band-pass filter then ON/OFF split."""
    if params is None:
        params = BfParams()
    return split_maps(dog_filter(img, params), params.epsilon)

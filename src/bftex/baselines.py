"""Comparison preprocessors: gamma correction, plain DoG, Gaussian derivatives.

These are the alternatives the experiment harness pits against the ON/OFF
band-pass preprocessing.  Each is a pure function of the input raster, and
of each image alone when given a stack whose last two axes are the image.
"""

import numpy as np

from .image import (convolve_separable, gaussian_derivative_kernel_1d,
                    gaussian_kernel_1d)
from .retina import BfParams, dog_filter

BASELINE_NAMES = ("none", "bf", "gamma", "dog", "gderiv0", "gderiv1", "gderiv2")


def gamma_correct(img, gamma):
    """Pointwise sign-preserving power law out = sign(img) * |img| ** gamma.

    On [0, 1] this is exactly img ** gamma; below 0 (unclipped noise) it is
    the odd extension, so negative pixels stay finite instead of NaN.
    """
    if not 0 < gamma < np.inf:
        raise ValueError(f"gamma must be in (0, inf), got {gamma}")
    img = np.asarray(img, dtype=np.float64)
    return np.copysign(np.power(np.abs(img), gamma), img)


def dog_only(img, sigma1, sigma2):
    """Plain signed difference-of-Gaussians response, no ON/OFF split."""
    return dog_filter(img, BfParams(sigma1=sigma1, sigma2=sigma2))


def gaussian_derivative(img, sigma, order):
    """Gaussian derivative filtering.

    order 0: plain Gaussian blur.
    order 1: gradient magnitude sqrt(Gx^2 + Gy^2).
    order 2: Laplacian-of-Gaussian response Gxx + Gyy.
    """
    g = gaussian_kernel_1d(sigma)
    if order == 0:
        return convolve_separable(img, g)
    if order == 1:
        d1 = gaussian_derivative_kernel_1d(sigma, 1)
        gx = convolve_separable(img, kernel_row=d1, kernel_col=g)
        gy = convolve_separable(img, kernel_row=g, kernel_col=d1)
        return np.sqrt(gx * gx + gy * gy)
    if order == 2:
        d2 = gaussian_derivative_kernel_1d(sigma, 2)
        gxx = convolve_separable(img, kernel_row=d2, kernel_col=g)
        gyy = convolve_separable(img, kernel_row=g, kernel_col=d2)
        return gxx + gyy
    raise ValueError(f"order must be 0, 1 or 2, got {order}")

"""Scalar reference implementations that the tests compare the vectorized
package code against."""

import csv
import math
from functools import lru_cache

import numpy as np

from bftex.descriptors import MAX_P, neighbor_offsets


def sample_neighbors(img, x, y, spec):
    """The P neighbor samples of pixel (x, y); x is the column index."""
    img = np.asarray(img, dtype=np.float64)
    h, w = img.shape
    m = spec.margin
    if not (m <= x < w - m and m <= y < h - m):
        raise ValueError(f"pixel ({x},{y}) is not interior for R={spec.r}")
    samples = np.empty(spec.p)
    for k, (dr, dc) in enumerate(neighbor_offsets(spec)):
        r0, c0 = math.floor(dr), math.floor(dc)
        fr, fc = dr - r0, dc - c0
        if fr == 0.0 and fc == 0.0:
            samples[k] = img[y + r0, x + c0]
        else:
            samples[k] = ((1 - fr) * (1 - fc) * img[y + r0, x + c0]
                          + (1 - fr) * fc * img[y + r0, x + c0 + 1]
                          + fr * (1 - fc) * img[y + r0 + 1, x + c0]
                          + fr * fc * img[y + r0 + 1, x + c0 + 1])
    return samples


@lru_cache(maxsize=None)
def riu2_map(p):
    """Lookup table of length 2**P mapping each code to its rotation-invariant
    uniform label: popcount for codes with <= 2 circular transitions, P+1 for
    everything else (P+2 labels total)."""
    if p > MAX_P:
        raise ValueError(f"P={p} too large for a riu2 table")
    codes = np.arange(1 << p, dtype=np.uint32)
    rotated = ((codes << 1) | (codes >> (p - 1))) & np.uint32((1 << p) - 1)
    transitions = np.bitwise_count(codes ^ rotated)
    pop = np.bitwise_count(codes)
    table = np.where(transitions <= 2, pop, p + 1).astype(np.int32)
    table.setflags(write=False)
    return table


def dog_kernel(x, y, sigma1, sigma2):
    """Continuous difference-of-Gaussians kernel value at (x, y)."""
    r2 = x * x + y * y
    return (math.exp(-r2 / (2.0 * sigma1 ** 2)) / (2.0 * math.pi * sigma1 ** 2)
            - math.exp(-r2 / (2.0 * sigma2 ** 2)) / (2.0 * math.pi * sigma2 ** 2))


def derivative_kernel(sigma, order):
    """Sampled derivative-of-Gaussian kernel of order 1 or 2, written out
    from the Gaussian formula: radius ceil(3*sigma), unit-sum Gaussian
    taps, order 1 scaled to respond 1 to a slope-1 ramp, order 2 made
    zero-sum and scaled to respond 2 to x^2."""
    radius = math.ceil(3.0 * sigma)
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    g = np.exp(-(x * x) / (2.0 * sigma * sigma))
    g /= g.sum()
    if order == 1:
        taps = x * g / (sigma * sigma)
        return taps / np.dot(x, taps)
    taps = (x * x / sigma ** 4 - 1.0 / sigma ** 2) * g
    taps -= taps.mean()
    return taps * (2.0 / np.dot(x * x, taps))


def load_csv_matrix(path):
    """A matrix written by bftex.image.save_csv_matrix, read back."""
    with open(path, newline="") as f:
        rows = [[float(v) for v in row] for row in csv.reader(f) if row]
    return np.asarray(rows, dtype=np.float64)

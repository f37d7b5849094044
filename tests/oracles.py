"""Scalar reference implementations that the tests compare the vectorized
package code against."""

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

"""Scalar reference implementations that the tests compare the vectorized
package code against."""

import csv
import math
from functools import lru_cache

import numpy as np

from bftex.descriptors import MAX_P, interior, neighbor_offsets


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


def float_stack(img, spec):
    """(..., P, h, w) neighbour stack, each plane filled from the image's
    2-D windows shifted by the offset, interpolated planes accumulated in
    place in the order of the written-out bilinear sum.  The package's
    plane loop over the flattened stack must give it bit for bit."""
    img = np.asarray(img, dtype=np.float64)
    m = spec.margin
    h, w = img.shape[-2:]

    def window(dr, dc):
        return img[..., m + dr:h - m + dr, m + dc:w - m + dc]

    out = np.empty(img.shape[:-2] + (spec.p, h - 2 * m, w - 2 * m))
    for k, (dr, dc) in enumerate(neighbor_offsets(spec)):
        r0, c0 = math.floor(dr), math.floor(dc)
        fr, fc = dr - r0, dc - c0
        plane = out[..., k, :, :]
        if fr == 0.0 and fc == 0.0:
            plane[...] = window(r0, c0)
        else:
            np.multiply((1 - fr) * (1 - fc), window(r0, c0), out=plane)
            plane += (1 - fr) * fc * window(r0, c0 + 1)
            plane += fr * (1 - fc) * window(r0 + 1, c0)
            plane += fr * fc * window(r0 + 1, c0 + 1)
    return out


def float_stack_codes(img, spec, label, planes="SMC"):
    """(S, M, C) planes of the completed-LBP family from the float stack:
    sign bits [neighbour - centre >= 0], magnitude bits against each
    image's mean |neighbour - centre|, centre bit against each image's
    mean interior intensity; `label` maps a (P, ...) bit stack to labels.
    Planes not in `planes` are None."""
    diffs = float_stack(img, spec)
    center = interior(img, spec)
    diffs -= center[..., None, :, :]
    s = label(np.moveaxis(diffs >= 0, -3, 0)) if "S" in planes else None
    m = None
    if "M" in planes:
        mags = np.abs(diffs)
        m = label(np.moveaxis(
            mags >= mags.mean(axis=(-3, -2, -1), keepdims=True), -3, 0))
    c = ((center >= center.mean(axis=(-2, -1), keepdims=True))
         .astype(np.int32) if "C" in planes else None)
    return s, m, c


def float_stack_ltp_bits(img, spec, t):
    """LTP's (P, ...) upper [n >= c + t] and lower [n <= c - t] bit stacks
    from the float stack."""
    stack = float_stack(img, spec)
    center = interior(img, spec)[..., None, :, :]
    return (np.moveaxis(stack >= center + t, -3, 0),
            np.moveaxis(stack <= center - t, -3, 0))

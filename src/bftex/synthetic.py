"""Synthetic texture suite for desk-scale experiments.

Generates a labeled set of small grayscale textures (gratings at several
frequencies, checkerboards, blob noise at two scales, a mixed class and
concentric rings).  Every image gets a random orientation, phase, gain,
offset and a dose of additive sensor noise, so the train/test task is
non-trivial for raw local-pattern descriptors.
"""

import os

import numpy as np

from .image import convolve_separable, gaussian_kernel_1d, save_pgm

DEFAULT_CLASSES = 8
DEFAULT_PER_CLASS = 20
DEFAULT_SIZE = 64
SENSOR_NOISE = 0.05
# Image i of class c draws from key (seed << 32) + c * MAX_PER_CLASS + i,
# so more images per class would share a stream with the next class.
MAX_PER_CLASS = 1000


def _rotated_coords(size, angle):
    ax = np.arange(size, dtype=np.float64) - size / 2.0
    yy, xx = np.meshgrid(ax, ax, indexing="ij")
    u = np.cos(angle) * xx + np.sin(angle) * yy
    v = -np.sin(angle) * xx + np.cos(angle) * yy
    return u, v


def _grating(size, cycles, rng):
    u, _ = _rotated_coords(size, rng.uniform(0, np.pi))
    phase = rng.uniform(0, 2 * np.pi)
    return 0.5 + 0.5 * np.sin(2 * np.pi * cycles * u / size + phase)


def _checker(size, cells, rng):
    u, v = _rotated_coords(size, rng.uniform(0, np.pi))
    phase = rng.uniform(0, 2 * np.pi)
    s = np.sin(np.pi * cells * u / size + phase) * \
        np.sin(np.pi * cells * v / size + phase)
    return (s > 0).astype(np.float64)


def _blobs(size, sigma, rng):
    base = convolve_separable(rng.normal(size=(size, size)),
                              gaussian_kernel_1d(sigma))
    lo, hi = base.min(), base.max()
    return (base - lo) / (hi - lo) if hi > lo else np.full_like(base, 0.5)


def _rings(size, cycles, rng):
    u, v = _rotated_coords(size, 0.0)
    cy = rng.uniform(-size / 4, size / 4)
    cx = rng.uniform(-size / 4, size / 4)
    rad = np.hypot(u - cx, v - cy)
    return 0.5 + 0.5 * np.sin(2 * np.pi * cycles * rad / size)


# Class name -> pattern generator(size, rng), in label order.
_PATTERNS = {
    "grating4": lambda size, rng: _grating(size, 4, rng),
    "grating8": lambda size, rng: _grating(size, 8, rng),
    "grating16": lambda size, rng: _grating(size, 16, rng),
    "checker6": lambda size, rng: _checker(size, 6, rng),
    "checker12": lambda size, rng: _checker(size, 12, rng),
    "blobs4": lambda size, rng: _blobs(size, 4.0, rng),
    "blobs2": lambda size, rng: _blobs(size, 2.0, rng),
    "mix": lambda size, rng: (0.5 * _grating(size, 6, rng)
                              + 0.5 * _blobs(size, 3.0, rng)),
    "rings": lambda size, rng: _rings(size, 8, rng),
}
CLASS_NAMES = tuple(_PATTERNS)


def synth_image(class_idx, size, rng):
    """One synthetic texture in [0, 1]: pattern, gain/offset jitter, noise."""
    pattern = _PATTERNS[CLASS_NAMES[class_idx]](size, rng)
    gain = rng.uniform(0.6, 1.0)
    offset = rng.uniform(0.0, 0.15)
    img = offset + gain * pattern * (1.0 - offset)
    img = img + rng.normal(0.0, SENSOR_NOISE, size=img.shape)
    return np.clip(img, 0.0, 1.0)


def generate_suite(out_dir, n_classes=DEFAULT_CLASSES,
                   per_class=DEFAULT_PER_CLASS, size=DEFAULT_SIZE, seed=0):
    """Write the suite as PGM files plus a manifest; returns the manifest path."""
    if not 2 <= n_classes <= len(CLASS_NAMES):
        raise ValueError(f"n_classes must be in [2, {len(CLASS_NAMES)}], "
                         f"got {n_classes}")
    for name, value in (("per_class", per_class), ("size", size)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    if per_class > MAX_PER_CLASS:
        raise ValueError(f"per_class must be <= {MAX_PER_CLASS}, got "
                         f"{per_class}")
    if not 0 <= seed < 1 << 96:  # the high 96 bits of a 128-bit Philox key
        raise ValueError(f"seed must be in [0, 2**96), got {seed}")
    os.makedirs(out_dir, exist_ok=True)
    lines = ["# synthetic texture suite"]
    for c in range(n_classes):
        for i in range(per_class):
            rng = np.random.Generator(np.random.Philox(
                key=(seed << 32) + c * MAX_PER_CLASS + i))
            img = synth_image(c, size, rng)
            name = f"{CLASS_NAMES[c]}_{i:03d}.pgm"
            save_pgm(img, os.path.join(out_dir, name))
            lines.append(f"{name} {c}")
    manifest_path = os.path.join(out_dir, "manifest.txt")
    with open(manifest_path, "w") as f:
        f.write("\n".join(lines) + "\n")
    return manifest_path

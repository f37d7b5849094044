"""bftex: retina-inspired band-pass preprocessing for texture classification.

The pipeline: a difference-of-Gaussians band-pass filter splits each image
into non-negative ON/OFF response maps; LBP-family descriptors extracted
from the map pair (instead of the raw image) feed a chi-square
nearest-neighbor classifier.
"""

from .classify import ReferenceSet, chi2, evaluate, nn_classify
from .descriptors import (DescriptorConfig, NeighborhoodSpec, extract,
                          feature_size)
from .image import load_image, save_csv_matrix, save_pgm
from .retina import BfMaps, BfParams, bf_preprocess, dog_filter, split_maps

__version__ = "0.1.0"

__all__ = [
    "BfMaps", "BfParams", "DescriptorConfig", "NeighborhoodSpec",
    "ReferenceSet", "bf_preprocess", "chi2", "dog_filter", "evaluate",
    "extract", "feature_size", "load_image", "nn_classify", "save_csv_matrix",
    "save_pgm", "split_maps",
]

"""Chi-square histogram distance and nearest-neighbor classification."""

import math
from dataclasses import dataclass

import numpy as np


@dataclass
class ReferenceSet:
    """Training histograms stacked row-wise with their class labels."""

    histograms: np.ndarray  # (n, d)
    labels: np.ndarray      # (n,)

    def __post_init__(self):
        self.histograms = np.asarray(self.histograms, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.histograms.ndim != 2 or len(self.histograms) == 0:
            raise ValueError("reference set must hold at least one histogram")
        if len(self.labels) != len(self.histograms):
            raise ValueError("label count does not match histogram count")
        _check_labels(self.labels, "reference")
        _check_finite(self.histograms, "reference")

    @property
    def dims(self):
        return self.histograms.shape[1]


def _check_labels(labels, what):
    if len(labels) and labels.min() < 0:
        raise ValueError(f"{what} labels must be >= 0, got {labels.min()}")


def _check_finite(histograms, what):
    if not np.isfinite(histograms).all():
        raise ValueError(f"{what} histograms contain NaN or infinite bins")


def chi2(h, k):
    """Chi-square distance sum (h_i - k_i)^2 / (h_i + k_i); 0/0 bins
    contribute zero."""
    h = np.asarray(h, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    if h.shape != k.shape:
        raise ValueError(f"histogram length mismatch: {h.shape} vs {k.shape}")
    denom = h + k
    num = (h - k) ** 2
    return float(np.sum(np.divide(num, denom, out=np.zeros_like(num),
                                  where=denom != 0)))


def chi2_all(query, refs):
    """Chi-square distances from one query to every reference row."""
    q = np.asarray(query, dtype=np.float64)
    if q.shape[0] != refs.dims:
        raise ValueError(f"query length {q.shape[0]} != reference dims {refs.dims}")
    denom = refs.histograms + q
    num = (refs.histograms - q) ** 2
    return np.divide(num, denom, out=np.zeros_like(num),
                     where=denom != 0).sum(axis=1)


def nn_classify(query, refs):
    """(predicted label, distance) of the nearest reference; ties go to the
    lowest reference index.

    References are finite (ReferenceSet checks them), so a NaN distance
    means the query has a non-finite bin: every distance is then NaN.
    """
    dists = chi2_all(query, refs)
    idx = int(np.argmin(dists))
    dist = float(dists[idx])
    if math.isnan(dist):
        raise ValueError("query histogram contains NaN or infinite bins")
    return int(refs.labels[idx]), dist


def nearest(queries, refs):
    """(labels, distances) of the nearest reference to every query row."""
    queries = np.asarray(queries, dtype=np.float64)
    if len(queries) == 0:
        raise ValueError("no queries to evaluate")
    _check_finite(queries, "query")
    found = [nn_classify(q, refs) for q in queries]
    return (np.array([lab for lab, _ in found], dtype=np.int64),
            np.array([dist for _, dist in found]))


def score(predicted, query_labels, refs):
    """(accuracy, confusion matrix) of predicted against true labels.

    Confusion rows are true classes, columns predicted classes, indexed by
    raw label value up to the largest label seen.
    """
    query_labels = np.asarray(query_labels, dtype=np.int64)
    if len(query_labels) != len(predicted):
        raise ValueError(f"{len(query_labels)} query labels for "
                         f"{len(predicted)} predictions")
    _check_labels(query_labels, "query")
    n_classes = int(max(query_labels.max(), refs.labels.max())) + 1
    confusion = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(confusion, (query_labels, predicted), 1)
    return int(np.sum(predicted == query_labels)) / len(predicted), confusion


def evaluate(queries, query_labels, refs):
    """Classify every query; returns (accuracy, confusion matrix) as in
    score().  Labels must be >= 0 and histograms finite."""
    predicted, _ = nearest(queries, refs)
    return score(predicted, query_labels, refs)

"""Chi-square histogram distance and nearest-neighbor classification."""

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
        _check_bins(self.histograms, "reference")

    @property
    def dims(self):
        return self.histograms.shape[1]


def _check_labels(labels, what):
    if len(labels) and labels.min() < 0:
        raise ValueError(f"{what} labels must be >= 0, got {labels.min()}")


def _check_bins(histograms, what):
    """Histogram bins must be finite and non-negative: with a negative bin,
    h = -q would make a 0/0 term and two different histograms could lie at
    distance 0."""
    if not np.isfinite(histograms).all():
        raise ValueError(f"{what} histograms contain NaN or infinite bins")
    if (histograms < 0).any():
        raise ValueError(f"{what} histograms contain negative bins")


def chi2(h, k):
    """Chi-square distance sum (h_i - k_i)^2 / (h_i + k_i); 0/0 bins
    contribute zero.  Bins must be non-negative."""
    h = np.asarray(h, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    if h.shape != k.shape:
        raise ValueError(f"histogram length mismatch: {h.shape} vs {k.shape}")
    if (h < 0).any() or (k < 0).any():
        raise ValueError("histograms contain negative bins")
    denom = h + k
    num = (h - k) ** 2
    return float(np.sum(np.divide(num, denom, out=np.zeros_like(num),
                                  where=denom != 0)))


# Float64 cells per scratch buffer (256 KB): chi2_matrix streams the
# reference rows through buffers of this size, whatever the matrix shape,
# so a block and its scratch stay in a core's L2 cache.
_BLOCK_CELLS = 1 << 15


def chi2_matrix(queries, refs):
    """(m, n) chi-square distances from every query row to every reference.

    Each distance is the chi2() of the pair, bit for bit, for finite,
    non-negative bins whose sums do not overflow: the terms are formed in
    the same order, and each row of terms is summed over a contiguous
    buffer.  Queries must be finite and non-negative (ReferenceSet checks
    the references).
    """
    queries = np.asarray(queries, dtype=np.float64)
    if len(queries) == 0:
        raise ValueError("no queries to evaluate")
    if queries.ndim != 2:
        raise ValueError("queries must be a 2-D array of histograms")
    if queries.shape[1] != refs.dims:
        raise ValueError(f"query length {queries.shape[1]} != reference "
                         f"dims {refs.dims}")
    _check_bins(queries, "query")
    return _chi2_blocks(queries, refs.histograms)


def _chi2_triangle(refs):
    """chi2_matrix(refs.histograms, refs), bit for bit, with each pair
    computed once: chi2 is bit-symmetric, because h + q and (h - q)^2 give
    the same floats in either order."""
    return _chi2_blocks(refs.histograms, refs.histograms, symmetric=True)


def _chi2_blocks(queries, hists, symmetric=False):
    """The chi2 kernel.  Reference rows go through in fixed blocks, so the
    scratch stays bounded and is allocated once per call.

    With non-negative bins, h + q = 0 only where h = q = 0; that term is
    0/0 = NaN, and fmax turns it into 0.  With ``symmetric`` (queries are
    the references), a block is compared only with the queries up to its
    end, and its columns are then mirrored into its rows.
    """
    n, d = hists.shape
    block = min(n, max(1, _BLOCK_CELLS // max(d, 1)))
    den, terms = np.empty((block, d)), np.empty((block, d))
    dist = np.empty((len(queries), n))
    with np.errstate(invalid="ignore"):
        for j0 in range(0, n, block):
            j1 = min(n, j0 + block)
            h = hists[j0:j1]
            bden, bterms = den[:j1 - j0], terms[:j1 - j0]
            for i, q in enumerate(queries[:j1] if symmetric else queries):
                np.add(h, q, out=bden)
                np.subtract(h, q, out=bterms)
                np.square(bterms, out=bterms)
                np.divide(bterms, bden, out=bterms)
                np.fmax(bterms, 0.0, out=bterms)
                bterms.sum(axis=1, out=dist[i, j0:j1])
            if symmetric:
                dist[j0:j1, :j0] = dist[:j0, j0:j1].T
    return dist


def chi2_all(query, refs):
    """Chi-square distances from one query to every reference row."""
    return chi2_matrix(np.asarray(query, dtype=np.float64)[None, :], refs)[0]


def nn_classify(query, refs):
    """(predicted label, distance) of the nearest reference; ties go to the
    lowest reference index."""
    dists = chi2_all(query, refs)
    idx = int(np.argmin(dists))
    return int(refs.labels[idx]), float(dists[idx])


def nearest(queries, refs):
    """(labels, distances) of the nearest reference to every query row;
    ties go to the lowest reference index.  Queries go through in blocks
    of about _BLOCK_CELLS distances, so memory stays bounded whatever
    their number."""
    queries = np.asarray(queries, dtype=np.float64)
    step = max(1, _BLOCK_CELLS // len(refs.labels))
    idx, dists = [], []
    for i0 in range(0, max(len(queries), 1), step):
        dist = chi2_matrix(queries[i0:i0 + step], refs)
        j = np.argmin(dist, axis=1)
        idx.append(j)
        dists.append(dist[np.arange(len(j)), j])
    return refs.labels[np.concatenate(idx)], np.concatenate(dists)


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


def evaluate(queries, query_labels, refs, dist=None):
    """Classify every query; returns (accuracy, confusion matrix) as in
    score().  Labels must be >= 0 and histograms finite.  A caller that
    already holds chi2_matrix(queries, refs) passes it as ``dist``, and
    the distances are not computed again."""
    if dist is None:
        predicted, _ = nearest(queries, refs)
    else:
        if dist.shape != (len(queries), len(refs.labels)):
            raise ValueError(f"distance matrix {dist.shape} does not match "
                             f"{len(queries)} queries x {len(refs.labels)} "
                             "references")
        predicted = refs.labels[np.argmin(dist, axis=1)]
    return score(predicted, query_labels, refs)

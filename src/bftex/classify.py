"""Chi-square histogram distance and nearest-neighbor classification."""

import os
import threading
from concurrent.futures import ThreadPoolExecutor
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
        if self.histograms.ndim != 2 or 0 in self.histograms.shape:
            raise ValueError("need a reference histogram of at least one bin")
        if len(self.labels) != len(self.histograms):
            raise ValueError("label count does not match histogram count")
        _check_labels(self.labels, "reference")
        _check_bins(self.histograms, "reference")


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
    contribute zero.  Bins must be finite and non-negative."""
    h = np.asarray(h, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    if h.shape != k.shape:
        raise ValueError(f"histogram length mismatch: {h.shape} vs {k.shape}")
    _check_bins(h, "first")
    _check_bins(k, "second")
    denom = h + k
    num = (h - k) ** 2
    return float(np.sum(np.divide(num, denom, out=np.zeros_like(num),
                                  where=denom != 0)))


# Float64 cells per scratch buffer (256 KB): chi2_matrix streams the
# reference rows through buffers of this size, whatever the matrix shape,
# so a block and its scratch stay in a core's L2 cache.
_BLOCK_CELLS = 1 << 15

# Query x reference x bin cells from which _chi2_blocks starts its thread
# pool.  On 2 CPUs, calls of 0.15 to 0.75 million cells ran 0.4 to 1 ms
# slower on the pool than inline, calls of about a million ran about even,
# and larger calls ran faster on it, with one query or many (one query
# against 4320 references of 648 bins: 12.0 ms inline, 8.5 ms pooled).
_POOL_CELLS = 1 << 20
# Set in each worker of a process pool (harness._start_worker), whose
# siblings already run on the other CPUs: its chi2 kernel runs inline, so
# threads grow with the CPUs, not with their square.
_pool_worker = False


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
    if queries.shape[1] != refs.histograms.shape[1]:
        raise ValueError(f"query length {queries.shape[1]} != reference "
                         f"dims {refs.histograms.shape[1]}")
    _check_bins(queries, "query")
    return _chi2_blocks(queries, refs.histograms)


def _chi2_triangle(refs):
    """chi2_matrix(refs.histograms, refs), bit for bit, with each pair
    computed once: chi2 is bit-symmetric, because h + q and (h - q)^2 give
    the same floats in either order."""
    return _chi2_blocks(refs.histograms, refs.histograms, symmetric=True)


def _cpu_count():
    """CPUs this process may run on: its affinity mask where the platform
    has one, so ``taskset`` limits the chi2 kernel's threads."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _chi2_blocks(queries, hists, symmetric=False):
    """The chi2 kernel: the (m, n) distances of ``queries`` to ``hists``,
    computed by _chi2_part.

    The reference blocks run on one thread per CPU, each thread taking
    every workers-th block of the heaviest-first deal, as each numpy call
    releases the GIL.  A block writes only its own cells, so the result is
    bit-identical to a serial loop.  When a worker raises, or the caller
    is interrupted, the other workers take no further block.  A call with
    one block, or with fewer than _POOL_CELLS cells in its whole matrix,
    or in a process pool's worker, runs inline, with no pool.
    """
    n, d = hists.shape
    dist = np.empty((len(queries), n))
    blocks = -(-n // _block_rows(n, d))
    workers = (min(_cpu_count(), blocks)
               if len(queries) * n * d >= _POOL_CELLS and not _pool_worker
               else 1)
    if workers == 1:
        _chi2_part(queries, hists, dist, symmetric=symmetric)
        return dist
    stop = threading.Event()

    def work(part):
        try:
            _chi2_part(queries, hists, dist, part, workers, symmetric, stop)
        except BaseException:
            stop.set()
            raise

    with ThreadPoolExecutor(workers) as pool:
        try:
            list(pool.map(work, range(workers)))
        finally:
            stop.set()  # leaving the pool waits for its workers
    return dist


def _block_rows(n, d):
    """Reference rows in one block of the chi2 kernel."""
    return min(n, max(1, _BLOCK_CELLS // max(d, 1)))


def _chi2_part(queries, hists, dist, part=0, parts=1, symmetric=False,
               stop=None):
    """The chi2 kernel's block loop: write into ``dist`` the distances of
    every query to the reference blocks ``part::parts`` of the deal.
    Reference rows go through in fixed blocks, so the scratch stays
    bounded and is allocated once per call.

    With non-negative bins, h + q = 0 only where h = q = 0; that term is
    0/0 = NaN, and fmax turns it into 0.  With ``symmetric`` (queries are
    the references), a block is compared only with the queries up to its
    end, and its columns are then mirrored into its rows: cells that no
    other block writes.  The blocks are then dealt heaviest first, as a
    triangle block costs in proportion to its end row.  The loop ends
    early once ``stop`` is set.
    """
    n, d = hists.shape
    block = _block_rows(n, d)
    starts = range(0, n, block)
    if symmetric:
        starts = starts[::-1]
    den, terms = np.empty((block, d)), np.empty((block, d))
    # errstate is per thread, so each worker enters its own
    with np.errstate(invalid="ignore"):
        for j0 in starts[part::parts]:
            if stop is not None and stop.is_set():
                return
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


def chi2_all(query, refs):
    """Chi-square distances from one query to every reference row."""
    return chi2_matrix(np.asarray(query, dtype=np.float64)[None, :], refs)[0]


def nn_classify(query, refs):
    """(predicted label, distance) of the nearest reference; ties go to the
    lowest reference index."""
    dists = chi2_all(query, refs)
    idx = int(np.argmin(dists))
    return int(refs.labels[idx]), float(dists[idx])


def evaluate(dist, query_labels, ref_labels):
    """(accuracy, confusion matrix) of the nearest reference to every query,
    from the (queries x references) chi2 matrix ``dist``; ties go to the
    lowest reference index.

    Confusion rows are true classes, columns predicted classes, indexed by
    raw label value up to the largest query or reference label.
    """
    query_labels = np.asarray(query_labels, dtype=np.int64)
    ref_labels = np.asarray(ref_labels, dtype=np.int64)
    if np.shape(dist) != (len(query_labels), len(ref_labels)):
        raise ValueError(f"distance matrix {np.shape(dist)} does not match "
                         f"{len(query_labels)} query labels x "
                         f"{len(ref_labels)} reference labels")
    if len(query_labels) == 0:
        raise ValueError("no queries to evaluate")
    _check_labels(query_labels, "query")
    _check_labels(ref_labels, "reference")
    predicted = ref_labels[np.argmin(dist, axis=1)]
    n_classes = int(max(query_labels.max(), ref_labels.max())) + 1
    confusion = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(confusion, (query_labels, predicted), 1)
    return int(np.sum(predicted == query_labels)) / len(predicted), confusion

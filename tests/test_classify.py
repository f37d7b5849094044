import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bftex import classify
from bftex.classify import (ReferenceSet, chi2, chi2_matrix, evaluate,
                            nn_classify)

# seeded and small: every run draws the same examples
FAST = settings(max_examples=25, deadline=None, derandomize=True)


def naive_chi2(h, k):
    total = 0.0
    for a, b in zip(h, k):
        if a + b != 0:
            total += (a - b) ** 2 / (a + b)
    return total


class TestChi2:
    def test_identity_is_zero(self, rng):
        h = rng.random(20)
        assert chi2(h, h) == 0.0

    def test_disjoint_unit_masses(self):
        assert chi2([1.0, 0.0], [0.0, 1.0]) == pytest.approx(2.0)

    def test_hand_value(self):
        # 0.0625/0.75 + 0.0625/1.25
        assert chi2([0.5, 0.5], [0.25, 0.75]) == pytest.approx(0.13333333333333333)

    def test_zero_bins_contribute_zero(self):
        assert chi2([0.0, 1.0], [0.0, 1.0]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            chi2([1.0], [0.5, 0.5])

    def test_symmetry_and_nonnegativity(self, rng):
        for _ in range(200):
            h = rng.random(12)
            k = rng.random(12)
            h, k = h / h.sum(), k / k.sum()
            d = chi2(h, k)
            assert d >= 0
            assert d == pytest.approx(chi2(k, h))
            assert d == pytest.approx(naive_chi2(h, k))

    def test_scales_linearly(self, rng):
        h, k = rng.random(8), rng.random(8)
        assert chi2(3.0 * h, 3.0 * k) == pytest.approx(3.0 * chi2(h, k))


def block_rows(d):
    """Reference rows that one chi2_matrix scratch block holds."""
    return max(1, classify._BLOCK_CELLS // d)


class TestChi2Matrix:
    @FAST
    @given(d=st.sampled_from([1, 5, 64, 1300, 4099]), data=st.data())
    def test_equals_scalar_chi2_bit_for_bit(self, d, data):
        n = data.draw(st.integers(1, 3 * block_rows(d) + 1), label="n")
        m = data.draw(st.integers(1, 4), label="m")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        refs = rng.random((n, d)) * 10.0 ** rng.integers(-6, 3, size=(n, 1))
        queries = rng.random((m, d))
        refs[rng.random((n, d)) < 0.5] = 0.0  # sparse, like histograms
        zero_cols = rng.random(d) < 0.2
        refs[:, zero_cols] = queries[:, zero_cols] = 0.0
        queries[0] = refs[rng.integers(n)]  # a query equal to a reference
        ref_set = ReferenceSet(refs, np.zeros(n, int))
        got = chi2_matrix(queries, ref_set)
        want = np.array([[chi2(h, q) for h in refs] for q in queries])
        assert np.array_equal(got, want)
        for q, row in zip(queries, got):
            assert np.array_equal(classify.chi2_all(q, ref_set), row)

    def test_negative_bins_rejected(self, rng):
        # with h = -q every term would be 0/0, so distinct histograms would
        # lie at distance 0
        with pytest.raises(ValueError, match="negative"):
            chi2([1.0, -1.0], [-1.0, 1.0])
        with pytest.raises(ValueError, match="reference histograms contain "
                                             "negative"):
            ReferenceSet([[1.0, -1.0]], [0])
        refs = ReferenceSet(rng.random((3, 4)), [0, 1, 0])
        queries = rng.random((2, 4))
        queries[1, 2] = -1e-300
        with pytest.raises(ValueError, match="query histograms contain "
                                             "negative"):
            chi2_matrix(queries, refs)
        queries[1, 2] = -0.0  # compares equal to zero, so it is accepted
        assert np.array_equal(chi2_matrix(queries, refs)[1],
                              [chi2(h, queries[1]) for h in refs.histograms])

    @pytest.mark.parametrize("d", [1, 20, 1296])
    @pytest.mark.parametrize("blocks", [1, 4])
    def test_triangle_equals_chi2_matrix(self, rng, monkeypatch, d, blocks):
        # at most 8 rows a block, so four blocks stay small at any d
        monkeypatch.setattr(classify, "_BLOCK_CELLS",
                            min(classify._BLOCK_CELLS, 8 * d))
        b = block_rows(d)
        n = b if blocks == 1 else 3 * b + 2  # crosses three block boundaries
        hists = rng.random((n, d)) * 10.0 ** rng.integers(-6, 3, size=(n, 1))
        hists[rng.random((n, d)) < 0.5] = 0.0
        hists[[1, n - 1]] = 0.0  # all-zero rows: every term is 0/0
        hists[n // 2] = hists[0]  # duplicates, across blocks when blocks > 1
        hists[n - 2] = hists[3]
        refs = ReferenceSet(hists, np.zeros(n, int))
        got = classify._chi2_triangle(refs)
        assert np.array_equal(got, chi2_matrix(hists, refs))
        assert got[1, n - 1] == got[0, n // 2] == 0.0

    def test_many_blocks(self, rng):
        d = 300
        n = 4 * block_rows(d) + 3
        refs = rng.random((n, d))
        queries = rng.random((3, d))
        got = chi2_matrix(queries, ReferenceSet(refs, np.zeros(n, int)))
        want = np.array([[chi2(h, q) for h in refs] for q in queries])
        assert np.array_equal(got, want)

    def test_duplicates_across_blocks_resolve_to_lowest_index(self, rng):
        d = 500
        n = 2 * block_rows(d) + 5
        refs = rng.random((n, d)) + 1.0
        labels = np.arange(n) % 7
        twin = block_rows(d) + 2  # in the next block
        assert labels[twin] != labels[3]
        refs[twin] = refs[3]
        query = refs[3] + 0.01
        assert nn_classify(query, ReferenceSet(refs, labels)) == \
            (labels[3], chi2(query, refs[3]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_query_rejected(self, rng, bad):
        refs = ReferenceSet(rng.random((3, 4)), [0, 1, 0])
        queries = rng.random((2, 4))
        queries[1, 3] = bad
        with pytest.raises(ValueError, match="query"):
            chi2_matrix(queries, refs)
        # the scalar chi2 rejects the same bins, in either argument
        for h, k in ((queries[1], queries[0]), (queries[0], queries[1])):
            with pytest.raises(ValueError, match="NaN or infinite"):
                chi2(h, k)

    def test_shape_checks(self, rng):
        refs = ReferenceSet(rng.random((3, 4)), [0, 1, 0])
        with pytest.raises(ValueError, match="no queries"):
            chi2_matrix(np.zeros((0, 4)), refs)
        with pytest.raises(ValueError, match="2-D"):
            chi2_matrix(rng.random(4), refs)
        with pytest.raises(ValueError, match="reference dims"):
            chi2_matrix(rng.random((2, 5)), refs)
        with pytest.raises(ValueError, match="label count does not match"):
            ReferenceSet(rng.random((3, 4)), [0, 1])


class TestChi2Pool:
    """Reference blocks run on one thread per CPU, bit for bit as the
    serial loop."""

    # wide enough rows for numpy to release the GIL; at 8 rows a block,
    # 43 references make six blocks
    D = 600

    def inputs(self, rng, m):
        n, d = 43, self.D
        hists = rng.random((n, d)) * 10.0 ** rng.integers(-6, 3, size=(n, 1))
        hists[rng.random((n, d)) < 0.5] = 0.0
        queries = rng.random((m, d))
        zero_cols = np.arange(0, d, 5)  # every term there is 0/0
        hists[:, zero_cols] = queries[:, zero_cols] = 0.0
        hists[[9, 41]] = hists[2]  # duplicates in three different blocks
        queries[0] = hists[2]
        return queries, ReferenceSet(hists, np.zeros(n, int))

    @pytest.mark.parametrize("m", [1, 3, 43])
    def test_any_worker_count_gives_serial_bits(self, rng, monkeypatch, m):
        monkeypatch.setattr(classify, "_BLOCK_CELLS", 8 * self.D)
        monkeypatch.setattr(classify, "_POOL_CELLS", 0)  # pool every call
        queries, refs = self.inputs(rng, m)
        got = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            for workers in (1, 2, 64):  # 64 > six blocks > two CPUs
                monkeypatch.setattr(classify, "_cpu_count", lambda: workers)
                got[workers] = (chi2_matrix(queries, refs),
                                classify._chi2_triangle(refs))
        finally:
            sys.setswitchinterval(interval)
        want = np.array([[chi2(h, q) for h in refs.histograms]
                         for q in queries])
        assert np.array_equal(got[1][0], want)
        assert got[1][0][0, 2] == got[1][0][0, 9] == got[1][0][0, 41] == 0.0
        for matrix, triangle in got.values():
            assert np.array_equal(matrix, got[1][0])
            assert np.array_equal(triangle, got[1][1])
        assert np.array_equal(got[1][1], chi2_matrix(refs.histograms, refs))

    def test_small_or_one_block_call_starts_no_pool(self, rng, monkeypatch):
        pools = []

        class CountingPool(ThreadPoolExecutor):
            def __init__(self, workers):
                pools.append(workers)
                super().__init__(workers)

        monkeypatch.setattr(classify, "ThreadPoolExecutor", CountingPool)
        monkeypatch.setattr(classify, "_cpu_count", lambda: 4)
        monkeypatch.setattr(classify, "_BLOCK_CELLS", 8 * self.D)
        queries, refs = self.inputs(rng, 3)
        monkeypatch.setattr(classify, "_POOL_CELLS", 0)
        one_block = ReferenceSet(refs.histograms[:8], refs.labels[:8])
        chi2_matrix(queries, one_block)
        classify._chi2_triangle(one_block)
        assert pools == []
        # the cell count decides, not the query count
        monkeypatch.setattr(classify, "_POOL_CELLS", 2 * 43 * self.D + 1)
        nn_classify(queries[1], refs)
        chi2_matrix(queries[:2], refs)  # one cell short
        assert pools == []
        monkeypatch.setattr(classify, "_POOL_CELLS", 2 * 43 * self.D)
        chi2_matrix(queries[:2], refs)
        classify._chi2_triangle(refs)
        monkeypatch.setattr(classify, "_POOL_CELLS", 43 * self.D)
        nn_classify(queries[1], refs)
        assert pools == [4, 4, 4]  # never more workers than CPUs

    def test_failing_worker_stops_the_others(self, rng, monkeypatch):
        # the first np.square call raises; the other worker, held inside
        # its first block until then, must take no further block
        monkeypatch.setattr(classify, "_BLOCK_CELLS", 8 * self.D)
        monkeypatch.setattr(classify, "_POOL_CELLS", 0)
        monkeypatch.setattr(classify, "_cpu_count", lambda: 2)
        queries, refs = self.inputs(rng, 3)
        square, lock, raised = np.square, threading.Lock(), threading.Event()
        calls = []

        def failing_square(*args, **kwargs):
            with lock:
                calls.append(threading.get_ident())
                first = len(calls) == 1
            if first:
                raised.set()
                raise RuntimeError("worker failed")
            if raised.wait(10) and calls.count(threading.get_ident()) == 1:
                time.sleep(0.05)  # let the failing worker set the stop flag
            return square(*args, **kwargs)

        monkeypatch.setattr(np, "square", failing_square)
        with pytest.raises(RuntimeError, match="worker failed"):
            chi2_matrix(queries, refs)
        # six blocks, three each: the other worker ends after at most one
        assert len(calls) <= 1 + len(queries)

    def test_worker_count_is_the_affinity_mask(self):
        want = (len(os.sched_getaffinity(0))
                if hasattr(os, "sched_getaffinity") else os.cpu_count())
        assert classify._cpu_count() == want >= 1


class TestChi2Parts:
    """The chi2 kernel's block loop as forked workers run it: each worker
    writes its share of the deal into one shared array."""

    @FAST
    @given(parts=st.integers(1, 4), rows=st.integers(1, 4),
           d=st.sampled_from([1, 7, 64]), data=st.data())
    def test_parts_in_any_order_give_the_triangle(self, parts, rows, d,
                                                  data):
        n = data.draw(st.integers(1, 6 * rows + 1), label="n")
        order = data.draw(st.permutations(range(parts)), label="order")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        hists = rng.random((n, d)) * 10.0 ** rng.integers(-6, 3, size=(n, 1))
        hists[rng.random((n, d)) < 0.5] = 0.0
        hists[rng.integers(n)] = hists[0]  # a duplicate row
        refs = ReferenceSet(hists, np.zeros(n, int))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(classify, "_BLOCK_CELLS", rows * d)
            dist = np.full((n, n), np.nan)  # every cell must be written
            for part in order:
                classify._chi2_part(hists, hists, dist, part, parts,
                                    symmetric=True)
            assert np.array_equal(dist, classify._chi2_triangle(refs))


class TestNnClassify:
    def test_exact_match(self, rng):
        hists = rng.random((5, 6))
        refs = ReferenceSet(hists, [0, 1, 2, 1, 0])
        label, dist = nn_classify(hists[3], refs)
        assert label == 1 and dist == 0.0

    def test_tie_breaks_to_lowest_index(self):
        refs = ReferenceSet(np.array([[1.0, 0.0], [1.0, 0.0]]), [7, 3])
        label, _ = nn_classify(np.array([0.5, 0.5]), refs)
        assert label == 7

    def test_matches_bruteforce_scan(self, rng):
        hists = rng.random((15, 10))
        labels = rng.integers(0, 3, size=15)
        refs = ReferenceSet(hists, labels)
        for _ in range(20):
            q = rng.random(10)
            dists = [chi2(q, h) for h in hists]
            best = int(np.argmin(dists))
            label, dist = nn_classify(q, refs)
            assert label == labels[best]
            assert dist == pytest.approx(dists[best])

    def test_dims_mismatch(self, rng):
        refs = ReferenceSet(rng.random((3, 5)), [0, 1, 0])
        with pytest.raises(ValueError):
            nn_classify(rng.random(4), refs)

    def test_empty_refs_rejected(self):
        with pytest.raises(ValueError):
            ReferenceSet(np.zeros((0, 4)), [])

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_query_rejected(self, rng, bad):
        refs = ReferenceSet(rng.random((3, 4)), [0, 1, 0])
        q = rng.random(4)
        q[2] = bad
        with pytest.raises(ValueError, match="query"):
            nn_classify(q, refs)

    def test_non_finite_reference_rejected(self, rng):
        hists = rng.random((3, 4))
        hists[1, 0] = np.nan
        with pytest.raises(ValueError, match="reference"):
            ReferenceSet(hists, [0, 1, 0])

    def test_negative_reference_label_rejected(self, rng):
        with pytest.raises(ValueError, match="-1"):
            ReferenceSet(rng.random((2, 4)), [0, -1])

    def test_common_rescale_preserves_argmin(self, rng):
        hists = rng.random((10, 6))
        labels = rng.integers(0, 4, size=10)
        q = rng.random(6)
        a, _ = nn_classify(q, ReferenceSet(hists, labels))
        b, _ = nn_classify(5.0 * q, ReferenceSet(5.0 * hists, labels))
        assert a == b


def nn_classify_score(queries, query_labels, refs):
    """(accuracy, confusion matrix) of a per-query nn_classify loop."""
    predicted = [nn_classify(q, refs)[0] for q in queries]
    n_classes = max(max(query_labels), max(refs.labels)) + 1
    confusion = np.zeros((n_classes, n_classes), dtype=np.int64)
    for true, pred in zip(query_labels, predicted):
        confusion[true, pred] += 1
    return np.mean(np.equal(predicted, query_labels)), confusion


class TestEvaluate:
    def test_identical_queries_are_perfect(self, rng):
        hists = rng.random((8, 5))
        labels = rng.integers(0, 3, size=8)
        refs = ReferenceSet(hists, labels)
        acc, confusion = evaluate(chi2_matrix(hists, refs), labels,
                                  refs.labels)
        assert acc == 1.0
        assert confusion.sum() == 8

    def test_zero_accuracy_achievable(self):
        refs = ReferenceSet(np.array([[1.0, 0.0], [0.0, 1.0]]), [0, 1])
        queries = np.array([[1.0, 0.0], [0.0, 1.0]])
        acc, _ = evaluate(chi2_matrix(queries, refs), [1, 0], refs.labels)
        assert acc == 0.0

    def test_confusion_row_sums(self, rng):
        hists = rng.random((12, 6))
        labels = rng.integers(0, 3, size=12)
        refs = ReferenceSet(hists[:6], labels[:6])
        acc, confusion = evaluate(chi2_matrix(hists[6:], refs), labels[6:],
                                  refs.labels)
        for c in range(3):
            assert confusion[c].sum() == int(np.sum(labels[6:] == c))

    def test_unseen_query_label_is_countable(self, rng):
        refs = ReferenceSet(rng.random((2, 4)), [0, 1])
        acc, confusion = evaluate(chi2_matrix(rng.random((1, 4)), refs), [5],
                                  refs.labels)
        assert acc == 0.0
        assert confusion.shape == (6, 6)

    def test_matches_double_loop_oracle(self, rng):
        hists = rng.random((30, 8))
        labels = rng.integers(0, 4, size=30)
        refs = ReferenceSet(hists[:15], labels[:15])
        acc, _ = evaluate(chi2_matrix(hists[15:], refs), labels[15:],
                          refs.labels)
        correct = 0
        for q, true in zip(hists[15:], labels[15:]):
            dists = [naive_chi2(q, h) for h in hists[:15]]
            if labels[:15][int(np.argmin(dists))] == true:
                correct += 1
        assert acc == pytest.approx(correct / 15)

    def test_negative_query_label_rejected(self, rng):
        refs = ReferenceSet(rng.random((2, 4)), [0, 1])
        with pytest.raises(ValueError, match="-1"):
            evaluate(chi2_matrix(rng.random((2, 4)), refs), [0, -1],
                     refs.labels)

    def test_negative_reference_label_rejected(self):
        with pytest.raises(ValueError, match="reference labels .* -1"):
            evaluate(np.zeros((1, 2)), [0], [-1, 0])

    def test_empty_query_set_rejected(self):
        with pytest.raises(ValueError, match="no queries to evaluate"):
            evaluate(np.zeros((0, 2)), [], [0, 1])

    def test_label_count_must_match_queries(self, rng):
        refs = ReferenceSet(rng.random((2, 4)), [0, 1])
        dist = chi2_matrix(rng.random((3, 4)), refs)
        with pytest.raises(ValueError, match=r"\(3, 2\) does not match 2 "
                                             "query labels x 2 reference"):
            evaluate(dist, [0, 1], refs.labels)

    def test_matches_per_query_nn_classify(self, rng):
        hists = rng.random((20, 6))
        labels = rng.integers(0, 3, size=20)
        refs = ReferenceSet(hists[:10], labels[:10])
        hists[17] = hists[4]  # an exact match
        acc, confusion = evaluate(chi2_matrix(hists[10:], refs), labels[10:],
                                  refs.labels)
        want_acc, want_confusion = nn_classify_score(hists[10:], labels[10:],
                                                     refs)
        assert acc == want_acc
        assert np.array_equal(confusion, want_confusion)
        assert nn_classify(hists[17], refs) == (labels[4], 0.0)

    def test_equals_score_of_nearest(self, rng):
        hists = rng.random((12, 6))
        labels = np.array([0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2])
        # references 1 and 3 are equal but of classes 1 and 0, and so are
        # queries 5 and 8 (class 2): the exact ties go to reference 1
        hists[[3, 5, 8]] = hists[1]
        refs = ReferenceSet(hists[:5], labels[:5])
        dist = chi2_matrix(hists[5:], refs)
        assert dist[0, 1] == dist[0, 3] == dist[3, 1] == dist[3, 3] == 0.0
        acc, confusion = evaluate(dist, labels[5:], refs.labels)
        want_acc, want_confusion = nn_classify_score(hists[5:], labels[5:],
                                                     refs)
        assert acc == want_acc
        assert np.array_equal(confusion, want_confusion)
        assert confusion[2, 1] >= 2
        with pytest.raises(ValueError, match="does not match"):
            evaluate(dist[:, :4], labels[5:], refs.labels)

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bftex import classify
from bftex.classify import (ReferenceSet, chi2, chi2_matrix, evaluate,
                            nearest, nn_classify, score)

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
        queries = refs[[3]] + 0.01
        predicted, dists = nearest(queries, ReferenceSet(refs, labels))
        assert predicted[0] == labels[3]
        assert dists[0] == chi2(queries[0], refs[3])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_query_rejected(self, rng, bad):
        refs = ReferenceSet(rng.random((3, 4)), [0, 1, 0])
        queries = rng.random((2, 4))
        queries[1, 3] = bad
        with pytest.raises(ValueError, match="query"):
            chi2_matrix(queries, refs)

    def test_shape_checks(self, rng):
        refs = ReferenceSet(rng.random((3, 4)), [0, 1, 0])
        with pytest.raises(ValueError, match="no queries"):
            chi2_matrix(np.zeros((0, 4)), refs)
        with pytest.raises(ValueError, match="2-D"):
            chi2_matrix(rng.random(4), refs)
        with pytest.raises(ValueError, match="reference dims"):
            chi2_matrix(rng.random((2, 5)), refs)


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


class TestEvaluate:
    def test_identical_queries_are_perfect(self, rng):
        hists = rng.random((8, 5))
        labels = rng.integers(0, 3, size=8)
        refs = ReferenceSet(hists, labels)
        acc, confusion = evaluate(hists, labels, refs)
        assert acc == 1.0
        assert confusion.sum() == 8

    def test_zero_accuracy_achievable(self):
        refs = ReferenceSet(np.array([[1.0, 0.0], [0.0, 1.0]]), [0, 1])
        queries = np.array([[1.0, 0.0], [0.0, 1.0]])
        acc, _ = evaluate(queries, [1, 0], refs)
        assert acc == 0.0

    def test_confusion_row_sums(self, rng):
        hists = rng.random((12, 6))
        labels = rng.integers(0, 3, size=12)
        refs = ReferenceSet(hists[:6], labels[:6])
        acc, confusion = evaluate(hists[6:], labels[6:], refs)
        for c in range(3):
            assert confusion[c].sum() == int(np.sum(labels[6:] == c))

    def test_unseen_query_label_is_countable(self, rng):
        refs = ReferenceSet(rng.random((2, 4)), [0, 1])
        acc, confusion = evaluate(rng.random((1, 4)), [5], refs)
        assert acc == 0.0
        assert confusion.shape == (6, 6)

    def test_matches_double_loop_oracle(self, rng):
        hists = rng.random((30, 8))
        labels = rng.integers(0, 4, size=30)
        refs = ReferenceSet(hists[:15], labels[:15])
        acc, _ = evaluate(hists[15:], labels[15:], refs)
        correct = 0
        for q, true in zip(hists[15:], labels[15:]):
            dists = [naive_chi2(q, h) for h in hists[:15]]
            if labels[:15][int(np.argmin(dists))] == true:
                correct += 1
        assert acc == pytest.approx(correct / 15)

    def test_negative_query_label_rejected(self, rng):
        refs = ReferenceSet(rng.random((2, 4)), [0, 1])
        with pytest.raises(ValueError, match="-1"):
            evaluate(rng.random((2, 4)), [0, -1], refs)

    def test_non_finite_queries_rejected(self, rng):
        refs = ReferenceSet(rng.random((2, 4)), [0, 1])
        queries = rng.random((3, 4))
        queries[2, 1] = np.nan
        with pytest.raises(ValueError, match="query"):
            evaluate(queries, [0, 1, 0], refs)

    def test_label_count_must_match_queries(self, rng):
        refs = ReferenceSet(rng.random((2, 4)), [0, 1])
        with pytest.raises(ValueError, match="2 query labels for 3"):
            evaluate(rng.random((3, 4)), [0, 1], refs)

    def test_nearest_and_score_match_per_query_loop(self, rng):
        hists = rng.random((20, 6))
        labels = rng.integers(0, 3, size=20)
        refs = ReferenceSet(hists[:10], labels[:10])
        predicted, dists = nearest(hists[10:], refs)
        for q, pred, dist in zip(hists[10:], predicted, dists):
            assert (pred, dist) == nn_classify(q, refs)
        assert score(predicted, labels[10:], refs)[0] == \
            evaluate(hists[10:], labels[10:], refs)[0]

    def test_nearest_over_many_query_blocks(self, rng, monkeypatch):
        monkeypatch.setattr(classify, "_BLOCK_CELLS", 16)  # 3 queries a block
        hists = rng.random((15, 6))
        labels = rng.integers(0, 3, size=15)
        refs = ReferenceSet(hists[:5], labels[:5])
        hists[12] = hists[4]  # exact match in the last query block
        predicted, dists = nearest(hists[5:], refs)
        assert list(zip(predicted, dists)) == \
            [nn_classify(q, refs) for q in hists[5:]]
        assert dists[7] == 0.0

    def test_precomputed_distances(self, rng):
        hists = rng.random((12, 6))
        labels = rng.integers(0, 3, size=12)
        refs = ReferenceSet(hists[:5], labels[:5])
        dist = chi2_matrix(hists[5:], refs)
        acc, confusion = evaluate(hists[5:], labels[5:], refs, dist)
        want_acc, want_confusion = evaluate(hists[5:], labels[5:], refs)
        assert acc == want_acc
        assert np.array_equal(confusion, want_confusion)
        with pytest.raises(ValueError, match="does not match"):
            evaluate(hists[5:], labels[5:], refs, dist[:, :4])

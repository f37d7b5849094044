import numpy as np
import pytest

from bftex.classify import (ReferenceSet, chi2, evaluate, nearest,
                            nn_classify, score)


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

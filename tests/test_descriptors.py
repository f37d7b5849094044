import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bftex import descriptors as D
from bftex.retina import bf_preprocess
from oracles import riu2_map, sample_neighbors

# seeded and small: every run draws the same examples
FAST = settings(max_examples=25, deadline=None, derandomize=True)


# ---------------------------------------------------------------------------
# naive loop-based reference implementations (no lookup tables, no
# vectorization) used as oracles

def naive_sample(img, x, y, p, r):
    vals = []
    for k in range(p):
        th = 2.0 * math.pi * k / p
        dr, dc = -r * math.sin(th), r * math.cos(th)
        if abs(dr - round(dr)) < 1e-9:
            dr = round(dr)
        if abs(dc - round(dc)) < 1e-9:
            dc = round(dc)
        rr, cc = y + dr, x + dc
        r0, c0 = math.floor(rr), math.floor(cc)
        fr, fc = rr - r0, cc - c0
        if fr == 0.0 and fc == 0.0:
            vals.append(img[r0, c0])
        else:
            vals.append((1 - fr) * (1 - fc) * img[r0, c0]
                        + (1 - fr) * fc * img[r0, c0 + 1]
                        + fr * (1 - fc) * img[r0 + 1, c0]
                        + fr * fc * img[r0 + 1, c0 + 1])
    return vals


def naive_riu2(bits):
    p = len(bits)
    transitions = sum(bits[k] != bits[(k + 1) % p] for k in range(p))
    return sum(bits) if transitions <= 2 else p + 1


def naive_interior_coords(img, p, r):
    m = math.ceil(r) + 1
    h, w = img.shape
    return [(x, y) for y in range(m, h - m) for x in range(m, w - m)]


def naive_clbp(img, p, r):
    coords = naive_interior_coords(img, p, r)
    m = math.ceil(r) + 1
    diffs = {xy: [v - img[xy[1], xy[0]]
                  for v in naive_sample(img, xy[0], xy[1], p, r)]
             for xy in coords}
    c_m = float(np.mean([abs(d) for ds in diffs.values() for d in ds]))
    c_i = float(np.mean(img[m:-m, m:-m]))
    out = {}
    for xy, ds in diffs.items():
        s_bits = [int(d >= 0) for d in ds]
        m_bits = [int(abs(d) >= c_m) for d in ds]
        out[xy] = (naive_riu2(s_bits), naive_riu2(m_bits),
                   int(img[xy[1], xy[0]] >= c_i))
    return out


def naive_clbc(img, p, r):
    coords = naive_interior_coords(img, p, r)
    m = math.ceil(r) + 1
    diffs = {xy: [v - img[xy[1], xy[0]]
                  for v in naive_sample(img, xy[0], xy[1], p, r)]
             for xy in coords}
    c_m = float(np.mean([abs(d) for ds in diffs.values() for d in ds]))
    c_i = float(np.mean(img[m:-m, m:-m]))
    return {xy: (sum(int(d >= 0) for d in ds),
                 sum(int(abs(d) >= c_m) for d in ds),
                 int(img[xy[1], xy[0]] >= c_i))
            for xy, ds in diffs.items()}


def naive_ltp(img, p, r, t):
    out = {}
    for x, y in naive_interior_coords(img, p, r):
        vals = naive_sample(img, x, y, p, r)
        c = img[y, x]
        upper = [int(v >= c + t) for v in vals]
        lower = [int(v <= c - t) for v in vals]
        out[(x, y)] = (naive_riu2(upper), naive_riu2(lower))
    return out


# ---------------------------------------------------------------------------

class TestSampleNeighbors:
    def test_axis_neighbors_exact(self, rng):
        img = rng.random((7, 7))
        spec = D.NeighborhoodSpec(p=4, r=1.0)
        got = sample_neighbors(img, 3, 3, spec)
        np.testing.assert_array_equal(
            got, [img[3, 4], img[2, 3], img[3, 2], img[4, 3]])

    def test_diagonal_bilinear_weights(self):
        img = np.zeros((7, 7))
        img[2, 4] = 1.0  # the sample at angle pi/4 interpolates this corner
        spec = D.NeighborhoodSpec(p=8, r=1.0)
        got = sample_neighbors(img, 3, 3, spec)
        a = math.sqrt(0.5)
        assert got[1] == pytest.approx(a * a)  # 0.5 on the far corner
        img2 = np.zeros((7, 7))
        img2[3, 3] = 1.0
        got2 = sample_neighbors(img2, 3, 3, spec)
        assert got2[1] == pytest.approx((1 - a) * (1 - a))  # ~0.0858

    def test_constant_image(self):
        spec = D.NeighborhoodSpec(p=12, r=2.0)
        got = sample_neighbors(np.full((9, 9), 0.4), 4, 4, spec)
        np.testing.assert_allclose(got, 0.4)

    def test_out_of_interior_rejected(self):
        spec = D.NeighborhoodSpec(p=8, r=1.0)
        with pytest.raises(ValueError):
            sample_neighbors(np.zeros((7, 7)), 1, 3, spec)

    def test_matches_naive(self, rng):
        img = rng.random((11, 11))
        for p, r in [(8, 1.0), (16, 2.0), (12, 2.5)]:
            spec = D.NeighborhoodSpec(p=p, r=r)
            got = sample_neighbors(img, 5, 5, spec)
            np.testing.assert_allclose(got, naive_sample(img, 5, 5, p, r),
                                       atol=1e-12)

    def test_stack_matches_pointwise(self, rng):
        img = rng.random((10, 12))
        spec = D.NeighborhoodSpec(p=16, r=2.0)
        stack = D.neighbor_stack(img, spec)
        m = spec.margin
        got = stack[:, 1, 2]
        np.testing.assert_array_equal(
            got, sample_neighbors(img, 2 + m, 1 + m, spec))


class TestRiu2:
    def test_p8_examples(self):
        table = riu2_map(8)
        assert table[0] == 0
        assert table[0xFF] == 8
        assert table[0b01010101] == 9
        assert len(set(table.tolist())) == 10

    @pytest.mark.parametrize("p,labels", [(8, 10), (16, 18), (24, 26)])
    def test_label_counts(self, p, labels):
        assert len(set(riu2_map(p).tolist())) == labels

    def test_rotation_invariance_p8_bruteforce(self):
        table = riu2_map(8)
        for code in range(256):
            rotations = {table[((code << k) | (code >> (8 - k))) & 0xFF]
                         for k in range(8)}
            assert len(rotations) == 1

    def test_bits_path_matches_table(self, rng):
        p = 8
        table = riu2_map(p)
        codes = rng.integers(0, 1 << p, size=200)
        bits = np.array([[(c >> k) & 1 for c in codes] for k in range(p)],
                        dtype=bool)
        np.testing.assert_array_equal(D.riu2_from_bits(bits), table[codes])

    @FAST
    @given(p=st.sampled_from([4, 8, 16, 24]), data=st.data())
    def test_bits_path_matches_table_and_rotation(self, p, data):
        codes = np.array(data.draw(st.lists(
            st.integers(0, (1 << p) - 1), min_size=1, max_size=40)))
        bits = np.array([(codes >> k) & 1 for k in range(p)], dtype=bool)
        labels = D.riu2_from_bits(bits)
        np.testing.assert_array_equal(labels, riu2_map(p)[codes])
        # rotating the neighborhood by 2*pi*k/P shifts the bit stack by k
        k = data.draw(st.integers(1, p - 1))
        np.testing.assert_array_equal(
            D.riu2_from_bits(np.roll(bits, k, axis=0)), labels)

    def test_bits_path_rejects_p_above_max(self):
        with pytest.raises(ValueError, match="P=25"):
            D.riu2_from_bits(np.zeros((25, 3), dtype=bool))


class TestClbpCodes:
    def test_constant_image_degenerate_labels(self):
        spec = D.NeighborhoodSpec(p=8, r=1.0)
        s, m, c = D.clbp_codes(np.full((8, 8), 0.5), spec)
        assert np.all(s == 8)  # ties encode 1 under the >= convention
        assert np.all(m == 8)
        assert np.all(c == 1)

    def test_bright_peak_encodes_zero(self):
        img = np.full((9, 9), 0.2)
        img[4, 4] = 0.9
        s, _, _ = D.clbp_codes(img, D.NeighborhoodSpec(p=8, r=1.0))
        assert s[2, 2] == 0  # peak pixel: all neighbors below center

    @pytest.mark.parametrize("p,r", [(8, 1.0), (16, 2.0)])
    def test_matches_naive_oracle(self, rng, p, r):
        img = rng.random((10, 10))
        spec = D.NeighborhoodSpec(p=p, r=r)
        s, m, c = D.clbp_codes(img, spec)
        ref = naive_clbp(img, p, r)
        mg = spec.margin
        for (x, y), want in ref.items():
            assert (s[y - mg, x - mg], m[y - mg, x - mg],
                    c[y - mg, x - mg]) == want

    def test_offset_invariance_of_sign_labels(self, rng):
        img = rng.random((10, 10))
        spec = D.NeighborhoodSpec(p=8, r=1.0)
        s1, _, _ = D.clbp_codes(img, spec)
        s2, _, _ = D.clbp_codes(img + 0.21, spec)
        np.testing.assert_array_equal(s1, s2)

    def test_too_small_image_rejected(self):
        with pytest.raises(ValueError, match="too small"):
            D.clbp_codes(np.zeros((4, 4)), D.NeighborhoodSpec(p=8, r=1.0))


class TestClbcCodes:
    def test_constant_image(self):
        s, m, c = D.clbc_codes(np.full((8, 8), 0.3),
                               D.NeighborhoodSpec(p=8, r=1.0))
        assert np.all(s == 8)

    def test_count_equals_clbp_popcount(self, rng):
        img = rng.random((8, 8))
        spec = D.NeighborhoodSpec(p=8, r=1.0)
        stack = D.neighbor_stack(img, spec)
        bits = stack - D.interior(img, spec) >= 0
        s_count, _, _ = D.clbc_codes(img, spec)
        np.testing.assert_array_equal(s_count, bits.sum(axis=0))

    def test_matches_naive_oracle(self, rng):
        img = rng.random((10, 10))
        spec = D.NeighborhoodSpec(p=8, r=1.0)
        s, m, c = D.clbc_codes(img, spec)
        mg = spec.margin
        for (x, y), want in naive_clbc(img, 8, 1.0).items():
            assert (s[y - mg, x - mg], m[y - mg, x - mg],
                    c[y - mg, x - mg]) == want


DIMENSION_TABLE = [
    # (family, scheme, p, expected single-image length)
    ("clbp", "S", 16, 18),
    ("clbp", "S", 24, 26),
    ("clbp", "S_M", 16, 36),
    ("clbp", "S/M", 16, 324),
    ("clbp", "S/M", 24, 676),
    ("clbp", "S/C", 16, 36),
    ("clbp", "M/C", 16, 36),
    ("clbp", "S/M/C", 8, 200),
    ("clbp", "S/M/C", 16, 648),
    ("clbp", "S/M/C", 24, 1352),
    ("clbp", "S_M/C", 16, 54),
    ("clbp", "S_M/C", 24, 78),
    ("clbp", "M_S/C", 16, 54),
    ("clbc", "S", 8, 9),
    ("clbc", "S/M", 8, 81),
    ("clbc", "S/M/C", 8, 162),
    ("lbp", "S", 8, 10),
    ("ltp", "S", 8, 20),
]


def reference_histogram(s, m, c, scheme, b):
    """The combination schemes written out one by one, as unnormalized
    bin counts."""
    def h(labels, n):
        return np.bincount(labels.ravel(), minlength=n).astype(np.float64)
    return {
        "S": lambda: h(s, b),
        "M": lambda: h(m, b),
        "C": lambda: h(c, 2),
        "S_M": lambda: np.concatenate([h(s, b), h(m, b)]),
        "S/M": lambda: h(s + b * m, b * b),
        "S/C": lambda: h(s + b * c, 2 * b),
        "M/C": lambda: h(m + b * c, 2 * b),
        "S/M/C": lambda: h(s + b * m + b * b * c, 2 * b * b),
        "S_M/C": lambda: np.concatenate([h(s, b), h(m + b * c, 2 * b)]),
        "M_S/C": lambda: np.concatenate([h(m, b), h(s + b * c, 2 * b)]),
    }[scheme]()


def reference_extract(source, config):
    """Extraction from all-plane codes: pick the family's code triple,
    combine it per the scheme and normalize; a map pair concatenates the
    two normalized histograms and normalizes again."""
    codes, b = {"lbp": (D.clbp_codes, config.p + 2),
                "clbp": (D.clbp_codes, config.p + 2),
                "clbc": (D.clbc_codes, config.p + 1)}[config.family]
    scheme = "S" if config.family == "lbp" else config.scheme

    def normalized(bins):
        return bins / bins.sum()

    def single(img):
        return normalized(reference_histogram(*codes(img, config.spec),
                                              scheme, b))

    if hasattr(source, "plus"):
        return normalized(np.concatenate([single(source.plus),
                                          single(source.minus)]))
    return single(source)


class TestSchemeOracle:
    @pytest.mark.parametrize("p", [4, 8, 16, 24])
    @pytest.mark.parametrize("scheme", list(D.COMBINATION_SCHEMES))
    @pytest.mark.parametrize("family", ["lbp", "clbp", "clbc"])
    @settings(max_examples=4, deadline=None, derandomize=True)
    @given(on_maps=st.booleans(), size=st.integers(9, 16),
           seed=st.integers(0, 2**32 - 1))
    def test_extract_matches_all_plane_reference(self, family, scheme, p,
                                                 on_maps, size, seed):
        config = D.DescriptorConfig(family=family, scheme=scheme, p=p,
                                    r={4: 1.0, 8: 1.0, 16: 2.0, 24: 3.0}[p])
        img = np.random.default_rng(seed).random((size, size))
        source = bf_preprocess(img) if on_maps else img
        hist = D.extract(source, config)
        np.testing.assert_array_equal(hist.bins,
                                      reference_extract(source, config))
        assert D.feature_size(config, on_maps=on_maps) == len(hist.bins)

    def test_unread_planes_are_not_computed(self, rng):
        img = rng.random((10, 10))
        spec = D.NeighborhoodSpec(p=8, r=1.0)
        s_all, _, _ = D.clbp_codes(img, spec)
        s, m, c = D.clbp_codes(img, spec, "S")
        assert m is None and c is None
        np.testing.assert_array_equal(s, s_all)
        s, m, c = D.clbc_codes(img, spec, "M/C")
        assert s is None and m is not None and c is not None
        with pytest.raises(ValueError, match="scheme"):
            D.clbp_codes(img, spec, "X")


class TestHistograms:
    @pytest.mark.parametrize("family,scheme,p,expected", DIMENSION_TABLE)
    def test_dimension_contract(self, rng, family, scheme, p, expected):
        config = D.DescriptorConfig(family=family, scheme=scheme, p=p,
                                    r={8: 1.0, 16: 2.0, 24: 3.0}[p])
        assert D.feature_size(config) == expected
        img = rng.random((14, 14))
        hist = D.extract(img, config)
        assert len(hist.bins) == expected
        assert hist.bins.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(hist.bins >= 0)

    def test_joint_flattening_order(self):
        # a single (s=1, m=2, c=1) pixel must land at s + B*m + B^2*c
        b = 10
        s = np.array([[1]])
        m = np.array([[2]])
        c = np.array([[1]])
        hist = D.build_histogram(s, m, c, "S/M/C", b)
        assert hist.bins[1 + b * 2 + b * b * 1] == 1.0

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            D.build_histogram(np.zeros((1, 1), int), None, None, "X", 10)


class TestLtp:
    def test_zero_threshold_upper_equals_sign(self, rng):
        img = rng.random((10, 10))
        spec = D.NeighborhoodSpec(p=8, r=1.0)
        hist = D.ltp_histogram(img, spec, t=0.0)
        s, _, _ = D.clbp_codes(img, spec)
        upper = hist.bins[:10] * s.size
        np.testing.assert_allclose(
            upper * 2, np.bincount(s.ravel(), minlength=10) * 1.0)

    def test_constant_image_concentrates_at_zero(self):
        hist = D.ltp_histogram(np.full((8, 8), 0.5),
                               D.NeighborhoodSpec(p=8, r=1.0), t=0.02)
        assert hist.bins[0] == pytest.approx(0.5)
        assert hist.bins[10] == pytest.approx(0.5)

    def test_bin_count(self, rng):
        hist = D.ltp_histogram(rng.random((8, 8)),
                               D.NeighborhoodSpec(p=8, r=1.0))
        assert len(hist.bins) == 20

    def test_matches_naive_oracle(self, rng):
        img = rng.random((10, 10))
        t = 0.04
        spec = D.NeighborhoodSpec(p=8, r=1.0)
        hist = D.ltp_histogram(img, spec, t)
        ref = naive_ltp(img, 8, 1.0, t)
        upper = np.bincount([u for u, _ in ref.values()], minlength=10)
        lower = np.bincount([l for _, l in ref.values()], minlength=10)
        want = np.concatenate([upper, lower]).astype(float)
        np.testing.assert_allclose(hist.bins, want / want.sum(), atol=1e-12)


class TestWld:
    def test_constant_image_central_segment(self):
        hist = D.wld_histogram(np.full((10, 10), 0.5))
        assert len(hist.bins) == 960
        seg = hist.bins.reshape(6, 8, 20)
        assert seg[3].sum() == pytest.approx(1.0)

    def test_dimensions(self, rng):
        hist = D.wld_histogram(rng.random((12, 12)))
        assert len(hist.bins) == 6 * 8 * 20
        assert hist.bins.sum() == pytest.approx(1.0)

    def test_zero_center_guard_saturates(self):
        img = np.zeros((10, 10))
        img[3:6, 3:6] = 0.0
        img[4, 5] = 1.0  # nonzero neighbor sum around zero centers
        hist = D.wld_histogram(img)
        assert np.isfinite(hist.bins).all()
        assert hist.bins.sum() == pytest.approx(1.0)


class TestExtract:
    def test_map_pair_doubles_length(self, rng):
        img = rng.random((20, 20))
        maps = bf_preprocess(img)
        for family, scheme in [("lbp", "S"), ("clbp", "S/M"), ("clbc", "S"),
                               ("ltp", "S"), ("wld", "S")]:
            config = D.DescriptorConfig(family=family, scheme=scheme, p=8,
                                        r=1.0)
            single = D.extract(img, config)
            pair = D.extract(maps, config)
            assert len(pair.bins) == 2 * len(single.bins)
            assert pair.bins.sum() == pytest.approx(1.0, abs=1e-9)
            assert D.feature_size(config, on_maps=True) == len(pair.bins)

    def test_bf_lbp_paper_sizes(self):
        for p, r, size in [(16, 2.0, 36), (24, 3.0, 52)]:
            config = D.DescriptorConfig(family="lbp", p=p, r=r)
            assert D.feature_size(config, on_maps=True) == size
        for p, r, size in [(8, 1.0, 20), (16, 2.0, 36), (24, 3.0, 52)]:
            config = D.DescriptorConfig(family="clbp", scheme="S", p=p, r=r)
            assert D.feature_size(config, on_maps=True) == size

    def test_constant_image_maps_concentrate_at_zero(self):
        maps = bf_preprocess(np.full((16, 16), 0.5))
        config = D.DescriptorConfig(family="lbp", p=8, r=1.0)
        hist = D.extract(maps, config)
        # all-zero maps: every pixel ties at >= so the all-ones pattern
        # (label P) takes all the mass in each half
        assert hist.bins[8] == pytest.approx(0.5)
        assert hist.bins[18] == pytest.approx(0.5)

    def test_scheme_tag(self, rng):
        img = rng.random((12, 12))
        config = D.DescriptorConfig(family="clbp", scheme="S/M", p=8, r=1.0)
        assert D.extract(img, config).scheme == "CLBP_S/M"
        assert D.extract(bf_preprocess(img), config).scheme == "BF+CLBP_S/M"

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_pixel_rejected(self, rng, bad):
        img = rng.random((12, 12))
        img[7, 2] = bad
        for family in ("lbp", "wld"):
            with pytest.raises(ValueError, match="NaN or infinite pixels"):
                D.extract(img, D.DescriptorConfig(family=family))


class TestValidation:
    def test_bad_neighborhood(self):
        with pytest.raises(ValueError):
            D.NeighborhoodSpec(p=3, r=1.0)
        with pytest.raises(ValueError):
            D.NeighborhoodSpec(p=8, r=0.0)

    def test_bad_config(self):
        with pytest.raises(ValueError):
            D.DescriptorConfig(family="sift")
        with pytest.raises(ValueError):
            D.DescriptorConfig(family="clbp", scheme="Q")

    def test_p_above_24_rejected(self):
        D.NeighborhoodSpec(p=24, r=3.0)
        with pytest.raises(ValueError, match="P=25"):
            D.NeighborhoodSpec(p=25, r=3.0)
        with pytest.raises(ValueError, match="P=40"):
            D.DescriptorConfig(family="lbp", p=40, r=3.0)

    def test_offsets_cached_read_only(self):
        spec = D.NeighborhoodSpec(p=8, r=1.0)
        offsets = D.neighbor_offsets(spec)
        assert D.neighbor_offsets(D.NeighborhoodSpec(p=8, r=1.0)) is offsets
        with pytest.raises(ValueError):
            offsets[0, 0] = 5.0

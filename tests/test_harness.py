import concurrent.futures
import contextlib
import csv
import hashlib
import io
import math
import multiprocessing
import os
import re
import subprocess
import sys
import threading
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bftex import baselines, classify, descriptors, harness
from bftex.classify import ReferenceSet, chi2, chi2_matrix, evaluate
from bftex.descriptors import (DescriptorConfig, NeighborhoodSpec,
                               feature_size, ltp_histogram)
from bftex.harness import (REPORT_COLUMNS, ConfigError, ExperimentConfig,
                           ExperimentReport, Manifest, ManifestError,
                           NoiseSpec, SplitPolicy, add_gaussian_noise,
                           apply_preprocessor, build_experiment_config,
                           load_manifest, make_splits, parse_config_file,
                           run_experiment, sweep_bf_params)
from bftex.image import NonFiniteImageError, gaussian_kernel_1d, load_image
from bftex.retina import BfMaps, BfParams, split_maps
from bftex.synthetic import generate_suite


def write_manifest(path, lines):
    path.write_text("\n".join(lines) + "\n")
    return path


class TestManifest:
    def test_basic_parse(self, tmp_path):
        p = write_manifest(tmp_path / "m.txt",
                           ["# comment", "a.pgm 0", "b.pgm 1", "c.pgm 0"])
        m = load_manifest(p)
        assert len(m.samples) == 3
        assert m.split_flags is None

    def test_predefined_flags(self, tmp_path):
        p = write_manifest(tmp_path / "m.txt",
                           ["a.pgm 0 train", "b.pgm 1 train",
                            "c.pgm 0 test", "d.pgm 1 test"])
        m = load_manifest(p)
        assert m.split_flags == ["train", "train", "test", "test"]

    def test_negative_label_rejected(self, tmp_path):
        p = write_manifest(tmp_path / "m.txt", ["a.pgm -1", "b.pgm 0"])
        with pytest.raises(ManifestError, match=":1"):
            load_manifest(p)

    def test_negative_label_rejected_in_code(self):
        # evaluate would fail every row only after every image is extracted
        with pytest.raises(ManifestError,
                           match=re.escape("negative labels: [-2, -1]")):
            Manifest(samples=[("a.pgm", -1), ("b.pgm", 0), ("c.pgm", -2)])

    def test_non_integer_label(self, tmp_path):
        p = write_manifest(tmp_path / "m.txt", ["a.pgm x", "b.pgm 0"])
        with pytest.raises(ManifestError, match="non-integer"):
            load_manifest(p)

    def test_duplicate_path(self, tmp_path):
        p = write_manifest(tmp_path / "m.txt", ["a.pgm 0", "a.pgm 1"])
        with pytest.raises(ManifestError, match="duplicate"):
            load_manifest(p)

    def test_single_class_rejected(self, tmp_path):
        p = write_manifest(tmp_path / "m.txt", ["a.pgm 0", "b.pgm 0"])
        with pytest.raises(ManifestError, match="2 classes"):
            load_manifest(p)

    @pytest.mark.parametrize("line,message", [
        ("b.pgm 1 train extra", "expected '<path> <label> [train|test]'"),
        ("b.pgm 1 val", "bad split flag 'val'")])
    def test_bad_line_named(self, tmp_path, line, message):
        p = write_manifest(tmp_path / "m.txt", ["a.pgm 0 train", line])
        with pytest.raises(ManifestError) as excinfo:
            load_manifest(p)
        assert str(excinfo.value) == f"{p}:2: {message}"

    def test_partial_flags_rejected(self, tmp_path):
        p = write_manifest(tmp_path / "m.txt", ["a.pgm 0 train", "b.pgm 1"])
        # the message names the first sample without a flag, by its path
        with pytest.raises(ManifestError, match=re.escape(
                f"split flags must cover every sample, each 'train' or "
                f"'test': {tmp_path / 'b.pgm'} has None")):
            load_manifest(p)

    @pytest.mark.parametrize("flags, where", [
        (["train", "test"], "2 flags for 4 samples"),
        (["train", "test", "test", "test", "train"], "5 flags for 4 samples"),
        (["train", "test", "bogus", "test"], "2.pgm has 'bogus'"),
        (["train", None, "test", "test"], "1.pgm has None"),
        ([], "0 flags for 4 samples")])
    def test_flags_must_cover_every_sample_in_code(self, flags, where):
        # make_splits would silently drop each sample without a train or
        # test flag
        samples = [(f"{i}.pgm", i % 2) for i in range(4)]
        with pytest.raises(ManifestError, match=re.escape(
                f"split flags must cover every sample, each 'train' or "
                f"'test': {where}")):
            Manifest(samples=samples, split_flags=flags)
        flags = ["train", "train", "test", "test"]
        assert make_splits(Manifest(samples=samples, split_flags=flags),
                           SplitPolicy(mode="predefined")) == \
            [([0, 1], [2, 3])]


def toy_manifest(sizes=(40, 40)):
    samples = [(f"c{c}_{i}.pgm", c)
               for c, n in enumerate(sizes) for i in range(n)]
    return Manifest(samples=samples, suite="toy")


class TestSplits:
    def test_random_split_sizes(self):
        m = toy_manifest((40, 40))
        splits = make_splits(m, SplitPolicy(mode="random", n_train=20,
                                            repeats=100, seed=1))
        assert len(splits) == 100
        for train, test in splits:
            assert len(train) == 40 and len(test) == 40

    def test_disjoint_and_exhaustive(self):
        m = toy_manifest((10, 12, 9))
        for train, test in make_splits(m, SplitPolicy(n_train=5, repeats=7,
                                                      seed=3)):
            assert not set(train) & set(test)
            assert sorted(train + test) == list(range(31))

    def test_per_class_counts(self):
        m = toy_manifest((10, 12))
        labels = [lab for _, lab in m.samples]
        for train, _ in make_splits(m, SplitPolicy(n_train=4, repeats=3, seed=0)):
            for c in (0, 1):
                assert sum(labels[i] == c for i in train) == 4

    def test_deterministic_given_seed(self):
        m = toy_manifest((8, 8))
        a = make_splits(m, SplitPolicy(n_train=3, repeats=5, seed=11))
        b = make_splits(m, SplitPolicy(n_train=3, repeats=5, seed=11))
        assert a == b
        c = make_splits(m, SplitPolicy(n_train=3, repeats=5, seed=12))
        assert a != c

    def test_zero_train_rejected(self):
        with pytest.raises(ConfigError):
            make_splits(toy_manifest(), SplitPolicy(n_train=0))

    def test_train_size_must_leave_tests(self):
        with pytest.raises(ConfigError, match="smallest class"):
            make_splits(toy_manifest((5, 9)), SplitPolicy(n_train=5))

    def test_predefined_single_split(self, tmp_path):
        p = write_manifest(tmp_path / "m.txt",
                           ["a.pgm 0 train", "b.pgm 1 train",
                            "c.pgm 0 test", "d.pgm 1 test"])
        m = load_manifest(p)
        splits = make_splits(m, SplitPolicy(mode="predefined"))
        assert splits == [([0, 1], [2, 3])]

    def test_predefined_needs_flags(self):
        with pytest.raises(ConfigError):
            make_splits(toy_manifest(), SplitPolicy(mode="predefined"))

    @pytest.mark.parametrize("flag,empty", [("train", "test"),
                                            ("test", "train")])
    def test_predefined_needs_both_sides(self, flag, empty):
        m = Manifest(samples=[("a.pgm", 0), ("b.pgm", 1), ("c.pgm", 0)],
                     split_flags=[flag] * 3)
        with pytest.raises(ConfigError, match=f"has no {empty} sample"):
            make_splits(m, SplitPolicy(mode="predefined"))

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_seed_out_of_range_rejected(self, seed):
        # _rng keeps the low 64 bits, so 2**64 would give seed 0's splits
        with pytest.raises(ConfigError, match=re.escape(
                f"seed must be in [0, 2**64), got {seed}")):
            SplitPolicy(seed=seed)

    @pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
    def test_seed_range_ends_accepted(self, seed):
        splits = make_splits(toy_manifest((4, 4)),
                             SplitPolicy(n_train=2, repeats=2, seed=seed))
        assert [len(train) for train, _ in splits] == [4, 4]

    def test_predefined_split_is_not_repeated(self):
        # it would silently give one split however many were asked for
        SplitPolicy(mode="predefined", repeats=1)
        with pytest.raises(ConfigError, match="got repeats=3"):
            SplitPolicy(mode="predefined", repeats=3)


class TestNoise:
    def test_huge_snr_is_identity(self, rng):
        img = rng.random((32, 32))
        out = add_gaussian_noise(img, 1e9, rng)
        np.testing.assert_allclose(out, img, atol=1e-6)

    def test_noise_std_matches_snr(self, rng):
        img = rng.random((256, 256))
        out = add_gaussian_noise(img, 5.0, rng)
        ratio = np.std(out - img) / np.std(img)
        assert ratio == pytest.approx(0.2, rel=0.05)

    def test_constant_image_unchanged_with_warning(self, rng):
        img = np.full((16, 16), 0.5)
        with pytest.warns(UserWarning, match="constant"):
            out = add_gaussian_noise(img, 5.0, rng)
        np.testing.assert_array_equal(out, img)

    def test_invalid_snr(self, rng):
        with pytest.raises(ValueError):
            add_gaussian_noise(np.zeros((4, 4)), 0.0, rng)

    def test_unclipped(self, rng):
        img = rng.random((64, 64))
        out = add_gaussian_noise(img, 1.0, rng)
        assert out.min() < 0 or out.max() > 1

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_pixel_rejected_without_warning(self, rng, bad):
        img = rng.random((8, 8))
        img[3, 4] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteImageError):
                add_gaussian_noise(img, 5.0, rng)

    def test_variance_overflow_named(self, rng):
        img = np.array([[1e300, -1e300], [0.0, 1e300]])  # finite pixels
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="variance overflows") as exc:
                add_gaussian_noise(img, 5.0, rng)
        assert not isinstance(exc.value, NonFiniteImageError)

    def test_finite_image_not_scanned_again(self, rng, monkeypatch):
        def scanned(img):
            raise AssertionError("check_finite called on a finite image")

        monkeypatch.setattr(harness, "check_finite", scanned)
        add_gaussian_noise(rng.random((8, 8)), 5.0, rng)


class TestNoiseSpec:
    @pytest.mark.parametrize("levels,label", [
        ((5.0, 5.0), "5"), ((5.0, 5.0000001), "5"), ((10.0, 3.0, 10.0), "10")])
    def test_repeated_level_label_rejected(self, levels, label):
        # the report's snr column could not tell the rows apart
        with pytest.raises(ConfigError, match=re.escape(
                f"repeated snr_levels: ['{label}']")):
            NoiseSpec(snr_levels=levels)

    def test_no_level_rejected(self):
        with pytest.raises(ConfigError, match="at least one level"):
            NoiseSpec(snr_levels=())

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_seed_out_of_range_rejected(self, seed):
        # _rng keeps the low 64 bits, so -1 would draw 2**64 - 1's noise
        with pytest.raises(ConfigError, match=re.escape(
                f"noise seed must be in [0, 2**64), got {seed}")):
            NoiseSpec(seed=seed)

    @pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
    def test_seed_range_ends_accepted(self, seed):
        assert NoiseSpec(seed=seed).seed == seed
        harness._rng(seed, 5, 9).normal()


@pytest.fixture(scope="module")
def small_suite(tmp_path_factory):
    out = tmp_path_factory.mktemp("small")
    return generate_suite(out, n_classes=4, per_class=6, size=48, seed=5)


def small_config(manifest, **kw):
    defaults = dict(
        manifest_path=str(manifest),
        preprocessors=("bf", "none"),
        descriptor=DescriptorConfig(family="lbp", p=8, r=1.0),
        split=SplitPolicy(mode="random", n_train=3, repeats=2, seed=9))
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def reference_noise_rows(config):
    """Noise rows by re-extracting every image, noisy or not, each repeat;
    the noise is drawn for the test images first, then the training ones."""
    manifest = load_manifest(config.manifest_path)
    images = [load_image(p) for p, _ in manifest.samples]
    labels = np.array([lab for _, lab in manifest.samples])
    splits = make_splits(manifest, config.split)
    rows = {}
    for name in config.preprocessors:
        for li, snr in enumerate(config.noise.snr_levels):
            accs = []
            for rep in range(config.noise.repeats):
                train, test = splits[rep % len(splits)]
                rng = harness._rng(config.noise.seed, li, rep)
                noisy = list(images)
                for i in test + (train if config.corrupt_train else []):
                    noisy[i] = add_gaussian_noise(images[i], snr, rng)
                feats = np.array([descriptors.extract(
                    apply_preprocessor(img, name, config),
                    config.descriptor) for img in noisy])
                refs = ReferenceSet(feats[train], labels[train])
                accs.append(evaluate(chi2_matrix(feats[test], refs),
                                     labels[test], refs.labels)[0])
            rows[(name, f"{snr:g}")] = (float(np.mean(accs)),
                                        float(np.std(accs, ddof=1)))
    return rows


def split_features(rng, mode):
    """(features, labels, splits) of 40 samples in 4 classes, with exact
    cross-class ties: disjoint halves for "predefined", 3 random splits of
    1 training sample a class for "few-shot", else 5 random splits of 4
    training samples a class."""
    labels = np.repeat(np.arange(4), 10)
    feats = rng.random((40, 30))
    feats[[7, 12, 25]] = feats[2]  # ties across classes
    feats[[9, 31]] = 0.0
    if mode == "predefined":  # disjoint train and test sets
        return feats, labels, [(list(range(0, 40, 2)), list(range(1, 40, 2)))]
    manifest = Manifest([(f"{i}.pgm", lab) for i, lab in enumerate(labels)])
    policy = (SplitPolicy(n_train=1, repeats=3, seed=3) if mode == "few-shot"
              else SplitPolicy(n_train=4, repeats=5, seed=3))
    return feats, labels, make_splits(manifest, policy)


def scan_accuracies(feats, labels, splits):
    """Accuracy per split by a scalar chi2 scan of the split's own training
    set; ties go to the first training index."""
    accs = []
    for train, test in splits:
        correct = 0
        for i in test:
            dists = [chi2(feats[j], feats[i]) for j in train]
            correct += labels[train[int(np.argmin(dists))]] == labels[i]
        accs.append(correct / len(test))
    return accs


class TestRunExperiment:
    def test_rows_and_improvement(self, synthetic_suite):
        config = ExperimentConfig(
            manifest_path=str(synthetic_suite),
            preprocessors=("bf", "none"),
            descriptor=DescriptorConfig(family="lbp", p=8, r=1.0),
            split=SplitPolicy(mode="random", n_train=10, repeats=5, seed=42))
        report = run_experiment(config)
        assert not report.failures
        by_name = {r.preprocessor: r for r in report.rows}
        assert by_name["bf"].mean_accuracy >= by_name["none"].mean_accuracy

    def test_feature_size_column(self, small_suite):
        for family, scheme in [("clbp", "S/M"), ("clbc", "S_M/C"),
                               ("wld", "S")]:
            desc = DescriptorConfig(family=family, scheme=scheme, p=8, r=1.0)
            report = run_experiment(small_config(small_suite,
                                                 preprocessors=("none", "bf"),
                                                 descriptor=desc))
            assert not report.failures
            for row in report.rows:
                on_maps = row.preprocessor == "bf"
                assert row.feature_size == feature_size(desc, on_maps=on_maps)

    def test_std_present_iff_repeats(self, small_suite):
        single = run_experiment(small_config(
            small_suite, preprocessors=("none",),
            split=SplitPolicy(n_train=3, repeats=1, seed=0)))
        assert single.rows[0].std_accuracy is None
        multi = run_experiment(small_config(small_suite, preprocessors=("none",)))
        assert multi.rows[0].std_accuracy is not None

    def test_noise_rows(self, small_suite):
        report = run_experiment(small_config(
            small_suite, preprocessors=("none",),
            noise=NoiseSpec(snr_levels=(30.0, 5.0), repeats=3, seed=1)))
        snrs = [r.snr for r in report.rows]
        assert snrs == ["clean", "30", "5"]
        assert report.rows[1].std_accuracy is not None

    @pytest.mark.parametrize("corrupt_train", [False, True])
    @settings(max_examples=2, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_noise_rows_match_full_reextraction(self, small_suite,
                                                corrupt_train, seed):
        config = small_config(
            small_suite, noise=NoiseSpec(snr_levels=(10.0, 3.0), repeats=3,
                                         seed=seed),
            corrupt_train=corrupt_train)
        got = {(r.preprocessor, r.snr): (r.mean_accuracy, r.std_accuracy)
               for r in run_experiment(config).rows if r.snr != "clean"}
        assert got == reference_noise_rows(config)

    @pytest.mark.parametrize("mode", ["random", "predefined", "few-shot"])
    def test_accuracies_match_per_split_scan(self, small_suite, mode):
        manifest = load_manifest(small_suite)
        images = [load_image(p) for p, _ in manifest.samples]
        labels = np.array([lab for _, lab in manifest.samples])
        # exact ties: samples 0 and 6 are test images in the predefined
        # split, each with two training copies from different classes; the
        # lower-index copy is right for sample 0 and wrong for sample 6
        assert list(labels[:12]) == [0] * 6 + [1] * 6
        images[4] = images[7] = images[0]
        images[5] = images[8] = images[6]
        if mode == "predefined":
            manifest = Manifest(samples=manifest.samples, suite="toy",
                                split_flags=["test" if i % 3 == 0 else "train"
                                             for i in range(len(images))])
            split = SplitPolicy(mode="predefined")
        elif mode == "few-shot":
            split = SplitPolicy(n_train=1, repeats=2, seed=9)
        else:
            split = SplitPolicy(n_train=3, repeats=4, seed=9)
        config = small_config(small_suite, split=split)
        report = run_experiment(config, manifest=manifest, images=images)
        assert [r.preprocessor for r in report.rows] == ["bf", "none"]
        splits = make_splits(manifest, split)
        for row in report.rows:
            feats = np.array([descriptors.extract(
                apply_preprocessor(img, row.preprocessor, config),
                config.descriptor) for img in images])
            accs = scan_accuracies(feats, labels, splits)
            assert row.mean_accuracy == float(np.mean(accs))
            assert row.std_accuracy == (float(np.std(accs, ddof=1))
                                        if len(accs) > 1 else None)

    @pytest.mark.parametrize("mode,path", [("random", "_chi2_triangle"),
                                           ("predefined", "chi2_matrix"),
                                           ("few-shot", "chi2_matrix")])
    def test_run_splits_equals_per_split_evaluate(self, rng, monkeypatch,
                                                  mode, path):
        feats, labels, splits = split_features(rng, mode)
        calls = []

        def spy(name):
            real = getattr(harness, name)

            def record(*args):
                calls.append(name)
                return real(*args)
            monkeypatch.setattr(harness, name, record)
        spy("_chi2_triangle")
        spy("chi2_matrix")
        accs = harness._run_splits(feats, labels, splits)
        # one triangle for the row, or one rectangle per split
        assert calls == [path] * (1 if path == "_chi2_triangle"
                                  else len(splits))
        want = []
        for train, test in splits:
            refs = ReferenceSet(feats[train], labels[train])
            want.append(evaluate(chi2_matrix(feats[test], refs), labels[test],
                                 refs.labels)[0])
        assert accs == want

    @pytest.mark.parametrize("mode", ["random", "predefined"])
    def test_run_splits_builds_one_reference_set(self, rng, monkeypatch,
                                                 mode):
        # the row's features are checked once, not once per split
        feats, labels, splits = split_features(rng, mode)
        built = []

        class Spy(ReferenceSet):
            def __post_init__(self):
                built.append(self)
                super().__post_init__()

        monkeypatch.setattr(harness, "ReferenceSet", Spy)
        harness._run_splits(feats, labels, splits)
        assert len(built) <= 1

    def test_timing_columns_only_when_asked(self, small_suite):
        config = small_config(small_suite, noise=NoiseSpec(
            snr_levels=(5.0,), repeats=2, seed=4))
        off, on = (list(csv.reader(run_experiment(
            replace(config, include_timing=flag)).to_csv().splitlines()))
            for flag in (False, True))
        timing = [REPORT_COLUMNS.index("extract_ms"),
                  REPORT_COLUMNS.index("match_ms")]
        rest = lambda rec: [v for i, v in enumerate(rec) if i not in timing]
        assert len(on) == len(off) == 1 + 2 * 2  # bf and none, clean and 5
        assert [rest(rec) for rec in on] == [rest(rec) for rec in off]
        for off_rec, on_rec in zip(off[1:], on[1:]):
            assert [off_rec[i] for i in timing] == ["", ""]
            if on_rec[REPORT_COLUMNS.index("snr")] == "clean":
                assert all(float(on_rec[i]) >= 0 for i in timing)
            else:
                assert [on_rec[i] for i in timing] == ["", ""]

    def test_programming_error_propagates(self, small_suite, monkeypatch):
        # only bad input (a ValueError) becomes a failure row
        def broken(img, name, config):
            raise TypeError("broken preprocessor")

        monkeypatch.setattr(harness, "apply_preprocessor", broken)
        with pytest.raises(TypeError, match="broken preprocessor"):
            run_experiment(small_config(small_suite))

    def test_unreadable_file_fails_the_run(self, small_suite, tmp_path):
        # every image is read before the first row, so no row is a
        # failure line: the file's OSError ends the run
        manifest = load_manifest(small_suite)
        missing = tmp_path / "missing.pgm"
        lines = [f"{missing} {manifest.samples[0][1]}"] + [
            f"{path} {label}" for path, label in manifest.samples[1:]]
        with pytest.raises(FileNotFoundError, match="missing.pgm"):
            run_experiment(small_config(
                write_manifest(tmp_path / "m.txt", lines)))

    def test_failure_row_names_too_small_deriv_sigma(self, small_suite):
        report = run_experiment(small_config(
            small_suite, preprocessors=("gderiv1", "none"), deriv_sigma=0.02))
        assert [r.preprocessor for r in report.rows] == ["none"]
        assert report.failures == [(
            "gderiv1", "ValueError: sigma=0.02 is too small for a first "
            "derivative kernel: its off-centre taps underflow to 0")]

    def test_non_finite_image_is_a_failure_row(self, small_suite):
        manifest = load_manifest(small_suite)
        images = [load_image(p) for p, _ in manifest.samples]
        images[5] = images[5].copy()
        images[5][3, 4] = np.nan
        report = run_experiment(small_config(small_suite), manifest=manifest,
                                images=images)
        assert report.rows == []
        assert [name for name, _ in report.failures] == ["bf", "none"]
        assert all("NaN or infinite pixels" in msg
                   for _, msg in report.failures)

    def test_every_split_is_scored_by_evaluate(self, small_suite,
                                              monkeypatch):
        calls = []
        real = harness.evaluate

        def wrong_third(*args):  # of the clean splits
            acc, confusion = real(*args)
            calls.append(acc)
            return (-1.0 if len(calls) == 2 + 3 else acc), confusion

        monkeypatch.setattr(harness, "evaluate", wrong_third)
        report = run_experiment(small_config(
            small_suite, preprocessors=("none",),
            split=SplitPolicy(n_train=3, repeats=4, seed=9),
            noise=NoiseSpec(snr_levels=(5.0,), repeats=2, seed=3)))
        assert len(calls) == 2 + 4  # each repeat, then each clean split
        clean = report.rows[0]
        assert clean.mean_accuracy == float(np.mean(
            calls[2:4] + [-1.0] + calls[5:6]))

    def test_gamma_noise_rows_have_finite_accuracies(self, small_suite):
        # unclipped noise makes negative pixels; the sign-preserving gamma
        # keeps them finite, so the noise rows are scored, not failed
        first = load_image(load_manifest(small_suite).samples[0][0])
        assert (add_gaussian_noise(first, 3.0, harness._rng(1, 0, 0)) < 0).any()
        config = small_config(
            small_suite, preprocessors=("gamma",),
            noise=NoiseSpec(snr_levels=(10.0, 3.0), repeats=2, seed=1))
        report = run_experiment(config)
        assert report.failures == []
        assert [(r.preprocessor, r.snr) for r in report.rows] == \
            [("gamma", "clean"), ("gamma", "10"), ("gamma", "3")]
        assert all(0.0 <= r.mean_accuracy <= 1.0 for r in report.rows)
        got = {(r.preprocessor, r.snr): (r.mean_accuracy, r.std_accuracy)
               for r in report.rows if r.snr != "clean"}
        assert got == reference_noise_rows(config)

    def test_noise_rows_extract_only_corrupted_images(self, small_suite,
                                                      monkeypatch):
        extracted = []  # images per extract call, which takes a block
        real = descriptors.extract

        def counting(source, config):
            hists = real(source, config)
            extracted.append(len(hists))
            return hists

        monkeypatch.setattr(descriptors, "extract", counting)
        for corrupt_train, per_repeat in ((False, 12), (True, 24)):
            extracted.clear()
            run_experiment(small_config(
                small_suite, preprocessors=("none",),
                noise=NoiseSpec(snr_levels=(5.0,), repeats=3, seed=2),
                corrupt_train=corrupt_train))
            # 24 clean images, then 3 repeats of the corrupted ones
            assert sum(extracted) == 24 + 3 * per_repeat

    def test_deterministic_report_bytes(self, small_suite):
        config = small_config(small_suite,
                              noise=NoiseSpec(snr_levels=(10.0,), repeats=2,
                                              seed=4))
        a = run_experiment(config).to_csv()
        b = run_experiment(config).to_csv()
        assert a == b

    def test_failed_row_recorded_others_continue(self, small_suite):
        # R too large for the 48x48 images in one... use tiny images instead:
        # force failure via a descriptor radius larger than the image
        config = small_config(small_suite,
                              descriptor=DescriptorConfig(family="lbp", p=8,
                                                          r=30.0))
        report = run_experiment(config)
        assert len(report.failures) == 2
        assert report.rows == []

    def test_unknown_preprocessor_rejected(self, small_suite):
        with pytest.raises(ConfigError):
            small_config(small_suite, preprocessors=("nope",))

    def test_no_preprocessor_rejected(self, small_suite):
        # the report would hold its header row alone, with no failure
        with pytest.raises(ConfigError, match="preprocessors must name at "
                                              "least one preprocessor"):
            small_config(small_suite, preprocessors=())

    def test_repeated_preprocessor_rejected(self, small_suite):
        # it would run twice and report two identical sets of rows
        with pytest.raises(ConfigError,
                           match=r"repeated preprocessors: \['bf'\]"):
            small_config(small_suite, preprocessors=("bf", "none", "bf"))

    def test_unknown_preprocessor_message_lists_the_table(self, small_suite):
        with pytest.raises(ConfigError, match=re.escape(
                "unknown preprocessors: ['nope'] (known: none, bf, gamma, "
                "dog, gderiv0, gderiv1, gderiv2)")):
            small_config(small_suite, preprocessors=("nope", "bf"))

    def test_every_table_name_runs_through_apply_preprocessor(self):
        img = np.random.default_rng(2).random((20, 20))
        config = ExperimentConfig(manifest_path=None)
        d = config.bf_params
        want = {"none": img, "bf": harness.bf_preprocess(img, d),
                "gamma": baselines.gamma_correct(img, 2.2),
                "dog": baselines.dog_only(img, d.sigma1, d.sigma2),
                **{f"gderiv{k}": baselines.gaussian_derivative(img, 1.0, k)
                   for k in range(3)}}
        assert list(want) == list(harness.PREPROCESSORS)
        for name, expected in want.items():
            got = apply_preprocessor(img, name, config)
            if name == "bf":
                for part in ("plus", "minus", "raw"):
                    np.testing.assert_array_equal(getattr(got, part),
                                                  getattr(expected, part))
            else:
                np.testing.assert_array_equal(got, expected)

    def test_yields_pair_is_what_apply_preprocessor_gives(self):
        # a pooled run sizes its feature arrays by _yields_pair before any
        # image is preprocessed
        img = np.random.default_rng(3).random((2, 20, 20))
        config = ExperimentConfig(manifest_path=None)
        for entry in (*harness.PREPROCESSORS, BfParams(0.5, 3.0, 0.05)):
            got = apply_preprocessor(img, entry, config)
            assert harness._yields_pair(entry) == isinstance(got, BfMaps)

    def test_large_labels_give_the_same_report(self, tmp_path):
        # evaluate sizes a confusion matrix by the largest label; the
        # harness maps labels to 0..K-1 in order, which moves no byte
        generate_suite(tmp_path, n_classes=3, per_class=6, size=32, seed=1)
        lines = (tmp_path / "manifest.txt").read_text().splitlines()[1:]
        noise = NoiseSpec(snr_levels=(10.0, 5.0), repeats=3, seed=4)
        reports = []
        for labels in ((0, 1, 2), (0, 5, 3000000)):
            path = write_manifest(
                tmp_path / f"m{labels[-1]}.txt",
                [f"{name} {labels[int(lab)]}"
                 for name, lab in map(str.split, lines)])
            reports.append(run_experiment(small_config(
                path, suite="s", noise=noise)).to_csv())
        assert reports[0] == reports[1]
        assert len(reports[0].splitlines()) == 1 + 2 * 3


BLOCK_DESCRIPTORS = {
    "lbp": DescriptorConfig(family="lbp", p=8, r=1.0),
    "clbp": DescriptorConfig(family="clbp", scheme="S/M/C", p=16, r=2.0),
    "clbc": DescriptorConfig(family="clbc", scheme="S_M/C", p=8, r=1.5),
    "ltp": DescriptorConfig(family="ltp", p=8, r=1.0),
    "wld": DescriptorConfig(family="wld"),
}


class TestBlockExtraction:
    """Extracting a block at a time gives every image the histogram that
    extract gives it alone."""

    @pytest.mark.parametrize("preprocessor",
                             ["none", "bf", "dog", "gamma", "gderiv1",
                              BfParams(0.5, 3.0, 0.05)])
    @pytest.mark.parametrize("family", sorted(BLOCK_DESCRIPTORS))
    def test_equals_per_image_extract(self, rng, monkeypatch, family,
                                      preprocessor):
        config = ExperimentConfig(manifest_path="unused",
                                  descriptor=BLOCK_DESCRIPTORS[family],
                                  bf_params=BfParams(1.0, 2.0, 0.02))
        spec = config.descriptor.spec
        shapes = [(14, 13)] * 7 + [(11, 16)] * 2 + [(14, 13)]
        images = [rng.random(shape) for shape in shapes]
        images[3] = np.full((14, 13), 0.25)  # flat: an all-zero DoG
        m = spec.margin
        per_image = spec.p * (14 - 2 * m) * (13 - 2 * m)
        monkeypatch.setattr(harness, "_BLOCK_CELLS", 3 * per_image)
        blocks = list(harness._blocks(images, spec))
        # full blocks, a partial last block, a block ending at a size
        # change, and a block of one
        assert blocks[:3] == [(0, 3), (3, 6), (6, 7)]
        assert blocks[-1] == (9, 10) and blocks[-2][0] == 7
        for subset in (images, images[4:5]):
            want = np.stack([
                descriptors.extract(apply_preprocessor(img, preprocessor,
                                                       config),
                                    config.descriptor) for img in subset])
            rows = {preprocessor: np.full_like(want, np.nan)}
            assert harness._extract_features(
                subset, np.ones(len(subset)),
                [f"img{i}" for i in range(len(subset))],
                range(len(subset)), rows, config) == {}
            assert np.array_equal(rows[preprocessor], want)

    def test_chunks_cut_the_suite_at_its_blocks(self, monkeypatch):
        # a chunk job's blocks are the suite's own, so each image is
        # extracted in the block it is in on one CPU
        spec = NeighborhoodSpec(8, 1.0)
        shapes = [(14, 13)] * 7 + [(11, 16)] * 2 + [(14, 13)] * 5
        images = [np.zeros(shape) for shape in shapes]
        m = spec.margin
        monkeypatch.setattr(harness, "_BLOCK_CELLS",
                            3 * spec.p * (14 - 2 * m) * (13 - 2 * m))
        blocks = list(harness._blocks(images, spec))
        assert len(blocks) == 6
        for parts in range(1, 8):
            chunks = harness._chunks(images, spec, parts)
            assert 1 <= len(chunks) <= parts
            assert [lo for lo, _ in chunks[1:]] == [hi for _, hi in chunks[:-1]]
            assert chunks[0][0] == 0 and chunks[-1][1] == len(images)
            for lo, hi in chunks:
                assert [(lo + a, lo + b) for a, b in
                        harness._blocks(images[lo:hi], spec)] == \
                    [blk for blk in blocks if lo <= blk[0] < hi]
        # equal blocks are dealt out evenly
        assert harness._chunks(images[:6], spec, 2) == [(0, 3), (3, 6)]
        assert harness._chunks(images[:6], spec, 3) == [(0, 3), (3, 6)]
        assert harness._chunks(images[:1], spec, 2) == [(0, 1)]

    def test_failure_row_names_the_bad_image(self, small_suite):
        manifest = load_manifest(small_suite)
        images = [load_image(p) for p, _ in manifest.samples]
        # 48x48 images at P=8, R=1 go 16 to a block: image 19 is the
        # fourth of the second block
        assert list(harness._blocks(images, NeighborhoodSpec(8, 1.0))) == \
            [(0, 16), (16, 24)]
        images[19] = images[19].copy()
        images[19][0, 1] = np.inf
        report = run_experiment(small_config(small_suite), manifest=manifest,
                                images=images)
        bad = manifest.samples[19][0]
        assert [msg for _, msg in report.failures] == \
            [f"NonFiniteImageError: {bad}: image has NaN or infinite pixels"] * 2


class TestNoiseSharedByPreprocessors:
    """Each repeat's noise is drawn once for every preprocessor, and what a
    preprocessor reports does not depend on the others or on the block
    size."""

    NOISE = NoiseSpec(snr_levels=(10.0, 3.0), repeats=2, seed=6)

    @staticmethod
    def refuse_noisy_input(monkeypatch, images, name, after):
        """Make preprocessor `name` raise a ValueError once it has been
        given more than `after` images that are not clean ones."""
        clean = {img.tobytes() for img in images}
        real, noisy = harness.apply_preprocessor, []

        def refusing(img, pname, config):
            if pname == name:
                noisy.extend(im for im in img if im.tobytes() not in clean)
                if len(noisy) > after:
                    raise ValueError("noisy input refused")
            return real(img, pname, config)

        monkeypatch.setattr(harness, "apply_preprocessor", refusing)

    @pytest.mark.parametrize("corrupt_train", [False, True])
    def test_rows_independent_of_order_and_block_size(self, small_suite,
                                                      monkeypatch,
                                                      corrupt_train):
        manifest = load_manifest(small_suite)
        images = [load_image(p) for p, _ in manifest.samples]
        per_repeat = 24 if corrupt_train else 12
        names = ("bf", "none", "dog")
        runs = []
        for order in (names, names[::-1], names[1:] + names[:1], ("none",),
                      ("dog", "bf")):
            for block_cells in (harness._BLOCK_CELLS, 1):  # 1: an image
                with monkeypatch.context() as patch:
                    patch.setattr(harness, "_BLOCK_CELLS", block_cells)
                    # dog fails in the first repeat of the second level
                    self.refuse_noisy_input(patch, images, "dog",
                                            self.NOISE.repeats * per_repeat)
                    report = run_experiment(
                        small_config(small_suite, preprocessors=order,
                                     noise=self.NOISE,
                                     corrupt_train=corrupt_train),
                        manifest=manifest, images=images)
                rows = {}
                for row in report.rows:
                    rows.setdefault(row.preprocessor, []).append(
                        ",".join(row.as_record()))
                runs.append((rows, dict(report.failures)))
                assert set(rows) == set(order)
                assert [row.preprocessor for row in report.rows] == \
                    [n for n in order for _ in rows[n]]  # preprocessor first
        rows, failures = runs[0]
        for run_rows, run_failures in runs[1:]:
            assert run_rows == {n: rows[n] for n in run_rows}
            assert run_failures == {n: failures[n] for n in run_failures}
        assert {n: [r.split(",")[6] for r in rows[n]] for n in names} == {
            "bf": ["clean", "10", "3"], "none": ["clean", "10", "3"],
            "dog": ["clean", "10"]}
        assert failures == {"dog": "ValueError: noisy input refused"}

    @pytest.mark.parametrize("corrupt_train", [False, True])
    def test_noise_drawn_once_per_repeat(self, small_suite, monkeypatch,
                                         corrupt_train):
        manifest = load_manifest(small_suite)
        images = [load_image(p) for p, _ in manifest.samples]
        per_repeat = 24 if corrupt_train else 12
        draws, real = [], harness.add_gaussian_noise

        def counting(img, snr, rng):
            draws.append(snr)
            return real(img, snr, rng)

        monkeypatch.setattr(harness, "add_gaussian_noise", counting)
        for names in (("none",), ("bf", "none"), ("bf", "none", "dog")):
            draws.clear()
            with monkeypatch.context() as patch:
                self.refuse_noisy_input(patch, images, "dog", 0)
                report = run_experiment(
                    small_config(small_suite, preprocessors=names,
                                 noise=self.NOISE,
                                 corrupt_train=corrupt_train),
                    manifest=manifest, images=images)
            assert len(report.rows) == 3 * len(set(names) - {"dog"}) + \
                ("dog" in names)
            assert draws == [snr for snr in self.NOISE.snr_levels
                             for _ in range(self.NOISE.repeats * per_repeat)]

    def test_failed_noise_draw_fails_every_preprocessor(self, small_suite,
                                                        monkeypatch):
        real = harness.add_gaussian_noise

        def failing(img, snr, rng):
            if snr == 3.0:
                raise ValueError("no noise today")
            return real(img, snr, rng)

        monkeypatch.setattr(harness, "add_gaussian_noise", failing)
        report = run_experiment(small_config(
            small_suite, preprocessors=("bf", "none"), noise=self.NOISE))
        assert [(r.preprocessor, r.snr) for r in report.rows] == [
            ("bf", "clean"), ("bf", "10"), ("none", "clean"), ("none", "10")]
        assert report.failures == [("bf", "ValueError: no noise today"),
                                   ("none", "ValueError: no noise today")]

    @pytest.mark.parametrize("block_cells", [harness._BLOCK_CELLS, 1])
    def test_draw_failing_at_a_later_image_fails_every_preprocessor(
            self, small_suite, monkeypatch, block_cells):
        real, draws = harness.add_gaussian_noise, []

        def failing(img, snr, rng):
            if snr == 3.0:
                draws.append(snr)
                if len(draws) > 17:  # the sixth image of the second repeat
                    raise ValueError("no noise today")
            return real(img, snr, rng)

        monkeypatch.setattr(harness, "_BLOCK_CELLS", block_cells)
        monkeypatch.setattr(harness, "add_gaussian_noise", failing)
        report = run_experiment(small_config(
            small_suite, preprocessors=("bf", "none"), noise=self.NOISE))
        assert [(r.preprocessor, r.snr) for r in report.rows] == [
            ("bf", "clean"), ("bf", "10"), ("none", "clean"), ("none", "10")]
        assert report.failures == [("bf", "ValueError: no noise today"),
                                   ("none", "ValueError: no noise today")]


needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the job pool forks its workers")


@needs_fork
class TestNoiseJobPool:
    """The clean and noise jobs give the same report on forked workers as
    inline.

    Counters kept in a worker never reach this process, so failures are
    set off by the data each job draws, and each pool made is seen
    through the jobs it was sent."""

    NOISE = NoiseSpec(snr_levels=(10.0, 3.0), repeats=2, seed=6)
    # 4 splits of 12 x 12 images over 24: the splits read one triangle
    TRIANGLE = SplitPolicy(mode="random", n_train=3, repeats=4, seed=9)

    @staticmethod
    def force_pool(patch):
        """Send every run of two or more jobs to a two-worker pool;
        returns one list per pool made, of the job arguments it was
        sent."""
        pools, real = [], concurrent.futures.ProcessPoolExecutor

        class Recorded(real):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                pools.append([])
                self.sent = pools[-1]

            def submit(self, fn, /, *args, **kwargs):
                self.sent.append(args)
                return super().submit(fn, *args, **kwargs)

        patch.setattr(harness, "_POOL_PIXELS", 0)
        patch.setattr(classify, "_cpu_count", lambda: 2)
        patch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorded)
        return pools

    @staticmethod
    def phases(config, failed=()):
        """What force_pool records for a run of ``config``: the jobs sent
        to its one pool, or none for a run of one job.  The entries run
        two at a time: one job per (entry, half of the suite's blocks),
        then the group's (level, repeat) noise jobs over its entries that
        did not fail in the first round and, where the splits read one
        chi2 triangle, one job per (such an entry, half of its
        triangle)."""
        manifest = load_manifest(config.manifest_path)
        images = [load_image(p) for p, _ in manifest.samples]
        chunks = harness._chunks(images, config.descriptor.spec, 2)
        triangle = harness._triangle_pays(len(images),
                                          make_splits(manifest, config.split))
        draws = [(li, rep) for li in range(len(config.noise.snr_levels))
                 for rep in range(config.noise.repeats)] if config.noise else []
        names, jobs = config.preprocessors, []
        for at in range(0, len(names), 2):
            group = names[at:at + 2]
            live = tuple(name for name in group if name not in failed)
            jobs += [("rows", name, k) for name in group
                     for k in range(len(chunks))]
            jobs += [("noise", live, li, rep) for li, rep in draws if live]
            jobs += [("triangle", name, k) for name in live if triangle
                     for k in range(2)]
        return [jobs] if len(names) * len(chunks) + len(draws) > 1 else []

    @staticmethod
    def record_rounds(patch, step=1, sent=None):
        """Record the results of each round of jobs that a run sends to
        its pool, its jobs run in ``step`` order (-1: last to first);
        returns the list.  Each round's jobs are appended to ``sent``
        where it is given."""
        real, rounds = harness._job_pool, []

        @contextlib.contextmanager
        def job_pool(job, workers):
            with real(job, workers) as run:
                def recorded(jobs):
                    if sent is not None:
                        sent.append(jobs)
                    rounds.append(run(jobs[::step])[::step])
                    return rounds[-1]
                yield recorded

        patch.setattr(harness, "_job_pool", job_pool)
        return rounds

    def inline_and_pooled(self, monkeypatch, config, failed=(), on_pool=None,
                          **kw):
        """(report inline, report on the pool) of one run, whose entries
        ``failed`` fail their clean rows; ``on_pool(patch)``, where given,
        patches the pooled run only."""
        inline = run_experiment(config, **kw)
        with monkeypatch.context() as patch:
            pools = self.force_pool(patch)
            if on_pool:
                on_pool(patch)
            pooled = run_experiment(config, **kw)
        assert pools == self.phases(config, failed)
        assert multiprocessing.active_children() == []
        return inline, pooled

    @staticmethod
    def images_and_splits(small_suite):
        manifest = load_manifest(small_suite)
        images = [load_image(p) for p, _ in manifest.samples]
        return manifest, images, make_splits(
            manifest, small_config(small_suite).split)

    @pytest.mark.parametrize("corrupt_train", [False, True])
    def test_report_equals_inline(self, small_suite, monkeypatch,
                                  corrupt_train):
        config = small_config(
            small_suite, noise=self.NOISE, corrupt_train=corrupt_train,
            preprocessors=("bf", "none", "dog", BfParams(0.5, 3.0, 0.05)))
        inline, pooled = self.inline_and_pooled(monkeypatch, config)
        assert pooled.to_csv() == inline.to_csv()
        assert pooled.failures == inline.failures == []
        assert len(inline.rows) == 4 * 3

    def failing_in_a_later_repeat(self, small_suite, monkeypatch):
        """(manifest, images, config) of a run whose dog entry fails in
        the second repeat of each level, and only there."""
        manifest, images, splits = self.images_and_splits(small_suite)
        # an image noised in the second repeat only, lifted out of the
        # range of the others so that its noisy copies can be told apart
        k = min(set(splits[1][1]) - set(splits[0][1]))
        images[k] = images[k] * 0.01 + 5.0
        clean = {img.tobytes() for img in images}
        real = harness.apply_preprocessor

        def refusing(img, name, config):
            if name == "dog" and any(im.mean() > 4.0
                                     and im.tobytes() not in clean
                                     for im in img):
                raise ValueError("noisy copy refused")
            return real(img, name, config)

        monkeypatch.setattr(harness, "apply_preprocessor", refusing)
        return manifest, images, small_config(
            small_suite, noise=self.NOISE, preprocessors=("dog", "bf"))

    def test_entry_failing_in_a_later_repeat(self, small_suite, monkeypatch):
        manifest, images, config = self.failing_in_a_later_repeat(
            small_suite, monkeypatch)
        inline, pooled = self.inline_and_pooled(
            monkeypatch, config, manifest=manifest, images=images)
        assert pooled.to_csv() == inline.to_csv()
        assert pooled.failures == inline.failures == [
            ("dog", "ValueError: noisy copy refused")]
        assert [(r.preprocessor, r.snr) for r in inline.rows] == [
            ("dog", "clean"), ("bf", "clean"), ("bf", "10"), ("bf", "3")]

    def test_jobs_independent_of_order(self, small_suite, monkeypatch):
        # no job reads what another job's result changes, so running them
        # last to first gives each the same result and the same report
        manifest, images, config = self.failing_in_a_later_repeat(
            small_suite, monkeypatch)
        monkeypatch.setattr(classify, "_cpu_count", lambda: 2)
        with monkeypatch.context() as patch:
            results = self.record_rounds(patch)
            forward = run_experiment(config, manifest=manifest, images=images)
        with monkeypatch.context() as patch:
            back = self.record_rounds(patch, step=-1)
            backward = run_experiment(config, manifest=manifest, images=images)
        results += back
        assert backward.to_csv() == forward.to_csv()
        assert backward.failures == forward.failures == [
            ("dog", "ValueError: noisy copy refused")]
        # inline, one group: its clean rows in two chunks an entry, then
        # its noise jobs; forward then backward.  A job returns its result
        # and its seconds, and a clean job's result is its failure.
        clean, noise, clean_back, noise_back = [
            [result for result, _ in run] for run in results]
        assert clean_back == clean == [None] * 4
        assert noise_back == noise
        # the dog entry runs after its first failure, at level 1 repeat 0
        assert [sorted(accs) for accs, _ in noise] == \
            [["bf", "dog"], ["bf"], ["bf", "dog"], ["bf"]]

    def test_first_failing_level_ends_an_entry(self, small_suite,
                                               monkeypatch):
        # dog fails at the middle level only, with a message per repeat: it
        # keeps the level before, has no row from there on, and is recorded
        # with the message of the first job in order that failed
        _, _, splits = self.images_and_splits(small_suite)
        assert splits[0][1][:4] != splits[1][1][:4]
        real = harness._extract_features

        def failing(pixels, maxvals, paths, ids, rows, config, noise=None):
            failed = real(pixels, maxvals, paths, ids, rows, config, noise)
            if noise and noise[0] == 10.0 and "dog" in rows:
                failed.setdefault("dog", f"refused on images {ids[:4]}")
            return failed

        monkeypatch.setattr(harness, "_extract_features", failing)
        config = small_config(small_suite, preprocessors=("dog", "bf"),
                              noise=replace(self.NOISE,
                                            snr_levels=(30.0, 10.0, 3.0)))
        inline, pooled = self.inline_and_pooled(monkeypatch, config)
        assert pooled.to_csv() == inline.to_csv()
        assert pooled.failures == inline.failures == [
            ("dog", f"refused on images {splits[0][1][:4]}")]
        assert [(r.preprocessor, r.snr) for r in inline.rows] == [
            ("dog", "clean"), ("dog", "30"), ("bf", "clean"), ("bf", "30"),
            ("bf", "10"), ("bf", "3")]

    def test_failed_draw(self, small_suite, monkeypatch):
        manifest, images, splits = self.images_and_splits(small_suite)
        # finite pixels whose variance overflows: no noise can be drawn
        k = min(set(splits[1][1]) - set(splits[0][1]))
        images[k] = images[k] * 1e200
        # and a constant image, warned about at each draw, in the first
        # repeat only
        c = min(set(splits[0][1]) - set(splits[1][1]))
        images[c] = np.full_like(images[c], 0.5)
        config = small_config(small_suite, noise=self.NOISE)

        def run():
            with warnings.catch_warnings(record=True) as found:
                warnings.simplefilter("always")
                report = run_experiment(config, manifest=manifest,
                                        images=images)
            return report, [str(w.message) for w in found]

        inline, inline_warned = run()
        with monkeypatch.context() as patch:
            pools = self.force_pool(patch)
            pooled, pooled_warned = run()
        assert pools == self.phases(config)
        assert multiprocessing.active_children() == []
        assert pooled.to_csv() == inline.to_csv()
        message = ("ValueError: image variance overflows float64: no noise "
                   "level can be set")
        assert pooled.failures == inline.failures == [("bf", message),
                                                      ("none", message)]
        assert [r.snr for r in inline.rows] == ["clean", "clean"]
        # the draw fails both entries at (level 0, repeat 1), yet every
        # job draws on both paths: the constant image once a level
        assert pooled_warned == inline_warned == [
            "constant image: no noise added (zero signal std)"] * 2

    def test_constant_image_warned_once_per_draw(self, small_suite,
                                                 monkeypatch):
        manifest, images, splits = self.images_and_splits(small_suite)
        k = splits[0][1][0]
        images[k] = np.full_like(images[k], 0.5)
        config = small_config(small_suite, noise=self.NOISE,
                              preprocessors=("bf", "none", "dog"))
        draws = sum(k in splits[rep % len(splits)][1]
                    for rep in range(self.NOISE.repeats)) * 2  # 2 levels
        with warnings.catch_warnings(record=True) as found:
            warnings.simplefilter("always")
            inline, pooled = self.inline_and_pooled(
                monkeypatch, config, manifest=manifest, images=images)
        assert pooled.to_csv() == inline.to_csv()
        messages = [str(w.message) for w in found]
        # inline the 3 entries are one group; on 2 CPUs, two groups draw
        assert messages == ["constant image: no noise added (zero signal "
                            "std)"] * (draws + 2 * draws)

    def test_programming_error_keeps_worker_traceback(self, small_suite,
                                                      monkeypatch):
        manifest, images, _ = self.images_and_splits(small_suite)
        clean = {img.tobytes() for img in images}
        real = harness.apply_preprocessor

        def broken_on_noise(img, name, config):
            if any(im.tobytes() not in clean for im in img):
                raise TypeError("broken on noisy input")
            return real(img, name, config)

        monkeypatch.setattr(harness, "apply_preprocessor", broken_on_noise)
        pools = self.force_pool(monkeypatch)
        config = small_config(small_suite, noise=self.NOISE)
        with pytest.raises(TypeError, match="broken on noisy input") as info:
            run_experiment(config, manifest=manifest, images=images)
        assert pools == self.phases(config)
        assert multiprocessing.active_children() == []
        # the worker's own frames, down to the function that raised
        assert "in broken_on_noise" in str(info.value.__cause__)

    @pytest.mark.skipif(not os.path.exists("/proc/self/stat"),
                        reason="threads are counted in /proc/self/stat")
    def test_one_thread_at_each_fork(self, small_suite, monkeypatch):
        # Python 3.12+ warns about a fork from a multi-threaded process
        # after counting its threads here, but the warning can never be
        # raised, not even as an error, so the count itself is checked.  A
        # BLAS product first starts numpy's BLAS threads, where it has any.
        def threads():
            with open("/proc/self/stat") as f:
                return int(f.read().rsplit(")", 1)[1].split()[17])

        counts, real = [], os.fork

        def fork():
            pid = real()
            if pid:
                counts.append(threads())
            return pid

        np.ones((256, 256)) @ np.ones((256, 256))
        pools = self.force_pool(monkeypatch)
        monkeypatch.setattr(os, "fork", fork)
        config = small_config(small_suite, split=self.TRIANGLE,
                              noise=self.NOISE)
        run_experiment(config)
        # two workers, forked once for every round: the clean rows' 4
        # chunks, then 4 noise jobs and 4 triangle shares
        assert len(pools) == 1 and len(pools[0]) == 12
        assert pools == self.phases(config) and counts == [1] * 2

    def test_other_python_thread_runs_inline(self, small_suite, monkeypatch):
        # a worker could inherit that thread's locks held
        pools = self.force_pool(monkeypatch)
        config = small_config(small_suite, noise=self.NOISE)
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            report = run_experiment(config)
        finally:
            release.set()
            other.join(timeout=10)
        assert not other.is_alive() and pools == []
        assert run_experiment(config).to_csv() == report.to_csv()
        assert pools == self.phases(config)

    def test_worker_chi2_kernel_runs_inline(self, small_suite, monkeypatch):
        # one-row blocks and no cell threshold: every chi2 call of more
        # than one row would start threads, which no worker may
        parent, real = os.getpid(), classify.ThreadPoolExecutor

        def parent_only(*args, **kwargs):
            if os.getpid() != parent:
                raise AssertionError("chi2 threads in a pool worker")
            return real(*args, **kwargs)

        monkeypatch.setattr(classify, "_BLOCK_CELLS", 1)
        monkeypatch.setattr(classify, "_POOL_CELLS", 0)
        monkeypatch.setattr(classify, "ThreadPoolExecutor", parent_only)
        inline, pooled = self.inline_and_pooled(
            monkeypatch, small_config(small_suite, noise=self.NOISE))
        assert pooled.to_csv() == inline.to_csv()

    @pytest.mark.parametrize("cpus,repeats", [(1, 2), (2, 1)])
    def test_one_cpu_or_one_job_runs_inline(self, small_suite, monkeypatch,
                                            cpus, repeats):
        pools = self.force_pool(monkeypatch)
        monkeypatch.setattr(classify, "_cpu_count", lambda: cpus)
        config = small_config(
            small_suite, noise=NoiseSpec(snr_levels=(5.0,), repeats=repeats))
        run_experiment(config)
        # on 2 CPUs the run's one noise job goes to the pool that its
        # clean rows of 2 entries use
        assert pools == ([] if cpus == 1 else [[
            ("rows", "bf", 0), ("rows", "bf", 1), ("rows", "none", 0),
            ("rows", "none", 1), ("noise", ("bf", "none"), 0, 0)]])

    def test_daemonic_process_runs_inline(self, small_suite, monkeypatch):
        # a daemonic process may not have children, so it makes no pool
        pools = self.force_pool(monkeypatch)
        config = small_config(small_suite, noise=self.NOISE)
        context = multiprocessing.get_context("fork")
        results = context.SimpleQueue()
        child = context.Process(daemon=True, target=lambda: results.put(
            (run_experiment(config).to_csv(), len(pools))))
        child.start()
        child.join(timeout=120)
        assert child.exitcode == 0
        assert results.get() == (run_experiment(config).to_csv(), 0)
        assert pools == self.phases(config)  # the call in this process

    def test_small_protocol_runs_inline(self, small_suite, monkeypatch):
        # 2 entries x (24 clean images + 4 jobs x 12 noisy test images) of
        # 48^2: under the threshold
        pools = self.force_pool(monkeypatch)
        work = 2 * (24 + 4 * 12) * 48 * 48
        monkeypatch.setattr(harness, "_POOL_PIXELS", work + 1)
        config = small_config(small_suite, noise=self.NOISE)
        report = run_experiment(config)
        assert pools == [] and len(report.rows) == 2 * 3
        monkeypatch.setattr(harness, "_POOL_PIXELS", work)
        assert run_experiment(config).to_csv() == report.to_csv()
        assert pools == self.phases(config) and len(pools[0]) == 4 + 4

    def test_clean_report_equals_inline(self, small_suite, monkeypatch):
        config = small_config(
            small_suite, preprocessors=("bf", "dog", "none",
                                        BfParams(0.5, 3.0, 0.05)))
        inline, pooled = self.inline_and_pooled(monkeypatch, config)
        assert pooled.to_csv() == inline.to_csv()
        assert pooled.failures == inline.failures == []
        assert [r.snr for r in inline.rows] == ["clean"] * 4

    def test_clean_failure_names_the_image(self, small_suite, monkeypatch):
        manifest, images, _ = self.images_and_splits(small_suite)
        images[5] = images[5].copy()
        images[5][3, 4] = np.nan
        inline, pooled = self.inline_and_pooled(
            monkeypatch, small_config(small_suite), manifest=manifest,
            images=images)
        assert pooled.rows == inline.rows == []
        message = (f"NonFiniteImageError: {manifest.samples[5][0]}: image "
                   f"has NaN or infinite pixels")
        assert pooled.failures == inline.failures == [("bf", message),
                                                      ("none", message)]

    def test_clean_failure_and_warnings_as_inline(self, small_suite,
                                                  monkeypatch):
        # gamma overflows on a finite training image of 1e200 (one numpy
        # warning, in its clean job), so its row fails naming that image;
        # a constant test image is drawn by the one noise job of each group:
        # once inline, and on the pool once for (bf, gamma), once for none
        manifest, images, splits = self.images_and_splits(small_suite)
        k, c = splits[0][0][0], splits[0][1][0]
        images[k] = images[k] * 1e200
        images[c] = np.full_like(images[c], 0.5)
        config = small_config(small_suite, preprocessors=("bf", "gamma",
                                                          "none"),
                              noise=NoiseSpec(snr_levels=(5.0,), repeats=1))
        with warnings.catch_warnings(record=True) as found:
            warnings.simplefilter("always")
            inline, pooled = self.inline_and_pooled(
                monkeypatch, config, failed=("gamma",), manifest=manifest,
                images=images)
        assert pooled.to_csv() == inline.to_csv()
        assert pooled.failures == inline.failures == [(
            "gamma", f"NonFiniteImageError: {manifest.samples[k][0]}: "
                     f"image has NaN or infinite pixels")]
        assert [(r.preprocessor, r.snr) for r in inline.rows] == [
            ("bf", "clean"), ("bf", "5"), ("none", "clean"), ("none", "5")]
        overflow = "overflow encountered in power"
        constant = "constant image: no noise added (zero signal std)"
        assert [str(w.message) for w in found] == [
            overflow, constant, overflow, constant, constant]

    def test_clean_programming_error_keeps_worker_traceback(
            self, small_suite, monkeypatch):
        def broken(img, name, config):
            raise TypeError("broken preprocessor")

        monkeypatch.setattr(harness, "apply_preprocessor", broken)
        pools = self.force_pool(monkeypatch)
        with pytest.raises(TypeError, match="broken preprocessor") as info:
            run_experiment(small_config(small_suite))
        assert pools == [[("rows", "bf", 0), ("rows", "bf", 1),
                          ("rows", "none", 0), ("rows", "none", 1)]]
        assert multiprocessing.active_children() == []
        assert "in broken" in str(info.value.__cause__)

    def test_one_entry_pools_its_clean_rows(self, small_suite, monkeypatch):
        # the clean rows are split by image and by triangle part, so one
        # entry above the switch runs on every CPU too
        pools = self.force_pool(monkeypatch)
        run_experiment(small_config(small_suite, preprocessors=("bf",),
                                    split=self.TRIANGLE))
        assert pools == [[("rows", "bf", 0), ("rows", "bf", 1),
                          ("triangle", "bf", 0), ("triangle", "bf", 1)]]
        pools.clear()
        config = small_config(small_suite, preprocessors=("bf",),
                              noise=self.NOISE)
        run_experiment(config)
        assert pools == self.phases(config) == [[
            ("rows", "bf", 0), ("rows", "bf", 1), ("noise", ("bf",), 0, 0),
            ("noise", ("bf",), 0, 1), ("noise", ("bf",), 1, 0),
            ("noise", ("bf",), 1, 1)]]

    @pytest.mark.parametrize("entries", [
        ("bf",), ("bf", "dog", "none", BfParams(0.5, 3.0, 0.05))])
    def test_clean_report_pooled_inline_and_on_one_cpu(
            self, small_suite, monkeypatch, entries):
        config = small_config(small_suite, preprocessors=entries,
                              split=self.TRIANGLE)
        inline, pooled = self.inline_and_pooled(monkeypatch, config)
        with monkeypatch.context() as patch:
            pools = self.force_pool(patch)
            patch.setattr(classify, "_cpu_count", lambda: 1)
            one_cpu = run_experiment(config)
        assert pools == []
        assert pooled.to_csv() == inline.to_csv() == one_cpu.to_csv()
        assert pooled.failures == inline.failures == one_cpu.failures == []
        assert len(inline.rows) == len(entries)

    @staticmethod
    def count_maps(made):
        """A patch that appends to ``made`` the size of each shared array
        mapped after it."""
        real = harness._shared_array

        def counted(size):
            made.append(size)
            return real(size)

        return lambda patch: patch.setattr(harness, "_shared_array", counted)

    def test_shared_memory_holds_one_group_of_entries(self, small_suite,
                                                      monkeypatch):
        # five entries on two CPUs run two at a time, each of a group in
        # its own slot: a run maps two feature arrays (of the widest entry)
        # and two triangles, however many entries it has
        entries = ("bf", "dog", "none", "gamma", BfParams(0.5, 3.0, 0.05))
        config = small_config(small_suite, preprocessors=entries,
                              split=self.TRIANGLE)
        made = []
        inline, pooled = self.inline_and_pooled(
            monkeypatch, config, on_pool=self.count_maps(made))
        n, bins = 24, feature_size(config.descriptor, on_maps=True)
        assert made == [n * bins] * 2 + [n * n] * 2
        assert pooled.to_csv() == inline.to_csv()
        assert [r.preprocessor for r in pooled.rows] == [
            "bf", "dog", "none", "gamma", "bf[0.5,3,0.05]"]

    def test_noisy_run_holds_one_group_of_entries(self, small_suite,
                                                  monkeypatch):
        # each group's noise jobs run while its features are in the slots:
        # a noisy run of four entries on two CPUs maps two feature arrays
        # and two triangles, as a clean one does, and each noise job (see
        # phases) extracts its own group's two entries only
        config = small_config(small_suite, split=self.TRIANGLE,
                              noise=self.NOISE, preprocessors=(
                                  "bf", "none", "dog", "gamma"))
        made = []
        inline, pooled = self.inline_and_pooled(
            monkeypatch, config, on_pool=self.count_maps(made))
        n, bins = 24, feature_size(config.descriptor, on_maps=True)
        assert made == [n * bins] * 2 + [n * n] * 2
        assert pooled.to_csv() == inline.to_csv()
        assert pooled.failures == inline.failures == []
        assert len(inline.rows) == 4 * 3

    def test_one_pool_sends_noise_jobs_before_triangle_shares(
            self, small_suite, monkeypatch):
        # one pool for the run; each group's second round sends its noise
        # jobs, over the group's entries only, before its triangle shares
        pools = self.force_pool(monkeypatch)
        config = small_config(small_suite, split=self.TRIANGLE,
                              noise=self.NOISE, preprocessors=(
                                  "bf", "none", "dog", "gamma"))
        run_experiment(config)
        assert multiprocessing.active_children() == []

        def group(*names):
            return ([("rows", name, k) for name in names for k in (0, 1)]
                    + [("noise", names, li, rep) for li in (0, 1)
                       for rep in (0, 1)]
                    + [("triangle", name, k) for name in names
                       for k in (0, 1)])

        assert pools == [group("bf", "none") + group("dog", "gamma")]
        assert pools == self.phases(config)

    def test_clean_round_results_hold_no_array(self, small_suite,
                                               monkeypatch):
        # features and triangles stay in shared memory: a clean job sends
        # back its failure and its seconds, a noise job its accuracies and
        # failures, and its seconds
        rounds = self.record_rounds(monkeypatch)
        pools = self.force_pool(monkeypatch)
        config = small_config(small_suite, split=self.TRIANGLE,
                              noise=self.NOISE)
        run_experiment(config)
        assert pools == self.phases(config)
        assert [len(results) for results in rounds] == [4, 4 + 4]
        for failure, seconds in rounds[0] + rounds[1][4:]:
            assert failure is None and type(seconds) is float
        for (accs, failures), seconds in rounds[1][:4]:
            assert sorted(accs) == ["bf", "none"] and failures == {}
            assert all(type(acc) is float for acc in accs.values())
            assert type(seconds) is float

    def test_entry_failing_in_two_chunks_names_its_first(
            self, small_suite, monkeypatch):
        # a bad image in each half of the blocks: each chunk job fails on
        # its own, and the row records the first, as one CPU does
        manifest, images, _ = self.images_and_splits(small_suite)
        for k in (5, 20):
            images[k] = images[k].copy()
            images[k][3, 4] = np.nan
        config = small_config(small_suite, split=self.TRIANGLE)
        run = lambda: run_experiment(config, manifest=manifest, images=images)
        inline = run()
        with monkeypatch.context() as patch:
            pools = self.force_pool(patch)
            results = self.record_rounds(patch)
            pooled = run()
            # below the switch, the same two chunks an entry, inline
            patch.setattr(harness, "_POOL_PIXELS", math.inf)
            two_cpus = run()
            patch.setattr(classify, "_cpu_count", lambda: 1)
            one_cpu = run()
        assert pools == self.phases(config, failed=config.preprocessors)
        message = lambda k: (f"NonFiniteImageError: {manifest.samples[k][0]}: "
                             f"image has NaN or infinite pixels")
        # the pooled run's two rounds, then the inline run's: each entry's
        # rows round, and an empty second round as no entry is left
        assert [len(r) for r in results] == [4, 0, 2, 0, 2, 0, 1, 0, 1, 0]
        assert [msg for msg, _ in results[0]] == \
            [message(5), message(20)] * 2
        assert [msg for msg, _ in results[2] + results[4]] == \
            [message(5), message(20)] * 2
        for report in (pooled, two_cpus, one_cpu):
            assert report.rows == inline.rows == []
            assert report.failures == inline.failures == [
                ("bf", message(5)), ("none", message(5))]

    @pytest.mark.parametrize("noise", [None, NOISE])
    def test_inline_run_sends_the_pooled_rows_jobs(self, small_suite,
                                                   monkeypatch, noise):
        # below the switch on two CPUs, the clean rows are the pooled run's
        # chunk jobs, run one after another, and so is the report
        config = small_config(small_suite, split=self.TRIANGLE, noise=noise,
                              preprocessors=("bf", "none", "dog"))
        inline, pooled = self.inline_and_pooled(monkeypatch, config)
        sent = []
        monkeypatch.setattr(classify, "_cpu_count", lambda: 2)
        self.record_rounds(monkeypatch, sent=sent)
        assert run_experiment(config).to_csv() == pooled.to_csv() \
            == inline.to_csv()
        rows_jobs = lambda rounds: [job for jobs in rounds for job in jobs
                                    if job[0] == "rows"]
        assert rows_jobs(sent) == rows_jobs(self.phases(config)) == [
            ("rows", name, k) for name in config.preprocessors
            for k in (0, 1)]
        # one group when noise rows follow, else one entry at a time; no
        # triangle share runs inline
        assert len(sent) == (2 if noise else 6)
        assert not [job for jobs in sent for job in jobs
                    if job[0] == "triangle"]

    @pytest.mark.parametrize("other_thread", [False, True])
    def test_inline_triangle_uses_the_kernel_threads(
            self, small_suite, monkeypatch, other_thread):
        # below the switch, or beside another Python thread, each entry's
        # triangle is one chi2 call on one thread per CPU
        pools, threads, real = [], [], classify.ThreadPoolExecutor

        def counted(workers):
            threads.append(workers)
            return real(workers)

        monkeypatch.setattr(classify, "ThreadPoolExecutor", counted)
        monkeypatch.setattr(classify, "_cpu_count", lambda: 2)
        monkeypatch.setattr(classify, "_BLOCK_CELLS", 1)
        monkeypatch.setattr(classify, "_POOL_CELLS", 0)
        if other_thread:
            pools = self.force_pool(monkeypatch)
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        if other_thread:
            other.start()
        try:
            report = run_experiment(small_config(small_suite,
                                                 split=self.TRIANGLE))
        finally:
            release.set()
        if other_thread:
            other.join(timeout=10)
        assert pools == [] and threads == [2, 2]
        assert [r.preprocessor for r in report.rows] == ["bf", "none"]

    def test_pooled_clean_rows_carry_timings(self, small_suite, monkeypatch):
        config = small_config(small_suite, include_timing=True)
        inline, pooled = self.inline_and_pooled(monkeypatch, config)
        for row in pooled.rows:
            assert row.extract_ms is not None and row.extract_ms >= 0
            assert row.match_ms is not None and row.match_ms >= 0
        untimed = lambda rows: [replace(r, extract_ms=None, match_ms=None)
                                for r in rows]
        assert untimed(pooled.rows) == untimed(inline.rows)


def test_clean_run_does_not_import_multiprocessing(small_suite):
    code = ("import sys\n"
            "from bftex import harness\n"
            f"harness.run_experiment(harness.ExperimentConfig(\n"
            f"    {str(small_suite)!r}, split=harness.SplitPolicy(n_train=3)))\n"
            "assert 'multiprocessing' not in sys.modules\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(harness.__file__).parents[1]),
         os.environ.get("PYTHONPATH", "")]))
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


class TestSweep:
    def test_invalid_pairs_skipped(self, small_suite):
        report = sweep_bf_params(small_config(small_suite,
                                              preprocessors=("bf",)),
                                 [3.0, 1.0], [2.0], [0.1])
        assert any("skipped" in reason for _, reason in report.failures)
        assert len(report.rows) == 1

    def test_empty_grid_rejected(self, small_suite):
        config = small_config(small_suite, preprocessors=("bf",))
        # no pair with sigma1 < sigma2, or an empty axis
        for axes in (([3.0], [2.0], [0.1]), ([1.0], [3.0], [])):
            with pytest.raises(ConfigError, match="the grid has no point"):
                sweep_bf_params(config, *axes)

    @pytest.mark.parametrize("axes,axis", [
        (([1.0, math.nan], [3.0], [0.1]), "sigma1"),
        (([math.nan], [3.0], [0.1]), "sigma1"),
        (([1.0], [3.0, math.inf], [0.1]), "sigma2"),
        (([1.0], [3.0], [0.1, -math.inf]), "epsilon")])
    def test_non_finite_grid_value_rejected(self, small_suite, monkeypatch,
                                            axes, axis):
        # rejected before any pair is made or image read, whichever axis
        monkeypatch.setattr(harness, "_read_pixels",
                            lambda path: pytest.fail("suite read"))
        with pytest.raises(ConfigError,
                           match=f"grid axis '{axis}' must be finite"):
            sweep_bf_params(small_config(small_suite, preprocessors=("bf",)),
                            *axes)

    def test_grid_axis_left_out_takes_its_default(self):
        assert harness.build_sweep_grid({"sigma2": "3, 4"}) == [
            harness.SWEEP_GRID["sigma1"], (3.0, 4.0),
            harness.SWEEP_GRID["epsilon"]]

    def test_single_point_equals_run_experiment(self, small_suite):
        config = small_config(small_suite, preprocessors=("bf",),
                              bf_params=BfParams(0.75, 3.0, 0.05))
        swept = sweep_bf_params(config, [0.75], [3.0], [0.05])
        direct = run_experiment(config)
        assert swept.rows[0].mean_accuracy == direct.rows[0].mean_accuracy

    def test_loads_suite_once_and_matches_per_point_runs(self, small_suite,
                                                          monkeypatch):
        loaded = []
        real = harness._read_pixels
        monkeypatch.setattr(harness, "_read_pixels",
                            lambda path: loaded.append(path) or real(path))
        config = small_config(small_suite, preprocessors=("bf",))
        grid = ([1.0, 5.0], [2.0, 3.0], [0.05, 0.1])
        report = sweep_bf_params(config, *grid)
        assert len(loaded) == 24  # every image once, for 4 grid points
        rows, failures = [], []
        for s1 in grid[0]:
            for s2 in grid[1]:
                if not s1 < s2:
                    failures.append((f"bf[{s1:g},{s2:g},*]",
                                     "skipped: requires 0 < sigma1 < sigma2"))
                    continue
                for eps in grid[2]:
                    sub = run_experiment(replace(
                        config, bf_params=BfParams(s1, s2, eps)))
                    for row in sub.rows:
                        row.preprocessor = f"bf[{s1:g},{s2:g},{eps:g}]"
                    rows.extend(sub.rows)
                    failures.extend(sub.failures)
        assert report.failures == failures
        assert report.to_csv() == ExperimentReport(rows, failures).to_csv()

    def test_failures_name_their_grid_point(self, small_suite):
        # R = 30 needs 63x63 images, so every grid point fails
        config = small_config(small_suite, preprocessors=("bf",),
                              descriptor=DescriptorConfig(family="lbp", p=8,
                                                          r=30.0))
        report = sweep_bf_params(config, [0.5, 1.0], [3.0], [0.05, 0.1])
        reason = ("ValueError: image 48x48 too small for R=30.0 "
                  "(need at least 63x63)")
        assert report.rows == []
        assert report.failures == [
            (label, reason) for label in ("bf[0.5,3,0.05]", "bf[0.5,3,0.1]",
                                          "bf[1,3,0.05]", "bf[1,3,0.1]")]

    def test_skipped_pairs_listed_first(self, small_suite):
        config = small_config(small_suite, preprocessors=("bf",),
                              descriptor=DescriptorConfig(family="lbp", p=8,
                                                          r=30.0))
        report = sweep_bf_params(config, [1.0, 5.0], [3.0, 4.0], [0.1])
        assert [label for label, _ in report.failures] == [
            "bf[5,3,*]", "bf[5,4,*]", "bf[1,3,0.1]", "bf[1,4,0.1]"]

    def test_repeated_grid_value_rejected(self, small_suite):
        with pytest.raises(ConfigError, match=re.escape(
                "repeated preprocessors: ['bf[1,3,0.1]']")):
            sweep_bf_params(small_config(small_suite, preprocessors=("bf",)),
                            [1.0], [3.0], [0.1, 0.1])

    @pytest.mark.parametrize("preprocessors", [
        ("bf", "none"), ("none",), (BfParams(1.0, 3.0, 0.1),)])
    def test_preprocessors_other_than_bf_rejected(self, small_suite,
                                                   monkeypatch, preprocessors):
        # the grid would replace them without a word; no image is read
        monkeypatch.setattr(harness, "_read_pixels",
                            lambda path: pytest.fail("suite read"))
        with pytest.raises(ConfigError, match="grid sets 'preprocessor'"):
            sweep_bf_params(small_config(small_suite,
                                         preprocessors=preprocessors),
                            [1.0], [3.0], [0.1])

    def test_noise_drawn_once_per_repeat_for_the_whole_grid(self, small_suite,
                                                             monkeypatch):
        draws, real = [], harness.add_gaussian_noise
        monkeypatch.setattr(harness, "add_gaussian_noise",
                            lambda img, snr, rng: draws.append(snr)
                            or real(img, snr, rng))
        noise = NoiseSpec(snr_levels=(10.0, 3.0), repeats=2, seed=6)
        report = sweep_bf_params(small_config(small_suite,
                                              preprocessors=("bf",),
                                              noise=noise),
                                 [0.5, 1.0], [3.0], [0.05, 0.1])
        assert len(report.rows) == 4 * 3
        # 12 test images a split (3 of 6 per class held out, 4 classes)
        assert draws == [snr for snr in noise.snr_levels for _ in range(2 * 12)]


class TestBfParamsEntry:
    """A BfParams preprocessor entry is bf at those parameters, reported
    under its bf[sigma1,sigma2,epsilon] label."""

    def test_equals_bf_at_the_config_params(self, small_suite):
        params = BfParams(0.75, 3.0, 0.05)
        noise = NoiseSpec(snr_levels=(10.0,), repeats=2, seed=6)
        entry = run_experiment(small_config(
            small_suite, preprocessors=(params, "bf"), noise=noise))
        named = run_experiment(small_config(
            small_suite, preprocessors=("bf",), bf_params=params, noise=noise))
        labelled = [replace(row, preprocessor="bf[0.75,3,0.05]")
                    for row in named.rows]
        assert entry.rows[:2] == labelled
        assert [row.preprocessor for row in entry.rows[2:]] == ["bf", "bf"]

    def test_label_shared_with_another_entry_rejected(self):
        with pytest.raises(ConfigError, match=re.escape(
                "repeated preprocessors: ['bf[1,4,0.1]']")):
            ExperimentConfig(manifest_path="unused", preprocessors=(
                BfParams(1.0, 4.0, 0.1), "none", BfParams(1.0, 4.0, 0.1000001)))


# wld is left out: its centre floor of 1/255 is absolute, so on filtered
# input (centres near 0) the floor binds at one gain and not at another
GAIN_DESCRIPTORS = {
    "lbp": DescriptorConfig(family="lbp", p=8, r=1.0),
    "clbp": DescriptorConfig(family="clbp", scheme="S/M/C", p=8, r=1.0),
    "clbc": DescriptorConfig(family="clbc", scheme="S/M/C", p=8, r=1.0),
    "ltp": DescriptorConfig(family="ltp", p=8, r=1.0),
}


class TestGainEquivariance:
    """A gain of 2^k on the images, with epsilon and ltp_t scaled alike,
    scales every filter response and threshold exactly, so no histogram
    bit moves; noise drawn at a fixed SNR scales with the image."""

    @pytest.mark.parametrize("preprocessor",
                             ["none", "bf", "dog", "gderiv1", "gderiv2"])
    @pytest.mark.parametrize("family", sorted(GAIN_DESCRIPTORS))
    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(k=st.integers(-3, 3), seed=st.integers(0, 2**32 - 1))
    def test_histograms_unchanged(self, family, preprocessor, k, seed):
        images = np.random.default_rng(seed).random((3, 16, 16))
        desc = GAIN_DESCRIPTORS[family]

        def hists(gain):
            config = ExperimentConfig(
                manifest_path="unused",
                bf_params=BfParams(1.0, 2.0, 0.02 * gain),
                descriptor=replace(desc, ltp_t=desc.ltp_t * gain))
            return descriptors.extract(
                apply_preprocessor(images * gain, preprocessor, config),
                config.descriptor)

        assert np.array_equal(hists(2.0 ** k), hists(1.0))

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(k=st.integers(-3, 3), seed=st.integers(0, 2**32 - 1),
           snr=st.sampled_from([30.0, 5.0, 3.0]))
    def test_noise_scales_with_the_image(self, k, seed, snr):
        img = np.random.default_rng(seed).random((16, 16))
        gain = 2.0 ** k
        assert np.array_equal(
            add_gaussian_noise(gain * img, snr, harness._rng(seed)),
            gain * add_gaussian_noise(img, snr, harness._rng(seed)))


@pytest.fixture(scope="module")
def mixed_suite(tmp_path_factory):
    """The small suite with two images in three rewritten as 16-bit PGMs,
    at maxval 65535 and 1000, so most blocks mix 8- and 16-bit files."""
    out = tmp_path_factory.mktemp("suites") / "mixed"
    manifest = generate_suite(out, n_classes=4, per_class=6, size=48, seed=5)
    for i, (path, _) in enumerate(load_manifest(manifest).samples):
        if i % 3 == 0:
            continue
        samples = np.frombuffer(Path(path).read_bytes()[-48 * 48:],
                                dtype=np.uint8).astype(np.int64)
        maxval = 65535 if i % 3 == 1 else 1000
        wide = (samples * 257 if maxval == 65535
                else (samples * 1000 + 127) // 255)
        Path(path).write_bytes(f"P5\n48 48\n{maxval}\n".encode("ascii")
                               + wide.astype(">u2").tobytes())
    return manifest


class TestFilePrecision:
    """The harness holds each image at its file's precision and scales one
    block at a time; every report byte is what float64 images give."""

    NOISE = NoiseSpec(snr_levels=(10.0,), repeats=2, seed=3)

    def test_suite_read_as_stored(self, mixed_suite):
        manifest = load_manifest(mixed_suite)
        pixels, maxvals = harness._read_suite(manifest)
        assert [px.dtype.itemsize for px in pixels[:3]] == [1, 2, 2]
        assert maxvals[:3].tolist() == [255.0, 65535.0, 1000.0]

    def test_report_equals_float64_images(self, mixed_suite):
        config = small_config(mixed_suite, noise=self.NOISE,
                              corrupt_train=True)
        manifest = load_manifest(mixed_suite)
        images = [load_image(p) for p, _ in manifest.samples]
        read = run_experiment(config).to_csv()
        assert read == run_experiment(config, manifest=manifest,
                                      images=images).to_csv()
        # digest of this report from float64 images
        assert hashlib.sha256(
            run_experiment(replace(config, corrupt_train=False))
            .to_csv().encode()).hexdigest() == \
            "4c3c2e97aebf6ce9fb8b57cb27f546b7c2e1e0c2d175e9c49a48e82d4ae9b409"

    def test_sweep_report_unchanged(self, mixed_suite):
        config = small_config(mixed_suite, preprocessors=("bf",),
                              noise=self.NOISE)
        text = sweep_bf_params(config, [0.75, 1.0], [3.0],
                               [0.05, 0.1]).to_csv()
        # digest of this sweep's report from float64 images
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "cb1039b385a870654f41859bf654dc3a2394ab2bf4639fa4178246e57378bf03"
        assert [row[1] for row in list(csv.reader(io.StringIO(text)))[1::2]] \
            == ["bf[0.75,3,0.05]", "bf[0.75,3,0.1]", "bf[1,3,0.05]",
                "bf[1,3,0.1]"]

    def test_run_holds_less_than_a_float64_suite(self, tmp_path):
        # 120 images of 64x64 from 8-bit files: 3.9 MB as float64, 0.5 MB
        # as read; one block of LBP P=8 is 8 images
        manifest = generate_suite(tmp_path / "suite", n_classes=4,
                                  per_class=30, size=64, seed=0)
        config = ExperimentConfig(
            manifest_path=str(manifest), preprocessors=("none",),
            descriptor=DescriptorConfig(family="lbp", p=8, r=1.0),
            split=SplitPolicy(mode="random", n_train=10, repeats=1, seed=0))
        run_experiment(config)  # first-call tables and scratch
        tracemalloc.start()
        try:
            run_experiment(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 1.5 * peak < 120 * 64 * 64 * 8

    @pytest.mark.parametrize("preprocessor", ["none", "bf"])
    def test_noisy_run_holds_less_than_a_float64_suite(self, tmp_path,
                                                       preprocessor):
        # with corrupt_train every image is drawn again each repeat, yet
        # only one block of noisy images is float64 at a time
        manifest = generate_suite(tmp_path / "suite", n_classes=4,
                                  per_class=30, size=64, seed=0)
        config = ExperimentConfig(
            manifest_path=str(manifest), preprocessors=(preprocessor,),
            descriptor=DescriptorConfig(family="lbp", p=8, r=1.0),
            split=SplitPolicy(mode="random", n_train=10, repeats=1, seed=0),
            noise=NoiseSpec(snr_levels=(5.0,), repeats=2, seed=0),
            corrupt_train=True)
        run_experiment(config)  # first-call tables and scratch
        tracemalloc.start()
        try:
            run_experiment(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 120 * 64 * 64 * 8


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("build,field", [
    (lambda v: BfParams(epsilon=v), "epsilon"),
    (lambda v: BfParams(sigma2=v), "sigma2"),
    (lambda v: DescriptorConfig(ltp_t=v), "ltp_t"),
    (lambda v: DescriptorConfig(r=v), "radius r"),
    (lambda v: NoiseSpec(snr_levels=(5.0, v)), "snr_levels"),
    (lambda v: split_maps(np.zeros((4, 4)), v), "epsilon"),
    (lambda v: ltp_histogram(np.zeros((8, 8)), NeighborhoodSpec(), v),
     "ltp_t"),
    (lambda v: add_gaussian_noise(np.eye(4), v, harness._rng(0)), "snr"),
    (lambda v: gaussian_kernel_1d(v), "sigma"),
    (lambda v: baselines.gamma_correct(np.eye(2), v), "gamma"),
], ids=["epsilon", "sigma2", "ltp_t", "r", "snr_levels", "split_maps",
        "ltp_histogram", "add_gaussian_noise", "gaussian_kernel_1d",
        "gamma_correct"])
def test_non_finite_parameter_rejected(build, field, bad):
    # NaN fails every comparison, so each check must be written to fail it
    with pytest.raises(ValueError, match=field):
        build(bad)


class TestConfigFiles:
    def test_parse_and_build(self, tmp_path, small_suite):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "# demo\n"
            f"manifest = {small_suite}\n"
            "preprocessor = bf,none\n"
            "family = clbp\nscheme = S/M\np = 8\nr = 1\n"
            "mode = random\nn_train = 3\nrepeats = 2\nseed = 7\n"
            "sigma1 = 1.0\nsigma2 = 4.0\nepsilon = 0.1\n"
            "snr_levels = 30,5\nnoise_repeats = 2\nnoise_seed = 3\n")
        config = build_experiment_config(parse_config_file(cfg),
                                         base_dir=str(tmp_path))
        assert config.preprocessors == ("bf", "none")
        assert config.descriptor.scheme == "S/M"
        assert config.noise.snr_levels == (30.0, 5.0)

    def test_missing_manifest_key(self):
        with pytest.raises(ConfigError, match="manifest"):
            build_experiment_config({})

    def test_bad_value_names_key(self, tmp_path):
        with pytest.raises(ConfigError, match="'p'"):
            build_experiment_config({"manifest": "m.txt", "p": "eight"})

    def test_unknown_key_rejected(self):
        # a misspelt n_train must not silently run with the default 10
        with pytest.raises(ConfigError, match="unknown key 'n_trian'"):
            build_experiment_config({"manifest": "m.txt", "n_trian": "5"})

    def test_every_documented_key_accepted(self, tmp_path):
        values = {
            "manifest": "m.txt", "suite": "s", "preprocessor": "bf,gamma",
            "family": "clbc", "scheme": "S_M/C", "p": "16", "r": "2",
            "ltp_t": "0.01", "sigma1": "0.5", "sigma2": "3", "epsilon": "0",
            "gamma": "1.8", "deriv_sigma": "2", "mode": "random",
            "n_train": "4", "repeats": "1", "seed": "1", "snr_levels": "7",
            "noise_repeats": "2", "noise_seed": "5", "corrupt_train": "yes",
            "timing": "no"}
        assert set(values) == set(harness.EXPERIMENT_KEYS)
        config = build_experiment_config(values, base_dir=str(tmp_path))
        assert (config.suite, config.split.n_train, config.gamma,
                config.corrupt_train) == ("s", 4, 1.8, True)

    # key -> (file value, ExperimentConfig part or None, field, parsed value)
    ONE_KEY = {
        "suite": ("s", None, "suite", "s"),
        "preprocessor": ("bf, gamma", None, "preprocessors", ("bf", "gamma")),
        "family": ("clbc", "descriptor", "family", "clbc"),
        "p": ("16", "descriptor", "p", 16),
        "r": ("2", "descriptor", "r", 2.0),
        "ltp_t": ("0.01", "descriptor", "ltp_t", 0.01),
        "sigma1": ("0.5", "bf_params", "sigma1", 0.5),
        "sigma2": ("3", "bf_params", "sigma2", 3.0),
        "epsilon": ("0", "bf_params", "epsilon", 0.0),
        "gamma": ("1.8", None, "gamma", 1.8),
        "deriv_sigma": ("2", None, "deriv_sigma", 2.0),
        "mode": ("predefined", "split", "mode", "predefined"),
        "n_train": ("4", "split", "n_train", 4),
        "repeats": ("3", "split", "repeats", 3),
        "seed": ("1", "split", "seed", 1),
        "snr_levels": ("7, 2.5", None, "noise", NoiseSpec(snr_levels=(7.0, 2.5))),
        "timing": ("on", None, "include_timing", True),
    }

    def test_omitted_keys_take_dataclass_defaults(self, tmp_path):
        base = ExperimentConfig(manifest_path=str(tmp_path / "m.txt"))
        build = lambda **kw: build_experiment_config(
            {"manifest": "m.txt", **kw}, base_dir=str(tmp_path))
        assert build() == base
        for key, (text, part, name, value) in self.ONE_KEY.items():
            want = (replace(base, **{name: value}) if part is None else
                    replace(base, **{part: replace(getattr(base, part),
                                                   **{name: value})}))
            assert build(**{key: text}) == want, key
        # the default family, lbp, takes only S, so scheme goes with family
        assert build(family="clbp", scheme="S/M") == replace(
            base, descriptor=replace(base.descriptor, family="clbp",
                                     scheme="S/M"))
        # a bad noise value is named even without snr_levels
        with pytest.raises(ConfigError, match="'noise_repeats'"):
            build(noise_repeats="two")
        assert build(snr_levels="7", noise_repeats="2", noise_seed="5").noise \
            == NoiseSpec(snr_levels=(7.0,), repeats=2, seed=5)
        # corrupt_train, too, needs snr_levels
        assert build(snr_levels="7", corrupt_train="yes") == replace(
            base, noise=NoiseSpec(snr_levels=(7.0,)), corrupt_train=True)
        assert set(self.ONE_KEY) | {"manifest", "scheme", "noise_repeats",
                                    "noise_seed", "corrupt_train"} \
            == set(harness.EXPERIMENT_KEYS)

    @pytest.mark.parametrize("keys", [("noise_repeats",), ("noise_seed",),
                                      ("noise_repeats", "noise_seed")])
    def test_noise_keys_need_snr_levels(self, keys):
        # without levels they would silently add no noise rows
        with pytest.raises(ConfigError, match="noise_repeats and noise_seed "
                                              "need snr_levels"):
            build_experiment_config({"manifest": "m.txt",
                                     **{key: "2" for key in keys}})

    @pytest.mark.parametrize("value", ["yes", "no"])
    def test_corrupt_train_needs_snr_levels(self, value):
        # without levels no image would be corrupted, whatever the value
        with pytest.raises(ConfigError, match="corrupt_train needs "
                                              "snr_levels"):
            build_experiment_config({"manifest": "m.txt",
                                     "corrupt_train": value})

    def test_corrupt_train_needs_a_noise_spec(self):
        with pytest.raises(ConfigError, match="corrupt_train needs a noise "
                                              "spec"):
            ExperimentConfig(manifest_path="m.txt", corrupt_train=True)
        assert ExperimentConfig(manifest_path="m.txt", corrupt_train=True,
                                noise=NoiseSpec()).corrupt_train

    @pytest.mark.parametrize("key,value", [("n_train", "4"), ("seed", "0")])
    def test_random_split_keys_rejected_with_predefined(self, key, value):
        # make_splits reads neither for a predefined split
        values = {"manifest": "m.txt", key: value}
        assert build_experiment_config(values).split.mode == "random"
        with pytest.raises(ConfigError, match=f"'{key}' applies to random "
                                              f"splits only"):
            build_experiment_config({**values, "mode": "predefined"})

    def test_absolute_manifest_path_kept(self, tmp_path):
        manifest = str(tmp_path / "suite" / "m.txt")
        config = build_experiment_config({"manifest": manifest},
                                         base_dir="elsewhere")
        assert config.manifest_path == manifest

    def test_inline_comments(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("# full line\n"
                       "  # indented\n"
                       "suite = tc10 # trailing\n"
                       "manifest = run#1/m.txt\t# after a tab\n")
        assert parse_config_file(cfg) == {"suite": "tc10",
                                          "manifest": "run#1/m.txt"}

    def test_readme_sample_builds(self, tmp_path):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        sample = readme.read_text().split("```ini\n", 1)[1].split("```", 1)[0]
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(sample)
        values = parse_config_file(cfg)
        assert set(values) == set(harness.EXPERIMENT_KEYS)
        config = build_experiment_config(values, base_dir=str(tmp_path))
        # the sample lists the defaults, plus a suite name and noise levels
        assert config == ExperimentConfig(
            manifest_path=str(tmp_path / "suite" / "manifest.txt"),
            suite="tc10", noise=NoiseSpec(snr_levels=(30.0, 15.0, 10.0, 5.0)))

    @pytest.mark.parametrize("text,key,first", [
        ("manifest = m.txt\nn_train = 5\n\nn_train = 3\n", "n_train", 2),
        ("sigma1 = 1.0\n# note\nsigma2 = 3.0\n sigma1=2 # again\n",
         "sigma1", 1)])
    def test_repeated_key_rejected(self, tmp_path, text, key, first):
        # in experiment and grid files alike, a later value must not
        # silently override an earlier one
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(text)
        with pytest.raises(ConfigError, match=f":4: key '{key}' already set "
                                              f"on line {first}"):
            parse_config_file(cfg)

    def test_bad_line_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("just a line\n")
        with pytest.raises(ConfigError, match=":1"):
            parse_config_file(cfg)

import csv
from pathlib import Path

import numpy as np
import pytest

from bftex import descriptors, harness
from bftex.classify import ReferenceSet, chi2, nn_classify
from bftex.cli import main
from bftex.image import load_image, save_pgm
from bftex.retina import BfParams
from bftex.synthetic import CLASS_NAMES, generate_suite

from oracles import load_csv_matrix


def run_cli(args):
    with pytest.raises(SystemExit) as excinfo:
        main(args)
    return excinfo.value.code


@pytest.fixture
def sample_image(tmp_path, rng):
    path = tmp_path / "in.pgm"
    save_pgm(rng.random((32, 32)), path)
    return path


class TestFilterCommand:
    def test_writes_maps_and_csv(self, tmp_path, sample_image):
        plus, minus = tmp_path / "p.pgm", tmp_path / "m.pgm"
        code = run_cli(["filter", "--input", str(sample_image),
                        "--output-plus", str(plus),
                        "--output-minus", str(minus)])
        assert code == 0
        assert plus.exists() and minus.exists()
        pm = load_csv_matrix(tmp_path / "p.csv")
        mm = load_csv_matrix(tmp_path / "m.csv")
        assert np.all(pm * mm == 0)

    def test_sigma_order_is_usage_error(self, tmp_path, sample_image,
                                        capsys):
        bad = ["--sigma1", "4", "--sigma2", "2"]
        for args in (["filter", "--input", str(sample_image),
                      "--output-plus", str(tmp_path / "p.pgm"),
                      "--output-minus", str(tmp_path / "m.pgm")],
                     ["extract", "--input", str(sample_image)]):
            assert run_cli(args + bad) == 2
            assert "error: require 0 < sigma1 < sigma2" in \
                capsys.readouterr().err

    def test_epsilon_zero_is_valid(self, tmp_path, sample_image):
        code = run_cli(["filter", "--input", str(sample_image),
                        "--output-plus", str(tmp_path / "p.pgm"),
                        "--output-minus", str(tmp_path / "m.pgm"),
                        "--epsilon", "0"])
        assert code == 0


class TestExtractClassify:
    def test_round_trip(self, tmp_path, rng):
        imgs = []
        for i in range(4):
            p = tmp_path / f"i{i}.pgm"
            save_pgm(rng.random((24, 24)), p)
            imgs.append(str(p))
        feats = tmp_path / "f.csv"
        code = run_cli(["extract", "--input", *imgs, "--label", "1",
                        "--family", "lbp", "--out", str(feats)])
        assert code == 0
        lines = feats.read_text().strip().splitlines()
        assert len(lines) == 4
        assert all(line.split(",")[1] == "1" for line in lines)
        # self-classification must be perfect
        code = run_cli(["classify", "--refs", str(feats),
                        "--queries", str(feats)])
        assert code == 0

    def test_classify_output_lines(self, tmp_path, rng, capsys):
        refs, queries = tmp_path / "refs.csv", tmp_path / "queries.csv"
        ref_h, q_h = rng.random((6, 5)), rng.random((4, 5))
        ref_y, q_y = [0, 1, 2, 0, 1, 2], [2, 0, 1, 1]
        for path, hists, labels in ((refs, ref_h, ref_y),
                                    (queries, q_h, q_y)):
            path.write_text("".join(
                f"s{i},{lab}," + ",".join(repr(float(v)) for v in h) + "\n"
                for i, (h, lab) in enumerate(zip(hists, labels))))
        conf = tmp_path / "conf.csv"
        assert run_cli(["classify", "--refs", str(refs), "--queries",
                        str(queries), "--confusion", str(conf)]) == 0
        ref_set = ReferenceSet(ref_h, ref_y)
        want, correct = [], 0
        for i, (q, true) in enumerate(zip(q_h, q_y)):
            pred, dist = nn_classify(q, ref_set)
            want.append(f"s{i},{pred},{dist:.6f}")
            correct += pred == true
        want.append(f"accuracy,{correct / len(q_y):.6f}")
        assert capsys.readouterr().out.splitlines() == want
        assert np.loadtxt(conf, delimiter=",", dtype=int).sum() == len(q_y)

    def test_classify_matches_scalar_oracle(self, tmp_path, rng, capsys):
        ref_h = rng.random((9, 40))
        ref_h[rng.random((9, 40)) < 0.6] = 0.0  # sparse, like histograms
        ref_h[6] = ref_h[2]  # duplicate references: the first one wins
        q_h = np.vstack([ref_h[2], rng.random((4, 40)) * (ref_h[:4] > 0)])
        ref_y, q_y = [0, 1, 2, 0, 1, 2, 3, 3, 1], [3, 0, 1, 2, 0]
        paths = []
        for name, hists, labels in (("refs", ref_h, ref_y),
                                    ("queries", q_h, q_y)):
            paths.append(tmp_path / f"{name}.csv")
            paths[-1].write_text("".join(
                f"s{i},{lab}," + ",".join(repr(float(v)) for v in h) + "\n"
                for i, (h, lab) in enumerate(zip(hists, labels))))
        conf = tmp_path / "conf.csv"
        assert run_cli(["classify", "--refs", str(paths[0]), "--queries",
                        str(paths[1]), "--confusion", str(conf)]) == 0
        lines, confusion = [], np.zeros((4, 4), dtype=int)
        for i, (q, true) in enumerate(zip(q_h, q_y)):
            dists = [chi2(h, q) for h in ref_h]
            pred = ref_y[dists.index(min(dists))]
            lines.append(f"s{i},{pred},{min(dists):.6f}\n")
            confusion[true, pred] += 1
        accuracy = np.trace(confusion) / len(q_y)
        assert capsys.readouterr().out == \
            "".join(lines) + f"accuracy,{accuracy:.6f}\n"
        assert conf.read_text() == "".join(
            ",".join(str(v) for v in row) + "\n" for row in confusion)

    def test_negative_query_label_is_usage_error(self, tmp_path):
        feats = tmp_path / "f.csv"
        feats.write_text("a,0,0.5,0.5\nb,1,1.0,0.0\n")
        bad = tmp_path / "bad.csv"
        bad.write_text("c,-1,0.5,0.5\n")
        assert run_cli(["classify", "--refs", str(feats),
                        "--queries", str(bad)]) == 2


    def test_negative_bin_is_usage_error(self, tmp_path, capsys):
        # chi2 would put these two different vectors at distance 0
        feats = tmp_path / "f.csv"
        feats.write_text("a,0,1.0,-1.0\n")
        queries = tmp_path / "q.csv"
        queries.write_text("b,1,-1.0,1.0\n")
        assert run_cli(["classify", "--refs", str(feats),
                        "--queries", str(queries)]) == 2
        assert "negative bins" in capsys.readouterr().err

    def test_zero_bin_features_are_usage_error(self, tmp_path, capsys):
        # every query would lie at distance 0 from the first reference
        refs, queries = tmp_path / "refs.csv", tmp_path / "q.csv"
        refs.write_text("a,0\nb,1\n")
        queries.write_text("q,1\n")
        assert run_cli(["classify", "--refs", str(refs),
                        "--queries", str(queries)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "at least one bin" in captured.err

    def test_short_row_is_usage_error(self, tmp_path, capsys):
        refs = tmp_path / "refs.csv"
        refs.write_text("a,0,0.5,0.5\n\nb\n")
        assert run_cli(["classify", "--refs", str(refs),
                        "--queries", str(refs)]) == 2
        assert f"{refs}:3: expected" in capsys.readouterr().err

    @pytest.mark.parametrize("refs_text,message", [
        ("a,0,0.5,0.5\nb,x,0.5,0.5\n", ":2: non-integer label 'x'"),
        ("a,0,0.5,0.5\n\nb,1,0.5,half\n", ":3: non-numeric bin"),
        ("a,0,0.5,0.5\nb,1,0.5\n", ":2: 3 fields, but the first row has 4"),
        ("a,0,0.5,0.5\nb,1,0.5,0.25,0.25\n",
         ":2: 5 fields, but the first row has 4"),
    ], ids=["label", "bin", "short", "long"])
    def test_bad_feature_row_names_file_and_line(self, tmp_path, capsys,
                                                 refs_text, message):
        refs = tmp_path / "refs.csv"
        refs.write_text(refs_text)
        assert run_cli(["classify", "--refs", str(refs),
                        "--queries", str(refs)]) == 2
        assert f"error: {refs}{message}" in capsys.readouterr().err

    def test_infinite_radius_is_usage_error(self, sample_image, capsys):
        assert run_cli(["extract", "--input", str(sample_image),
                        "--r", "inf"]) == 2
        assert "radius r must be in (0, inf)" in capsys.readouterr().err

    def test_bad_sigmas_are_usage_error_for_every_preprocessor(
            self, sample_image, capsys):
        # the band-pass parameters are checked even where they are not read
        assert run_cli(["extract", "--input", str(sample_image), "--preproc",
                        "none", "--sigma1", "4", "--sigma2", "2"]) == 2
        assert "error: require 0 < sigma1 < sigma2" in capsys.readouterr().err


@pytest.fixture(scope="module")
def few_shot_suite(tmp_path_factory):
    """9 classes x 6 images of 32^2 and a predefined split with one
    training image a class: (directory, {"train"|"test": [(name, label)]})."""
    out = tmp_path_factory.mktemp("few_shot")
    generate_suite(out, n_classes=9, per_class=6, size=32, seed=3)
    sides, lines, seen = {"train": [], "test": []}, [], set()
    for line in (out / "manifest.txt").read_text().splitlines()[1:]:
        name, label = line.split()
        side = "test" if label in seen else "train"
        seen.add(label)
        sides[side].append((name, label))
        lines.append(f"{name} {label} {side}")
    (out / "predefined.txt").write_text("\n".join(lines) + "\n")
    return out, sides


# flags of both surfaces: LBP P=8 on band-pass parameters off their defaults
PIPELINE_FLAGS = {"family": "lbp", "p": "8", "sigma1": "0.75", "sigma2": "3",
                  "epsilon": "0.05"}


class TestOnePipeline:
    """bftex extract, and extract + classify, reach the same preprocessing
    and description as the experiment harness for every preprocessor."""

    def _extract(self, directory, names, label, out, name):
        flags = [arg for key, value in PIPELINE_FLAGS.items()
                 for arg in (f"--{key}", value)]
        assert run_cli(["extract", "--input",
                        *(str(directory / n) for n in names),
                        "--label", label, "--preproc", name, "--out", str(out),
                        *flags]) == 0
        return out.read_text()

    @pytest.mark.parametrize("name", harness.PREPROCESSORS)
    def test_extract_rows_equal_the_harness_pipeline(self, few_shot_suite,
                                                     tmp_path, name):
        directory, sides = few_shot_suite
        names = [n for n, _ in sides["test"][::5]]
        text = self._extract(directory, names, "4", tmp_path / "f.csv", name)
        config = harness.ExperimentConfig(
            manifest_path=None,
            descriptor=descriptors.DescriptorConfig(family="lbp", p=8),
            bf_params=BfParams(0.75, 3.0, 0.05))
        want = []
        for n in names:
            hist = descriptors.extract(harness.apply_preprocessor(
                load_image(directory / n), name, config), config.descriptor)
            want.append(",".join([n, "4"] + [repr(float(v)) for v in hist]))
        assert text.splitlines() == want

    @pytest.mark.parametrize("name", harness.PREPROCESSORS)
    def test_extract_and_classify_equal_experiment(self, few_shot_suite,
                                                   tmp_path, capsys, name):
        directory, sides = few_shot_suite
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"manifest = {directory / 'predefined.txt'}\n"
                       f"mode = predefined\npreprocessor = {name}\n"
                       + "".join(f"{k} = {v}\n"
                                 for k, v in PIPELINE_FLAGS.items()))
        report = tmp_path / "report.csv"
        assert run_cli(["experiment", "--config", str(cfg),
                        "--out", str(report)]) == 0
        rows = list(csv.DictReader(report.read_text().splitlines()))
        assert [row["snr"] for row in rows] == ["clean"]
        # one extract per class in label order: the manifest's order, so
        # the references and their ties are the experiment's
        for side, samples in sides.items():
            text = "".join(
                self._extract(directory, [n for n, lab in samples
                                          if lab == label],
                              label, tmp_path / f"{side}{label}.csv", name)
                for label in sorted({lab for _, lab in samples}, key=int))
            (tmp_path / f"{side}.csv").write_text(text)
        capsys.readouterr()
        assert run_cli(["classify", "--refs", str(tmp_path / "train.csv"),
                        "--queries", str(tmp_path / "test.csv")]) == 0
        last = capsys.readouterr().out.splitlines()[-1]
        assert last == f"accuracy,{rows[0]['mean_accuracy']}"
        assert float(rows[0]["mean_accuracy"]) < 1.0  # not one at both ends


class TestExperimentCommand:
    def test_end_to_end_and_determinism(self, tmp_path, capsys):
        manifest = generate_suite(tmp_path / "suite", n_classes=4,
                                  per_class=6, size=48, seed=2)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"manifest = {manifest}\n"
                       "preprocessor = bf,none\n"
                       "family = lbp\np = 8\nr = 1\n"
                       "n_train = 3\nrepeats = 2\nseed = 5\n")
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        assert run_cli(["experiment", "--config", str(cfg),
                        "--out", str(out1)]) == 0
        assert run_cli(["experiment", "--config", str(cfg),
                        "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert "bf" in capsys.readouterr().out

    def test_noise_row_tag_and_failure_line(self, tmp_path, capsys):
        manifest = generate_suite(tmp_path / "suite", n_classes=2,
                                  per_class=3, size=24, seed=0)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"manifest = {manifest}\nn_train = 1\n"
                       "preprocessor = bf,gderiv1\nderiv_sigma = 0.02\n"
                       "snr_levels = 5\n")
        assert run_cli(["experiment", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert [line[:22].rstrip() for line in captured.out.splitlines()] \
            == ["preprocessor", "bf", "bf snr=5"]
        failures = captured.err.splitlines()
        assert len(failures) == 1
        assert failures[0].startswith("FAILED gderiv1: ValueError: "
                                      "sigma=0.02 is too small")

    def test_missing_config_key(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("preprocessor = bf\n")
        assert run_cli(["experiment", "--config", str(cfg)]) == 2

    def test_unknown_key_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("manifest = m.txt\nn_trian = 5\n")
        assert run_cli(["experiment", "--config", str(cfg)]) == 2
        assert "unknown key 'n_trian'" in capsys.readouterr().err

    def test_non_finite_value_is_usage_error(self, tmp_path, capsys):
        manifest = generate_suite(tmp_path / "suite", n_classes=2,
                                  per_class=3, size=24, seed=0)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"manifest = {manifest}\nn_train = 1\n"
                       "epsilon = nan\n")
        assert run_cli(["experiment", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "epsilon must be in [0, inf), got nan" in captured.err

    @pytest.mark.parametrize("setting,message", [
        ("gamma = nan", "gamma must be in (0, inf), got nan"),
        ("preprocessor = gderiv1\nderiv_sigma = inf",
         "deriv_sigma must be in (0, inf), got inf"),
    ])
    def test_gamma_and_deriv_sigma_checked_when_built(self, tmp_path, capsys,
                                                      setting, message):
        # rejected with the config, not as a failure row of every run
        manifest = generate_suite(tmp_path / "suite", n_classes=2,
                                  per_class=3, size=24, seed=0)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"manifest = {manifest}\nn_train = 1\n{setting}\n")
        assert run_cli(["experiment", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {message}" in captured.err

    @pytest.mark.parametrize("setting,message", [
        ("preprocessor = bf,none,bf", "repeated preprocessors: ['bf']"),
        ("noise_repeats = 2", "noise_repeats and noise_seed need snr_levels"),
        ("noise_seed = 4", "noise_repeats and noise_seed need snr_levels"),
        ("corrupt_train = yes", "corrupt_train needs snr_levels"),
        ("mode = predefined\nrepeats = 2",
         "a predefined split is one split, got repeats=2"),
        ("mode = predefined",
         "'n_train' applies to random splits only, not mode = predefined"),
        ("family = wld\nscheme = S_M",
         "family 'wld' takes only scheme 'S', got 'S_M'"),
        ("family = wld\np = 16",
         "family 'wld' reads only the 3x3 ring, P=8 and R=1, got P=16 and "
         "R=1"),
        ("mode = kfold", "unknown split mode 'kfold'"),
        ("repeats = 0", "repeats must be >= 1"),
        ("snr_levels = 5\nnoise_repeats = 0", "noise repeats must be >= 1"),
        ("timing = maybe", "invalid value for key 'timing': 'maybe'"),
        ("snr_levels = 5,5", "repeated snr_levels: ['5']"),
        ("snr_levels = 5, 5.0000001", "repeated snr_levels: ['5']"),
    ])
    def test_config_rejected_before_running(self, tmp_path, capsys, setting,
                                            message):
        # each is caught before any image is read; many would otherwise
        # exit 0 and silently drop, double or mislabel rows
        manifest = generate_suite(tmp_path / "suite", n_classes=2,
                                  per_class=3, size=24, seed=0)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"manifest = {manifest}\nn_train = 1\n{setting}\n")
        out = tmp_path / "report.csv"
        assert run_cli(["experiment", "--config", str(cfg),
                        "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {message}" in captured.err
        assert not out.exists()

    def test_one_sided_predefined_split_is_usage_error(self, tmp_path,
                                                       capsys):
        manifest = Path(generate_suite(tmp_path / "suite", n_classes=3,
                                       per_class=2, size=24, seed=0))
        lines = [l for l in manifest.read_text().splitlines()
                 if not l.startswith("#")]
        manifest.write_text("".join(f"{l} test\n" for l in lines))
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"manifest = {manifest}\nmode = predefined\n")
        out = tmp_path / "report.csv"
        assert run_cli(["experiment", "--config", str(cfg),
                        "--out", str(out)]) == 2
        assert "predefined split has no train sample" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_missing_manifest_file(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("manifest = nowhere.txt\n")
        assert run_cli(["experiment", "--config", str(cfg)]) == 2


class TestSweepCommand:
    def test_small_grid(self, tmp_path):
        manifest = generate_suite(tmp_path / "suite", n_classes=4,
                                  per_class=4, size=48, seed=3)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"manifest = {manifest}\n"
                       "family = lbp\nn_train = 2\nrepeats = 1\nseed = 5\n")
        grid = tmp_path / "grid.cfg"
        grid.write_text("sigma1 = 1.0\nsigma2 = 3.0,4.0\nepsilon = 0.1\n")
        out = tmp_path / "sweep.csv"
        assert run_cli(["sweep", "--config", str(cfg), "--grid", str(grid),
                        "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 3  # header + 2 grid points

    def test_unknown_grid_key_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("manifest = m.txt\n")
        grid = tmp_path / "grid.cfg"
        grid.write_text("sigma1 = 1.0\nsigma_2 = 3.0\n")
        assert run_cli(["sweep", "--config", str(cfg), "--grid", str(grid),
                        "--out", str(tmp_path / "sweep.csv")]) == 2
        assert "unknown key 'sigma_2'" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    def test_bad_grid_value_names_key(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("manifest = m.txt\n")
        grid = tmp_path / "grid.cfg"
        grid.write_text("sigma1 = abc\n")
        assert run_cli(["sweep", "--config", str(cfg), "--grid", str(grid)]) == 2
        assert "'sigma1'" in capsys.readouterr().err

    @pytest.mark.parametrize("grid,key", [
        ("sigma1 = 1,nan\nsigma2 = 3\nepsilon = 0.1\n", "sigma1"),
        ("sigma1 = nan\nsigma2 = 3\nepsilon = 0.1\n", "sigma1"),
        ("sigma1 = 1\nsigma2 = 3,inf\nepsilon = 0.1\n", "sigma2")])
    def test_non_finite_grid_value_is_usage_error(self, tmp_path, capsys,
                                                  grid, key):
        manifest = generate_suite(tmp_path / "suite", n_classes=4,
                                  per_class=4, size=48, seed=3)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"manifest = {manifest}\nn_train = 2\n")
        (tmp_path / "grid.cfg").write_text(grid)
        out = tmp_path / "sweep.csv"
        assert run_cli(["sweep", "--config", str(cfg), "--grid",
                        str(tmp_path / "grid.cfg"), "--out", str(out)]) == 2
        assert f"error: grid axis '{key}' must be finite" in \
            capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line,key", [
        ("sigma1 = 0.5", "'sigma1'"), ("epsilon = 0.2", "'epsilon'"),
        ("preprocessor = none,dog", "'preprocessor'"),
        ("preprocessor = bf,none", "'preprocessor'")])
    def test_config_key_set_by_the_grid_rejected(self, tmp_path, capsys,
                                                 line, key):
        manifest = generate_suite(tmp_path / "suite", n_classes=4,
                                  per_class=4, size=48, seed=3)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"manifest = {manifest}\nn_train = 2\n{line}\n")
        grid = tmp_path / "grid.cfg"
        grid.write_text("sigma1 = 1.0\nsigma2 = 3.0\nepsilon = 0.1\n")
        out = tmp_path / "sweep.csv"
        assert run_cli(["sweep", "--config", str(cfg), "--grid", str(grid),
                        "--out", str(out)]) == 2
        assert f"a sweep's grid sets {key}" in capsys.readouterr().err
        assert not out.exists()

    def test_preprocessor_bf_accepted(self, tmp_path):
        manifest = generate_suite(tmp_path / "suite", n_classes=4,
                                  per_class=4, size=48, seed=3)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"manifest = {manifest}\npreprocessor = bf\n"
                       "n_train = 2\n")
        grid = tmp_path / "grid.cfg"
        grid.write_text("sigma1 = 1.0\nsigma2 = 3.0\nepsilon = 0.1,0.2\n")
        out = tmp_path / "sweep.csv"
        assert run_cli(["sweep", "--config", str(cfg), "--grid", str(grid),
                        "--out", str(out)]) == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert [row[1] for row in rows[1:]] == ["bf[1,3,0.1]", "bf[1,3,0.2]"]

    def test_repeated_grid_value_is_usage_error(self, tmp_path, capsys):
        manifest = generate_suite(tmp_path / "suite", n_classes=4,
                                  per_class=4, size=48, seed=3)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"manifest = {manifest}\nn_train = 2\n")
        grid = tmp_path / "grid.cfg"
        grid.write_text("sigma1 = 1.0\nsigma2 = 3.0\nepsilon = 0.1,0.1\n")
        out = tmp_path / "sweep.csv"
        assert run_cli(["sweep", "--config", str(cfg), "--grid", str(grid),
                        "--out", str(out)]) == 2
        assert "repeated preprocessors: ['bf[1,3,0.1]']" in \
            capsys.readouterr().err
        assert not out.exists()


class TestGenSynthetic:
    def test_generates_manifest(self, tmp_path):
        out = tmp_path / "suite"
        assert run_cli(["gen-synthetic", "--out-dir", str(out),
                        "--classes", "3", "--per-class", "2",
                        "--size", "48"]) == 0
        manifest = out / "manifest.txt"
        assert manifest.exists()
        lines = [l for l in manifest.read_text().splitlines()
                 if l and not l.startswith("#")]
        assert len(lines) == 6
        name = lines[0].split()[0]
        img = load_image(out / name)
        assert img.shape == (48, 48)

    @pytest.mark.parametrize("flag,value", [("--per-class", "0"),
                                            ("--size", "0"),
                                            ("--size", "-3"),
                                            ("--per-class", "1001")])
    def test_empty_suite_is_usage_error(self, tmp_path, capsys, flag,
                                        value):
        # nothing is written that load_image or a manifest would reject; at
        # 1001 per class, image 1000 of class 0 would draw the random stream
        # of image 0 of class 1
        out = tmp_path / "suite"
        assert run_cli(["gen-synthetic", "--out-dir", str(out),
                        "--classes", "2", flag, value]) == 2
        name = flag[2:].replace("-", "_")
        bound = "<= 1000" if int(value) > 1000 else ">= 1"
        assert f"error: {name} must be {bound}, got {value}" in \
            capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("classes", ["1", "10"])
    def test_class_count_out_of_range_is_usage_error(self, tmp_path, capsys,
                                                     classes):
        out = tmp_path / "suite"
        assert run_cli(["gen-synthetic", "--out-dir", str(out),
                        "--classes", classes]) == 2
        assert (f"error: n_classes must be in [2, 9], got {classes}"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_every_class_pattern(self, tmp_path):
        manifest = Path(generate_suite(tmp_path / "suite", n_classes=9,
                                       per_class=1, size=24, seed=0))
        lines = [l.split() for l in manifest.read_text().splitlines()
                 if not l.startswith("#")]
        assert lines == [[f"{name}_000.pgm", str(c)]
                         for c, name in enumerate(CLASS_NAMES)]
        for name, _ in lines:
            img = load_image(manifest.parent / name)
            assert img.shape == (24, 24)
            assert 0.0 <= img.min() < img.max() <= 1.0


def test_help_lists_defaults(capsys):
    code = run_cli(["filter", "--help"])
    assert code == 0
    out = capsys.readouterr().out
    for flag, default in [("--sigma1", "1.0"), ("--sigma2", "4.0"),
                          ("--epsilon", "0.1")]:
        assert flag in out and default in out

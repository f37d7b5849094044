"""Experiment harness: manifests, splits, noise injection, orchestration.

A manifest lists image paths with integer class labels (and optional
predefined train/test flags).  Experiments preprocess every image, extract
the configured descriptor, build a nearest-neighbor reference set from the
training side of each split and report mean/std accuracy per noise level
as CSV.  All randomness flows through seeded counter-based generators so
reports are byte-reproducible.
"""

import csv
import io
import os
import re
import time
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import baselines, descriptors
from .classify import ReferenceSet, _chi2_triangle, chi2_matrix, evaluate
from .image import load_image
from .retina import BfParams, bf_preprocess

REPORT_COLUMNS = ("suite", "preprocessor", "family", "scheme", "P", "R",
                  "snr", "mean_accuracy", "std_accuracy", "feature_size",
                  "extract_ms", "match_ms")


class ConfigError(ValueError):
    """Bad experiment configuration."""


class ManifestError(ValueError):
    """Malformed manifest file."""


@dataclass
class Manifest:
    """Labeled sample list, optionally with a predefined train/test split."""

    samples: list  # (path, label) pairs
    suite: str = "unnamed"
    split_flags: list = None  # parallel list of "train"/"test", or None

    def __post_init__(self):
        labels = [lab for _, lab in self.samples]
        if len(set(labels)) < 2:
            raise ManifestError("manifest must contain at least 2 classes")
        paths = [p for p, _ in self.samples]
        if len(set(paths)) != len(paths):
            raise ManifestError("manifest contains duplicate paths")

    def class_indices(self):
        """Sample indices grouped by label, labels in sorted order."""
        by_class = {}
        for i, (_, lab) in enumerate(self.samples):
            by_class.setdefault(lab, []).append(i)
        return {lab: by_class[lab] for lab in sorted(by_class)}


def load_manifest(path, suite=None):
    """Parse a manifest: `<relative-path> <label> [train|test]` per line."""
    samples, flags, any_flag = [], [], False
    base = os.path.dirname(os.path.abspath(path))
    with open(path) as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) not in (2, 3):
                raise ManifestError(f"{path}:{lineno}: expected "
                                    f"'<path> <label> [train|test]'")
            try:
                label = int(parts[1])
            except ValueError:
                raise ManifestError(
                    f"{path}:{lineno}: non-integer label {parts[1]!r}") from None
            if label < 0:
                raise ManifestError(f"{path}:{lineno}: negative label {label}")
            flag = None
            if len(parts) == 3:
                if parts[2] not in ("train", "test"):
                    raise ManifestError(
                        f"{path}:{lineno}: bad split flag {parts[2]!r}")
                flag = parts[2]
                any_flag = True
            samples.append((os.path.join(base, parts[0]), label))
            flags.append(flag)
    if any_flag and any(fl is None for fl in flags):
        raise ManifestError(f"{path}: split flags must cover every sample")
    return Manifest(samples=samples,
                    suite=suite or os.path.basename(os.path.dirname(os.path.abspath(path))),
                    split_flags=flags if any_flag else None)


@dataclass(frozen=True)
class SplitPolicy:
    """How to partition samples into train/test sets."""

    mode: str = "random"  # "random" or "predefined"
    n_train: int = 10     # per class, random mode only
    repeats: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("random", "predefined"):
            raise ConfigError(f"unknown split mode {self.mode!r}")
        if self.repeats < 1:
            raise ConfigError("repeats must be >= 1")


@dataclass(frozen=True)
class NoiseSpec:
    """Gaussian-noise robustness protocol: SNR levels and seeded repeats."""

    snr_levels: tuple = (30.0, 15.0, 10.0, 5.0, 4.0, 3.0)
    repeats: int = 10
    seed: int = 0

    def __post_init__(self):
        if any(s <= 0 for s in self.snr_levels):
            raise ConfigError("snr levels must be positive")
        if self.repeats < 1:
            raise ConfigError("noise repeats must be >= 1")


def _rng(seed, *stream):
    """Counter-based generator keyed on (seed, stream indices); portable."""
    key = int(seed) & 0xFFFFFFFFFFFFFFFF
    for s in stream:
        key = (key * 0x9E3779B97F4A7C15 + int(s) + 1) & 0xFFFFFFFFFFFFFFFF
    return np.random.Generator(np.random.Philox(key=key))


def make_splits(manifest, policy):
    """List of (train indices, test indices) pairs per the policy."""
    if policy.mode == "predefined":
        if manifest.split_flags is None:
            raise ConfigError("manifest carries no predefined split flags")
        train = [i for i, fl in enumerate(manifest.split_flags) if fl == "train"]
        test = [i for i, fl in enumerate(manifest.split_flags) if fl == "test"]
        return [(train, test)]
    if policy.n_train < 1:
        raise ConfigError("n_train must be >= 1 for random splits")
    by_class = manifest.class_indices()
    smallest = min(len(ids) for ids in by_class.values())
    if policy.n_train >= smallest:
        raise ConfigError(f"n_train={policy.n_train} must be smaller than the "
                          f"smallest class size ({smallest})")
    splits = []
    for rep in range(policy.repeats):
        rng = _rng(policy.seed, rep)
        train, test = [], []
        for lab, ids in by_class.items():
            perm = rng.permutation(len(ids))
            train.extend(ids[j] for j in perm[:policy.n_train])
            test.extend(ids[j] for j in perm[policy.n_train:])
        splits.append((sorted(train), sorted(test)))
    return splits


def add_gaussian_noise(img, snr, rng):
    """Additive Gaussian noise at sigma = image std / snr, unclipped.

    A constant image has zero signal deviation, so it is returned unchanged
    (with a warning) rather than dividing by zero.
    """
    if snr <= 0:
        raise ValueError(f"snr must be positive, got {snr}")
    img = np.asarray(img, dtype=np.float64)
    sigma_signal = float(img.std())
    if sigma_signal == 0.0:
        warnings.warn("constant image: no noise added (zero signal std)")
        return img.copy()
    return img + rng.normal(0.0, sigma_signal / snr, size=img.shape)


@dataclass(frozen=True)
class ExperimentConfig:
    """One harness run: suite, preprocessors, descriptor, split, noise."""

    manifest_path: str
    suite: str = None
    preprocessors: tuple = ("bf",)
    bf_params: BfParams = field(default_factory=BfParams)
    gamma: float = 2.2
    deriv_sigma: float = 1.0
    descriptor: descriptors.DescriptorConfig = field(
        default_factory=descriptors.DescriptorConfig)
    split: SplitPolicy = field(default_factory=SplitPolicy)
    noise: NoiseSpec = None
    corrupt_train: bool = False
    include_timing: bool = False

    def __post_init__(self):
        unknown = set(self.preprocessors) - set(baselines.BASELINE_NAMES)
        if unknown:
            raise ConfigError(f"unknown preprocessors: {sorted(unknown)}")


def apply_preprocessor(img, name, config):
    """Run the named preprocessor; 'bf' yields an ON/OFF map pair."""
    if name == "none":
        return img
    if name == "bf":
        return bf_preprocess(img, config.bf_params)
    if name == "gamma":
        return baselines.gamma_correct(img, config.gamma)
    if name == "dog":
        return baselines.dog_only(img, config.bf_params.sigma1,
                                  config.bf_params.sigma2)
    if name in ("gderiv0", "gderiv1", "gderiv2"):
        return baselines.gaussian_derivative(img, config.deriv_sigma,
                                             int(name[-1]))
    raise ConfigError(f"unknown preprocessor {name!r}")


@dataclass
class ReportRow:
    suite: str
    preprocessor: str
    family: str
    scheme: str
    p: int
    r: float
    snr: str  # "clean" or the numeric level
    mean_accuracy: float
    std_accuracy: float  # None when a single repeat
    feature_size: int
    extract_ms: float = None
    match_ms: float = None

    def as_record(self, include_timing):
        fmt = lambda v: "" if v is None else f"{v:.6f}"
        return [self.suite, self.preprocessor, self.family, self.scheme,
                str(self.p), f"{self.r:g}", self.snr,
                f"{self.mean_accuracy:.6f}", fmt(self.std_accuracy),
                str(self.feature_size),
                fmt(self.extract_ms) if include_timing else "",
                fmt(self.match_ms) if include_timing else ""]


@dataclass
class ExperimentReport:
    rows: list
    failures: list = field(default_factory=list)
    include_timing: bool = False

    def to_csv(self, path=None):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(REPORT_COLUMNS)
        for row in self.rows:
            writer.writerow(row.as_record(self.include_timing))
        text = buf.getvalue()
        if path is not None:
            with open(path, "w", newline="") as f:
                f.write(text)
        return text


def _extract_features(images, name, config):
    """Per-image descriptor histograms after preprocessing; returns
    (feature matrix, mean per-image extraction ms)."""
    feats, t0 = [], time.perf_counter()
    for img in images:
        feats.append(descriptors.extract(
            apply_preprocessor(img, name, config), config.descriptor))
    ms = (time.perf_counter() - t0) * 1000.0 / max(len(images), 1)
    return np.asarray(feats), ms


def _split_distances(feats, labels, splits):
    """(dist, rows, cols): the chi2 distances from the samples in ``rows``
    to those in ``cols``, which cover every split's test and training
    indices, both sorted.

    When the unions overlap enough that half the square over their union
    (|union|^2 / 2) is smaller than the rectangle |test union| x |train
    union|, as with random splits, the union is compared with itself and
    each pair is computed once.  Otherwise, as with disjoint predefined
    splits or noise rows, the test union is compared with the training
    union.  The matrix takes 8 bytes per cell, at most 8 N^2 bytes for N
    samples.
    """
    rows = sorted(set().union(*(test for _, test in splits)))
    cols = sorted(set().union(*(train for train, _ in splits)))
    union = sorted(set(rows).union(cols))
    if len(union) ** 2 / 2 < len(rows) * len(cols):
        return (_chi2_triangle(ReferenceSet(feats[union], labels[union])),
                union, union)
    return (chi2_matrix(feats[rows], ReferenceSet(feats[cols], labels[cols])),
            rows, cols)


def _run_splits(feats, labels, splits):
    """Accuracy per split; features indexed by sample id.  Returns
    (accuracies, mean per-query match ms).

    Splits re-score the same (test, train) pairs, so every distance is
    computed once (see _split_distances), and each split is then
    evaluated on its own rows and columns of the matrix.  Training
    columns keep their sorted order, so ties still go to the lowest
    training index.
    """
    t0 = time.perf_counter()
    dist, rows, cols = _split_distances(feats, labels, splits)
    accs = []
    for train, test in splits:
        sub = dist[np.ix_(np.searchsorted(rows, test),
                          np.searchsorted(cols, train))]
        acc, _ = evaluate(feats[test], labels[test],
                          ReferenceSet(feats[train], labels[train]), sub)
        accs.append(acc)
    match_ms = (time.perf_counter() - t0) * 1000.0
    return accs, match_ms / sum(len(test) for _, test in splits)


def run_experiment(config, manifest=None, images=None):
    """Execute the configured experiment and return its report.

    Clean accuracy is always reported; when a noise spec is present, one
    row per SNR level follows.  Noise is applied to test images only
    unless corrupt_train is set, and only the corrupted images are
    extracted again.  A failing preprocessor row is recorded as a failure
    and the remaining rows still run.
    """
    if manifest is None:
        manifest = load_manifest(config.manifest_path, suite=config.suite)
    suite = config.suite or manifest.suite
    if images is None:
        images = [load_image(p) for p, _ in manifest.samples]
    labels = np.asarray([lab for _, lab in manifest.samples], dtype=np.int64)
    splits = make_splits(manifest, config.split)
    desc = config.descriptor

    def row(name, snr, accs, fsize, extract_ms=None, match_ms=None):
        std = float(np.std(accs, ddof=1)) if len(accs) > 1 else None
        return ReportRow(
            suite=suite, preprocessor=name, family=desc.family,
            scheme=desc.scheme, p=desc.p, r=desc.r, snr=snr,
            mean_accuracy=float(np.mean(accs)), std_accuracy=std,
            feature_size=fsize, extract_ms=extract_ms, match_ms=match_ms)

    rows, failures = [], []
    for name in config.preprocessors:
        try:
            feats, extract_ms = _extract_features(images, name, config)
            fsize = feats.shape[1]
            accs, match_ms = _run_splits(feats, labels, splits)
            rows.append(row(name, "clean", accs, fsize, extract_ms, match_ms))
            if config.noise is None:
                continue
            for li, snr in enumerate(config.noise.snr_levels):
                accs = []
                for rep in range(config.noise.repeats):
                    train, test = splits[rep % len(splits)]
                    rng = _rng(config.noise.seed, li, rep)
                    # noise is drawn for the test images first, in index
                    # order; untouched images keep their clean features
                    corrupted = test + (train if config.corrupt_train else [])
                    noisy = [add_gaussian_noise(images[i], snr, rng)
                             for i in corrupted]
                    nfeats = feats.copy()
                    nfeats[corrupted], _ = _extract_features(noisy, name,
                                                             config)
                    sub, _ = _run_splits(nfeats, labels, [(train, test)])
                    accs.extend(sub)
                rows.append(row(name, f"{snr:g}", accs, fsize))
        except Exception as exc:  # keep remaining rows running
            failures.append((name, f"{type(exc).__name__}: {exc}"))
    return ExperimentReport(rows=rows, failures=failures,
                            include_timing=config.include_timing)


def sweep_bf_params(config, sigma1_values, sigma2_values, epsilon_values):
    """Run the experiment once per valid (sigma1, sigma2, epsilon) triple.

    Pairs violating sigma1 < sigma2 are skipped and noted as failures.
    The preprocessor column carries the triple so rows are identifiable,
    and averaging across epsilon stays a plain group-by on that column.
    The manifest and its images are loaded once for the whole grid.
    """
    grid = [(s1, s2, 0 < s1 < s2)
            for s1 in sigma1_values for s2 in sigma2_values]
    if not epsilon_values or not any(valid for _, _, valid in grid):
        raise ConfigError("no valid (sigma1, sigma2) pair in the grid")
    manifest = load_manifest(config.manifest_path, suite=config.suite)
    images = [load_image(p) for p, _ in manifest.samples]
    rows, failures = [], []
    for s1, s2, valid in grid:
        if not valid:
            failures.append((f"bf[{s1:g},{s2:g},*]",
                             "skipped: requires 0 < sigma1 < sigma2"))
            continue
        for eps in epsilon_values:
            sub = run_experiment(replace(
                config, preprocessors=("bf",),
                bf_params=BfParams(sigma1=s1, sigma2=s2, epsilon=eps)),
                manifest=manifest, images=images)
            for row in sub.rows:
                row.preprocessor = f"bf[{s1:g},{s2:g},{eps:g}]"
            rows.extend(sub.rows)
            failures.extend(sub.failures)
    return ExperimentReport(rows=rows, failures=failures,
                            include_timing=config.include_timing)


# ---------------------------------------------------------------------------
# flat key-value config files

_TRUE = ("1", "true", "yes", "on")
_FALSE = ("0", "false", "no", "off")
# A '#' at the start of a line or after whitespace starts a comment.
_COMMENT = re.compile(r"(?:^|\s)#.*")


def parse_config_file(path):
    """Parse `key = value` lines; # comments and blanks ignored."""
    values, seen = {}, {}
    with open(path) as f:
        for lineno, raw in enumerate(f, start=1):
            line = _COMMENT.sub("", raw).strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, val = line.partition("=")
            key = key.strip()
            if key in seen:
                raise ConfigError(f"{path}:{lineno}: key '{key}' already "
                                  f"set on line {seen[key]}")
            values[key], seen[key] = val.strip(), lineno
    return values


def check_keys(values, known):
    """Reject keys outside `known`, so a misspelt key cannot silently fall
    back to its default."""
    unknown = sorted(set(values) - set(known))
    if unknown:
        raise ConfigError(f"unknown key {', '.join(map(repr, unknown))} "
                          f"(known: {', '.join(known)})")


def _get(values, key, conv, default=None):
    if key not in values:
        return default
    try:
        return conv(values[key])
    except (ValueError, TypeError):
        raise ConfigError(f"invalid value for key '{key}': "
                          f"{values[key]!r}") from None


def _bool(text):
    low = text.lower()
    if low in _TRUE:
        return True
    if low in _FALSE:
        return False
    raise ValueError(text)


def _float_list(text):
    return tuple(float(v) for v in text.split(","))


def _str_list(text):
    return tuple(v.strip() for v in text.split(","))


# Config-file key -> (ExperimentConfig field holding it, or None for the
# config itself; field name; parser).  A key the file omits is not passed,
# so it takes its dataclass default.
CONFIG_KEYS = {
    "manifest": (None, "manifest_path", str),
    "suite": (None, "suite", str),
    "preprocessor": (None, "preprocessors", _str_list),
    "family": ("descriptor", "family", str),
    "scheme": ("descriptor", "scheme", str),
    "p": ("descriptor", "p", int),
    "r": ("descriptor", "r", float),
    "ltp_t": ("descriptor", "ltp_t", float),
    "sigma1": ("bf_params", "sigma1", float),
    "sigma2": ("bf_params", "sigma2", float),
    "epsilon": ("bf_params", "epsilon", float),
    "gamma": (None, "gamma", float),
    "deriv_sigma": (None, "deriv_sigma", float),
    "mode": ("split", "mode", str),
    "n_train": ("split", "n_train", int),
    "repeats": ("split", "repeats", int),
    "seed": ("split", "seed", int),
    "snr_levels": ("noise", "snr_levels", _float_list),
    "noise_repeats": ("noise", "repeats", int),
    "noise_seed": ("noise", "seed", int),
    "corrupt_train": (None, "corrupt_train", _bool),
    "timing": (None, "include_timing", _bool),
}
EXPERIMENT_KEYS = tuple(CONFIG_KEYS)
_PART_TYPES = {"descriptor": descriptors.DescriptorConfig,
               "bf_params": BfParams, "split": SplitPolicy, "noise": NoiseSpec}
# Sweep grid file key -> the axis swept when the file omits it.
SWEEP_GRID = {
    "sigma1": (0.5, 0.75, 1.0, 1.25, 1.5),
    "sigma2": (2.0, 3.0, 4.0, 5.0, 6.0),
    "epsilon": (0.05, 0.1, 0.15, 0.2, 0.25, 0.3),
}


def build_experiment_config(values, base_dir="."):
    """ExperimentConfig from a flat key-value dict (see parse_config_file).

    The manifest path is resolved against base_dir.  Noise rows run only
    when snr_levels is given.
    """
    check_keys(values, EXPERIMENT_KEYS)
    if "manifest" not in values:
        raise ConfigError("missing required key 'manifest'")
    parts = {}
    for key, (part, name, conv) in CONFIG_KEYS.items():
        if key in values:
            parts.setdefault(part, {})[name] = _get(values, key, conv)
    top = parts.pop(None)
    top["manifest_path"] = os.path.join(base_dir, top["manifest_path"])
    if "snr_levels" not in values:
        parts.pop("noise", None)
    try:
        return ExperimentConfig(**top, **{part: _PART_TYPES[part](**kw)
                                          for part, kw in parts.items()})
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def build_sweep_grid(values):
    """The (sigma1, sigma2, epsilon) axes of a grid file's key-value dict,
    each a comma list; an omitted axis takes its SWEEP_GRID default."""
    check_keys(values, SWEEP_GRID)
    return [_get(values, key, _float_list, axis)
            for key, axis in SWEEP_GRID.items()]

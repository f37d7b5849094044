"""Experiment harness: manifests, splits, noise injection, orchestration.

A manifest lists image paths with integer class labels (and optional
predefined train/test flags).  Experiments preprocess every image, extract
the configured descriptor, match each split's test side to its training
side by chi-square nearest neighbour and report mean/std accuracy per
noise level as CSV.  All randomness flows through seeded counter-based
generators so reports are byte-reproducible.
"""

import contextlib
import csv
import io
import itertools
import math
import mmap
import os
import re
import signal
import threading
import time
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import baselines, classify, descriptors
from .classify import ReferenceSet, _chi2_triangle, chi2_matrix, evaluate
from .image import NonFiniteImageError, _read_pixels, check_finite
# perfbench/tracer.py wraps harness.load_image by name, so it stays importable
from .image import load_image  # noqa: F401
from .retina import BfParams, bf_preprocess

# Neighbour samples (P per interior pixel) in one block.  A scheme that
# reads magnitudes holds them as a float64 stack (2 MB); sign-only codes
# and LTP hold one bool per sample and pixel of the whole images, plus one
# float64 plane.  Images go through preprocessing and description a block
# at a time, which spreads each numpy call's overhead over the block
# without a large working set.  The descriptors keep plane-loop scratch of
# up to this many cells per thread.
_BLOCK_CELLS = descriptors.BLOCK_CELLS

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
        negative = sorted({lab for lab in labels if lab < 0})
        if negative:
            raise ManifestError(f"negative labels: {negative}")
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
    samples, flags = [], []
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
            flag = parts[2] if len(parts) == 3 else None
            if flag not in (None, "train", "test"):
                raise ManifestError(
                    f"{path}:{lineno}: bad split flag {flag!r}")
            samples.append((os.path.join(base, parts[0]), label))
            flags.append(flag)
    if any(flags) and None in flags:
        raise ManifestError(f"{path}: split flags must cover every sample")
    return Manifest(samples=samples,
                    suite=suite or os.path.basename(os.path.dirname(os.path.abspath(path))),
                    split_flags=flags if any(flags) else None)


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
        if self.mode == "predefined" and self.repeats > 1:
            raise ConfigError(f"a predefined split is one split, got "
                              f"repeats={self.repeats}")


@dataclass(frozen=True)
class NoiseSpec:
    """Gaussian-noise robustness protocol: SNR levels and seeded repeats."""

    snr_levels: tuple = (30.0, 15.0, 10.0, 5.0, 4.0, 3.0)
    repeats: int = 10
    seed: int = 0

    def __post_init__(self):
        if not self.snr_levels:
            raise ConfigError("snr_levels must name at least one level")
        if not all(0 < s < math.inf for s in self.snr_levels):
            raise ConfigError(f"snr_levels must be in (0, inf), got "
                              f"{self.snr_levels}")
        # a row's snr column is the level's label, so two levels with one
        # label would give two rows that cannot be told apart
        labels = [f"{s:g}" for s in self.snr_levels]
        repeated = sorted({lab for lab in labels if labels.count(lab) > 1})
        if repeated:
            raise ConfigError(f"repeated snr_levels: {repeated}")
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
        for side, ids in (("train", train), ("test", test)):
            if not ids:
                raise ConfigError(f"predefined split has no {side} sample")
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
    (with a warning) rather than dividing by zero.  An image with a NaN or
    infinite pixel is rejected with a NonFiniteImageError, and a finite
    one whose variance overflows float64 with a ValueError.
    """
    if not 0 < snr < math.inf:
        raise ValueError(f"snr must be in (0, inf), got {snr}")
    img = np.asarray(img, dtype=np.float64)
    with np.errstate(invalid="ignore", over="ignore"):  # checked just below
        sigma_signal = float(img.std())
    if not math.isfinite(sigma_signal):
        check_finite(img)
        raise ValueError("image variance overflows float64: no noise "
                         "level can be set")
    if sigma_signal == 0.0:
        warnings.warn("constant image: no noise added (zero signal std)")
        return img.copy()
    return img + rng.normal(0.0, sigma_signal / snr, size=img.shape)


@dataclass(frozen=True)
class ExperimentConfig:
    """One harness run: suite, preprocessors, descriptor, split, noise.
    A BfParams preprocessor entry means bf at those parameters."""

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
        if not self.preprocessors:
            raise ConfigError("preprocessors must name at least one "
                              "preprocessor")
        unknown = {entry for entry in self.preprocessors
                   if not isinstance(entry, BfParams)
                   and entry not in PREPROCESSORS}
        if unknown:
            raise ConfigError(f"unknown preprocessors: {sorted(unknown)} "
                              f"(known: {', '.join(PREPROCESSORS)})")
        # rows and failures carry labels, so two entries may not share one
        labels = [_label(entry) for entry in self.preprocessors]
        repeated = {lab for lab in labels if labels.count(lab) > 1}
        if repeated:
            raise ConfigError(f"repeated preprocessors: {sorted(repeated)}")
        for name in ("gamma", "deriv_sigma"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ConfigError(f"{name} must be in (0, inf), got {value}")
        if self.corrupt_train and self.noise is None:
            raise ConfigError("corrupt_train needs a noise spec: without "
                              "noise rows no image is corrupted")


def _label(entry):
    """A preprocessor entry's name, or bf[sigma1,sigma2,epsilon]."""
    if isinstance(entry, BfParams):
        return f"bf[{entry.sigma1:g},{entry.sigma2:g},{entry.epsilon:g}]"
    return entry


# Preprocessor name -> function of (image or stack, ExperimentConfig).
# Each looks up bf_preprocess or its baselines function at call time, so a
# rebound module attribute (perfbench/tracer.py) sees every call.
PREPROCESSORS = {
    "none": lambda img, config: img,
    "bf": lambda img, config: bf_preprocess(img, config.bf_params),
    "gamma": lambda img, config: baselines.gamma_correct(img, config.gamma),
    "dog": lambda img, config: baselines.dog_only(
        img, config.bf_params.sigma1, config.bf_params.sigma2),
    **{f"gderiv{order}": lambda img, config, order=order:
       baselines.gaussian_derivative(img, config.deriv_sigma, order)
       for order in range(3)},
}


def apply_preprocessor(img, name, config):
    """Run PREPROCESSORS[name], or bf at a BfParams entry's parameters, on
    an image or a stack of them; an entry of _yields_pair gives an ON/OFF
    map pair."""
    if isinstance(name, BfParams):
        return bf_preprocess(img, name)
    return PREPROCESSORS[name](img, config)


def _yields_pair(entry):
    """Whether apply_preprocessor gives the entry's images as ON/OFF map
    pairs (twice the histogram bins), as bf does at any parameters."""
    return isinstance(entry, BfParams) or entry == "bf"


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

    def as_record(self):
        fmt = lambda v: "" if v is None else f"{v:.6f}"
        return [self.suite, self.preprocessor, self.family, self.scheme,
                str(self.p), f"{self.r:g}", self.snr,
                f"{self.mean_accuracy:.6f}", fmt(self.std_accuracy),
                str(self.feature_size), fmt(self.extract_ms),
                fmt(self.match_ms)]


@dataclass
class ExperimentReport:
    rows: list
    failures: list = field(default_factory=list)

    def to_csv(self, path=None):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(REPORT_COLUMNS)
        for row in self.rows:
            writer.writerow(row.as_record())
        text = buf.getvalue()
        if path is not None:
            with open(path, "w", newline="") as f:
                f.write(text)
        return text


def _blocks(images, spec):
    """(start, stop) ranges of consecutive same-shape images whose
    neighbour stack under ``spec`` holds at most _BLOCK_CELLS cells (one
    image at least)."""
    start, m = 0, spec.margin
    for (h, w), group in itertools.groupby(np.shape(img) for img in images):
        stop = start + sum(1 for _ in group)
        cells = spec.p * max(h - 2 * m, 1) * max(w - 2 * m, 1)
        step = max(1, _BLOCK_CELLS // cells)
        for lo in range(start, stop, step):
            yield lo, min(lo + step, stop)
        start = stop


def _chunks(images, spec, parts):
    """(start, stop) ranges of consecutive images that cut ``images`` at
    the block boundaries of _blocks into at most ``parts`` runs of about
    equal pixel counts, so that each run's blocks are the suite's own."""
    before = np.cumsum([0] + [np.size(img) for img in images])
    runs = {}
    for lo, hi in _blocks(images, spec):
        part = parts * int(before[lo]) // max(int(before[-1]), 1)
        runs.setdefault(part, [lo, hi])[1] = hi
    return [tuple(run) for run in runs.values()]


def _shared_array(size):
    """A zeroed float64 vector of ``size`` cells in anonymous shared
    memory: what a forked worker writes into it, this process reads.  It
    is unmapped when its last reference goes."""
    return np.frombuffer(mmap.mmap(-1, 8 * size), dtype=np.float64)


def _read_suite(manifest):
    """Each manifest image's samples at its file's precision, and one
    float64 maxval per image (see image._read_pixels)."""
    read = [_read_pixels(path) for path, _ in manifest.samples]
    return ([pixels for pixels, _ in read],
            np.array([maxval for _, maxval in read], dtype=np.float64))


def _extract_features(pixels, maxvals, paths, ids, entries, config,
                      noise=None, out=None):
    """(features, failures): the histograms of the images
    ``pixels[j] / maxvals[j]`` for j in ``ids`` by each entry that did not
    fail, and the message of each entry that did.  An entry's rows are
    written into ``out[entry]`` where that is given, else into a new array.

    Each block (see _blocks) is made float64 once and read by every entry
    still running; with ``noise`` as (snr, rng), add_gaussian_noise is
    first applied to each of its images in ``ids`` order.  An entry that
    fails on bad input (a ValueError) reads no further block, and a failed
    draw fails every entry still running.  The images are read before
    this runs, so no file error can arise here.  An image with a NaN or
    infinite pixel is named by its path.
    """
    feats, failed = dict(out or {}), {}
    for lo, hi in _blocks([pixels[j] for j in ids], config.descriptor.spec):
        live = [entry for entry in entries if entry not in failed]
        if not live:
            break
        block = np.empty((hi - lo,) + np.shape(pixels[ids[lo]]))
        try:
            for k, j in enumerate(ids[lo:hi]):
                np.divide(pixels[j], maxvals[j], out=block[k])
                if noise:
                    block[k] = add_gaussian_noise(block[k], *noise)
        except ValueError as exc:
            failed.update(dict.fromkeys(live,
                                        f"{type(exc).__name__}: {exc}"))
            break
        for entry in live:
            try:
                hists = descriptors.extract(
                    apply_preprocessor(block, entry, config),
                    config.descriptor)
            except ValueError as exc:
                if isinstance(exc, NonFiniteImageError):
                    exc = NonFiniteImageError(
                        f"{paths[ids[lo + exc.index]]}: image has NaN or "
                        f"infinite pixels")
                failed[entry] = f"{type(exc).__name__}: {exc}"
                continue
            if entry not in feats:
                feats[entry] = np.empty((len(ids), hists.shape[1]))
            feats[entry][lo:hi] = hists
    return ({entry: f for entry, f in feats.items() if entry not in failed},
            failed)


def _triangle_pays(n, splits):
    """Whether _run_splits reads its splits from one chi2 triangle over
    all n samples."""
    return n ** 2 / 2 < sum(len(tr) * len(te) for tr, te in splits)


def _run_splits(feats, labels, splits, dist=None):
    """Accuracy per split; features and split indices are by sample id.

    When half the square over all samples (N^2 / 2) is smaller than the
    splits' rectangles together (sum of test x train), as with many random
    splits, every sample is compared with every other once and each split
    reads its own cells of that matrix (8 N^2 bytes), which ``dist`` gives
    when it was computed elsewhere.  Otherwise, as with one split or
    few-shot splits, each split compares its test side with its training
    side.  Training columns keep their sorted order, so ties still go to
    the lowest training index.
    """
    if _triangle_pays(len(feats), splits):
        if dist is None:
            dist = _chi2_triangle(ReferenceSet(feats, labels))
        split_dist = lambda train, test: dist[np.ix_(test, train)]
    else:
        split_dist = lambda train, test: chi2_matrix(
            feats[test], ReferenceSet(feats[train], labels[train]))
    return [evaluate(split_dist(train, test), labels[test], labels[train])[0]
            for train, test in splits]


# Pixel-entries of a run's jobs from which run_experiment runs them on
# forked worker processes: the suite's pixels plus the corrupted pixels of
# every noise (level, repeat), times the preprocessor entries.  Below it,
# starting the workers costs more than they save (README, "Rows on every
# core").
_POOL_PIXELS = 1 << 21
# The run's job, set only in the pool's worker processes (_start_worker).
_forked_job = None


def _start_worker(job):
    """Pool initializer, run in each worker: keep the job inherited at
    fork, and run the chi2 kernel inline.  An interrupt is left to the
    parent, which then stops the pool."""
    global _forked_job
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    classify._pool_worker = True
    _forked_job = job


def _run_forked(*args):
    """The inherited job's result, and the warnings it recorded."""
    with warnings.catch_warnings(record=True) as found:
        result = _forked_job(*args)
    return result, [(w.message, w.category, w.filename, w.lineno)
                    for w in found]


def _rewarn(result, found):
    """Issue a worker's warnings here, under this process's filters."""
    for warning in found:
        warnings.warn_explicit(
            *warning, registry=globals().setdefault("__warningregistry__", {}))
    return result


def _pool_workers(n_jobs, work):
    """The worker processes for a run of ``n_jobs`` jobs and ``work``
    pixel-entries, or 0 where _job_pool runs them inline."""
    workers = min(classify._cpu_count(), n_jobs)
    if (workers > 1 and work >= _POOL_PIXELS
            and threading.active_count() == 1):
        import multiprocessing
        if ("fork" in multiprocessing.get_all_start_methods()
                and not multiprocessing.current_process().daemon):
            return workers
    return 0


@contextlib.contextmanager
def _job_pool(job, workers):
    """A function of a list of argument tuples that returns job(*args) for
    each, in order; a run calls it once for each of its rounds.

    With ``workers`` from _pool_workers (none on one CPU, for one job,
    below _POOL_PIXELS of work, where this process cannot fork children,
    or beside another Python thread, which a child could inherit with
    its locks held), the jobs of every round run on that many worker
    processes, forked at the first round.  The workers inherit whatever
    ``job`` reads, shared memory included, so only its arguments go out,
    and only its result (a few numbers, no array) and the warnings it
    recorded come back; spawned workers would instead import bftex
    afresh and be sent the suite.  Once fork() has begun no other thread
    runs either: the chi2 kernel joins its threads before it returns,
    the OpenBLAS of the numpy and scipy wheels stops its threads in a
    fork handler, and the pool starts every worker before its manager
    thread.  A thread that has been joined can still be exiting, so on
    leaving, the pool's own threads are waited for until the kernel
    drops them (from /proc/self/task, where there is one): the next
    run can fork its pool right after.  A worker's chi2 kernel runs
    inline, as the other workers hold the other CPUs.  On an error or an
    interrupt, the pending jobs are cancelled and every worker is joined
    before the error goes on; a worker's error keeps its traceback.
    Without ``workers`` the jobs run inline, one after another.
    """
    if not workers:
        yield lambda jobs: [job(*args) for args in jobs]
        return
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    pool = ProcessPoolExecutor(
        workers, mp_context=multiprocessing.get_context("fork"),
        initializer=_start_worker, initargs=(job,))

    def run(jobs):
        futures = [pool.submit(_run_forked, *args) for args in jobs]
        return [_rewarn(*future.result()) for future in futures]

    try:
        yield run
    finally:
        helpers = [thread.native_id for thread in threading.enumerate()
                   if thread is not threading.current_thread()]
        pool.shutdown(wait=True, cancel_futures=True)
        while any(os.path.exists(f"/proc/self/task/{tid}")
                  for tid in helpers):
            time.sleep(1e-4)


def run_experiment(config, manifest=None, images=None):
    """Execute the configured experiment and return its report.

    The manifest's images are read at their files' precision (8- or 16-bit
    samples) unless ``images`` gives them as arrays on [0, 1].  Clean
    accuracy is always reported; with a noise spec, one row per SNR level
    follows.  Noise goes into the test images only unless corrupt_train
    is set, and only the corrupted images are extracted again.

    The entries run in groups, each entry of a group in its own slot of
    memory: its (N, bins) features and, where the splits read one chi2
    triangle on the pool, its (N, N) distances.  A group runs two rounds
    of jobs (see _job_pool).  The first writes the features, one job per
    (entry, chunk of the suite's blocks; see _chunks).  The second runs
    the group's noise jobs, one per (level, repeat), which read the clean
    training rows from the slots, and after them one job per (entry, k),
    which writes the k-th share of the entry's triangle (see
    classify._chi2_part).  Then every split is scored and the noise
    results are merged in (level, repeat) order.  On the pool a group has
    one entry per CPU and the slots are shared memory, so memory grows
    with the CPUs, not with the entries.  Inline, the suite is one chunk,
    and the entries form one group when noise rows follow, so that each
    noise draw is made once, and groups of one when not.  A job reads no
    other job's result, so the report is the same inline or pooled.

    An entry that fails on bad input (a ValueError) while its images are
    drawn, preprocessed or described keeps the rows of the levels before
    its first failure and is recorded under its label with the message of
    its first failing job (chunks in image order, then noise jobs in
    (level, repeat) order); the other entries still run, and any other
    error propagates.  Every image is read before the first row, so a file
    that cannot be read (an OSError) fails the whole run.  Clean rows
    carry timings only when config.include_timing is set: the seconds of
    an entry's jobs and of its scoring, summed, per image and per query.
    """
    if manifest is None:
        manifest = load_manifest(config.manifest_path, suite=config.suite)
    if images is None:
        pixels, maxvals = _read_suite(manifest)
    else:
        pixels, maxvals = images, np.ones(len(images))
    suite = config.suite or manifest.suite
    paths = [path for path, _ in manifest.samples]
    # 0..K-1 in label order, so evaluate's confusion matrix is K x K
    labels = [lab for _, lab in manifest.samples]
    labels = np.searchsorted(sorted(set(labels)), labels)
    splits = make_splits(manifest, config.split)
    desc = config.descriptor

    def row(name, snr, accs, fsize, extract_ms=None, match_ms=None):
        std = float(np.std(accs, ddof=1)) if len(accs) > 1 else None
        return ReportRow(
            suite=suite, preprocessor=_label(name), family=desc.family,
            scheme=desc.scheme, p=desc.p, r=desc.r, snr=snr,
            mean_accuracy=float(np.mean(accs)), std_accuracy=std,
            feature_size=fsize, extract_ms=extract_ms, match_ms=match_ms)

    names, n = config.preprocessors, len(pixels)
    levels = config.noise.snr_levels if config.noise else ()
    draws = [(li, rep) for li in range(len(levels))
             for rep in range(config.noise.repeats)]

    def corrupted(rep):
        # a repeat's split, and its images that take noise: the test images
        # first, in index order; untouched images keep their clean features
        train, test = splits[rep % len(splits)]
        return (train, test), test + (train if config.corrupt_train else [])

    cpus = classify._cpu_count()
    chunks = _chunks(pixels, desc.spec, cpus)
    workers = _pool_workers(
        len(names) * len(chunks) + len(draws),
        len(names) * sum(np.size(pixels[j]) for j in itertools.chain(
            range(n), *(corrupted(rep)[1] for _, rep in draws))))
    if workers:
        slots, triangle = min(cpus, len(names)), _triangle_pays(n, splits)
    else:
        slots, triangle, chunks = len(names) if draws else 1, False, [(0, n)]
    widths = {name: descriptors.feature_size(desc, on_maps=_yields_pair(name))
              for name in names}
    slot = {name: k % slots for k, name in enumerate(names)}
    alloc = _shared_array if workers else np.empty
    feat_slots = [alloc(n * max(widths.values())) for _ in range(slots)]
    dist_slots = [alloc(n * n) for _ in range(slots if triangle else 0)]
    rows, failed = {name: [] for name in names}, {}
    extract_s, match_s = dict.fromkeys(names, 0.0), dict.fromkeys(names, 0.0)

    def features(name):
        return feat_slots[slot[name]][:n * widths[name]].reshape(n, -1)

    def distances(name):
        return dist_slots[slot[name]].reshape(n, n)

    def job(task, *args):
        """(result, seconds) of one job.  ("rows", name, k) writes chunk k
        of the entry's features into its slot; its result is the entry's
        failure, or None.  ("triangle", name, k) writes the k-th share of
        its chi2 triangle.  ("noise", live, li, rep) gives the accuracy of
        each entry of ``live`` at one (level, repeat), with the noisy test
        images as queries and the noisy or clean training images as
        references, and the entries that failed in it with their
        messages."""
        t0, result = time.perf_counter(), None
        if task == "rows":
            name, k = args
            lo, hi = chunks[k]
            result = _extract_features(
                pixels, maxvals, paths, range(lo, hi), (name,), config,
                out={name: features(name)[lo:hi]})[1].get(name)
        elif task == "triangle":
            name, k = args
            hists = ReferenceSet(features(name), labels).histograms
            classify._chi2_part(hists, hists, distances(name), k, cpus,
                                symmetric=True)
        else:
            live, li, rep = args
            (train, test), ids = corrupted(rep)
            noisy, job_failed = _extract_features(
                pixels, maxvals, paths, ids, live, config,
                (levels[li], _rng(config.noise.seed, li, rep)))
            accs = {}
            for name, hists in noisy.items():
                refs = (hists[len(test):] if config.corrupt_train
                        else features(name)[train])
                dist = chi2_matrix(hists[:len(test)],
                                   ReferenceSet(refs, labels[train]))
                accs[name] = evaluate(dist, labels[test], labels[train])[0]
            result = accs, job_failed
        return result, time.perf_counter() - t0

    with _job_pool(job, workers) as run:
        for at in range(0, len(names), slots):
            group = names[at:at + slots]
            jobs = [("rows", name, k) for name in group
                    for k in range(len(chunks))]
            for (_, name, _), (msg, took) in zip(jobs, run(jobs)):
                extract_s[name] += took
                if msg is not None:  # the first failing chunk in image order
                    failed.setdefault(name, msg)
            live = tuple(name for name in group if name not in failed)
            # noise jobs first, so that the workers split them evenly: a
            # one-block triangle is all in one share, the others are empty
            noise = [("noise", live, li, rep) for li, rep in draws if live]
            shares = [("triangle", name, k) for name in live if triangle
                      for k in range(cpus)]
            results = run(noise + shares)
            for (_, name, _), (_, took) in zip(shares, results[len(noise):]):
                match_s[name] += took
            done = (result for result, _ in results[:len(noise)])
            by_level = [  # (accs, failures) of each level's jobs
                tuple(zip(*itertools.islice(done, config.noise.repeats)))
                for _ in levels]
            for name in live:  # the other preprocessors still run
                t0 = time.perf_counter()
                accs = _run_splits(features(name), labels, splits,
                                   distances(name) if triangle else None)
                match_s[name] += time.perf_counter() - t0
                timing = ()
                if config.include_timing:  # mean ms per image and per query
                    timing = (extract_s[name] * 1000.0 / n,
                              match_s[name] * 1000.0
                              / sum(len(test) for _, test in splits))
                rows[name].append(row(name, "clean", accs, widths[name],
                                      *timing))
                for snr, (accs, fails) in zip(levels, by_level):
                    msg = next((f[name] for f in fails if name in f), None)
                    if msg is not None:  # the first failure in job order
                        failed[name] = msg
                        break
                    rows[name].append(row(name, f"{snr:g}",
                                          [a[name] for a in accs],
                                          widths[name]))
    return ExperimentReport(rows=[r for name in names for r in rows[name]],
                            failures=[(_label(name), failed[name])
                                      for name in names if name in failed])


def sweep_bf_params(config, sigma1_values, sigma2_values, epsilon_values):
    """The experiment over one BfParams entry per valid (sigma1, sigma2,
    epsilon) triple, in grid order, in place of config.preprocessors.

    The grid sets the filter, so config.preprocessors must be ("bf",) and
    config.bf_params is not read.  A NaN or infinite value on any axis is
    a ConfigError.  Pairs violating sigma1 < sigma2 are skipped and listed
    first among the failures.  The preprocessor column carries each
    entry's label, so averaging across epsilon stays a plain group-by on
    that column.
    """
    if config.preprocessors != ("bf",):
        labels = [_label(entry) for entry in config.preprocessors]
        raise ConfigError(f"a sweep's grid sets 'preprocessor', so its config "
                          f"may give only bf, not {labels}")
    for axis, values in zip(SWEEP_GRID, (sigma1_values, sigma2_values,
                                         epsilon_values)):
        if not all(math.isfinite(v) for v in values):
            raise ConfigError(f"grid axis '{axis}' must be finite, got "
                              f"{list(values)}")
    pairs = [(s1, s2) for s1 in sigma1_values for s2 in sigma2_values]
    entries = tuple(BfParams(s1, s2, eps) for s1, s2 in pairs if 0 < s1 < s2
                    for eps in epsilon_values)
    if not entries:
        raise ConfigError("the grid has no point: it needs a value on "
                          "each axis and a pair with 0 < sigma1 < sigma2")
    report = run_experiment(replace(config, preprocessors=entries))
    report.failures[:0] = [(f"bf[{s1:g},{s2:g},*]",
                            "skipped: requires 0 < sigma1 < sigma2")
                           for s1, s2 in pairs if not 0 < s1 < s2]
    return report


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
    when snr_levels is given; the other noise keys need it.  n_train and
    seed apply to random splits only.
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
    if "noise" in parts and "snr_levels" not in values:
        raise ConfigError("noise_repeats and noise_seed need snr_levels")
    if "corrupt_train" in values and "snr_levels" not in values:
        raise ConfigError("corrupt_train needs snr_levels: without noise "
                          "rows no image is corrupted")
    try:
        config = ExperimentConfig(**top, **{part: _PART_TYPES[part](**kw)
                                            for part, kw in parts.items()})
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if config.split.mode == "predefined":
        for key in ("n_train", "seed"):  # make_splits reads neither
            if key in values:
                raise ConfigError(f"'{key}' applies to random splits only, "
                                  f"not mode = predefined")
    return config


def build_sweep_grid(values):
    """The (sigma1, sigma2, epsilon) axes of a grid file's key-value dict,
    each a comma list; an omitted axis takes its SWEEP_GRID default."""
    check_keys(values, SWEEP_GRID)
    return [_get(values, key, _float_list, axis)
            for key, axis in SWEEP_GRID.items()]


def check_sweep_config(values):
    """Reject the experiment config keys that a sweep's grid sets: sigma1,
    sigma2 and epsilon (sweep_bf_params checks the preprocessors)."""
    overridden = [key for key in SWEEP_GRID if key in values]
    if overridden:
        raise ConfigError(f"a sweep's grid sets "
                          f"{', '.join(map(repr, overridden))}, so its config "
                          f"may not")

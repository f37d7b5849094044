"""Timing wrappers around the calls into bftex's modules.

A Tracer rebinds the module attributes that callers look up at call time
(``run_experiment`` reaches ``evaluate`` through ``bftex.harness.evaluate``,
``clbp_codes`` reaches ``neighbor_stack`` through the ``bftex.descriptors``
globals) to wrappers that record one span per call, and puts the original
functions back when the traced block ends.  Spans stay in memory until the
run writes them out.
"""

import functools
import gzip
import hashlib
import json
import os
import resource
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

import bftex.baselines
import bftex.classify
import bftex.cli
import bftex.descriptors
import bftex.harness
import bftex.retina
import bftex.synthetic
from bftex.retina import BfMaps

# (module, attribute, span name).  A function that callers reach through
# several namespaces (``from .image import load_image``) is listed once per
# namespace, under one span name.
TARGETS = (
    (bftex.harness, "run_experiment", "harness.run_experiment"),
    (bftex.harness, "make_splits", "harness.make_splits"),
    (bftex.harness, "add_gaussian_noise", "harness.add_gaussian_noise"),
    (bftex.harness, "apply_preprocessor", "harness.apply_preprocessor"),
    (bftex.harness, "load_image", "image.load_image"),
    (bftex.harness, "bf_preprocess", "retina.bf_preprocess"),
    (bftex.harness, "evaluate", "classify.evaluate"),
    (bftex.retina, "dog_filter", "retina.dog_filter"),
    (bftex.retina, "split_maps", "retina.split_maps"),
    (bftex.baselines, "dog_only", "baselines.dog_only"),
    (bftex.baselines, "dog_filter", "retina.dog_filter"),
    (bftex.descriptors, "extract", "descriptors.extract"),
    (bftex.descriptors, "clbp_codes", "descriptors.clbp_codes"),
    (bftex.descriptors, "neighbor_stack", "descriptors.neighbor_stack"),
    (bftex.descriptors, "neighbor_offsets", "descriptors.neighbor_offsets"),
    (bftex.descriptors, "riu2_from_bits", "descriptors.riu2_from_bits"),
    (bftex.descriptors, "build_histogram", "descriptors.build_histogram"),
    (bftex.classify, "nn_classify", "classify.nn_classify"),
    (bftex.classify, "chi2_all", "classify.chi2_all"),
    (bftex.cli, "main", "cli.main"),
    (bftex.synthetic, "generate_suite", "synthetic.generate_suite"),
)

SPAN_NAMES = frozenset(name for _, _, name in TARGETS)


def wrapped_targets():
    """``module.attribute`` of every target currently bound to a wrapper."""
    return [f"{mod.__name__}.{attr}" for mod, attr, _ in TARGETS
            if hasattr(getattr(mod, attr), "_perfbench_span")]


def _array_digest(arr):
    arr = np.ascontiguousarray(arr)
    h = hashlib.blake2b(arr.view(np.uint8).ravel(), digest_size=16)
    h.update(repr((arr.dtype.str, arr.shape)).encode())
    return h.digest()


def _input_digest(source):
    if isinstance(source, BfMaps):
        return _array_digest(source.plus) + _array_digest(source.minus)
    return _array_digest(np.asarray(source))


# Counters that time alone misses: span name -> (counter name, amount
# per call as a function of the call's positional arguments).
COUNTERS = {
    "classify.chi2_all":
        ("classify.distance_cells", lambda args: args[1].histograms.size),
    "image.load_image":
        ("image.load_image.bytes", lambda args: os.path.getsize(args[0])),
    "retina.dog_filter":
        ("retina.pixels", lambda args: np.asarray(args[0]).size),
}


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int      # index of the enclosing span, -1 at top level
    pass_id: str
    minflt: int      # minor page faults during the span
    stime: float     # system CPU seconds during the span


class Tracer:
    """Installs span-recording wrappers for the duration of ``active()``."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(lambda: defaultdict(int))  # pass -> name -> n
        self.extract_inputs = defaultdict(set)  # pass -> input digests
        self._stack = []
        self._pass_id = None

    def _wrap(self, fn, name):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(idx)
            pass_id = self._pass_id
            if name == "descriptors.extract":
                self.extract_inputs[pass_id].add(_input_digest(args[0]))
            ru0 = resource.getrusage(resource.RUSAGE_SELF)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                ru1 = resource.getrusage(resource.RUSAGE_SELF)
                self._stack.pop()
                self.spans[idx] = Span(name, t0, t1, parent, pass_id,
                                       ru1.ru_minflt - ru0.ru_minflt,
                                       ru1.ru_stime - ru0.ru_stime)
            if count is not None:
                key, amount = count
                self.counters[pass_id][key] += amount(args)
            return result

        wrapper._perfbench_span = name
        return wrapper

    @contextmanager
    def active(self, pass_id):
        """Trace every call into the targets made inside the block."""
        originals = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in TARGETS]
        self._pass_id = pass_id
        try:
            for (mod, attr, name), (_, _, fn) in zip(TARGETS, originals):
                setattr(mod, attr, self._wrap(fn, name))
            yield
        finally:
            for mod, attr, fn in originals:
                setattr(mod, attr, fn)
            self._pass_id = None

    def layer_totals(self, pass_id):
        """name -> {self_s, calls, minflt, stime} over one pass's spans.

        Self time is a span's duration minus the durations of its direct
        children; calls on one thread nest, so children never overlap.
        """
        child_s = defaultdict(float)
        for span in self.spans:
            if span.pass_id == pass_id and span.parent >= 0:
                child_s[span.parent] += span.end - span.start
        totals = defaultdict(lambda: {"self_s": 0.0, "calls": 0,
                                      "minflt": 0, "stime": 0.0})
        for idx, span in enumerate(self.spans):
            if span.pass_id != pass_id:
                continue
            t = totals[span.name]
            t["self_s"] += span.end - span.start - child_s[idx]
            t["calls"] += 1
            t["minflt"] += span.minflt
            t["stime"] += span.stime
        return totals

    def pass_metrics(self, pass_id):
        """Flat per-layer metrics of one pass.

        Every span name yields ``<name>.self_ms``, ``<name>.calls`` and
        ``<name>.minflt``, zero when the span never ran in the pass.
        """
        totals = self.layer_totals(pass_id)
        out = {}
        for name in SPAN_NAMES:
            t = totals.get(name, {"self_s": 0.0, "calls": 0, "minflt": 0})
            out[f"{name}.self_ms"] = t["self_s"] * 1000.0
            out[f"{name}.calls"] = t["calls"]
            out[f"{name}.minflt"] = t["minflt"]
        for key, _ in COUNTERS.values():
            out[key] = self.counters[pass_id].get(key, 0)
        calls = out["descriptors.extract.calls"]
        out["descriptors.extract.unique_ratio"] = (
            len(self.extract_inputs[pass_id]) / calls if calls else 0.0)
        return out

    def write(self, path):
        """Write every span as one JSON object per line, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=3) as f:
            for idx, s in enumerate(self.spans):
                f.write(json.dumps({
                    "id": idx, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "pass": s.pass_id,
                    "minflt": s.minflt, "stime": s.stime}) + "\n")

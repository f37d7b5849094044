"""Command-line entry point.

Subcommands: filter, extract, classify, experiment, sweep, gen-synthetic.
Exit codes: 0 success, 1 experiment-row failure, 2 usage/config error.
Timings come from the benchmark, `python3 perfbench/run.py --trace 1`.
"""

import argparse
import contextlib
import csv
import os
import sys

import numpy as np

from . import descriptors, harness
from .classify import ReferenceSet, _check_labels, chi2_matrix, evaluate
from .image import load_image, save_csv_matrix, save_pgm
from .retina import BfParams, bf_preprocess
from .synthetic import (DEFAULT_CLASSES, DEFAULT_PER_CLASS, DEFAULT_SIZE,
                        generate_suite)

EXIT_OK = 0
EXIT_ROW_FAILURE = 1
EXIT_USAGE = 2


def _add_bf_flags(p):
    d = BfParams()
    p.add_argument("--sigma1", type=float, default=d.sigma1,
                   help="photoreceptor blur std-dev (default %(default)s)")
    p.add_argument("--sigma2", type=float, default=d.sigma2,
                   help="horizontal-cell blur std-dev (default %(default)s)")
    p.add_argument("--epsilon", type=float, default=d.epsilon,
                   help="uniform-region stability threshold (default %(default)s)")


def _add_descriptor_flags(p):
    d = descriptors.DescriptorConfig()
    p.add_argument("--family", choices=descriptors.FAMILIES, default=d.family)
    p.add_argument("--scheme", default=d.scheme,
                   help="combination scheme for clbp/clbc (default %(default)s)")
    p.add_argument("--p", type=int, default=d.p, help="neighbor count")
    p.add_argument("--r", type=float, default=d.r, help="neighborhood radius")
    p.add_argument("--ltp-t", type=float, default=d.ltp_t,
                   help="ternary threshold (default %(default)s)")


def cmd_filter(args):
    params = BfParams(args.sigma1, args.sigma2, args.epsilon)
    maps = bf_preprocess(load_image(args.input), params)
    for img, path in ((maps.plus, args.output_plus),
                      (maps.minus, args.output_minus)):
        save_pgm(img, path)
        save_csv_matrix(img, os.path.splitext(path)[0] + ".csv")
    return EXIT_OK


def cmd_extract(args):
    # classify refuses a negative label, so no row may carry one
    if args.label < 0:
        raise ValueError(f"--label must be >= 0, got {args.label}")
    config = harness.ExperimentConfig(
        manifest_path=None, preprocessors=(args.preproc,),
        descriptor=descriptors.DescriptorConfig(
            family=args.family, scheme=args.scheme, p=args.p, r=args.r,
            ltp_t=args.ltp_t),
        bf_params=BfParams(args.sigma1, args.sigma2, args.epsilon))
    rows = []
    for path in args.input:
        hist = descriptors.extract(harness.apply_preprocessor(
            load_image(path), args.preproc, config), config.descriptor)
        rows.append([os.path.basename(path), str(args.label)]
                    + [repr(float(v)) for v in hist])
    with (open(args.out, "w", newline="") if args.out
          else contextlib.nullcontext(sys.stdout)) as out:
        csv.writer(out, lineterminator="\n").writerows(rows)
    return EXIT_OK


def _read_feature_csv(path):
    """(ids, labels, features) of a feature CSV; a malformed row raises a
    ValueError naming its file and line, and a file without rows one
    naming the file."""
    ids, labels, feats = [], [], []
    with open(path, newline="") as f:
        for lineno, row in enumerate(csv.reader(f), start=1):
            if not row:
                continue
            where = f"{path}:{lineno}"
            if len(row) < 2:
                raise ValueError(f"{where}: expected '<id>,<label>,<bin>,...'")
            if feats and len(row) != len(feats[0]) + 2:
                raise ValueError(f"{where}: {len(row)} fields, but the first "
                                 f"row has {len(feats[0]) + 2}")
            try:
                labels.append(int(row[1]))
            except ValueError:
                raise ValueError(f"{where}: non-integer label "
                                 f"{row[1]!r}") from None
            try:
                feats.append([float(v) for v in row[2:]])
            except ValueError as exc:
                raise ValueError(f"{where}: non-numeric bin ({exc})") from None
            ids.append(row[0])
    if not feats:
        raise ValueError(f"{path}: no feature rows")
    return ids, np.asarray(labels), np.asarray(feats)


def cmd_classify(args):
    _, ref_labels, ref_feats = _read_feature_csv(args.refs)
    ids, q_labels, q_feats = _read_feature_csv(args.queries)
    refs = ReferenceSet(ref_feats, ref_labels)
    dist = chi2_matrix(q_feats, refs)
    nearest = np.argmin(dist, axis=1)
    # the confusion matrix is indexed by raw label value, so it is built
    # only on request: a label of 3000000 would make it 65.5 TiB
    if args.confusion:
        acc, confusion = evaluate(dist, q_labels, refs.labels)
    else:
        _check_labels(q_labels, "query")
        acc = int(np.sum(refs.labels[nearest] == q_labels)) / len(q_labels)
    for i, j in enumerate(nearest):
        print(f"{ids[i]},{refs.labels[j]},{dist[i, j]:.6f}")
    print(f"accuracy,{acc:.6f}")
    if args.confusion:
        np.savetxt(args.confusion, confusion, fmt="%d", delimiter=",")
    return EXIT_OK


def _finish_report(report, out):
    text = report.to_csv(out)
    clean = [row for row in report.rows if row.snr == "clean"]
    if clean:
        print(f"{'preprocessor':<22}{'scheme':<10}{'mean acc':>10}{'std':>10}")
        for row in report.rows:
            std = "" if row.std_accuracy is None else f"{row.std_accuracy:.4f}"
            tag = row.preprocessor if row.snr == "clean" else \
                f"{row.preprocessor} snr={row.snr}"
            print(f"{tag:<22}{row.scheme:<10}{row.mean_accuracy:>10.4f}{std:>10}")
    if out:
        print(f"report written to {out}")
    for name, reason in report.failures:
        print(f"FAILED {name}: {reason}", file=sys.stderr)
    return EXIT_ROW_FAILURE if report.failures else EXIT_OK


def cmd_experiment(args):
    values = harness.parse_config_file(args.config)
    config = harness.build_experiment_config(
        values, base_dir=os.path.dirname(os.path.abspath(args.config)))
    return _finish_report(harness.run_experiment(config), args.out)


def cmd_sweep(args):
    values = harness.parse_config_file(args.config)
    harness.check_sweep_config(values)
    config = harness.build_experiment_config(
        values, base_dir=os.path.dirname(os.path.abspath(args.config)))
    grid = harness.build_sweep_grid(harness.parse_config_file(args.grid))
    return _finish_report(harness.sweep_bf_params(config, *grid), args.out)


def cmd_gen_synthetic(args):
    manifest = generate_suite(args.out_dir, n_classes=args.classes,
                              per_class=args.per_class, size=args.size,
                              seed=args.seed)
    print(f"wrote {manifest}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bftex",
        description="Retina-inspired band-pass preprocessing and LBP-family "
                    "texture classification toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("filter", help="band-pass filter an image into ON/OFF maps")
    p.add_argument("--input", required=True)
    p.add_argument("--output-plus", required=True)
    p.add_argument("--output-minus", required=True)
    _add_bf_flags(p)
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("extract", help="extract descriptor histograms")
    p.add_argument("--input", nargs="+", required=True)
    p.add_argument("--label", type=int, default=0)
    p.add_argument("--preproc", choices=tuple(harness.PREPROCESSORS),
                   default="bf")
    p.add_argument("--out", help="CSV output (default stdout)")
    _add_descriptor_flags(p)
    _add_bf_flags(p)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("classify", help="nearest-neighbor classify feature CSVs")
    p.add_argument("--refs", required=True, help="reference feature CSV")
    p.add_argument("--queries", required=True, help="query feature CSV")
    p.add_argument("--confusion", help="write the confusion matrix here")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("experiment", help="run a configured experiment")
    p.add_argument("--config", required=True)
    p.add_argument("--out", help="report CSV path")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("sweep", help="sweep band-pass filter parameters")
    p.add_argument("--config", required=True)
    p.add_argument("--grid", required=True)
    p.add_argument("--out", help="report CSV path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("gen-synthetic", help="generate the synthetic suite")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--classes", type=int, default=DEFAULT_CLASSES)
    p.add_argument("--per-class", type=int, default=DEFAULT_PER_CLASS)
    p.add_argument("--size", type=int, default=DEFAULT_SIZE)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gen_synthetic)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
    except (OSError, ValueError) as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_USAGE
    sys.exit(code)


if __name__ == "__main__":
    main()

"""Command-line entry point.

Subcommands: filter, extract, classify, bench, experiment, sweep,
gen-synthetic.  Exit codes: 0 success, 1 experiment-row failure,
2 usage/config error.
"""

import argparse
import csv
import os
import sys
import time

import numpy as np

from . import descriptors, harness
from .classify import ReferenceSet, nearest, score
from .image import load_image, save_csv_matrix, save_pgm
from .retina import (DEFAULT_EPSILON, DEFAULT_SIGMA1, DEFAULT_SIGMA2,
                     BfParams, bf_preprocess)
from .synthetic import (DEFAULT_CLASSES, DEFAULT_PER_CLASS, DEFAULT_SIZE,
                        generate_suite)

EXIT_OK = 0
EXIT_ROW_FAILURE = 1
EXIT_USAGE = 2


def _add_bf_flags(p):
    p.add_argument("--sigma1", type=float, default=DEFAULT_SIGMA1,
                   help="photoreceptor blur std-dev (default %(default)s)")
    p.add_argument("--sigma2", type=float, default=DEFAULT_SIGMA2,
                   help="horizontal-cell blur std-dev (default %(default)s)")
    p.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON,
                   help="uniform-region stability threshold (default %(default)s)")


def _add_descriptor_flags(p):
    p.add_argument("--family", choices=descriptors.FAMILIES, default="lbp")
    p.add_argument("--scheme", default="S",
                   help="combination scheme for clbp/clbc (default %(default)s)")
    p.add_argument("--p", type=int, default=8, help="neighbor count")
    p.add_argument("--r", type=float, default=1.0, help="neighborhood radius")
    p.add_argument("--ltp-t", type=float, default=descriptors.DEFAULT_LTP_T,
                   help="ternary threshold (default %(default)s)")


def _bf_params(args):
    try:
        return BfParams(sigma1=args.sigma1, sigma2=args.sigma2,
                        epsilon=args.epsilon)
    except ValueError as exc:
        raise SystemExit(_usage_error(str(exc)))


def _usage_error(message):
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def cmd_filter(args):
    maps = bf_preprocess(load_image(args.input), _bf_params(args))
    for img, path in ((maps.plus, args.output_plus),
                      (maps.minus, args.output_minus)):
        save_pgm(img, path)
        save_csv_matrix(img, os.path.splitext(path)[0] + ".csv")
    return EXIT_OK


def cmd_extract(args):
    config = descriptors.DescriptorConfig(family=args.family,
                                          scheme=args.scheme, p=args.p,
                                          r=args.r, ltp_t=args.ltp_t)
    rows = []
    for path in args.input:
        img = load_image(path)
        source = bf_preprocess(img, _bf_params(args)) if args.preproc == "bf" else img
        hist = descriptors.extract(source, config)
        rows.append([os.path.basename(path), str(args.label)]
                    + [repr(float(v)) for v in hist.bins])
    out = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerows(rows)
    finally:
        if args.out:
            out.close()
    return EXIT_OK


def _read_feature_csv(path):
    ids, labels, feats = [], [], []
    with open(path, newline="") as f:
        for row in csv.reader(f):
            if not row:
                continue
            ids.append(row[0])
            labels.append(int(row[1]))
            feats.append([float(v) for v in row[2:]])
    return ids, np.asarray(labels), np.asarray(feats)


def cmd_classify(args):
    _, ref_labels, ref_feats = _read_feature_csv(args.refs)
    ids, q_labels, q_feats = _read_feature_csv(args.queries)
    refs = ReferenceSet(ref_feats, ref_labels)
    predicted, dists = nearest(q_feats, refs)
    acc, confusion = score(predicted, q_labels, refs)
    for sid, pred, dist in zip(ids, predicted, dists):
        print(f"{sid},{pred},{dist:.6f}")
    print(f"accuracy,{acc:.6f}")
    if args.confusion:
        np.savetxt(args.confusion, confusion, fmt="%d", delimiter=",")
    return EXIT_OK


def cmd_bench(args):
    rng = np.random.Generator(np.random.Philox(key=0))
    images = [rng.random((args.size, args.size)) for _ in range(args.count)]
    params = BfParams()
    t0 = time.perf_counter()
    maps = [bf_preprocess(img, params) for img in images]
    bf_total = time.perf_counter() - t0
    print(f"BF preprocessing: {args.count} images of {args.size}x{args.size}: "
          f"{bf_total:.3f}s total, {bf_total * 1000 / args.count:.3f} ms/image")
    print(f"{'method':<22}{'ms/image':>10}{'feat size':>11}")
    bench_set = [("LBP", "lbp", "S", False),
                 ("BF + LBP", "lbp", "S", True),
                 ("CLBP_S_M/C", "clbp", "S_M/C", False),
                 ("CLBP_S/M", "clbp", "S/M", False)]
    n_timed = min(args.count, 50)
    for p in (16, 24):
        r = 2.0 if p == 16 else 3.0
        for label, family, scheme, on_maps in bench_set:
            config = descriptors.DescriptorConfig(family=family, scheme=scheme,
                                                  p=p, r=r)
            sources = maps[:n_timed] if on_maps else images[:n_timed]
            t0 = time.perf_counter()
            hists = [descriptors.extract(s, config) for s in sources]
            ms = (time.perf_counter() - t0) * 1000 / n_timed
            print(f"{label + f'_P={p}':<22}{ms:>10.3f}{len(hists[0].bins):>11}")
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
    config = harness.build_experiment_config(
        values, base_dir=os.path.dirname(os.path.abspath(args.config)))
    grid = harness.parse_config_file(args.grid)
    def axis(key, default):
        if key not in grid:
            return default
        return tuple(float(v) for v in grid[key].split(","))
    report = harness.sweep_bf_params(
        config,
        axis("sigma1", (0.5, 0.75, 1.0, 1.25, 1.5)),
        axis("sigma2", (2.0, 3.0, 4.0, 5.0, 6.0)),
        axis("epsilon", (0.05, 0.1, 0.15, 0.2, 0.25, 0.3)))
    return _finish_report(report, args.out)


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
    p.add_argument("--preproc", choices=("none", "bf"), default="bf")
    p.add_argument("--out", help="CSV output (default stdout)")
    _add_descriptor_flags(p)
    _add_bf_flags(p)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("classify", help="nearest-neighbor classify feature CSVs")
    p.add_argument("--refs", required=True, help="reference feature CSV")
    p.add_argument("--queries", required=True, help="query feature CSV")
    p.add_argument("--confusion", help="write the confusion matrix here")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("bench", help="time preprocessing and descriptors")
    p.add_argument("--size", type=int, choices=(128, 200), default=128)
    p.add_argument("--count", type=int, default=1000)
    p.set_defaults(func=cmd_bench)

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
    except SystemExit:
        raise
    except harness.ConfigError as exc:
        code = _usage_error(str(exc))
    except (OSError, ValueError) as exc:
        code = _usage_error(str(exc))
    sys.exit(code)


if __name__ == "__main__":
    main()

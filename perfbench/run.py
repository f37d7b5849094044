"""bftex benchmark: two workloads, end-to-end metrics and a traced run.

Usage (from the repository root):

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1]

One process, no worker threads.  Each workload sets up its inputs several
times (``setup_s`` is the import time plus the median set-up), runs one
first pass and then further passes while the next one is expected to end
within ``--seconds`` of the first pass's start (at least three), and checks
every pass's outputs.  With ``--trace 0`` the last line of standard output
is a JSON object with the end-to-end metrics listed in BENCHMARK.json; with
``--trace 1`` the run alternates untraced and traced passes and the JSON
object carries the per-layer metrics.  The exit code is 0 only when every
output check passed.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass  # noqa: E402

# Numbers should measure the program, not the thread scheduler: pin every
# BLAS/OpenMP pool to one thread before numpy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

DEFAULT_SEED = 0
SETUP_REPEATS = 5
MIN_LATER_PASSES = 3   # untraced passes after the first
MIN_TRACED_PASSES = 2  # of each kind, in a traced run


def import_program():
    """Import bftex from this checkout's sources, never an installed copy."""
    package = os.path.join(SRC, "bftex")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        raise SystemExit(f"error: bftex sources not found in {package}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import bftex
    if os.path.realpath(os.path.dirname(bftex.__file__)) != os.path.realpath(package):
        raise SystemExit(f"error: imported bftex from {bftex.__file__}, "
                         f"not from {package}")
    return bftex


@dataclass
class Pass:
    traced: bool
    wall_s: float
    cpu_s: float       # user + system time of the process
    minflt: int
    stime_s: float
    entries: list
    digest: str


# tracer and workloads import bftex, so they are imported inside the
# functions, after import_program() has put this checkout's src/ on the path.

def _timed_pass(workload, state, tracer, index):
    from tracer import wrapped_targets
    if tracer is None and wrapped_targets():
        raise RuntimeError(f"untraced pass with wrappers installed: "
                           f"{wrapped_targets()}")
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    with tracer.active(str(index)) if tracer else nullcontext():
        produced = workload.run_pass(state)
    wall = time.perf_counter() - t0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    entries, digest = workload.check(state, produced)
    return Pass(tracer is not None, wall,
                ru1.ru_utime + ru1.ru_stime - ru0.ru_utime - ru0.ru_stime,
                ru1.ru_minflt - ru0.ru_minflt, ru1.ru_stime - ru0.ru_stime,
                entries, digest)


def count_failures(passes, pinned_digest):
    """(attempted, failed) operations over all passes.

    An operation fails when its pass reported it failed, when it differs
    from the same operation in the first pass, or when its pass's output
    digest differs from the pinned one (then every operation of the pass
    counts as failed).
    """
    reference = passes[0].entries
    attempted = failed = 0
    for p in passes:
        attempted += len(p.entries)
        if pinned_digest is not None and p.digest != pinned_digest:
            failed += len(p.entries)
            continue
        failed += sum(e is None or e != r for e, r in zip(p.entries, reference))
    return attempted, failed


@dataclass
class Result:
    workload: str
    attempted: int
    failed: int
    metrics: dict      # every metric this run computed, by name
    notes: list        # extra lines for the human-readable report


def run_workload(workload, seed, seconds, trace, workdir, pinned_digest,
                 import_s):
    from tracer import Tracer
    tracer = Tracer() if trace else None
    setup_s = []
    for k in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        with tracer.active(f"setup{k}") if tracer else nullcontext():
            t0 = time.perf_counter()
            state = workload.setup(workdir, seed)
            setup_s.append(time.perf_counter() - t0)

    # The first pass is traced in a traced run, so that first-pass
    # counters exist; later passes alternate untraced and traced.  A pass
    # starts only when it is expected to end, with its check, within
    # `seconds` of the first pass's start, so a run's length does not grow
    # with the length of a pass.
    passes = []
    deadline = time.perf_counter() + seconds
    last_s = 0.0  # the previous pass with its check
    while True:
        later = passes[1:]
        n_traced = sum(p.traced for p in later)
        n_plain = len(later) - n_traced
        if trace:
            enough = n_traced >= MIN_TRACED_PASSES and n_traced == n_plain
        else:
            enough = n_plain >= MIN_LATER_PASSES
        if enough and time.perf_counter() + last_s > deadline:
            break
        traced = trace and (not passes or n_traced < n_plain)
        t0 = time.perf_counter()
        passes.append(_timed_pass(workload, state,
                                  tracer if traced else None, len(passes)))
        last_s = time.perf_counter() - t0

    attempted, failed = count_failures(passes, pinned_digest)
    plain = [p for p in passes[1:] if not p.traced]
    # The mean, not the median, of the later passes: the host's speed
    # drifts in spells of seconds to minutes, and the mean integrates over
    # every spell of the run where the median picks one pass's.
    pass_s = statistics.fmean(p.wall_s for p in plain)
    metrics = {
        "setup_s": import_s + statistics.median(setup_s),
        "first_pass_s": passes[0].wall_s,
        "pass_s": pass_s,
        "items_per_s": workload.items_per_pass / pass_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fail_frac": failed / attempted,
    }
    notes = [f"set-up: import {import_s:.3f} s, inputs " + ", ".join(
                 f"{s:.3f}" for s in setup_s) + " s",
             f"passes: 1 first + {len(plain)} later untraced"
             + (f" + {len(passes) - 1 - len(plain)} traced" if trace else ""),
             f"items per pass: {workload.items_per_pass} classified queries",
             f"output sha256 (first pass): {passes[0].digest}"
             + ("" if pinned_digest is None else
                f" (pinned {'match' if passes[0].digest == pinned_digest else 'MISMATCH'})")]
    notes.append(f"page faults / system time: first pass {passes[0].minflt} / "
                 f"{passes[0].stime_s:.3f} s, later untraced median "
                 f"{_median(p.minflt for p in plain)} / "
                 f"{statistics.median(p.stime_s for p in plain):.3f} s")
    notes.append("pass wall/cpu s: " + ", ".join(
        f"{p.wall_s:.3f}/{p.cpu_s:.3f}{'t' if p.traced else ''}" for p in passes))
    if trace:
        metrics.update(_layer_metrics(tracer, passes, plain))
        tracer.write(workdir + ".spans.jsonl.gz")
        notes.append(f"spans: {len(tracer.spans)} written to "
                     f"{os.path.relpath(workdir, ROOT)}.spans.jsonl.gz")
    shutil.rmtree(workdir, ignore_errors=True)
    return Result(workload.name, attempted, failed, metrics, notes)


def _median(values):
    """Median; counts stay whole numbers (the lower middle value)."""
    values = list(values)
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def _layer_metrics(tracer, passes, plain):
    traced = [i for i, p in enumerate(passes) if i > 0 and p.traced]
    per_pass = [tracer.pass_metrics(str(i)) for i in traced]
    out = {k: _median(m[k] for m in per_pass) for k in per_pass[0]}
    out["synthetic.generate_suite.self_ms"] = statistics.median(
        tracer.pass_metrics(f"setup{k}")["synthetic.generate_suite.self_ms"]
        for k in range(SETUP_REPEATS))
    first = tracer.pass_metrics("0")
    out["classify.evaluate.first_pass_minflt"] = first["classify.evaluate.minflt"]
    out["proc.minflt"] = _median(p.minflt for p in plain)
    out["proc.stime_s"] = statistics.median(p.stime_s for p in plain)
    out["proc.first_pass.minflt"] = passes[0].minflt
    out["proc.first_pass.stime_s"] = passes[0].stime_s
    out["trace.pass_s"] = statistics.fmean(passes[i].wall_s for i in traced)
    out["trace.overhead_s"] = (out["trace.pass_s"]
                               - statistics.fmean(p.wall_s for p in plain))
    return out


def _git_commit():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(bftex, seed):
    import numpy
    import scipy
    return {"nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "bftex": bftex.__version__, "commit": _git_commit(), "seed": seed,
            "aslr_disabled": aslr_disabled(),
            "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def _fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def parse_args(argv, names):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=sorted(names) + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=None,
                    help="measured seconds per workload "
                         "(default: run_seconds from BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.seconds is not None and args.seconds < 0:
        ap.error("--seconds must be >= 0")
    return args


def main(argv=None, workloads=None, pinned=None):
    """Run the benchmark; returns the exit code.

    ``workloads`` and ``pinned`` (name -> digest for the default seed)
    replace the built-in workloads and BENCHMARK digests; the smoke test
    uses them to run tiny versions.
    """
    bftex = import_program()
    import_s = time.perf_counter() - _T0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if workloads is None:
        from workloads import WORKLOADS as workloads
    if pinned is None:
        with open(os.path.join(HERE, "expected_outputs.json")) as f:
            expected = json.load(f)
        pinned = expected["sha256"] if expected["seed"] == DEFAULT_SEED else {}
    args = parse_args(argv, workloads)
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    names = list(workloads) if args.workload == "all" else [args.workload]
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    # Printed with the bounded metrics, but not bounded themselves.
    units = dict(first_pass_s="s", fail_frac="ratio")
    shown = [m["name"] for m in wanted] + ([] if args.trace else list(units))
    units.update((m["name"], m["unit"]) for m in wanted)

    print("env: " + json.dumps(environment(bftex, args.seed), sort_keys=True))
    results = []
    for i, name in enumerate(names):
        result = run_workload(
            workloads[name], args.seed, seconds, args.trace,
            os.path.join(HERE, ".work", name),
            pinned.get(name) if args.seed == DEFAULT_SEED else None,
            import_s)
        results.append(result)
        for note in result.notes:
            print(f"[{name}] {note}")
        for metric in shown:
            if metric in result.metrics:
                print(f"[{name}] {metric} = {_fmt(result.metrics[metric])} "
                      f"{units[metric]}")
        print(f"[{name}] failed/attempted = {result.failed}/{result.attempted}"
              + (" (peak_rss_mb is the process peak so far)" if i else ""))

    metrics = {}
    for r in results:
        prefix = "" if len(results) == 1 else r.workload + "."
        for m in wanted:
            value = r.metrics[m["name"]]
            metrics[prefix + m["name"]] = {
                "value": value if isinstance(value, float) else int(value),
                "unit": m["unit"]}
    failed = sum(r.failed for r in results)
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r.attempted for r in results),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


ADDR_NO_RANDOMIZE = 0x0040000  # from <sys/personality.h>
QUERY_PERSONA = 0xFFFFFFFF


def _personality(persona):
    """personality(2): sets the execution domain, returns the previous one
    (-1 on error); QUERY_PERSONA only reads it."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.personality.argtypes = [ctypes.c_ulong]
    libc.personality.restype = ctypes.c_int
    return libc.personality(persona)


def aslr_disabled():
    """Whether this process runs with address-space randomisation off, or
    None when the personality flags cannot be read."""
    try:
        flags = _personality(QUERY_PERSONA)
    except (OSError, AttributeError):
        return None
    return None if flags == -1 else bool(flags & ADDR_NO_RANDOMIZE)


def reexec_fixed_layout():
    """Re-execute this script with address-space randomisation off and a
    fixed string-hash seed.

    The heap layout decides how many pages glibc malloc hands back to the
    kernel and faults in again on every pass: with both randomised, one
    noise_lbp8 pass of one seed took 0.35M, 0.57M or 0.92M minor page
    faults in three processes, a second of system time apart.  A fixed
    layout makes that cost repeat from run to run.  Where the personality
    flag cannot be set, the run goes on with randomisation and records it.
    """
    needed = os.environ.get("PYTHONHASHSEED") != "0"
    if aslr_disabled() is False:
        flags = _personality(QUERY_PERSONA)
        if _personality(flags | ADDR_NO_RANDOMIZE) != -1 and aslr_disabled():
            needed = True
    if needed:
        sys.stdout.flush()
        os.execve(sys.executable, sys.orig_argv,
                  dict(os.environ, PYTHONHASHSEED="0"))


if __name__ == "__main__":
    reexec_fixed_layout()
    sys.exit(main())

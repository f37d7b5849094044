"""Smoke test of the benchmark itself, on tiny versions of its workloads.

Run from the repository root (a few seconds):

    python3 -m pytest -q perfbench/smoke.py
"""

import json
import os
import sys
from dataclasses import replace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

run.import_program()

import bftex.cli  # noqa: E402
import bftex.harness  # noqa: E402
import tracer  # noqa: E402
from bftex.harness import NoiseSpec, SplitPolicy  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)

TINY = {
    "noise_lbp8": replace(
        WORKLOADS["noise_lbp8"], n_classes=2, per_class=4, size=24,
        split=SplitPolicy(mode="random", n_train=2, repeats=2, seed=42),
        noise=NoiseSpec(snr_levels=(5.0,), repeats=2, seed=7)),
    "match_clbp16": replace(
        WORKLOADS["match_clbp16"], n_classes=2, per_class=4, size=24,
        split=SplitPolicy(mode="random", n_train=2, repeats=2, seed=42)),
}


@pytest.fixture(autouse=True)
def _own_work_dir(tmp_path, monkeypatch):
    """Keep the smoke test's inputs out of perfbench/.work, where a real
    run of the benchmark may be working."""
    monkeypatch.setattr(run, "HERE", str(tmp_path))


def _run(capsys, trace, workloads=TINY, pinned=None, workload="all"):
    code = run.main(["--workload", workload, "--seconds", "0",
                     "--trace", str(trace)],
                    workloads=workloads, pinned=pinned or {})
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1]), lines[:-1]


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_every_metric_printed_with_unit(capsys, trace, section):
    code, result, lines = _run(capsys, trace)
    assert code == 0
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] > 0
    expected = {f"{w}.{m['name']}": m["unit"]
                for w in TINY for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    human = [m["name"] for m in SPEC[section]]
    if not trace:
        human.append("fail_frac")
    for w in TINY:
        for name in human:
            assert any(line.startswith(f"[{w}] {name} = ") for line in lines), \
                (w, name)


class _Probe:
    """A workload that records which targets are wrapped during each pass."""

    def __init__(self, inner):
        self._inner = inner
        self.wrapped = []

    def __getattr__(self, attr):
        return getattr(self._inner, attr)

    def run_pass(self, state):
        self.wrapped.append(tracer.wrapped_targets())
        return self._inner.run_pass(state)


@pytest.mark.parametrize("trace", [0, 1])
def test_untraced_passes_run_unwrapped(capsys, trace):
    probes = {name: _Probe(w) for name, w in TINY.items()}
    code, _, _ = _run(capsys, trace, workloads=probes)
    assert code == 0
    n_targets = len(tracer.TARGETS)
    for probe in probes.values():
        if trace:
            # traced first pass, then untraced and traced in turn
            assert [len(w) for w in probe.wrapped] == \
                [n_targets] + [0, n_targets] * ((len(probe.wrapped) - 1) // 2)
        else:
            assert probe.wrapped and all(w == [] for w in probe.wrapped)


def test_corrupted_report_counts_as_failure(capsys, monkeypatch):
    original = bftex.cli._finish_report
    calls = []

    def corrupting(report, out):
        code = original(report, out)
        calls.append(out)
        if len(calls) == 2:  # the second pass's report loses its last row
            with open(out) as f:
                lines = f.readlines()
            with open(out, "w") as f:
                f.writelines(lines[:-1])
        return code

    monkeypatch.setattr(bftex.cli, "_finish_report", corrupting)
    code, result, lines = _run(capsys, 0, workload="match_clbp16")
    assert code != 0
    assert result["correct"] is False and result["failed"] == 1
    assert f"[match_clbp16] fail_frac = {1 / result['attempted']:.6g} ratio" in lines


def test_nonzero_exit_fails_every_row_of_its_pass(capsys, monkeypatch):
    original = bftex.cli._finish_report
    calls = []

    def failing_once(report, out):
        code = original(report, out)
        calls.append(out)
        return 1 if len(calls) == 3 else code

    monkeypatch.setattr(bftex.cli, "_finish_report", failing_once)
    code, result, _ = _run(capsys, 0, workload="match_clbp16")
    assert code != 0
    assert result["failed"] == len(TINY["match_clbp16"].row_keys)


def test_wrong_accuracy_counts_as_failure(capsys, monkeypatch):
    original = bftex.harness.evaluate
    calls = []

    def wrong_once(*args):
        acc, confusion = original(*args)
        calls.append(acc)
        return (0.5 if len(calls) == 9 else acc), confusion

    monkeypatch.setattr(bftex.harness, "evaluate", wrong_once)
    code, result, _ = _run(capsys, 0, workload="noise_lbp8")
    assert code != 0 and result["failed"] == 1


def test_pinned_digest_mismatch_fails_every_operation(capsys):
    code, result, lines = _run(capsys, 0, workload="match_clbp16",
                               pinned={"match_clbp16": "0" * 64})
    assert code != 0
    assert result["failed"] == result["attempted"]
    assert "[match_clbp16] fail_frac = 1 ratio" in lines


def _bindings():
    return [getattr(mod, attr) for mod, attr, _ in tracer.TARGETS]


def test_traced_run_restores_originals(capsys):
    before = _bindings()
    code, _, _ = _run(capsys, 1)
    assert code == 0
    assert all(a is b for a, b in zip(_bindings(), before))
    assert tracer.wrapped_targets() == []


def test_tracer_restores_originals_after_error():
    before = _bindings()
    t = tracer.Tracer()
    with pytest.raises(ZeroDivisionError):
        with t.active("p"):
            assert len(tracer.wrapped_targets()) == len(tracer.TARGETS)
            1 / 0
    assert all(a is b for a, b in zip(_bindings(), before))


def test_self_time_excludes_children():
    t = tracer.Tracer()
    t.spans = [tracer.Span("a", 0.0, 10.0, -1, "p", 0, 0.0),
               tracer.Span("b", 1.0, 4.0, 0, "p", 0, 0.0),
               tracer.Span("c", 2.0, 3.0, 1, "p", 0, 0.0),
               tracer.Span("b", 5.0, 6.0, 0, "p", 0, 0.0)]
    totals = t.layer_totals("p")
    assert totals["a"]["self_s"] == pytest.approx(6.0)
    assert totals["b"]["self_s"] == pytest.approx(3.0)
    assert totals["b"]["calls"] == 2
    assert totals["c"]["self_s"] == pytest.approx(1.0)


def test_cli_path_reports_what_the_direct_call_reports(tmp_path):
    for w in TINY.values():
        results = []
        for via_cli in (False, True):
            workload = replace(w, via_cli=via_cli)
            workdir = tmp_path / f"{w.name}-{via_cli}"
            workdir.mkdir()
            state = workload.setup(str(workdir), 0)
            results.append(workload.check(state, workload.run_pass(state)))
        assert results[0] == results[1]
        assert None not in results[0][0]

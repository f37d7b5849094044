"""The benchmark's workloads.

Each workload generates its inputs with ``bftex.synthetic`` from the run's
seed (``setup``), runs one pass through bftex's public functions
(``run_pass``) and, outside the timed region, turns what the pass produced
into one entry per checked operation plus a SHA-256 digest of the output
bytes (``check``).  An entry is ``None`` when its operation failed; two
passes of one process must give equal entries.
"""

import contextlib
import hashlib
import io
import os
from dataclasses import dataclass

import bftex.cli
import bftex.harness
import bftex.synthetic
from bftex.descriptors import DescriptorConfig, feature_size
from bftex.harness import ExperimentConfig, NoiseSpec, SplitPolicy


def _cli_exit_code(argv):
    """Exit code of an in-process ``bftex`` invocation; its standard
    output (the accuracy table) is discarded."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            bftex.cli.main(argv)
    except SystemExit as exc:
        return exc.code
    return None  # main() always exits; returning is a failure


@dataclass(frozen=True)
class ExperimentWorkload:
    """An experiment on a generated suite; one operation per report row.

    With ``via_cli`` a pass is ``bftex experiment --config F --out R`` run
    in-process, as a user runs it; otherwise a direct ``run_experiment``.
    """

    name: str
    n_classes: int
    per_class: int
    size: int
    preprocessors: tuple
    descriptor: DescriptorConfig
    split: SplitPolicy
    noise: NoiseSpec = None
    via_cli: bool = False

    @property
    def row_keys(self):
        levels = self.noise.snr_levels if self.noise else ()
        snrs = ["clean"] + [f"{s:g}" for s in levels]
        return [(pre, snr) for pre in self.preprocessors for snr in snrs]

    @property
    def items_per_pass(self):
        """Classified queries per pass: every split and noise repeat
        classifies each test image once, per preprocessor."""
        n_test = self.n_classes * (self.per_class - self.split.n_train)
        rounds = self.split.repeats
        if self.noise:
            rounds += len(self.noise.snr_levels) * self.noise.repeats
        return len(self.preprocessors) * rounds * n_test

    def _config_text(self, manifest_path):
        """The experiment as a ``bftex experiment`` config file."""
        d, sp = self.descriptor, self.split
        lines = [f"manifest = {manifest_path}", f"suite = {self.name}",
                 f"preprocessor = {','.join(self.preprocessors)}",
                 f"family = {d.family}", f"scheme = {d.scheme}",
                 f"p = {d.p}", f"r = {d.r!r}", f"ltp_t = {d.ltp_t!r}",
                 f"mode = {sp.mode}", f"n_train = {sp.n_train}",
                 f"repeats = {sp.repeats}", f"seed = {sp.seed}"]
        if self.noise:
            lines += ["snr_levels = " + ",".join(map(repr, self.noise.snr_levels)),
                      f"noise_repeats = {self.noise.repeats}",
                      f"noise_seed = {self.noise.seed}"]
        return "\n".join(lines) + "\n"

    def setup(self, workdir, seed):
        manifest_path = bftex.synthetic.generate_suite(
            os.path.join(workdir, "suite"), n_classes=self.n_classes,
            per_class=self.per_class, size=self.size, seed=seed)
        if self.via_cli:
            config_path = os.path.join(workdir, "experiment.cfg")
            with open(config_path, "w") as f:
                f.write(self._config_text(manifest_path))
            return config_path, os.path.join(workdir, "report.csv")
        manifest = bftex.harness.load_manifest(manifest_path)
        config = ExperimentConfig(
            manifest_path=manifest_path, suite=self.name,
            preprocessors=self.preprocessors, descriptor=self.descriptor,
            split=self.split, noise=self.noise)
        return config, manifest

    def run_pass(self, state):
        """The report CSV text, or with ``via_cli`` the exit code."""
        if self.via_cli:
            config_path, report_path = state
            return _cli_exit_code(["experiment", "--config", config_path,
                                   "--out", report_path])
        config, manifest = state
        return bftex.harness.run_experiment(config, manifest=manifest).to_csv()

    def check(self, state, produced):
        """A row fails when it is missing (a failure row took its place),
        or has the wrong feature size or an accuracy outside [0, 1]; with
        ``via_cli`` every row fails when the exit code is not 0.  The
        CLI's report file is read back and deleted."""
        text, code = produced, 0
        if self.via_cli:
            code, report_path = produced, state[1]
            try:
                with open(report_path) as f:
                    text = f.read()
                os.remove(report_path)
            except OSError:
                text = ""
        rows = {}
        for line in text.splitlines()[1:]:
            fields = line.split(",")
            rows[(fields[1], fields[6])] = fields
        entries = []
        for pre, snr in self.row_keys:
            fields = rows.get((pre, snr))
            ok = (code == 0 and fields is not None
                  and int(fields[9]) == feature_size(self.descriptor,
                                                     on_maps=pre == "bf")
                  and 0.0 <= float(fields[7]) <= 1.0)
            entries.append(",".join(fields) if ok else None)
        return entries, hashlib.sha256(text.encode()).hexdigest()


# Why each workload is here is recorded in BENCHMARK.json and README.md.
# Split and noise seeds are the acceptance gate's criterion-6 values; only
# the suite comes from the run's seed.
WORKLOADS = {w.name: w for w in (
    ExperimentWorkload(
        name="noise_lbp8",
        n_classes=8, per_class=20, size=64, preprocessors=("bf", "none"),
        descriptor=DescriptorConfig(family="lbp", p=8, r=1.0),
        split=SplitPolicy(mode="random", n_train=10, repeats=10, seed=42),
        noise=NoiseSpec(snr_levels=(5.0,), repeats=10, seed=7)),
    ExperimentWorkload(
        name="match_clbp16",
        n_classes=9, per_class=40, size=64, preprocessors=("bf", "dog"),
        descriptor=DescriptorConfig(family="clbp", scheme="S/M/C",
                                    p=16, r=2.0),
        split=SplitPolicy(mode="random", n_train=20, repeats=12, seed=42),
        via_cli=True),
)}

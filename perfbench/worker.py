"""The measuring process: one fresh interpreter runs one workload.

``worker.py setup FILE...`` imports qqsp, parses the scenario files and
prints the seconds that took. ``worker.py measure ...`` runs the timed
passes (``--trace 0``) or the traced pass (``--trace 1``) and prints one
JSON object. ``run.py`` starts both with ``PYTHONPATH`` pointing at the
checkout's ``src`` and the BLAS thread count pinned.

Only the standard library is imported at module level, so a setup
measurement starts before numpy and qqsp are loaded.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import re
import resource
import statistics
import sys
import time
from pathlib import Path

DOCUMENTED_STATUSES = (0, 2, 3, 4)
SIDECAR_LINE = re.compile(r"^(\w+): ([0-9.eE+-]+) s$")   # "<stage>: <seconds> s"


def setup_main(files: list[str]) -> None:
    started = time.perf_counter()
    import qqsp  # noqa: F401  (the import is what is being timed)
    from qqsp.scenarios import scenario_from_file

    for path in files:
        scenario_from_file(path)
    print(repr(time.perf_counter() - started))


def _checked(written: list[str], reference: dict | None) -> list[str]:
    """Output-check problems of a run whose first written file is its report."""
    from check import check_report

    try:
        return check_report(json.loads(Path(written[0]).read_text()), reference)
    except (OSError, IndexError, KeyError, TypeError, ValueError) as exc:
        return [f"report not readable by the check: {type(exc).__name__}: {exc}"]


class Runner:
    """Runs scenario files through ``qqsp.cli.main`` and checks each result."""

    def __init__(self, cli, out_dir: Path, fmt: str, seed: int, reference: dict):
        self.cli = cli
        self.out_dir = out_dir
        self.fmt = fmt
        self.seed = seed
        self.reference = reference
        self.digests: dict = {}     # scenario -> digest of its first outputs
        self.attempted = 0
        self.failed: set = set()     # scenarios with at least one failed run
        self.failed_runs = 0
        self.problems: list[str] = []
        self.bytes_written: dict = {}   # scenario -> bytes of its report files

    def call(self, path: Path):
        """(seconds, exit status or None, error text or None, written paths)."""
        argv = ["run", str(path), "--out-dir", str(self.out_dir), "--seed", str(self.seed),
                "--format", self.fmt]
        out = io.StringIO()
        started = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                status, error = self.cli.main(argv), None
        except Exception as exc:  # the benchmark counts the escape as a failed run
            status, error = None, f"{type(exc).__name__}: {exc}"
        return time.perf_counter() - started, status, error, out.getvalue().splitlines()

    def run_pass(self, paths) -> float:
        """Run every timed scenario once; returns the summed cli.main wall time."""
        gc.collect()   # garbage of the previous pass is not charged to this one
        total = 0.0
        for path in paths:
            seconds, status, error, written = self.call(path)
            total += seconds
            self.attempted += 1
            name = path.stem
            if error is not None or status != 0:
                problems = [f"{name}: exit status {status}, {error}"]
            elif name not in self.reference:
                problems = [f"{name}: no reference entry"]
            else:
                problems = _checked(written, self.reference[name])
                blobs = [Path(p).read_bytes() for p in written]
                self.bytes_written[name] = sum(len(b) for b in blobs)
                digest = hashlib.sha256(b"\0".join(blobs)).hexdigest()
                if self.digests.setdefault(name, digest) != digest:
                    problems.append(f"{name}: report bytes differ between passes")
            if problems:
                self.failed.add(name)
                self.failed_runs += 1
                self.problems.extend(problems)
        return total

    def run_probe(self, path: Path) -> str | None:
        """Run the failure probe; returns why it failed, or None."""
        _, status, error, written = self.call(path)
        if error is not None:
            return error
        if status not in DOCUMENTED_STATUSES:
            return f"undocumented exit status {status}"
        if status == 0:
            return "; ".join(_checked(written, None)) or None
        return None

    def stage_seconds(self, paths) -> dict:
        """Per-stage seconds of the last pass, summed over scenarios, from the sidecars.

        Lines of another form, which a richer sidecar may add, are skipped.
        """
        totals: dict = {}
        for path in paths:
            sidecar = self.out_dir / f"{path.stem}.timings.txt"
            lines = sidecar.read_text().splitlines() if sidecar.is_file() else []
            for match in filter(None, map(SIDECAR_LINE.match, lines)):
                stage, value = match.groups()
                totals[stage] = totals.get(stage, 0.0) + float(value)
        return totals


def _repeat(step, seconds: float) -> list:
    """Results of ``step()`` called until ``seconds`` have elapsed (at least once)."""
    results = []
    started = time.perf_counter()
    while not results or time.perf_counter() - started < seconds:
        results.append(step())
    return results


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1e3   # Linux reports KiB


def measure_untraced(runner: Runner, paths, probe: Path | None, seconds: float) -> dict:
    """A cold pass (with its peak-memory growth), warm passes, then the probe."""
    baseline = _peak_rss_mb()
    cold = runner.run_pass(paths)
    peak_mb = _peak_rss_mb() - baseline
    warm = _repeat(lambda: runner.run_pass(paths), seconds)
    probe_error = runner.run_probe(probe) if probe is not None else None
    return {"cold": cold, "warm": warm, "peak_mb": peak_mb,
            "failed_scenarios": sorted(runner.failed), "digests": runner.digests,
            "probe": probe_error}


def measure_traced(runner: Runner, paths, seconds: float) -> dict:
    from qqsp.scenarios import scenario_from_file
    from tracer import Tracer

    with Tracer() as parse_trace:
        for path in paths:
            scenario_from_file(path)
    runner.run_pass(paths)   # warm-up, as before the timed passes
    untraced = _repeat(lambda: (runner.run_pass(paths), runner.stage_seconds(paths)),
                       seconds / 2)

    def traced_pass():
        with Tracer() as tracer:
            seconds = runner.run_pass(paths)
        return seconds, tracer.summary(), tracer.absent

    traced = _repeat(traced_pass, seconds / 2)
    summaries = [summary for _, summary, _ in traced]
    metrics = {}
    counts_repeat = True
    for key in summaries[0]:
        values = [s[key] for s in summaries]
        if key.endswith(("calls", "macs", "distinct_ratio")):
            metrics[key] = values[0]
            counts_repeat &= len(set(values)) == 1
        else:
            metrics[key] = statistics.median(values)
    metrics["scenarios.parse_scenario.s"] = parse_trace.summary()["scenarios.parse_scenario.s"]
    for stage in untraced[0][1]:
        metrics[f"scenarios.stage.{stage}.s"] = statistics.median(s[stage] for _, s in untraced)
    metrics["report.bytes_written"] = sum(runner.bytes_written.values())
    metrics["trace.overhead_s"] = (statistics.median(t for t, _, _ in traced)
                                   - statistics.median(t for t, _ in untraced))
    if not counts_repeat:
        runner.problems.append("call counts differ between traced passes of one run")
    return {"metrics": metrics,
            "samples": {"untraced_passes": len(untraced), "traced_passes": len(traced)},
            "absent": traced[0][2], "counts_repeat": counts_repeat}


def measure_main(argv) -> None:
    parser = argparse.ArgumentParser(prog="worker.py measure")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--fmt", required=True)
    parser.add_argument("--out-dir", type=Path, required=True)
    parser.add_argument("--probe", type=Path)
    parser.add_argument("files", type=Path, nargs="+")
    args = parser.parse_args(argv)

    import numpy
    import qqsp
    from qqsp import cli

    from check import load_reference

    runner = Runner(cli, args.out_dir, args.fmt, args.seed, load_reference())
    if args.trace:
        result = measure_traced(runner, args.files, args.seconds)
    else:
        result = measure_untraced(runner, args.files, args.probe, args.seconds)
    result.update({
        "attempted": runner.attempted,
        "failed": runner.failed_runs,
        "problems": runner.problems,
        "numpy": numpy.__version__,
        "qqsp_file": qqsp.__file__,
    })
    print(json.dumps(result))


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    if sys.argv[1:2] == ["setup"]:
        setup_main(sys.argv[2:])
    elif sys.argv[1:2] == ["measure"]:
        measure_main(sys.argv[2:])
    else:
        sys.exit("usage: worker.py setup FILE... | worker.py measure ...")

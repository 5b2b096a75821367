"""qqsp benchmark: one command runs a workload through ``qqsp.cli.main``,
checks every output and prints every metric by name with its unit.

    python3 perfbench/run.py --workload full-A --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --seed 1          # every workload, untraced and traced
    python3 perfbench/run.py --write-spec      # regenerate BENCHMARK.json

Run it from the repository root; it imports qqsp from ``src/``. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a separate
traced run. Workloads, metrics and bounds are defined in ``spec.py``.

Each measurement runs in fresh interpreters started from here, one at a
time, with the BLAS thread count pinned to ``BLAS_THREADS``: set-up
processes, and workers that each carry the whole load while they run.
Scratch files live in ``.perfbench_work/`` and are removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import spec  # noqa: E402
from workloads import write_scenarios  # noqa: E402

BLAS_THREADS = 1
SETUP_SAMPLES = 8
COLD_PROCESSES = 2
DEADLINE_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_child(args: list, deadline: float) -> str:
    """Run a worker to completion and return its standard output."""
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *map(str, args)],
                          env=child_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc.stdout


def src_line_count() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src" / "qqsp").glob("*.py")))


def worker(argv: list, deadline: float) -> dict:
    result = json.loads(run_child(["measure", *argv], deadline).strip().splitlines()[-1])
    if not Path(result["qqsp_file"]).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"measured a qqsp outside this checkout: {result['qqsp_file']}")
    return result


def measure(workload: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    work = ROOT / ".perfbench_work" / f"{workload}-{seed}-{trace}-{os.getpid()}"
    try:
        paths, probe, fmt = write_scenarios(workload, seed, work / "scenarios")
        common = ["--seed", seed, "--trace", trace, "--fmt", fmt, "--out-dir", work / "out"]
        if trace:
            result = worker([*common, "--seconds", seconds, *paths], deadline)
            result["correct"] = not result["problems"]
            return result
        return measure_end_to_end(paths, probe, common, seconds, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()


def measure_end_to_end(paths, probe, common: list, seconds: float, deadline: float) -> dict:
    """Set-up samples around ``COLD_PROCESSES`` fresh workers that share the warm time.

    Each worker's first pass is a cold pass, so cold_run_s and peak_mem_mb
    are medians over processes; run_s is the median of every warm pass.
    The last worker also runs the failure probe.
    """
    setup = []

    def sample_setup(count: int) -> None:
        for _ in range(count):
            setup.append(float(run_child(["setup", *paths], deadline).strip().splitlines()[-1]))

    sample_setup(SETUP_SAMPLES // 2)
    runs = []
    for k in range(COLD_PROCESSES):
        argv = [*common, "--seconds", seconds / COLD_PROCESSES]
        if probe is not None and k == COLD_PROCESSES - 1:
            argv += ["--probe", probe]
        runs.append(worker([*argv, *paths], deadline))
    sample_setup(SETUP_SAMPLES - len(setup))

    problems = [p for r in runs for p in r["problems"]]
    failed = set().union(*(r["failed_scenarios"] for r in runs))
    for name in runs[0]["digests"]:
        if len({r["digests"].get(name) for r in runs}) > 1:
            problems.append(f"{name}: report bytes differ between processes")
            failed.add(name)
    probe_error = runs[-1]["probe"]
    units = len(paths) + (probe is not None)
    failed_frac = (len(failed) + (probe_error is not None)) / units
    warm = [t for r in runs for t in r["warm"]]
    return {
        "metrics": {
            "setup_s": statistics.median(setup),
            "cold_run_s": statistics.median(r["cold"] for r in runs),
            "run_s": statistics.median(warm),
            "peak_mem_mb": statistics.median(r["peak_mb"] for r in runs),
            "ok_frac": 1.0 - failed_frac,
            "failed_frac": failed_frac,
        },
        "samples": {"setup_s": len(setup), "cold_run_s": len(runs), "run_s": len(warm),
                    "peak_mem_mb": len(runs), "ok_frac": units, "failed_frac": units},
        "pass_seconds": [[r["cold"], *r["warm"]] for r in runs],
        "probe": None if probe is None else (probe_error or "passed"),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "correct": not problems,
        "problems": problems,
        "numpy": runs[0]["numpy"],
    }


def report(workload: str, seed: int, seconds: float, trace: int, result: dict) -> dict:
    """Print the facts and a metric table; return the metrics of the final JSON line."""
    names = ([n for n, *_ in spec.END_TO_END] + ["failed_frac"] if not trace
             else [n for n, *_ in spec.PER_LAYER])
    metrics = {n: {"value": result["metrics"].get(n, 0), "unit": spec.UNITS.get(n, "ratio")}
               for n in names}
    facts = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": os.cpu_count(), "blas_threads": BLAS_THREADS,
        "python": platform.python_version(), "numpy": result["numpy"],
        "src_qqsp_lines": src_line_count(), "samples": result["samples"],
        "attempted": result["attempted"], "failed": result["failed"],
    }
    for key in ("pass_seconds", "probe", "absent", "counts_repeat"):
        if key in result:
            facts[key] = result[key]
    print("facts: " + json.dumps(facts, sort_keys=True))
    for problem in result["problems"][:20]:
        print(f"problem: {problem}")
    for name, m in metrics.items():
        n = result["samples"].get(name)
        print(f"{workload:9s} {name:45s} {m['value']:>16.6g} {m['unit']}"
              + (f"  (n={n})" if n else ""))
    if not trace:
        del metrics["failed_frac"]   # printed above; ok_frac carries it in the result
    return metrics


def main(argv=None) -> int:
    # A terminated benchmark raises SystemExit instead of dying at once, so
    # subprocess.run kills and reaps the running worker and scratch files go.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*spec.WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics, 1: per-layer metrics (default: both)")
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json from spec.py and exit")
    args = parser.parse_args(argv)
    if args.write_spec:
        print(spec.write_benchmark_json(ROOT))
        return 0
    if not (ROOT / "src" / "qqsp" / "__init__.py").is_file():
        print(f"error: no qqsp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = list(spec.WORKLOADS) if args.workload == "all" else [args.workload]
    traces = (0, 1) if args.trace is None else (args.trace,)
    deadline = time.monotonic() + DEADLINE_S * len(workloads) * len(traces)
    final = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        for trace in traces:
            try:
                result = measure(workload, args.seed, args.seconds, trace, deadline)
            except (RuntimeError, subprocess.TimeoutExpired) as exc:
                print(f"error: {workload} trace={trace}: {exc}", file=sys.stderr)
                return 1
            metrics = report(workload, args.seed, args.seconds, trace, result)
            prefix = "" if len(workloads) == 1 else f"{workload}/"
            final["metrics"].update({prefix + k: v for k, v in metrics.items()})
            final["correct"] &= result["correct"]
            final["attempted"] += result["attempted"]
            final["failed"] += result["failed"]
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())

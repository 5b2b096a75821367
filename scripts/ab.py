"""Compare the end-to-end benchmark metrics of two checkouts, run in alternation.

    python3 scripts/ab.py PARENT_DIR CHANGE_DIR --workload W [--workload W2 ...]
                          [--pairs K] [--label L]

For each workload, runs ``python3 perfbench/run.py --workload W --trace 0``
K times in each checkout, one run at a time and alternating which checkout
goes first in each pair, so every run takes the benchmark's own seed and run
length. It prints, per end-to-end metric of ``BENCHMARK.json``, the median
and quartiles of each side, the change/parent ratio of the medians, the
number of pairs in which the change was better and whether the change meets
the rule for claiming a gain (``gain_rule_met``): at least ten pairs, better
in at least nine tenths of them (a tie counts for neither side), and a median
better than the parent's by more than the distance between the parent's
quartiles. Beside it stands the no-regression verdict (``regression``): ``worse``
when the change's median is worse than the parent's by more than the metric's
``bound`` in ``BENCHMARK.json`` (a fraction of the parent's median);
``unresolved`` when it is not, but either side's interquartile distance passes
that fraction of the parent's median and not every change run beats every
parent run; ``ok`` otherwise. It writes those numbers,
every run's value, the command, the machine and both checkouts' ``src/qqsp``
line counts, per workload, to ``BENCH_<label>.json`` in the checkout this
script sits in. An existing file of that name keeps the workloads this run
does not measure.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def src_lines(checkout: Path) -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((checkout / "src" / "qqsp").glob("*.py")))


def command(workload: str) -> list[str]:
    return ["perfbench/run.py", "--workload", workload, "--trace", "0"]


def bench(checkout: Path, workload: str) -> dict:
    """The final JSON line of one untraced ``perfbench/run.py`` run in ``checkout``."""
    proc = subprocess.run([sys.executable, *command(workload)],
                          cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: perfbench exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method; one value is its own quartiles)."""
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def gain_rule_met(row: dict, pairs: int) -> bool:
    """Whether one metric's runs support claiming a gain: ten pairs or more, the change better
    in at least nine tenths of them, and the medians apart by more than the parent's
    interquartile distance, in the better direction."""
    parent, change = row["parent"], row["change"]
    gap = parent["median"] - change["median"]
    if row["better"] != "lower":
        gap = -gap
    return (pairs >= 10 and row["change_better_pairs"] >= 0.9 * pairs
            and gap > parent["q3"] - parent["q1"])


def regression(row: dict, bound: float) -> str:
    """One metric's no-regression verdict: 'worse' when the change's median is worse than
    the parent's by more than ``bound`` times the parent's median; else 'unresolved' when
    either side's interquartile distance is over that much and not every change run beats
    every parent run; else 'ok'."""
    parent, change = row["parent"], row["change"]
    sign = 1 if row["better"] == "lower" else -1   # > 0 below: the change is worse
    allowed = bound * abs(parent["median"])
    if sign * (change["median"] - parent["median"]) > allowed:
        return "worse"
    spread_out = any(side["q3"] - side["q1"] > allowed for side in (parent, change))
    beats_all = all(sign * (c - p) < 0 for c in change["runs"] for p in parent["runs"])
    return "unresolved" if spread_out and not beats_all else "ok"


def compare(dirs: dict, workload: str, pairs: int, metrics: list[dict]) -> dict:
    runs = {side: [] for side in SIDES}
    for k in range(pairs):
        for side in (SIDES if k % 2 == 0 else SIDES[::-1]):
            runs[side].append(bench(dirs[side], workload))
            print(f"  {workload} pair {k + 1}/{pairs}: {side} done", file=sys.stderr)
    out = {"pairs": pairs,
           "command": " ".join(command(workload)),
           "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                       "numpy": importlib.metadata.version("numpy"),
                       "platform": platform.platform()},
           "src_qqsp_lines": {side: src_lines(checkout) for side, checkout in dirs.items()},
           "correct": {side: all(r["correct"] for r in runs[side]) for side in SIDES},
           "metrics": {}}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
        better = sum((c < p) if lower else (c > p)
                     for p, c in zip(values["parent"], values["change"]))
        row = {"unit": metric["unit"], "better": metric["better"],
               **{side: spread(values[side]) for side in SIDES},
               "change_better_pairs": better}
        parent, change = row["parent"]["median"], row["change"]["median"]
        row["ratio"] = change / parent if parent else None
        row["gain_rule_met"] = gain_rule_met(row, pairs)
        row["regression"] = regression(row, metric["bound"])
        out["metrics"][name] = row
        print(f"{workload:9s} {name:12s} parent {parent:.4g} "
              f"[{row['parent']['q1']:.4g}, {row['parent']['q3']:.4g}]  "
              f"change {change:.4g} [{row['change']['q1']:.4g}, {row['change']['q3']:.4g}]  "
              f"ratio {'-' if row['ratio'] is None else format(row['ratio'], '.3f')}  "
              f"better {better}/{pairs}  gain rule {'met' if row['gain_rule_met'] else 'not met'}"
              f"  regression {row['regression']}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--label", default="ab")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    dirs = {side: getattr(args, side).resolve() for side in SIDES}
    for side, checkout in dirs.items():
        if not (checkout / "perfbench" / "run.py").is_file():
            parser.error(f"{side} checkout {checkout} has no perfbench/run.py")
    metrics = json.loads((dirs["change"] / "BENCHMARK.json").read_text())["end_to_end"]
    path = ROOT / f"BENCH_{args.label}.json"
    doc = json.loads(path.read_text()) if path.is_file() else {"workloads": {}}
    doc["label"] = args.label
    for workload in args.workload:
        try:
            doc["workloads"][workload] = compare(dirs, workload, args.pairs, metrics)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    doc["workloads"] = dict(sorted(doc["workloads"].items()))
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

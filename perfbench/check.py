"""Output check of one scenario run against the stored reference.

A timed run passes when ``qqsp.cli.main`` returns 0 without raising and its
report

* has exactly the reference verdicts (``reference.json``, recorded from the
  commit that introduced the benchmark and identical across seeds);
* has the reference omega-trajectory diagonals within ``TRAJECTORY_TOL``.
  For ``mixed`` seeds the reference is the exact law
  omega_t = 1/n + 2^-t (omega_0 - 1/n), which holds for both process types
  because the map is half constant at the maximally mixed state, half the
  symmetrized embedding; the builtins store their trajectories;
* keeps each stage's max residual under the scenario tolerance, for every
  stage whose reference verdict holds.

Report bytes are compared only between passes of the same run (the
determinism contract), never against the reference, because small
documented floating-point drift is allowed between versions.

Run this file to regenerate ``reference.json`` from the current code.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"
TRAJECTORY_TOL = 1e-10
RECONSTRUCTION_TOL = 1e-10   # the roundtrip_ok threshold in qqsp.scenarios

# stage -> verdict that says the stage's identities hold
STAGE_VERDICT = {"validate": "seed_valid", "kc": "kc_ok", "marginals": "composition_ok",
                 "axioms": "axioms_ok", "reconstruct": "roundtrip_ok"}


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def expected_trajectory(scenario: dict, reference: dict | None):
    if scenario["seed"].get("builtin") == "mixed":
        n, horizon = scenario["algebra"]["dim"], scenario["horizon"]
        state = scenario["initial_state"]
        w0 = [1.0 / n] * n if state.get("maximally_mixed") else state["diag"]
        return [[1.0 / n + 2.0 ** -t * (w - 1.0 / n) for w in w0] for t in range(horizon + 1)]
    return reference["omega_diagonals"] if reference else None


def stage_residuals(doc: dict) -> dict:
    """stage -> list of (label, max residual, tolerance)."""
    tol = doc["scenario"]["tolerances"]
    stages = doc["stages"]
    out = {}
    if "validate" in stages:
        rows = stages["validate"]["steps"]
        out["validate"] = [
            ("cp", max(max(0.0, -r["min_choi_eigenvalue"]) for r in rows), tol["cp"]),
            ("unital", max(r["unitality_residual"] for r in rows), tol["unital"]),
            ("flip", max(r["flip_residual"] for r in rows), tol["flip"]),
        ]
    if "kc" in stages:
        out["kc"] = [("kc", stages["kc"]["max"], tol["kc"])]
    if "marginals" in stages:
        m = stages["marginals"]
        out["marginals"] = [(k, v["max"], tol["markov"]) for k, v in m.items()
                            if k.startswith("composition_")]
        out["marginals"] += [(f"slice.{k}", v, tol["markov"]) for k, v in m["slices"].items()]
    if "axioms" in stages:
        out["axioms"] = [("axioms", stages["axioms"]["max_residual"], tol["axiom"])]
    if "reconstruct" in stages:
        r = stages["reconstruct"]
        out["reconstruct"] = [("max_map_deviation", r["max_map_deviation"], RECONSTRUCTION_TOL)]
        out["reconstruct"] += [(k, r[k], tol["axiom"]) for k in
                               ("conclusion_b_residual", "fundamental_equation_max",
                                "state_consistency_residual") if k in r]
    return out


def check_report(doc: dict, reference: dict | None) -> list[str]:
    """Problems found in one report document; empty means it passes.

    ``reference`` is None for the failure probe, which has no recorded
    verdicts; then every stage's residuals must hold.
    """
    problems = []
    name = doc["scenario"]["name"]
    if reference is not None and doc["verdicts"] != reference["verdicts"]:
        problems.append(f"{name}: verdicts {doc['verdicts']} != reference {reference['verdicts']}")
    want = expected_trajectory(doc["scenario"], reference)
    got = doc["stages"].get("propagate", {}).get("omega_diagonals")
    if want is not None:
        if got is None or len(got) != len(want):
            problems.append(f"{name}: omega trajectory has the wrong length")
        else:
            gap = max(abs(a - b) for row_g, row_w in zip(got, want) for a, b in zip(row_g, row_w))
            if gap > TRAJECTORY_TOL:
                problems.append(f"{name}: omega diagonals off by {gap:.3e} > {TRAJECTORY_TOL}")
    for stage, rows in stage_residuals(doc).items():
        if reference is not None and not reference["verdicts"].get(STAGE_VERDICT[stage], True):
            continue
        for label, value, tol in rows:
            if not value <= tol:
                problems.append(f"{name}: {stage}.{label} residual {value:.3e} > tolerance {tol}")
    return problems


def write_reference(seeds=(1, 2, 3)) -> None:
    """Record verdicts (and builtin trajectories) of every timed scenario.

    Each workload runs at several seeds; a verdict that differs between
    seeds cannot be a reference and aborts the write.
    """
    import tempfile

    from qqsp import cli
    from workloads import write_scenarios

    reference = {}
    scratch = HERE.parent / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        for workload in ("full-A", "full-B", "builtins"):
            for seed in seeds:
                paths, _, fmt = write_scenarios(workload, seed, Path(tmp) / "in")
                for path in paths:
                    status = cli.main(["run", str(path), "--out-dir", tmp, "--seed", str(seed),
                                       "--format", fmt])
                    doc = json.loads((Path(tmp) / f"{path.stem}.report.json").read_text())
                    entry = {"verdicts": doc["verdicts"]}
                    if doc["scenario"]["seed"].get("builtin") != "mixed":
                        entry["omega_diagonals"] = doc["stages"]["propagate"]["omega_diagonals"]
                    if status != 0:
                        sys.exit(f"{path.stem}: exit status {status}")
                    if reference.setdefault(path.stem, entry)["verdicts"] != entry["verdicts"]:
                        sys.exit(f"{path.stem}: verdicts differ between seeds")
                    problems = check_report(doc, reference[path.stem])
                    if problems:
                        sys.exit("\n".join(problems))
    REFERENCE_PATH.write_text(json.dumps(reference, sort_keys=True, indent=1) + "\n")


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))
    write_reference()

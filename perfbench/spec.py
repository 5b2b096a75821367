"""What the benchmark measures: workloads, metrics, bounds, and the
layer-metric -> end-to-end-metric -> workload table.

``BENCHMARK.json`` at the repository root is generated from this module by
``python3 perfbench/run.py --write-spec``; edit here, not there.
"""

from __future__ import annotations

import json
from pathlib import Path

RUN_SECONDS = 10

WORKLOADS = {
    "full-A": "mixed full type A at (n,T)=(2,12),(3,8),(4,6): dense n^4 maps and basis-probe E_omega dominate; "
              "plus the n=3 T=12 drift repro (known defect), counted in ok_frac, untimed",
    "full-B": "mixed full type B at (2,12),(3,8): the doubled law runs supermap_tensor in propagate, kc and h "
              "checks, and state_consistency_residual; a tensor-kernel change shows here, not on full-A",
    "builtins": "the seven named builtins with --format csv-bundle: n=2 and diagonal, T<=8, so per-call "
                "overhead, the classical bridge, permissive mode and JSON/CSV emission weigh most",
}

# name, unit, better, bound. ok_frac is 1 - failed_frac: the share of
# scenario runs that end with the expected exit status and pass the output
# check. It is reported instead of failed_frac because failed_frac is 0 on
# two workloads and a bounded metric must never read 0.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("cold_run_s", "s", "lower", 0.25),
    ("run_s", "s", "lower", 0.25),
    ("peak_mem_mb", "MB", "lower", 0.2),
    ("ok_frac", "ratio", "higher", 0.1),
]

_ALL = "full-A, full-B, builtins (most on full-A)"

# name, unit, better, end-to-end metric it should move, workload(s).
PER_LAYER = [
    ("algebra.expectation_supermap.calls", "count", "lower", "run_s", _ALL),
    ("algebra.expectation_supermap.self_s", "s", "lower", "run_s", _ALL),
    ("algebra.expectation_supermap.distinct_ratio", "ratio", "higher", "run_s", _ALL),
    ("algebra.conditional_expectation.calls", "count", "lower", "run_s", _ALL),
    ("linalg.supermatrix_from_function.calls", "count", "lower", "run_s", _ALL),
    ("linalg.supermatrix_from_function.self_s", "s", "lower", "run_s", _ALL),
    ("linalg.supermatrix_tensor.calls", "count", "lower", "run_s", "full-B (0 on full-A)"),
    ("linalg.supermatrix_tensor.self_s", "s", "lower", "run_s", "full-B (0 on full-A)"),
    ("algebra.supermap_tensor.calls", "count", "lower", "run_s", "full-B (0 on full-A)"),
    ("algebra.supermap_tensor.self_s", "s", "lower", "run_s", "full-B (0 on full-A)"),
    ("algebra.SuperMap.compose.calls", "count", "lower", "run_s, peak_mem_mb", "full-A"),
    ("algebra.SuperMap.compose.self_s", "s", "lower", "run_s, peak_mem_mb", "full-A"),
    ("algebra.SuperMap.compose.macs", "count", "lower", "run_s, peak_mem_mb", "full-A"),
    ("linalg.operator_norm.calls", "count", "lower", "run_s, peak_mem_mb", "full-A"),
    ("linalg.operator_norm.self_s", "s", "lower", "run_s, peak_mem_mb", "full-A"),
    ("linalg.choi_matrix.calls", "count", "lower", "run_s", "builtins"),
    ("linalg.choi_matrix.self_s", "s", "lower", "run_s", "builtins"),
    ("linalg.predual_matrix.calls", "count", "lower", "run_s", "builtins"),
    ("linalg.predual_matrix.self_s", "s", "lower", "run_s", "builtins"),
    ("linalg.trace_norm.calls", "count", "lower", "run_s", "builtins"),
    ("linalg.trace_norm.self_s", "s", "lower", "run_s", "builtins"),
    ("algebra.certify_unital_cp.self_s", "s", "lower", "run_s", "builtins"),
    ("algebra.State.init.calls", "count", "lower", "ok_frac (drift check)", "full-A"),
    ("process.validate_seed.s", "s", "lower", "run_s", "T=12 scenarios of full-A, full-B"),
    ("process.propagate.s", "s", "lower", "run_s", "T=12 scenarios of full-A, full-B"),
    ("process.kc_consistency.s", "s", "lower", "run_s", "T=12 scenarios of full-A, full-B"),
    ("marginal.build_Q.s", "s", "lower", "run_s", "full-A, full-B"),
    ("marginal.build_H.s", "s", "lower", "run_s", "full-A"),
    ("marginal.build_h.s", "s", "lower", "run_s", "full-B"),
    ("marginal.build_Z.s", "s", "lower", "run_s", "full-A"),
    ("marginal.build_z.s", "s", "lower", "run_s", "full-B"),
    ("marginal.check_markov.s", "s", "lower", "run_s", "full-A, full-B"),
    ("marginal.slice_residuals.s", "s", "lower", "run_s", "full-A, full-B"),
    ("marginal.reconstruct_qqsp.s", "s", "lower", "run_s", "full-A, full-B"),
    ("marginal.state_consistency_residual.s", "s", "lower", "run_s", "full-B"),
    ("marginal.verify_marginal_axioms.calls", "count", "lower", "run_s", "full-A, full-B"),
    ("marginal.verify_marginal_axioms.s", "s", "lower", "run_s", "full-A, full-B"),
    ("ergodic.ergodic_verdict.s", "s", "lower", "run_s", "builtins"),
    ("ergodic.decay_trace.s", "s", "lower", "run_s", "builtins"),
    ("ergodic.contraction_coefficient.s", "s", "lower", "run_s", "builtins"),
    ("classical.lift_to_quantum.s", "s", "lower", "run_s", "builtins"),
    ("classical.classical_validate.s", "s", "lower", "run_s", "builtins"),
    ("scenarios.parse_scenario.s", "s", "lower", "setup_s", "all"),
] + [
    (f"scenarios.stage.{stage}.s", "s", "lower", "run_s", "all (from the timings sidecar)")
    for stage in ("validate", "propagate", "kc", "marginals", "axioms", "reconstruct", "ergodic")
] + [
    ("report.emit_report.s", "s", "lower", "run_s", "builtins"),
    ("report.bytes_written", "bytes", "lower", "run_s", "builtins"),
    ("trace.overhead_s", "s", "lower", "none (traced minus untraced run_s)", "all"),
]

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b, _, _ in PER_LAYER],
    }


def write_benchmark_json(root: Path) -> Path:
    path = root / "BENCHMARK.json"
    path.write_text(json.dumps(benchmark_json(), indent=2) + "\n")
    return path

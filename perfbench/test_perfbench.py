"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from check import check_report, load_reference  # noqa: E402
from tracer import COUNT, SPAN, TARGETS, Tracer  # noqa: E402


def _bench(*args) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=HERE.parent,
                          capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_traced_counts_repeat_between_runs_of_one_seed():
    args = ["--workload", "builtins", "--seed", "3", "--seconds", "1", "--trace", "1"]
    first, second = _bench(*args), _bench(*args)
    assert first["correct"] and second["correct"]
    counts = [k for k, v in first["metrics"].items()
              if v["unit"] in ("count", "bytes") or k.endswith("distinct_ratio")]
    assert "algebra.SuperMap.compose.macs" in counts
    assert {k: first["metrics"][k]["value"] for k in counts} == \
        {k: second["metrics"][k]["value"] for k in counts}
    assert first["metrics"]["algebra.SuperMap.compose.macs"]["value"] > 0


def test_tensor_kernel_runs_only_for_type_B():
    import qqsp.process
    from qqsp.seeds import make_mixed_seed

    calls = {}
    for ptype in "AB":
        with Tracer() as tracer:
            qqsp.process.propagate(make_mixed_seed(4, ptype))
        calls[ptype] = tracer.summary()["linalg.supermatrix_tensor.calls"]
    assert calls["A"] == 0 and calls["B"] > 0


def test_absent_targets_are_reported_and_originals_restored():
    import qqsp.linalg
    import qqsp.marginal
    import qqsp.process
    from qqsp.algebra import SuperMap

    original_norm, original_compose = qqsp.linalg.operator_norm, SuperMap.compose
    targets = TARGETS + [("gone.fn", "qqsp.linalg", "no_such_function", SPAN),
                         ("gone.method", "qqsp.algebra", "SuperMap.no_such_method", COUNT),
                         ("gone.module", "qqsp.no_such_module", "fn", SPAN)]
    with Tracer(targets) as tracer:
        assert qqsp.process.operator_norm is not original_norm
        assert qqsp.marginal.operator_norm is qqsp.process.operator_norm
        assert SuperMap.compose is not original_compose
        SuperMap.identity(2) @ SuperMap.identity(2)
    assert tracer.absent == ["gone.fn", "gone.method", "gone.module"]
    for module in (qqsp.linalg, qqsp.process, qqsp.marginal):
        assert module.operator_norm is original_norm
    assert SuperMap.compose is original_compose
    summary = tracer.summary()
    assert summary["gone.fn.calls"] == 0
    assert summary["algebra.SuperMap.compose.calls"] == 1
    assert summary["algebra.SuperMap.compose.macs"] == 4 * 4 * 4


def test_self_time_excludes_children():
    import qqsp.process
    from qqsp.seeds import make_mixed_seed

    with Tracer() as tracer:
        qqsp.process.propagate(make_mixed_seed(3, "A"))
    s = tracer.summary()
    assert 0 < s["process.propagate.self_s"] < s["process.propagate.s"]
    assert s["algebra.expectation_supermap.s"] < s["process.propagate.s"]


@pytest.fixture(scope="module")
def constant_report(tmp_path_factory) -> dict:
    from qqsp import cli

    out = tmp_path_factory.mktemp("out")
    assert cli.main(["run", "constant-n2", "--out-dir", str(out), "--seed", "1"]) == 0
    return json.loads((out / "constant-n2.report.json").read_text())


def test_output_check_passes_reference_run(constant_report):
    assert check_report(constant_report, load_reference()["constant-n2"]) == []


@pytest.mark.parametrize("mutate, needle", [
    (lambda d: d["verdicts"].update(kc_ok=False), "verdicts"),
    (lambda d: d["stages"]["propagate"]["omega_diagonals"][2].__setitem__(0, 0.5 + 1e-9),
     "omega diagonals"),
    (lambda d: d["stages"]["axioms"].update(max_residual=1.0), "axioms"),
])
def test_output_check_catches_wrong_results(constant_report, mutate, needle):
    doc = json.loads(json.dumps(constant_report))
    mutate(doc)
    problems = check_report(doc, load_reference()["constant-n2"])
    assert any(needle in p for p in problems), problems

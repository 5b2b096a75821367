"""Scenario files, the pipeline runner, report emission, CLI exit codes."""

import contextlib
import importlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from qqsp.algebra import SuperMap
from qqsp.cli import main
from qqsp.linalg import chunks
from qqsp.marginal import build_H, build_Q, reconstruct_qqsp
from qqsp.process import ValidationFailure, computed_states, propagate
from qqsp.report import (
    CSV_HEADER,
    complex_matrix_to_pairs,
    emit_report,
    pairs_to_complex_matrix,
)
from qqsp.scenarios import (
    ERGODIC_STACK_BYTES,
    LATTICE_BYTES,
    MAX_HORIZON,
    ScenarioError,
    _pair_count,
    builtin_scenarios,
    parse_scenario,
    run_scenario,
    scenario_from_file,
)
from qqsp.seeds import (
    make_mixed_seed,
    mixed_step_map,
    symmetrized_embedding,
    unsymmetrized_embedding,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(*args):
    """``qqsp.cli.main`` in this process: its exit status and what it printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(list(args))
    return SimpleNamespace(returncode=status, stdout=out.getvalue(), stderr=err.getvalue())


def run_module(*args):
    """``python -m qqsp`` in a fresh interpreter, which runs the package's entry point."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-m", "qqsp", *args],
                          capture_output=True, text=True, env=env)


BUILTIN_NAMES = {
    "constant-n2", "mixed-n2-typeA", "mixed-n2-typeB",
    "volterra-a1-typeA", "volterra-a1-typeB", "mendel-typeA",
    "identity-like-typeA",
}


# ----------------------------------------------------------------- parsing

def test_builtin_catalog():
    catalog = builtin_scenarios()
    assert set(catalog) == BUILTIN_NAMES


def test_parse_rejects_missing_initial_state():
    data = builtin_scenarios()["constant-n2"].to_dict()
    del data["initial_state"]
    with pytest.raises(ScenarioError, match="initial_state"):
        parse_scenario(data)


def test_parse_rejects_dimension_mismatch():
    data = builtin_scenarios()["constant-n2"].to_dict()
    data["initial_state"] = {"diag": [0.2, 0.3, 0.5]}
    with pytest.raises(ScenarioError, match="diag length"):
        parse_scenario(data)


def test_parse_rejects_unknown_stage():
    data = builtin_scenarios()["constant-n2"].to_dict()
    data["pipeline"] = ["validate", "propagate", "frobnicate"]
    with pytest.raises(ScenarioError, match="frobnicate"):
        parse_scenario(data)


def test_parse_rejects_missing_prerequisite():
    data = builtin_scenarios()["constant-n2"].to_dict()
    data["pipeline"] = ["kc"]
    with pytest.raises(ScenarioError, match="propagate"):
        parse_scenario(data)


def test_parse_rejects_short_horizon_with_composition():
    data = builtin_scenarios()["constant-n2"].to_dict()
    data["horizon"] = 1
    with pytest.raises(ScenarioError, match="horizon"):
        parse_scenario(data)


def test_scenario_file_parse_error_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"name": "x",,}')
    with pytest.raises(ScenarioError, match="line 1"):
        scenario_from_file(path)


# ------------------------------------------------------------------ running

def test_constant_scenario_all_verdicts():
    report = run_scenario(builtin_scenarios()["constant-n2"])
    assert all(report.verdicts.values()), report.verdicts
    assert report.stages["kc"]["max"] <= 1e-12
    assert report.stages["axioms"]["max_residual"] <= 1e-12
    assert report.stages["reconstruct"]["max_map_deviation"] <= 1e-12
    assert report.stages["ergodic"]["families"]["P"]["final_max_distance"] <= 1e-12


def test_volterra_scenario_trajectory():
    report = run_scenario(builtin_scenarios()["volterra-a1-typeA"])
    rows = report.trajectory
    assert np.abs(np.array(rows[0]) - [0.5, 0.5]).max() <= 1e-12
    assert np.abs(np.array(rows[1]) - [0.75, 0.25]).max() <= 1e-12
    assert np.abs(np.array(rows[2]) - [0.9375, 0.0625]).max() <= 1e-12


def test_type_b_scenario_records_contrast():
    report = run_scenario(builtin_scenarios()["mixed-n2-typeB"])
    stage = report.stages["marginals"]
    assert stage["composition_h"]["max"] <= 1e-10
    assert stage["plain_markov_h"]["max"] > 0.01
    assert report.stages["reconstruct"]["state_consistency_residual"] <= 1e-10


def test_identity_like_scenario_permissive_run():
    report = run_scenario(builtin_scenarios()["identity-like-typeA"])
    assert report.verdicts["seed_valid"] is False
    assert report.verdicts["axioms_ok"] is False      # flip axiom fails
    assert report.verdicts["roundtrip_ok"] is True    # slice identity still exact
    assert report.verdicts["ergodic_at_horizon"] is False
    assert report.verdicts["verdicts_agree"] is True


def test_identity_like_strict_mode_fails():
    with pytest.raises(ValidationFailure, match="classical tensors violate"):
        run_scenario(builtin_scenarios()["identity-like-typeA"], mode="strict")


def test_explicit_step_map_scenario():
    n = 2
    mat = complex_matrix_to_pairs(mixed_step_map(n).matrix)
    data = {
        "name": "explicit-steps",
        "algebra": {"kind": "full", "dim": n},
        "process_type": "A",
        "horizon": 3,
        "initial_state": {"diag": [0.7, 0.3]},
        "seed": {"step_maps": [mat]},
        "pipeline": ["validate", "propagate", "kc", "marginals", "axioms", "reconstruct"],
    }
    report = run_scenario(parse_scenario(data))
    assert report.verdicts["seed_valid"]
    assert report.verdicts["roundtrip_ok"]


def test_strict_seed_is_validated_once_at_the_scenario_tolerance():
    # flip residual 2e-8: inside the scenario's 1e-6, outside the library default 1e-10
    n = 2
    step = (1 - 1e-8) * mixed_step_map(n).matrix + 1e-8 * unsymmetrized_embedding(n).matrix
    data = {
        "name": "slightly-unsymmetric",
        "algebra": {"kind": "full", "dim": n},
        "process_type": "A",
        "horizon": 3,
        "initial_state": {"diag": [0.7, 0.3]},
        "seed": {"step_maps": [complex_matrix_to_pairs(step)]},
        "tolerances": {"flip": 1e-6, "kc": 1e-6, "markov": 1e-6, "axiom": 1e-6},
    }
    report = run_scenario(parse_scenario(data))
    flips = [row["flip_residual"] for row in report.stages["validate"]["steps"]]
    assert 1e-10 < max(flips) <= 1e-6
    assert {k for k, v in report.verdicts.items() if not v} == {"ergodic_at_horizon"}


def _unsymmetric_scenario(weight: float, flip: float, pipeline: list) -> dict:
    # flip residual about 2 * weight, against a scenario flip tolerance of ``flip``
    n = 2
    step = (1 - weight) * mixed_step_map(n).matrix + weight * unsymmetrized_embedding(n).matrix
    return {
        "name": "unsymmetric", "algebra": {"kind": "full", "dim": n},
        "process_type": "A", "horizon": 3, "initial_state": {"diag": [0.7, 0.3]},
        "seed": {"step_maps": [complex_matrix_to_pairs(step)]},
        "tolerances": {"flip": flip, "kc": 1e-6}, "pipeline": pipeline,
    }


def test_strict_propagate_without_validate_uses_the_scenario_tolerance():
    # flip residual 2e-8 is inside the scenario's 1e-6: no spurious failure
    data = _unsymmetric_scenario(1e-8, 1e-6, ["propagate", "kc"])
    report = run_scenario(parse_scenario(data))
    assert report.verdicts["kc_ok"]
    assert report.stages["propagate"]["horizon"] == 3


def test_strict_propagate_without_validate_rejects_at_a_tight_tolerance():
    # flip residual 2e-12 is outside the scenario's 1e-14, though inside the library's 1e-10
    data = _unsymmetric_scenario(1e-12, 1e-14, ["propagate"])
    with pytest.raises(ValidationFailure, match="flip residual"):
        run_scenario(parse_scenario(data))
    with pytest.raises(ValidationFailure, match="seed validation failed"):
        run_scenario(parse_scenario({**data, "pipeline": ["validate", "propagate"]}))


def test_validate_stage_issues_follow_its_own_rows():
    # min Choi eigenvalue about -3.3e-8: CP at the scenario's cp tolerance 1e-6
    n = 2
    one = np.eye(n, dtype=complex)
    transposed = SuperMap.from_function(
        lambda x: 0.5 * (np.kron(x.T, one) + np.kron(one, x.T)), n, n * n)
    step = (1 - 1e-7) * symmetrized_embedding(n).matrix + 1e-7 * transposed.matrix
    data = {
        "name": "slightly-non-cp",
        "algebra": {"kind": "full", "dim": n},
        "process_type": "A",
        "horizon": 2,
        "mode": "permissive",
        "initial_state": {"diag": [0.7, 0.3]},
        "seed": {"step_maps": [complex_matrix_to_pairs(step)]},
        "tolerances": {"cp": 1e-6},
        "pipeline": ["validate"],
    }
    report = run_scenario(parse_scenario(data))
    rows = report.stages["validate"]["steps"]
    assert all(row["is_cp"] for row in rows)
    assert min(row["min_choi_eigenvalue"] for row in rows) < -1e-9
    assert report.stages["validate"]["issues"] == []
    assert report.verdicts["seed_valid"] is True


def test_each_quantity_is_computed_once(monkeypatch):
    # a strict run checks the seed once, runs one axiom suite, builds one Q family,
    # one rebuilt lattice and one Choi certificate per distinct step map, and
    # re-resolves no seed
    sc = builtin_scenarios()["mixed-n2-typeB"]
    counts = {}
    defining = {"verify_marginal_axioms": "qqsp.marginal", "build_Q": "qqsp.marginal",
                "reconstruct_qqsp": "qqsp.marginal", "_resolve_seed": "qqsp.scenarios",
                "certify_unital_cp": "qqsp.algebra", "expectation_supermap": "qqsp.algebra",
                "expectation_matrices": "qqsp.algebra"}
    for name, module_name in defining.items():
        original = getattr(importlib.import_module(module_name), name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] = counts.get(_name, 0) + 1
            return _original(*args, **kwargs)

        for module in [m for key, m in sys.modules.items() if key.startswith("qqsp")]:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    run_scenario(sc)
    T = sc.horizon
    distinct = len({id(m) for m in sc.resolved[0].step_maps})
    assert distinct == 1   # the builtin holds one map T times
    # No trajectory of E_{omega_t}, E_{phi_t} or E_{psi_t} is stored; each is placed where it
    # is read, one stack per chunk. propagate places, for each row t of Q^{s,t}, E_{omega_{t-1}}
    # alone for Q^{t-1,t}, whose product law A's split products read, and then E_{omega_s}
    # for each chunk of the row's s < t-1: 2T - 1 stacks of T(T+1)/2 rows in all, each
    # E_{omega_s} row placed once per pair as before; no slot E_{omega_t} embed or
    # E_{omega_t} embed_averaged is formed, since the one is tr(rho_t) 1 and the other is of
    # rank one. The pair is the lattice's own, so the exchange table and the rebuilt
    # lattice's conclusion-b and kc are closed forms and place no E_{psi_s} or E_{phi_t};
    # the absorption and state-consistency tables place none either: each gap is E of a
    # difference of states. expectation_supermap forms none of them
    n = sc.dim
    rows = sum(1 + len(chunks(t - 1, 16 * n ** 6)) for t in range(1, T + 1))
    assert rows == 2 * T - 1
    assert counts == {"verify_marginal_axioms": 1, "build_Q": 1, "reconstruct_qqsp": 1,
                      "certify_unital_cp": distinct, "expectation_matrices": rows}


def test_explicit_pair_ensemble_scenario():
    data = builtin_scenarios()["constant-n2"].to_dict()
    data["name"] = "constant-explicit-pairs"
    data["ensemble"] = {"pairs": [
        {"a": {"diag": [1.0, 0.0]}, "b": {"diag": [0.0, 1.0]}},
        {"a": {"diag": [1.0, 0.0, 0.0, 0.0]}, "b": {"diag": [0.0, 0.0, 0.0, 1.0]}},
    ]}
    report = run_scenario(parse_scenario(data))
    assert report.stages["ergodic"]["ergodic_at_horizon"] is True
    assert len(report.decay_series["Q"].distances) == 1
    assert len(report.decay_series["P"].distances) == 1


def test_explicit_classical_tensor_scenario(tmp_path):
    # tensors travel as dense row-major real arrays inside the scenario file
    from qqsp.classical import volterra_tensor

    data = {
        "name": "volterra-explicit",
        "algebra": {"kind": "diagonal", "dim": 2},
        "process_type": "A",
        "horizon": 4,
        "initial_state": {"diag": [0.5, 0.5]},
        "seed": {"classical": {"tensor": volterra_tensor(0.5).tolist()}},
        "pipeline": ["validate", "propagate", "kc", "marginals"],
    }
    path = tmp_path / "volterra-explicit.json"
    path.write_text(json.dumps(data))
    report = run_scenario(scenario_from_file(path))
    files = emit_report(report, tmp_path / "out")
    assert report.verdicts["seed_valid"]
    assert report.verdicts["kc_ok"]
    assert files[0].name == "volterra-explicit.report.json"


def test_matrix_pair_round_trip(rng):
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert np.array_equal(pairs_to_complex_matrix(complex_matrix_to_pairs(m)), m)


# ----------------------------------------------------------------- reports

def test_structured_report_round_trips(tmp_path):
    report = run_scenario(builtin_scenarios()["constant-n2"])
    files = emit_report(report, tmp_path, "structured")
    assert len(files) == 1
    assert json.loads(files[0].read_text()) == json.loads(report.to_structured_text())


def test_csv_bundle_row_contract(tmp_path):
    data = builtin_scenarios()["constant-n2"].to_dict()
    data.update(name="tiny", horizon=3, ensemble={"random": 2})
    report = run_scenario(parse_scenario(data))
    files = emit_report(report, tmp_path, "csv-bundle")
    decay = [p for p in files if "decay_Q" in p.name]
    assert len(decay) == 1
    lines = decay[0].read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) - 1 == 2 * 3  # pairs x times


def test_timings_are_sidecar_only(tmp_path):
    report = run_scenario(builtin_scenarios()["constant-n2"])
    files = emit_report(report, tmp_path, "structured")
    assert (tmp_path / "constant-n2.timings.txt").exists()
    assert all("timings" not in p.name for p in files)
    assert "timings" not in json.loads(files[0].read_text())


def test_the_sidecar_gives_each_stage_its_seconds_and_its_peak_rss(tmp_path):
    # one "<stage>: <seconds> s" line per stage, then one "<stage> peak RSS: <MiB> MiB" line,
    # which the seconds-line pattern of a sidecar reader does not match
    sc = builtin_scenarios()["constant-n2"]
    emit_report(run_scenario(sc), tmp_path, "structured")
    lines = (tmp_path / "constant-n2.timings.txt").read_text().splitlines()
    seconds = re.compile(r"^(\w+): ([0-9.eE+-]+) s$")
    assert [seconds.match(ln)[1] for ln in lines[:len(sc.pipeline)]] == list(sc.pipeline)
    peaks = [re.fullmatch(r"(\w+) peak RSS: ([0-9.]+) MiB", ln) for ln in lines[len(sc.pipeline):]]
    assert [m[1] for m in peaks] == list(sc.pipeline)
    mibs = [float(m[2]) for m in peaks]
    assert mibs == sorted(mibs) and mibs[0] > 0   # a running peak
    assert not any(seconds.match(ln) for ln in lines[len(sc.pipeline):])


@pytest.mark.parametrize("name", sorted(BUILTIN_NAMES))
def test_determinism_per_builtin(tmp_path, name):
    sc = builtin_scenarios()[name]
    out = {}
    for tag in ("one", "two"):
        report = run_scenario(sc, seed=4242)
        files = emit_report(report, tmp_path / tag, "csv-bundle")
        out[tag] = {p.name: p.read_bytes() for p in files}
    assert out["one"] == out["two"]


# --------------------------------------------------------------------- cli

def test_cli_list_builtins():
    # the one run through the entry point; every other CLI test calls main in-process
    proc = run_module("list-builtins")
    assert proc.returncode == 0
    assert set(proc.stdout.split()) == BUILTIN_NAMES


def test_cli_describe_round_trips():
    proc = run_cli("describe", "mixed-n2-typeA")
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == builtin_scenarios()["mixed-n2-typeA"].to_dict()
    assert run_cli("describe", "no-such-builtin").returncode == 2


def test_cli_run_builtin(tmp_path):
    proc = run_cli("run", "constant-n2", "--out-dir", str(tmp_path),
                   "--format", "csv-bundle")
    assert proc.returncode == 0
    assert (tmp_path / "constant-n2.report.json").exists()
    assert (tmp_path / "constant-n2.trajectory.csv").exists()


def test_cli_run_scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    data = builtin_scenarios()["volterra-a1-typeA"].to_dict()
    data["name"] = "volterra-from-file"
    path.write_text(json.dumps(data))
    proc = run_cli("run", str(path), "--out-dir", str(tmp_path))
    assert proc.returncode == 0
    assert (tmp_path / "volterra-from-file.report.json").exists()


def test_in_process_runs_each_report_their_own_mode(tmp_path):
    # the parser is built once per process, and no flag of one call leaks into the next
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(builtin_scenarios()["constant-n2"].to_dict()))
    for mode in ("strict", "permissive"):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["run", str(path), "--out-dir", str(tmp_path / mode), f"--{mode}"]) == 0
        text = (tmp_path / mode / "constant-n2.report.json").read_text()
        assert json.loads(text)["run"]["mode"] == mode


def test_cli_exit_2_on_malformed_scenario(tmp_path):
    path = tmp_path / "bad.json"
    data = builtin_scenarios()["constant-n2"].to_dict()
    del data["initial_state"]
    path.write_text(json.dumps(data))
    proc = run_cli("run", str(path), "--out-dir", str(tmp_path / "out"))
    assert proc.returncode == 2
    assert "initial_state" in proc.stderr
    assert not (tmp_path / "out").exists()  # no output files on parse failure


@pytest.mark.parametrize("content, message", [
    (b'{"name": "x\xff"}', "not UTF-8 text at byte 11"),
    (b"\xfe\xff{}", "not UTF-8 text at byte 0"),
    (b"[" * 1000 + b"]" * 1000, "nested too deeply"),
    (b'{"name": "x", "horizon": ' + b"[" * 5000 + b"]" * 5000 + b"}", "nested too deeply"),
], ids=["latin-1-name", "utf-16-bom", "nested-1000", "nested-field"])
def test_cli_exit_2_on_a_file_that_is_no_utf8_or_too_deep(tmp_path, content, message):
    # a decode error and a JSON too deep for the parser's recursion end like any parse error
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    proc = run_cli("run", str(path), "--out-dir", str(tmp_path / "out"))
    assert proc.returncode == 2
    assert str(path) in proc.stderr and message in proc.stderr
    assert not (tmp_path / "out").exists()


def test_cli_reads_a_scenario_file_as_utf8(tmp_path):
    data = builtin_scenarios()["constant-n2"].to_dict()
    data["name"] = "caf\u00e9-n2"
    path = tmp_path / "utf8.json"
    path.write_bytes(json.dumps(data, ensure_ascii=False).encode("utf-8"))
    proc = run_cli("run", str(path), "--out-dir", str(tmp_path / "out"))
    assert proc.returncode == 0
    text = (tmp_path / "out" / "caf\u00e9-n2.report.json").read_text()
    assert json.loads(text)["scenario"]["name"] == "caf\u00e9-n2"


@pytest.mark.parametrize("field, value", [
    ("tolerances", "abc"),
    ("tolerances", {"kc": "1e-3"}),
    ("epsilon", "x"),
    ("rng_seed", "q"),
    ("pipeline", 5),
    ("seed", {"step_maps": 3}),
    ("seed", {"step_maps": [5]}),
    ("initial_state", {"matrix": 5}),
    ("ensemble", {"pairs": 5}),
    ("ensemble", {"pairs": [5]}),
    ("ensemble", {"pairs": [{"a": {"diag": 3}, "b": {"diag": [1.0, 0.0]}}]}),
    ("tolerances", {"axoim": 1.0}),
    ("name", "../escaped"),
    ("name", "sub/escaped"),
    ("tolerances", {"axiom": -1}),
    ("tolerances", {"kc": float("inf")}),
    ("epsilon", -1),
    ("epsilon", "nan"),
    ("epsilon", float("nan")),
    ("sample_count", -5),
    ("rng_seed", -1),
    ("ensemble", {"random": True}),
    ("sample_count", 2.7),
    ("sample_count", True),
    ("rng_seed", True),
    ("rng_seed", 1.5),
    ("rng_seed", "7"),
    ("epsilon", True),
    ("epsilon", "0.001"),
    pytest.param("epsilon", 10 ** 400, id="epsilon-huge-integer"),
    pytest.param("tolerances", {"kc": 10 ** 400}, id="tolerances-huge-integer"),
    pytest.param("sample_count", 10 ** 400, id="sample_count-huge-integer"),
    pytest.param("ensemble", {"random": 10 ** 400}, id="ensemble-huge-integer"),
    pytest.param("sample_count", 10 ** 12, id="sample_count-past-the-memory-bound"),
    pytest.param("ensemble", {"random": 10 ** 12}, id="ensemble-past-the-memory-bound"),
    pytest.param("ensemble", {"pairs": []}, id="ensemble-without-pairs"),
    pytest.param("ensemble", {"random": 3, "pairs": [
        {"a": {"diag": [1.0, 0.0]}, "b": {"diag": [0.0, 1.0]}}]}, id="ensemble-random-and-pairs"),
    pytest.param("initial_state", {"diag": [0.7, 0.3], "maximally_mixed": True},
                 id="initial_state-diag-and-maximally-mixed"),
    pytest.param("sample_cout", 5, id="misspelt-field"),
    pytest.param("algebra", {"kind": "full", "dim": 2, "dimm": 3}, id="algebra-unknown-field"),
    pytest.param("pipeline", ["propagate", "propagate"], id="pipeline-repeated-stage"),
])
def test_cli_exit_2_on_malformed_field(tmp_path, capsys, field, value):
    # the ensemble is parsed up front even though this pipeline has no ergodic stage
    data = builtin_scenarios()["constant-n2"].to_dict()
    data["pipeline"] = ["validate"]
    data[field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    where = "scenario" if field == "name" else "constant-n2"
    assert f"{where}.{field}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field, side, place", [
    ("ensemble.random", 64, lambda count: {"ensemble": {"random": count}}),
    ("sample_count", 8, lambda count: {"sample_count": count}),
], ids=["ensemble", "sample_count"])
def test_ergodic_counts_parse_up_to_the_memory_bound(field, side, place):
    # 2 count side^2 complex entries: pairs on M_8 (x) M_8 for the ensemble, on M_8 for the
    # sampled pure pairs; the defaults and the last count that fits parse, the next is refused
    most = ERGODIC_STACK_BYTES // (2 * side * side * 16)
    doc = {"name": "mixed-n8", "algebra": {"kind": "full", "dim": 8}, "process_type": "A",
           "horizon": 2, "seed": {"builtin": "mixed"}, "initial_state": {"maximally_mixed": True}}
    sc = parse_scenario(doc)
    assert (sc.pair_ensemble[0], sc.sample_count) == (20, 200)
    parse_scenario({**doc, **place(most)})
    with pytest.raises(ScenarioError, match=f"mixed-n8.{field}: {most + 1} pairs"):
        parse_scenario({**doc, **place(most + 1)})


def test_a_pair_count_past_any_float_names_its_size_in_whole_mib():
    # the size is rounded half to even in integers, as "{need / 2 ** 20:.0f}" rounds a size
    # a float holds; ties included (33024 pairs on M_8 need 64.5 MiB)
    for count in (33024, 33025, 33280, 40000, 10 ** 9 + 7):
        need = 2 * count * 64 * 16
        with pytest.raises(ScenarioError, match=f": {count} pairs of 8 x 8 states need "
                                                f"{need / 2 ** 20:.0f} MiB, over the"):
            _pair_count(count, 8, "where")
    with pytest.raises(ScenarioError, match=f"need {128 * 10 ** 400 >> 20} MiB, over the"):
        _pair_count(10 ** 400, 2, "where")


def test_a_lattice_past_the_memory_bound_is_refused_at_parse_time():
    # T(T+1)/2 n^6 complex entries; the parser refuses before any stage can allocate them
    doc = {"name": "mixed-n8", "algebra": {"kind": "full", "dim": 8}, "process_type": "A",
           "seed": {"builtin": "mixed"}, "initial_state": {"maximally_mixed": True}}
    assert 200 * 201 // 2 * 8 ** 6 * 16 > LATTICE_BYTES >= 36 * 8 ** 6 * 16
    with pytest.raises(ScenarioError, match=r"mixed-n8.horizon: .* needs 78.5 GiB"):
        parse_scenario({**doc, "horizon": 200})
    assert parse_scenario({**doc, "horizon": 8}).horizon == 8   # 144 MiB, the largest scale row
    assert parse_scenario({**doc, "horizon": 200, "pipeline": ["validate"]}).horizon == 200


@pytest.mark.parametrize("kind, seed", [("full", {"builtin": "mixed"}),
                                        ("diagonal", {"classical": {"builtin": "copy-second"}})],
                         ids=["quantum", "classical"])
@pytest.mark.parametrize("pipeline", [["validate"], []], ids=["validate", "empty"])
def test_a_horizon_past_the_seed_bound_exits_2_without_propagate(tmp_path, kind, seed,
                                                                 pipeline):
    # a seed holds its T step maps whatever the pipeline, so T itself is bounded, before the
    # seed is built: a tuple of 2^62 maps is a MemoryError, not a scenario error
    path = tmp_path / "long.json"
    path.write_text(json.dumps({
        "name": "long", "algebra": {"kind": kind, "dim": 2}, "process_type": "A",
        "horizon": 2 ** 62, "seed": seed, "initial_state": {"maximally_mixed": True},
        "pipeline": pipeline}))
    proc = run_cli("run", str(path), "--out-dir", str(tmp_path / "out"))
    assert proc.returncode == 2
    assert f"long.horizon: {2 ** 62} is over the {MAX_HORIZON} steps" in proc.stderr
    # every lattice LATTICE_BYTES admits, the longest at n = 1, still parses
    longest = max(t for t in range(1, MAX_HORIZON + 1) if t * (t + 1) // 2 * 16 <= LATTICE_BYTES)
    assert longest == 11584 < MAX_HORIZON


_HADAMARD = np.array([[1, 1], [1, -1]]) / np.sqrt(2)


def _symmetrised_seed(phi) -> list:
    """The step map P(x) = (1 (x) Phi(x) + Phi(x) (x) 1) / 2 as a scenario's step_maps."""
    def step(x):
        return (np.kron(np.eye(2), phi(x)) + np.kron(phi(x), np.eye(2))) / 2
    return [complex_matrix_to_pairs(SuperMap.from_function(step, 2, 4).matrix)]


def _hadamard_dephasing(x):
    # Phi(E_ii) = 1/2 is diagonal, but Phi(E_01) is not 0
    return sum(np.outer(v, v) @ x @ np.outer(v, v) for v in _HADAMARD)


_PLUS = complex_matrix_to_pairs(np.full((2, 2), 0.5))   # |+><+|


@pytest.mark.parametrize("change, field", [
    ({"initial_state": {"matrix": _PLUS}}, "mendel-typeA.initial_state.matrix"),
    ({"ensemble": {"pairs": [{"a": {"diag": [1.0, 0.0]}, "b": {"matrix": _PLUS}}]}},
     "mendel-typeA.ensemble.pairs[0].b.matrix"),
    ({"seed": {"step_maps": _symmetrised_seed(_hadamard_dephasing)}},
     "mendel-typeA.seed.step_maps[0]: the image of E_10 is not 0"),
    ({"seed": {"step_maps": _symmetrised_seed(lambda x: _HADAMARD @ x @ _HADAMARD)}},
     "mendel-typeA.seed.step_maps[0]: the image of E_00 is not diagonal"),
], ids=["initial-state", "ensemble-pair", "step-map-dephasing", "step-map-rotation"])
def test_cli_exit_2_on_non_diagonal_input_to_a_diagonal_algebra(tmp_path, capsys, change,
                                                                 field):
    # a diagonal algebra would drop the off-diagonal part silently: omega_0 of |+><+| read
    # diag(0.5, 0.5), and the Hadamard dephasing passed as an exact-classical lambda = 0
    data = {**builtin_scenarios()["mendel-typeA"].to_dict(), **change}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    full = {**data, "algebra": {"kind": "full", "dim": 2}}   # the same input on a full algebra
    if "seed" in change:
        assert parse_scenario(full).resolved[0].step_maps
    else:
        assert parse_scenario({**full, "seed": {"builtin": "mixed"}}).pair_ensemble


def test_an_algebra_that_samples_nothing_takes_any_sample_count():
    # on a diagonal algebra and on M_1 the contraction coefficient is exact and draws nothing
    m1 = {"name": "mixed-n1", "algebra": {"kind": "full", "dim": 1}, "process_type": "A",
          "horizon": 3, "seed": {"builtin": "mixed"}, "initial_state": {"maximally_mixed": True}}
    for data in (builtin_scenarios()["volterra-a1-typeA"].to_dict(), m1):
        assert parse_scenario({**data, "sample_count": 10 ** 12}).sample_count == 10 ** 12


def _non_finite_case(case: str) -> dict:
    """A full-pipeline scenario with one NaN or infinite entry; json reads both."""
    quantum = {"name": case, "algebra": {"kind": "full", "dim": 2}, "process_type": "A",
               "horizon": 3, "seed": {"builtin": "mixed"},
               "initial_state": {"diag": [0.5, 0.5]}}
    if case == "diag-nan":
        return {**quantum, "initial_state": {"diag": [float("nan"), 0.5]}}
    if case == "diag-inf":
        return {**quantum, "initial_state": {"diag": [float("inf"), 0.5]}}
    if case == "step-map-nan":
        m = mixed_step_map(2).matrix.copy()
        m[0, 0] = float("nan")
        return {**quantum, "seed": {"step_maps": [complex_matrix_to_pairs(m)]}}
    if case == "diag-overflow":   # finite, but the hermitian part (m + m^dagger)/2 is not
        return {**quantum, "initial_state": {"diag": [1e308, -1e308]}}
    if case == "pair-overflow":
        return {**quantum, "ensemble": {"pairs": [{"a": {"diag": [1e308, -1e308]},
                                                   "b": {"diag": [1.0, 0.0]}}]}}
    if case == "pair-matrix-nan":
        rho = complex_matrix_to_pairs(np.diag([float("nan"), 0.5]))
        return {**quantum, "ensemble": {"pairs": [{"a": {"matrix": rho},
                                                   "b": {"diag": [1.0, 0.0]}}]}}
    tensor = [[[1.0, 0.0], [0.5, 0.5]], [[0.5, 0.5], [0.0, 1.0]]]
    tensor[0][0][0] = float("nan")
    return {**quantum, "name": case, "algebra": {"kind": "diagonal", "dim": 2},
            "seed": {"classical": {"tensor": tensor}}}


@pytest.mark.parametrize("mode", ["strict", "permissive"])
@pytest.mark.parametrize("case, field", [
    ("diag-nan", "initial_state.diag"),
    ("diag-inf", "initial_state.diag"),
    ("step-map-nan", "seed.step_maps[0]"),
    ("pair-matrix-nan", "ensemble.pairs[0]"),
    ("tensor-nan", "seed.classical.tensor"),
    ("diag-overflow", "initial_state"),
    ("pair-overflow", "ensemble.pairs[0].a"),
])
def test_cli_exit_2_on_non_finite_input(tmp_path, capsys, mode, case, field):
    # each used to end in a LinAlgError traceback (exit 1) in some mode
    data = {**_non_finite_case(case), "mode": mode}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    assert f"{case}.{field}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_an_overflowing_state_prints_only_its_error_line(tmp_path):
    # numpy's overflow warnings of the norms and the hermitian part are not printed
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_non_finite_case("diag-overflow")))
    proc = run_module("run", str(path), "--out-dir", str(tmp_path / "out"))
    assert proc.returncode == 2
    assert proc.stderr == ("error: diag-overflow.initial_state: density matrix's hermitian "
                           "part overflows\n")


def _entry_case(case: str) -> dict:
    """A scenario with one matrix entry that is not an [re, im] pair of numbers, or one
    array entry that is a bool."""
    quantum = {"name": case, "algebra": {"kind": "full", "dim": 2}, "process_type": "A",
               "horizon": 3, "seed": {"builtin": "mixed"},
               "initial_state": {"diag": [0.5, 0.5]}}
    rho = complex_matrix_to_pairs(np.diag([0.5, 0.5]))
    three = [[[0.5, 0, 7], [0, 0]], rho[1]]
    flags = [[[True, False], [0, 0]], [[0, 0], [0, 0]]]   # diag(1, 0) if true read as 1
    step = complex_matrix_to_pairs(mixed_step_map(2).matrix)
    step[0][0] = [0.5, 0, 7]
    tensor = [[[1.0, 0.0], [0.5, 0.5]], [[0.5, 0.5], [0.0, True]]]
    classical = {**quantum, "algebra": {"kind": "diagonal", "dim": 2}}
    return {
        "state-three-numbers": {**quantum, "initial_state": {"matrix": three}},
        "state-bools": {**quantum, "initial_state": {"matrix": flags}},
        "pair-three-numbers": {**quantum, "ensemble": {"pairs": [
            {"a": {"matrix": three}, "b": {"diag": [1.0, 0.0]}}]}},
        "step-map-three-numbers": {**quantum, "seed": {"step_maps": [step]}},
        "diag-bool": {**quantum, "initial_state": {"diag": [True, 0.0]}},
        "diag-string": {**quantum, "initial_state": {"diag": ["0.5", 0.5]}},
        "tensor-bool": {**classical, "seed": {"classical": {"tensor": tensor}}},
    }[case]


@pytest.mark.parametrize("case, field", [
    ("state-three-numbers", "initial_state"),
    ("state-bools", "initial_state"),
    ("pair-three-numbers", "ensemble.pairs[0].a"),
    ("step-map-three-numbers", "seed.step_maps[0]"),
    ("diag-bool", "initial_state.diag"),
    ("diag-string", "initial_state.diag"),
    ("tensor-bool", "seed.classical.tensor"),
])
def test_cli_exit_2_on_an_entry_that_is_not_a_number(tmp_path, capsys, case, field):
    # each ran with exit 0: [0.5, 0, 7] read as 0.5, [true, false] as 1 and "0.5" as 0.5
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_entry_case(case)))
    assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    assert f"{case}.{field}: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_state_rejects_non_finite_entries():
    from qqsp.algebra import State

    for bad in (np.diag([float("nan"), 1.0]), np.diag([float("inf"), 0.0])):
        with pytest.raises(ValueError, match="non-finite"):
            State(bad)
    with pytest.raises(ValueError, match="finite"):
        pairs_to_complex_matrix([[[float("nan"), 0.0]]])


@pytest.mark.parametrize("a", [2, -1, "x", True, float("nan")])
def test_cli_exit_2_on_a_bad_volterra_parameter(tmp_path, capsys, a):
    data = {"name": "volterra-bad", "algebra": {"kind": "diagonal", "dim": 2},
            "process_type": "A", "horizon": 3, "initial_state": {"diag": [0.5, 0.5]},
            "seed": {"classical": {"builtin": "volterra", "a": a}}}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    assert "volterra-bad.seed.classical.a" in capsys.readouterr().err


_QUANTUM = {"name": "parse-bad", "algebra": {"kind": "full", "dim": 2}, "process_type": "A",
            "horizon": 3, "seed": {"builtin": "mixed"}, "initial_state": {"maximally_mixed": True}}
_CLASSICAL = {**_QUANTUM, "algebra": {"kind": "diagonal", "dim": 2},
              "initial_state": {"diag": [0.5, 0.5]}}


@pytest.mark.parametrize("data, field", [
    ({**_QUANTUM, "algebra": {"kind": "full", "dim": True}}, "algebra.dim"),
    ({**_QUANTUM, "horizon": True, "pipeline": ["validate", "propagate"]}, "horizon"),
    ({**_QUANTUM, "seed": {"builtin": ["mixed"]}}, "seed.builtin"),
    ({**_QUANTUM, "seed": {"builtin": {"a": 1}}}, "seed.builtin"),
    ({**_CLASSICAL, "seed": {"classical": {"builtin": ["mendel"]}}}, "seed.classical.builtin"),
], ids=["bool-dim", "bool-horizon", "list-builtin", "object-builtin", "list-classical-builtin"])
def test_cli_exit_2_on_a_bool_or_unhashable_field(tmp_path, capsys, data, field):
    # a TypeError traceback (exit 1), or for the horizon a run as T=1
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    assert f"parse-bad.{field}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_exit_2_on_negative_seed_flag(tmp_path, capsys):
    assert main(["run", "constant-n2", "--seed", "-5", "--out-dir", str(tmp_path / "out")]) == 2
    assert "run seed" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_runs_a_one_dimensional_full_algebra(tmp_path):
    # M_1 has no orthonormal pure pair, so the contraction coefficient is exact there
    data = {
        "name": "mixed-n1", "algebra": {"kind": "full", "dim": 1},
        "process_type": "A", "horizon": 3, "mode": "strict",
        "seed": {"builtin": "mixed"}, "initial_state": {"maximally_mixed": True},
    }
    path = tmp_path / "n1.json"
    path.write_text(json.dumps(data))
    assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 0
    doc = json.loads((tmp_path / "out" / "mixed-n1.report.json").read_text())
    assert all(doc["verdicts"].values())
    assert doc["stages"]["ergodic"]["contraction"]["lambda"] == 0.0


def test_cli_exit_3_on_computed_non_state(tmp_path, capsys):
    # a step map scaled by 1 + 1e-9 is not unital, so omega_1 has trace 1 + 1e-9 however
    # the products round; permissive mode lets the seed through to propagate
    data = {
        "name": "nonunital-mixed-n2-T3-A",
        "algebra": {"kind": "full", "dim": 2},
        "process_type": "A", "horizon": 3, "mode": "permissive",
        "seed": {"step_maps": [complex_matrix_to_pairs((1 + 1e-9) * mixed_step_map(2).matrix)]},
        "initial_state": {"maximally_mixed": True},
    }
    path = tmp_path / "nonunital.json"
    path.write_text(json.dumps(data))
    assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "computed state omega_t at t=1" in err and "trace 1.000000001" in err


def test_computed_state_failure_is_a_validation_failure():
    # in either mode: the helper has no mode to consult
    with pytest.raises(ValidationFailure, match="phi_t at t=3"):
        computed_states([np.diag([0.5, 0.5 - 1e-11])], "phi_t", 3)
    assert computed_states([np.diag([0.25, 0.75])], "phi_t", 3)[0].dim == 2


def test_stacked_computed_states_name_the_first_failing_t():
    good, bad = np.diag([0.25, 0.75]), np.diag([0.5, 0.5 - 1e-11])
    with pytest.raises(ValidationFailure, match="psi_t at t=3 is not a state: density matrix "
                                                "trace"):
        computed_states([good, good, bad, bad], "psi_t", 1)
    states = computed_states([good, good], "psi_t", 1)
    assert [x.rho.tobytes() for x in states] == [computed_states([good], "psi_t", 1)[0]
                                                 .rho.tobytes()] * 2


def test_a_failing_phi_is_named_by_its_t(monkeypatch):
    # phi_t goes through one stack per trajectory; a bad image still names its t
    import qqsp.process

    lat = propagate(make_mixed_seed(4, "A"))
    q, h = build_Q(lat), build_H(lat)
    original = qqsp.process.computed_states

    def spoiled(rhos, quantity, first_t):
        rhos = np.array(rhos)
        if quantity == "phi_t":
            rhos[1] *= 1 + 1e-9   # phi_2
        return original(rhos, quantity, first_t)

    monkeypatch.setattr(qqsp.process, "computed_states", spoiled)   # carried_states' check
    with pytest.raises(ValidationFailure, match="phi_t at t=2"):
        reconstruct_qqsp(q, h, lat.omega(0), "A")


def test_cli_exit_3_on_strict_math_failure(tmp_path):
    proc = run_cli("run", "identity-like-typeA", "--strict",
                   "--out-dir", str(tmp_path))
    assert proc.returncode == 3
    assert "validation failure" in proc.stderr


def test_cli_exit_4_on_io_failure(tmp_path):
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("occupied")
    proc = run_cli("run", "constant-n2", "--out-dir", str(blocker))
    assert proc.returncode == 4
    assert "i/o error" in proc.stderr


def test_cli_seed_flag_changes_report(tmp_path):
    a = run_cli("run", "constant-n2", "--out-dir", str(tmp_path / "a"), "--seed", "1")
    b = run_cli("run", "constant-n2", "--out-dir", str(tmp_path / "b"), "--seed", "2")
    assert a.returncode == b.returncode == 0
    ra = json.loads((tmp_path / "a" / "constant-n2.report.json").read_text())
    rb = json.loads((tmp_path / "b" / "constant-n2.report.json").read_text())
    assert ra["run"]["seed"] == 1 and rb["run"]["seed"] == 2

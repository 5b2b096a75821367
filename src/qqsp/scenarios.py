"""Scenario parsing, the built-in catalog, and the pipeline runner.

A scenario is a plain JSON document: algebra, seed specification, initial
state, process type, horizon, tolerances, ensemble, and an ordered list
of pipeline stages. Complex matrices appear as dense row-major lists of
[re, im] pairs. Identical scenario + seed means byte-identical reports.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .algebra import State, SuperMap
from .classical import (
    ClassicalQSP,
    classical_validate,
    copy_second_parent_tensor,
    lift_to_quantum,
    mendel_tensor,
    require_valid_tensors,
    volterra_tensor,
)
from .ergodic import ErgodicConfig, ergodic_verdict
from .marginal import (
    build_H,
    build_Q,
    build_Z,
    build_h,
    build_z,
    check_markov,
    reconstruct_qqsp,
    slice_residuals,
    state_consistency_residual,
    verify_marginal_axioms,
)
from .process import (
    Family,
    QQSPSeed,
    ValidationFailure,
    kc_consistency,
    pair_residuals,
    propagate,
    seed_diagnostics,
    seed_issues,
)
from .report import Report, complex_matrix_to_pairs, pairs_to_complex_matrix
from .seeds import (
    constant_step_map,
    entangling_mixed_step_map,
    mixed_step_map,
)

STAGES = ("validate", "propagate", "kc", "marginals", "axioms", "reconstruct", "ergodic")
LATTICE_STAGES = ("kc", "marginals", "axioms", "reconstruct", "ergodic")

DEFAULT_TOLERANCES = {
    "cp": 1e-9,
    "unital": 1e-10,
    "flip": 1e-10,
    "kc": 1e-10,
    "markov": 1e-9,
    "axiom": 1e-8,
}


class ScenarioError(ValueError):
    """Malformed or inconsistent scenario input."""


@dataclass(frozen=True)
class Scenario:
    name: str
    algebra_kind: str
    dim: int
    process_type: str
    horizon: int
    seed_spec: dict
    initial_state: dict
    mode: str = "strict"
    tolerances: dict = field(default_factory=lambda: dict(DEFAULT_TOLERANCES))
    ensemble: dict = field(default_factory=lambda: {"random": 20})
    epsilon: float = 1e-3
    rng_seed: int = 12345
    sample_count: int = 200
    pipeline: tuple = STAGES
    # parse-time forms of seed_spec/initial_state ((QQSPSeed, ClassicalQSP | None))
    # and of ensemble ((count, single pairs, double pairs))
    resolved: tuple | None = field(default=None, repr=False, compare=False)
    pair_ensemble: tuple | None = field(default=None, repr=False, compare=False)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "algebra": {"kind": self.algebra_kind, "dim": self.dim},
            "process_type": self.process_type,
            "horizon": self.horizon,
            "mode": self.mode,
            "seed": self.seed_spec,
            "initial_state": self.initial_state,
            "tolerances": dict(self.tolerances),
            "ensemble": self.ensemble,
            "epsilon": self.epsilon,
            "rng_seed": self.rng_seed,
            "sample_count": self.sample_count,
            "pipeline": list(self.pipeline),
        }


def _require(data: dict, key: str, where: str):
    if not isinstance(data, dict):
        raise ScenarioError(f"{where}: expected an object")
    if key not in data:
        raise ScenarioError(f"{where}: missing required field {key!r}")
    return data[key]


def parse_scenario(data: dict) -> Scenario:
    """Validate a scenario dict; raises ScenarioError with the failing field."""
    if not isinstance(data, dict):
        raise ScenarioError("scenario must be a JSON object")
    name = _require(data, "name", "scenario")
    # the name is the stem of every report file, so it must not leave --out-dir
    if not isinstance(name, str) or not name or any(bad in name for bad in ("/", "\\", "..")):
        raise ScenarioError(f"scenario.name: expected a plain file stem (no path separator "
                            f"or '..'), got {name!r}")
    algebra = _require(data, "algebra", name)
    kind = _require(algebra, "kind", f"{name}.algebra")
    dim = _require(algebra, "dim", f"{name}.algebra")
    if kind not in ("full", "diagonal"):
        raise ScenarioError(f"{name}.algebra.kind: expected 'full' or 'diagonal', got {kind!r}")
    if not isinstance(dim, int) or not 1 <= dim <= 8:
        raise ScenarioError(f"{name}.algebra.dim: expected an integer in 1..8, got {dim!r}")
    ptype = _require(data, "process_type", name)
    if ptype not in ("A", "B"):
        raise ScenarioError(f"{name}.process_type: expected 'A' or 'B', got {ptype!r}")
    horizon = _require(data, "horizon", name)
    if not isinstance(horizon, int) or horizon < 1:
        raise ScenarioError(f"{name}.horizon: expected a positive integer, got {horizon!r}")
    mode = data.get("mode", "strict")
    if mode not in ("strict", "permissive"):
        raise ScenarioError(f"{name}.mode: expected 'strict' or 'permissive', got {mode!r}")
    pipeline = data.get("pipeline", list(STAGES))
    if not isinstance(pipeline, list):
        raise ScenarioError(f"{name}.pipeline: expected a list of stages, got {pipeline!r}")
    pipeline = tuple(pipeline)
    for stage in pipeline:
        if stage not in STAGES:
            raise ScenarioError(f"{name}.pipeline: unknown stage {stage!r}")
    seen = set()
    for stage in pipeline:
        if stage in LATTICE_STAGES and "propagate" not in seen:
            raise ScenarioError(f"{name}.pipeline: stage {stage!r} requires 'propagate' first")
        if stage in ("axioms", "reconstruct", "ergodic") and "marginals" not in seen:
            raise ScenarioError(f"{name}.pipeline: stage {stage!r} requires 'marginals' first")
        seen.add(stage)
    if horizon < 2 and any(s in pipeline for s in LATTICE_STAGES):
        raise ScenarioError(f"{name}.horizon: composition stages need horizon >= 2")
    tolerances = data.get("tolerances", {})
    if not isinstance(tolerances, dict) or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool)
            and math.isfinite(v) and v >= 0 for v in tolerances.values()):
        raise ScenarioError(f"{name}.tolerances: expected an object of finite numbers >= 0, "
                            f"got {tolerances!r}")
    for key in tolerances:
        if key not in DEFAULT_TOLERANCES:
            raise ScenarioError(f"{name}.tolerances: unknown key {key!r} "
                                f"(expected one of {', '.join(DEFAULT_TOLERANCES)})")
    sc = Scenario(
        name=name, algebra_kind=kind, dim=dim, process_type=ptype,
        horizon=horizon, seed_spec=_require(data, "seed", name),
        initial_state=_require(data, "initial_state", name), mode=mode,
        tolerances={**DEFAULT_TOLERANCES, **tolerances},
        ensemble=data.get("ensemble", {"random": 20}),
        epsilon=_number(data, "epsilon", 1e-3, float, name),
        rng_seed=_check_seed(_number(data, "rng_seed", 12345, int, name), f"{name}.rng_seed"),
        sample_count=_number(data, "sample_count", 200, int, name), pipeline=pipeline,
    )
    return replace(sc, resolved=_resolve_seed(sc), pair_ensemble=_parse_ensemble(sc))


_NUMBER_RULES = {
    "epsilon": (lambda v: math.isfinite(v) and v > 0, "a finite number > 0"),
    "sample_count": (lambda v: v >= 0, "an integer >= 0"),
}


def _number(data: dict, key: str, default, kind, where: str):
    """A JSON number as ``kind``; bools, strings and, for ints, fractions are refused."""
    value = data.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{where}.{key}: expected a number, got {value!r}")
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ScenarioError(f"{where}.{key}: expected an integer, got {value!r}")
    try:
        number = kind(value)
    except OverflowError as exc:   # an integer too large for a float
        raise ScenarioError(f"{where}.{key}: expected a finite number, got {value!r}") from exc
    admissible, rule = _NUMBER_RULES.get(key, (lambda v: True, ""))
    if not admissible(number):
        raise ScenarioError(f"{where}.{key}: expected {rule}, got {value!r}")
    return number


def _check_seed(seed: int, where: str) -> int:
    """A run seed, which numpy's generators take only when it is >= 0."""
    if seed < 0:
        raise ScenarioError(f"{where}: expected an integer >= 0, got {seed!r}")
    return seed


def scenario_from_file(path) -> Scenario:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"{path}: parse error at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    return parse_scenario(data)


def _parse_state(spec: dict, dim: int, where: str) -> State:
    if not isinstance(spec, dict):
        raise ScenarioError(f"{where}: expected an object")
    try:
        if "diag" in spec:
            w = np.asarray(spec["diag"], dtype=float)
            if w.shape != (dim,):
                raise ScenarioError(f"{where}: diag length {w.shape} != algebra dim {dim}")
            return State.from_weights(w)
        if "matrix" in spec:
            m = pairs_to_complex_matrix(spec["matrix"])
            if m.shape != (dim, dim):
                raise ScenarioError(f"{where}: matrix shape {m.shape} != ({dim}, {dim})")
            return State(m)
        if spec.get("maximally_mixed"):
            return State.maximally_mixed(dim)
    except ScenarioError:
        raise
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{where}: {exc}") from exc
    raise ScenarioError(f"{where}: expected 'diag', 'matrix' or 'maximally_mixed'")


_QUANTUM_BUILTIN_MAPS = {
    "constant": lambda n: constant_step_map(State.maximally_mixed(n)),
    "mixed": lambda n: mixed_step_map(n),
    "entangling-mixed": lambda n: entangling_mixed_step_map(),
}

_CLASSICAL_BUILTIN_TENSORS = {
    "mendel": lambda spec, N: mendel_tensor(),
    "volterra": lambda spec, N: volterra_tensor(float(spec.get("a", 1.0))),
    "copy-second": lambda spec, N: copy_second_parent_tensor(N),
}


def _resolve_seed(sc: Scenario):
    """Build (QQSPSeed, ClassicalQSP | None) from the scenario seed spec.

    Classical tensors are lifted without their validity gate, which a
    strict run applies (see :func:`run_scenario`).
    """
    spec = sc.seed_spec
    omega0 = _parse_state(sc.initial_state, sc.dim, f"{sc.name}.initial_state")
    where = f"{sc.name}.seed"
    if not isinstance(spec, dict):
        raise ScenarioError(f"{where}: expected an object")
    if "builtin" in spec:
        if sc.algebra_kind != "full":
            raise ScenarioError(f"{where}: quantum builtins need a full matrix algebra")
        builder = _QUANTUM_BUILTIN_MAPS.get(spec["builtin"])
        if builder is None:
            raise ScenarioError(f"{where}: unknown builtin {spec['builtin']!r}")
        if spec["builtin"] == "entangling-mixed" and sc.dim != 2:
            raise ScenarioError(f"{where}: entangling-mixed is defined for dim 2")
        seed = QQSPSeed.from_single_map(builder(sc.dim), omega0, sc.horizon, sc.process_type)
        return seed, None
    if "classical" in spec:
        if sc.algebra_kind != "diagonal":
            raise ScenarioError(f"{where}: classical tensors need a diagonal algebra")
        cs = spec["classical"]
        if "builtin" in cs:
            builder = _CLASSICAL_BUILTIN_TENSORS.get(cs["builtin"])
            if builder is None:
                raise ScenarioError(f"{where}: unknown classical builtin {cs['builtin']!r}")
            tensor = builder(cs, sc.dim)
        elif "tensor" in cs:
            tensor = np.asarray(cs["tensor"], dtype=float)
        else:
            raise ScenarioError(f"{where}.classical: expected 'builtin' or 'tensor'")
        if tensor.shape != (sc.dim,) * 3:
            raise ScenarioError(
                f"{where}: tensor shape {tensor.shape} != {(sc.dim,) * 3}")
        try:
            classical = ClassicalQSP.homogeneous(
                tensor, omega0.diagonal_weights(), sc.horizon, sc.process_type)
            seed = lift_to_quantum(classical, strict=False)
        except ValueError as exc:
            raise ScenarioError(f"{where}: {exc}") from exc
        return seed, classical
    if "step_maps" in spec:
        n = sc.dim
        mats = spec["step_maps"]
        if not isinstance(mats, list):
            raise ScenarioError(f"{where}.step_maps: expected a list of matrices, got {mats!r}")
        if len(mats) not in (1, sc.horizon):
            raise ScenarioError(
                f"{where}.step_maps: expected 1 or {sc.horizon} matrices, got {len(mats)}")
        maps = []
        for k, rows in enumerate(mats):
            try:
                m = pairs_to_complex_matrix(rows)
            except ValueError as exc:
                raise ScenarioError(f"{where}.step_maps[{k}]: {exc}") from exc
            if m.shape != (n ** 4, n ** 2):
                raise ScenarioError(
                    f"{where}.step_maps[{k}]: shape {m.shape} != ({n ** 4}, {n ** 2})")
            maps.append(SuperMap(n, n * n, m))
        if len(maps) == 1:
            seed = QQSPSeed.from_single_map(maps[0], omega0, sc.horizon, sc.process_type,
                                            algebra_kind=sc.algebra_kind)
        else:
            seed = QQSPSeed(tuple(maps), omega0, sc.process_type,
                            algebra_kind=sc.algebra_kind)
        return seed, None
    raise ScenarioError(f"{where}: expected 'builtin', 'classical' or 'step_maps'")


def _parse_ensemble(sc: Scenario):
    """(pair count, explicit pairs on M, explicit pairs on M (x) M) of the ensemble."""
    ens = sc.ensemble
    if not isinstance(ens, dict):
        raise ScenarioError(f"{sc.name}.ensemble: expected an object")
    if "random" in ens:
        count = ens["random"]
        if not isinstance(count, int) or isinstance(count, bool) or count < 1:
            raise ScenarioError(f"{sc.name}.ensemble.random: expected a positive integer")
        return count, (), ()
    if "pairs" in ens:
        if not isinstance(ens["pairs"], list):
            raise ScenarioError(f"{sc.name}.ensemble.pairs: expected a list of pairs")
        single, double = [], []
        for idx, pair in enumerate(ens["pairs"]):
            where = f"{sc.name}.ensemble.pairs[{idx}]"
            a = _parse_state(_require(pair, "a", where), _pair_dim(pair, sc, where), where)
            b = _parse_state(_require(pair, "b", where), a.dim, where)
            (single if a.dim == sc.dim else double).append((a, b))
        return max(len(single), len(double), 1), tuple(single), tuple(double)
    raise ScenarioError(f"{sc.name}.ensemble: expected 'random' or 'pairs'")


def _pair_dim(pair: dict, sc: Scenario, where: str) -> int:
    spec = pair["a"]
    entries = spec.get("diag", spec.get("matrix")) if isinstance(spec, dict) else None
    if not isinstance(entries, list):
        raise ScenarioError(f"{where}: pair states need explicit entries")
    d = len(entries)
    if d not in (sc.dim, sc.dim * sc.dim):
        raise ScenarioError(f"{where}: state dim {d} is neither n nor n^2")
    return d


def builtin_scenarios() -> dict:
    """The named scenario catalog, keyed by scenario name."""
    full_pipe = list(STAGES)
    defs = [
        {
            "name": "constant-n2",
            "algebra": {"kind": "full", "dim": 2},
            "process_type": "A", "horizon": 6, "mode": "strict",
            "seed": {"builtin": "constant"},
            "initial_state": {"maximally_mixed": True},
            "pipeline": full_pipe,
        },
        {
            "name": "mixed-n2-typeA",
            "algebra": {"kind": "full", "dim": 2},
            "process_type": "A", "horizon": 8, "mode": "strict",
            "seed": {"builtin": "mixed"},
            "initial_state": {"diag": [0.7, 0.3]},
            "pipeline": full_pipe,
        },
        {
            "name": "mixed-n2-typeB",
            "algebra": {"kind": "full", "dim": 2},
            "process_type": "B", "horizon": 8, "mode": "strict",
            "seed": {"builtin": "entangling-mixed"},
            "initial_state": {"diag": [0.7, 0.3]},
            "pipeline": full_pipe,
        },
        {
            "name": "volterra-a1-typeA",
            "algebra": {"kind": "diagonal", "dim": 2},
            "process_type": "A", "horizon": 6, "mode": "strict",
            "seed": {"classical": {"builtin": "volterra", "a": 1.0}},
            "initial_state": {"diag": [0.5, 0.5]},
            "pipeline": full_pipe,
        },
        {
            "name": "volterra-a1-typeB",
            "algebra": {"kind": "diagonal", "dim": 2},
            "process_type": "B", "horizon": 6, "mode": "strict",
            "seed": {"classical": {"builtin": "volterra", "a": 1.0}},
            "initial_state": {"diag": [0.5, 0.5]},
            "pipeline": full_pipe,
        },
        {
            "name": "mendel-typeA",
            "algebra": {"kind": "diagonal", "dim": 2},
            "process_type": "A", "horizon": 6, "mode": "strict",
            "seed": {"classical": {"builtin": "mendel"}},
            "initial_state": {"diag": [0.3, 0.7]},
            "pipeline": full_pipe,
        },
        {
            "name": "identity-like-typeA",
            "algebra": {"kind": "diagonal", "dim": 2},
            "process_type": "A", "horizon": 8, "mode": "permissive",
            "seed": {"classical": {"builtin": "copy-second"}},
            "initial_state": {"diag": [0.6, 0.4]},
            "pipeline": full_pipe,
        },
    ]
    return {d["name"]: parse_scenario(d) for d in defs}


def _choi_row(step, diag) -> dict:
    return {
        "step": step,
        "is_cp": diag.choi.is_cp,
        "is_unital": diag.choi.is_unital,
        "min_choi_eigenvalue": diag.choi.min_choi_eigenvalue,
        "unitality_residual": diag.choi.unitality_residual,
        "flip_residual": diag.flip_residual,
    }


def _table_dict(table) -> dict:
    return {"max": table.max_residual,
            "entries": {k: v for k, v in table.sorted_items()}}


class _PipelineState:
    def __init__(self):
        self.lattice: Family | None = None
        self.families: dict = {}
        self.classical: ClassicalQSP | None = None
        self.rebuilt: Family | None = None   # the lattice rebuilt from (Q, H), once checked


def run_scenario(sc: Scenario, mode: str | None = None,
                 seed: int | None = None) -> Report:
    """Execute the pipeline stages in order and assemble the Report.

    Strict-mode mathematical failures raise ValidationFailure, and so does
    a computed state that fails State's checks, in either mode; scenario
    inconsistencies raise ScenarioError. File emission is the caller's
    business (see :func:`qqsp.report.emit_report`).
    """
    if mode is not None:
        sc = replace(sc, mode=mode)
    if seed is not None:
        sc = replace(sc, rng_seed=_check_seed(seed, f"{sc.name}: run seed"))
    report = Report(scenario_echo=sc.to_dict(), run_seed=sc.rng_seed, mode=sc.mode)
    ctx = _PipelineState()
    qqsp_seed, ctx.classical = sc.resolved or _resolve_seed(sc)
    if sc.mode == "strict" and ctx.classical is not None:
        require_valid_tensors(ctx.classical)
    for stage in sc.pipeline:
        started = time.perf_counter()
        _STAGE_RUNNERS[stage](sc, qqsp_seed, ctx, report)
        report.timings[stage] = time.perf_counter() - started
    return report


def run_scenario_file(path, out_dir=".", fmt: str = "structured",
                      mode: str | None = None, seed: int | None = None):
    """Parse a scenario file, run it, and emit its report files.

    Returns (Report, written paths). Convenience wrapper around
    :func:`scenario_from_file`, :func:`run_scenario` and
    :func:`qqsp.report.emit_report`.
    """
    from .report import emit_report

    report = run_scenario(scenario_from_file(path), mode=mode, seed=seed)
    return report, emit_report(report, out_dir, fmt)


def _stage_validate(sc, seed, ctx, report):
    out: dict = {}
    if ctx.classical is not None:
        out["classical"] = [
            {"key": d.key, "symmetry_residual": d.symmetry_residual,
             "min_entry": d.min_entry,
             "normalization_residual": d.normalization_residual,
             "ok": d.ok(1e-12)}
            for d in classical_validate(ctx.classical)]
    diagnostics = seed_diagnostics(seed, sc.tolerances["cp"], sc.tolerances["unital"])
    out["steps"] = [_choi_row(d.step, d) for d in diagnostics]
    issues = seed_issues(diagnostics, sc.tolerances["flip"])
    out["issues"] = [{"step": i.step, "kind": i.kind, "residual": i.residual}
                     for i in issues]
    report.stages["validate"] = out
    report.verdicts["seed_valid"] = not issues
    if issues and sc.mode == "strict":
        raise ValidationFailure(
            f"scenario {sc.name}: seed validation failed with {len(issues)} issue(s)")


def _stage_propagate(sc, seed, ctx, report):
    # a strict validate stage has already accepted the seed at the scenario's tolerances
    ctx.lattice = propagate(seed, strict=(sc.mode == "strict"
                                          and "validate" not in report.stages))
    traj = [list(ctx.lattice.omega(t).diagonal_weights())
            for t in range(ctx.lattice.horizon + 1)]
    report.trajectory = traj
    report.stages["propagate"] = {
        "horizon": ctx.lattice.horizon,
        "omega_trajectory": [complex_matrix_to_pairs(ctx.lattice.omega(t).rho)
                             for t in range(ctx.lattice.horizon + 1)],
        "omega_diagonals": traj,
    }


def _stage_kc(sc, seed, ctx, report):
    table = kc_consistency(ctx.lattice)
    report.stages["kc"] = _table_dict(table)
    report.verdicts["kc_ok"] = table.ok(sc.tolerances["kc"])


def _stage_marginals(sc, seed, ctx, report):
    lat = ctx.lattice
    if lat.process_type == "A":
        q = build_Q(lat)
        hh = build_H(lat)
        zz = build_Z(hh)
    else:
        hh = build_h(lat)
        q = hh.companion_q
        zz = build_z(hh)
    ctx.families = {"Q": q, hh.kind: hh, zz.kind: zz}
    out = {"kinds": sorted(ctx.families)}
    worst = 0.0
    for kind, fam in sorted(ctx.families.items()):
        table = check_markov(fam)
        out[f"composition_{kind}"] = _table_dict(table)
        worst = max(worst, table.max_residual)
    if "h" in ctx.families:
        out["plain_markov_h"] = _table_dict(check_markov(ctx.families["h"], law="plain"))
    out["slices"] = slice_residuals(lat, q, hh, zz)
    report.stages["marginals"] = out
    report.verdicts["composition_ok"] = worst <= sc.tolerances["markov"]


def _stage_axioms(sc, seed, ctx, report):
    lat, q = ctx.lattice, ctx.families["Q"]
    hh = ctx.families.get("H") or ctx.families.get("h")
    ctx.rebuilt = reconstruct_qqsp(q, hh, lat.omega(0), lat.process_type, strict=False)
    rep = verify_marginal_axioms(q, hh, ctx.rebuilt)
    report.stages["axioms"] = {
        "flip": _table_dict(rep.flip),
        "exchange": _table_dict(rep.exchange),
        "absorption": _table_dict(rep.absorption),
        "trajectory_gap": rep.trajectory_gap,
        "max_residual": rep.max_residual,
    }
    report.verdicts["axioms_ok"] = rep.ok(sc.tolerances["axiom"])
    if sc.mode == "strict" and not rep.ok(sc.tolerances["axiom"]):
        raise ValidationFailure(
            f"scenario {sc.name}: axiom suite failed (max residual {rep.max_residual:.3e})")


def _stage_reconstruct(sc, seed, ctx, report):
    lat, q = ctx.lattice, ctx.families["Q"]
    rec = ctx.rebuilt
    if rec is None:   # no axioms stage has checked the pair
        hh = ctx.families.get("H") or ctx.families.get("h")
        rec = reconstruct_qqsp(q, hh, lat.omega(0), lat.process_type,
                               strict=sc.mode == "strict", tol=sc.tolerances["axiom"])
    deviation = pair_residuals(lat, rec.map, lat.map, "map-deviation").max_residual
    conclusion_b = pair_residuals(rec, lambda s, t: rec.expectations[s] @ rec.map(s, t),
                                  q.map, "conclusion-b").max_residual
    out = {
        "max_map_deviation": deviation,
        "conclusion_b_residual": conclusion_b,
        "fundamental_equation_max": kc_consistency(rec).max_residual,
    }
    if lat.process_type == "B":
        out["state_consistency_residual"] = state_consistency_residual(q).max_residual
    report.stages["reconstruct"] = out
    report.verdicts["roundtrip_ok"] = deviation <= 1e-10


def _stage_ergodic(sc, seed, ctx, report):
    count, single, double = sc.pair_ensemble or _parse_ensemble(sc)
    config = ErgodicConfig(
        epsilon=sc.epsilon, pair_count=count, rng_seed=sc.rng_seed,
        sample_count=sc.sample_count,
        explicit_single=single, explicit_double=double)
    rep = ergodic_verdict(ctx.lattice, ctx.families, config)
    report.decay_series = dict(rep.traces)
    report.stages["ergodic"] = {
        "epsilon": rep.epsilon,
        "horizon": rep.horizon,
        "contraction": {"s": rep.contraction.s, "t": rep.contraction.t,
                        "lambda": rep.contraction.lam,
                        "method": rep.contraction.method,
                        "sample_count": rep.contraction.sample_count},
        "families": {kind: {"final_max_distance": v.final_max_distance,
                            "ergodic": v.ergodic,
                            "max_step_ratio": v.max_step_ratio}
                     for kind, v in rep.verdicts.items()},
        "all_agree": rep.all_agree,
        "ergodic_at_horizon": rep.ergodic_at_horizon,
    }
    report.verdicts["ergodic_at_horizon"] = rep.ergodic_at_horizon
    report.verdicts["verdicts_agree"] = rep.all_agree


_STAGE_RUNNERS = {
    "validate": _stage_validate,
    "propagate": _stage_propagate,
    "kc": _stage_kc,
    "marginals": _stage_marginals,
    "axioms": _stage_axioms,
    "reconstruct": _stage_reconstruct,
    "ergodic": _stage_ergodic,
}

"""Scenario parsing, the built-in catalog, and the pipeline runner.

A scenario is a plain JSON document: algebra, seed specification, initial
state, process type, horizon, tolerances, ensemble, and an ordered list
of pipeline stages. Complex matrices appear as dense row-major lists of
[re, im] pairs. Identical scenario + seed means byte-identical reports.
"""

from __future__ import annotations

import json
import math
import resource
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .algebra import State, SuperMap
from .classical import (
    ClassicalQSP,
    classical_validate,
    copy_second_parent_tensor,
    diagonal_layout,
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
    composition_from_kc,
    composition_from_q,
    conclusion_b_residuals,
    rebuilt_kc,
    reconstruct_qqsp,
    slice_residuals,
    state_consistency_residual,
    verify_marginal_axioms,
)
from .process import (
    Family,
    QQSPSeed,
    ResidualTable,
    ValidationFailure,
    kc_consistency,
    propagate,
    reject_seed,
    seed_diagnostics,
    seed_issues,
)
from .report import Report, complex_matrix_to_pairs, is_number, pairs_to_complex_matrix
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


# the bytes of the largest state stack an ergodic count may ask for: the pair ensemble
# on M (x) M or the contraction coefficient's sampled pure pairs on M; the ensemble
# peaks at about two times its stack (three for 4 x 4 states, whose State objects
# weigh about as much as their matrices)
ERGODIC_STACK_BYTES = 1 << 26
# the bytes of the one lattice array propagate allocates: T(T+1)/2 maps of n^4 x n^2
LATTICE_BYTES = 1 << 30
# a seed holds T step maps whatever its pipeline; above 11584, the longest lattice at n = 1
MAX_HORIZON = 1 << 14


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


SCENARIO_FIELDS = ("name", "algebra", "process_type", "horizon", "mode", "seed",
                   "initial_state", "tolerances", "ensemble", "epsilon", "rng_seed",
                   "sample_count", "pipeline")


def _require(data: dict, key: str, where: str):
    if not isinstance(data, dict):
        raise ScenarioError(f"{where}: expected an object")
    if key not in data:
        raise ScenarioError(f"{where}: missing required field {key!r}")
    return data[key]


def _fields(data: dict, known, where: str, alternatives=()) -> None:
    """Refuse a field of the object ``data`` that is not ``known``, and two ``alternatives``."""
    for key in data:
        if key not in known:
            raise ScenarioError(f"{where}.{key}: unknown field (expected one of "
                                f"{', '.join(known)})")
    given = [key for key in alternatives if key in data]
    if len(given) > 1:
        raise ScenarioError(f"{where}: expected one of {', '.join(map(repr, given))}, got both")


def parse_scenario(data: dict) -> Scenario:
    """Validate a scenario dict; raises ScenarioError with the failing field."""
    if not isinstance(data, dict):
        raise ScenarioError("scenario must be a JSON object")
    name = _require(data, "name", "scenario")
    # the name is the stem of every report file, so it must not leave --out-dir, and the
    # file system refuses a NUL byte in a path
    if (not isinstance(name, str) or not name
            or any(bad in name for bad in ("/", "\\", "..", "\0"))):
        raise ScenarioError(f"scenario.name: expected a plain file stem (no path separator, "
                            f"'..' or NUL byte), got {name!r}")
    _fields(data, SCENARIO_FIELDS, name)
    algebra = _require(data, "algebra", name)
    kind = _require(algebra, "kind", f"{name}.algebra")
    dim = _require(algebra, "dim", f"{name}.algebra")
    _fields(algebra, ("kind", "dim"), f"{name}.algebra")
    if kind not in ("full", "diagonal"):
        raise ScenarioError(f"{name}.algebra.kind: expected 'full' or 'diagonal', got {kind!r}")
    if isinstance(dim, bool) or not isinstance(dim, int) or not 1 <= dim <= 8:
        raise ScenarioError(f"{name}.algebra.dim: expected an integer in 1..8, got {dim!r}")
    ptype = _require(data, "process_type", name)
    if ptype not in ("A", "B"):
        raise ScenarioError(f"{name}.process_type: expected 'A' or 'B', got {ptype!r}")
    horizon = _require(data, "horizon", name)
    if isinstance(horizon, bool) or not isinstance(horizon, int) or horizon < 1:
        raise ScenarioError(f"{name}.horizon: expected a positive integer, got {horizon!r}")
    if horizon > MAX_HORIZON:
        raise ScenarioError(f"{name}.horizon: {horizon} is over the {MAX_HORIZON} steps a "
                            f"seed may hold")
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
        if stage in seen:
            raise ScenarioError(f"{name}.pipeline: stage {stage!r} is given twice")
        if stage in LATTICE_STAGES and "propagate" not in seen:
            raise ScenarioError(f"{name}.pipeline: stage {stage!r} requires 'propagate' first")
        if stage in ("axioms", "reconstruct", "ergodic") and "marginals" not in seen:
            raise ScenarioError(f"{name}.pipeline: stage {stage!r} requires 'marginals' first")
        seen.add(stage)
    if horizon < 2 and any(s in pipeline for s in LATTICE_STAGES):
        raise ScenarioError(f"{name}.horizon: composition stages need horizon >= 2")
    lattice_bytes = horizon * (horizon + 1) // 2 * dim ** 6 * np.dtype(complex).itemsize
    if "propagate" in pipeline and lattice_bytes > LATTICE_BYTES:
        raise ScenarioError(f"{name}.horizon: a lattice of horizon {horizon} on M_{dim} needs "
                            f"{lattice_bytes / 2 ** 30:.1f} GiB, over the "
                            f"{LATTICE_BYTES >> 20} MiB one lattice may take")
    tolerances = data.get("tolerances", {})
    if not isinstance(tolerances, dict) or not all(   # NaN, inf and 10**400 fail the range
            is_number(v) and 0 <= v <= sys.float_info.max for v in tolerances.values()):
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
        # a diagonal algebra and M_1 sample nothing (ergodic.contraction_coefficient)
        sample_count=_pair_count(_number(data, "sample_count", 200, int, name),
                                 dim if kind == "full" and dim > 1 else 0,
                                 f"{name}.sample_count"), pipeline=pipeline,
    )
    return replace(sc, resolved=_resolve_seed(sc), pair_ensemble=_parse_ensemble(sc))


_NUMBER_RULES = {
    "epsilon": (lambda v: math.isfinite(v) and v > 0, "a finite number > 0"),
    "sample_count": (lambda v: v >= 0, "an integer >= 0"),
}


def _number(data: dict, key: str, default, kind, where: str):
    """A JSON number as ``kind``; bools, strings and, for ints, fractions are refused."""
    value = data.get(key, default)
    if not is_number(value):
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


def _pair_count(count: int, side: int, where: str) -> int:
    """A count of state pairs on M_side, refused if their stack passes ERGODIC_STACK_BYTES."""
    need = 2 * count * side * side * np.dtype(complex).itemsize
    if need > ERGODIC_STACK_BYTES:
        mib, rest = divmod(need, 1 << 20)   # need / 2^20 rounded half to even, in ints
        mib += rest > 1 << 19 or rest == 1 << 19 and mib & 1
        raise ScenarioError(f"{where}: {count} pairs of {side} x {side} states need "
                            f"{mib} MiB, over the "
                            f"{ERGODIC_STACK_BYTES >> 20} MiB an ergodic stack may take")
    return count


def _check_seed(seed: int, where: str) -> int:
    """A run seed, which numpy's generators take only when it is >= 0."""
    if seed < 0:
        raise ScenarioError(f"{where}: expected an integer >= 0, got {seed!r}")
    return seed


def scenario_from_file(path) -> Scenario:
    """The scenario of a UTF-8 JSON file; a file that cannot be read, decoded or parsed is a
    ScenarioError naming it."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{path}: not UTF-8 text at byte {exc.start}: {exc.reason}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"{path}: parse error at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ScenarioError(f"{path}: JSON nested too deeply to parse") from exc
    return parse_scenario(data)


def _finite_array(value, where: str) -> np.ndarray:
    """A JSON array of finite real numbers; json accepts NaN and Infinity, and numpy reads
    true, false and numeric strings as numbers: this does not."""
    try:
        array = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ScenarioError(f"{where}: expected an array of numbers ({exc})") from exc
    if not all(map(is_number, np.asarray(value, dtype=object).flat)):
        raise ScenarioError(f"{where}: entries must be numbers, not true, false or strings")
    if not np.isfinite(array).all():
        raise ScenarioError(f"{where}: entries must be finite numbers")
    return array


def _parse_state(spec: dict, dim: int, where: str, diagonal: bool) -> State:
    """A state on M_dim; on a diagonal algebra a matrix must have exact zeros off the diagonal."""
    if not isinstance(spec, dict):
        raise ScenarioError(f"{where}: expected an object")
    kinds = ("diag", "matrix", "maximally_mixed")
    _fields(spec, kinds, where, alternatives=kinds)
    try:
        if "diag" in spec:
            w = _finite_array(spec["diag"], f"{where}.diag")
            if w.shape != (dim,):
                raise ScenarioError(f"{where}: diag length {w.shape} != algebra dim {dim}")
            return State.from_weights(w)
        if "matrix" in spec:
            m = pairs_to_complex_matrix(spec["matrix"])
            if m.shape != (dim, dim):
                raise ScenarioError(f"{where}: matrix shape {m.shape} != ({dim}, {dim})")
            if diagonal and np.any(m[~np.eye(dim, dtype=bool)] != 0):
                raise ScenarioError(f"{where}.matrix: a diagonal algebra takes only diagonal "
                                    f"matrices")
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

def _volterra(spec: dict, where: str):
    a = _number(spec, "a", 1.0, float, where)
    try:
        return volterra_tensor(a)
    except ValueError as exc:
        raise ScenarioError(f"{where}.a: {exc}") from exc


_CLASSICAL_BUILTIN_TENSORS = {   # (spec, N, where) -> tensor
    "mendel": lambda spec, N, where: mendel_tensor(),
    "volterra": lambda spec, N, where: _volterra(spec, where),
    "copy-second": lambda spec, N, where: copy_second_parent_tensor(N),
}


def _builtin(catalog: dict, spec: dict, where: str):
    """The builder ``catalog`` holds under the name ``spec["builtin"]``."""
    name = spec["builtin"]
    if not isinstance(name, str) or name not in catalog:
        raise ScenarioError(f"{where}: unknown builtin {name!r} "
                            f"(expected one of {', '.join(catalog)})")
    return catalog[name]


def _resolve_seed(sc: Scenario):
    """Build (QQSPSeed, ClassicalQSP | None) from the scenario seed spec.

    Classical tensors are lifted without their validity gate, which a
    strict run applies (see :func:`run_scenario`).
    """
    spec = sc.seed_spec
    diagonal = sc.algebra_kind == "diagonal"
    omega0 = _parse_state(sc.initial_state, sc.dim, f"{sc.name}.initial_state", diagonal)
    where = f"{sc.name}.seed"
    if not isinstance(spec, dict):
        raise ScenarioError(f"{where}: expected an object")
    kinds = ("builtin", "classical", "step_maps")
    _fields(spec, kinds, where, alternatives=kinds)
    if "builtin" in spec:
        if sc.algebra_kind != "full":
            raise ScenarioError(f"{where}: quantum builtins need a full matrix algebra")
        builder = _builtin(_QUANTUM_BUILTIN_MAPS, spec, f"{where}.builtin")
        if spec["builtin"] == "entangling-mixed" and sc.dim != 2:
            raise ScenarioError(f"{where}: entangling-mixed is defined for dim 2")
        seed = QQSPSeed.from_single_map(builder(sc.dim), omega0, sc.horizon, sc.process_type)
        return seed, None
    if "classical" in spec:
        if sc.algebra_kind != "diagonal":
            raise ScenarioError(f"{where}: classical tensors need a diagonal algebra")
        cs = spec["classical"]
        if not isinstance(cs, dict):
            raise ScenarioError(f"{where}.classical: expected an object")
        volterra = cs.get("builtin") == "volterra"   # the one builtin that reads a parameter
        _fields(cs, ("builtin", "tensor", *(("a",) if volterra else ())), f"{where}.classical",
                alternatives=("builtin", "tensor"))
        if "builtin" in cs:
            builder = _builtin(_CLASSICAL_BUILTIN_TENSORS, cs, f"{where}.classical.builtin")
            tensor = builder(cs, sc.dim, f"{where}.classical")
        elif "tensor" in cs:
            tensor = _finite_array(cs["tensor"], f"{where}.classical.tensor")
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
            if diagonal:   # a map of the diagonal algebra: E_ii to a diagonal element, E_ij to 0
                kept = np.zeros(m.shape, dtype=bool)
                rows, cols = diagonal_layout(n)
                kept[rows[:, None], cols] = True
                bad = np.flatnonzero(np.any((m != 0) & ~kept, axis=0))
                if bad.size:
                    i, j = bad[0] % n, bad[0] // n   # column i + n j is vec E_ij
                    raise ScenarioError(
                        f"{where}.step_maps[{k}]: the image of E_{i}{j} is "
                        f"{'not diagonal' if i == j else 'not 0'}, as a diagonal algebra requires")
            maps.append(SuperMap(n, n * n, m))
        # one map serves every step, as QQSPSeed.from_single_map holds it
        return QQSPSeed(tuple(maps) * (sc.horizon // len(maps)), omega0, sc.process_type,
                        algebra_kind=sc.algebra_kind), None
    raise ScenarioError(f"{where}: expected 'builtin', 'classical' or 'step_maps'")


def _parse_ensemble(sc: Scenario):
    """(pair count, explicit pairs on M, explicit pairs on M (x) M) of the ensemble."""
    ens = sc.ensemble
    if not isinstance(ens, dict):
        raise ScenarioError(f"{sc.name}.ensemble: expected an object")
    _fields(ens, ("random", "pairs"), f"{sc.name}.ensemble", alternatives=("random", "pairs"))
    if "random" in ens:
        count = ens["random"]
        if not isinstance(count, int) or isinstance(count, bool) or count < 1:
            raise ScenarioError(f"{sc.name}.ensemble.random: expected a positive integer")
        return _pair_count(count, sc.dim * sc.dim, f"{sc.name}.ensemble.random"), (), ()
    if "pairs" in ens:
        if not isinstance(ens["pairs"], list):
            raise ScenarioError(f"{sc.name}.ensemble.pairs: expected a list of pairs")
        if not ens["pairs"]:   # an empty ensemble would be sampled instead
            raise ScenarioError(f"{sc.name}.ensemble.pairs: expected at least one pair")
        single, double = [], []
        diagonal = sc.algebra_kind == "diagonal"
        for idx, pair in enumerate(ens["pairs"]):
            where = f"{sc.name}.ensemble.pairs[{idx}]"
            spec_a = _require(pair, "a", where)
            _fields(pair, ("a", "b"), where)
            a = _parse_state(spec_a, _pair_dim(pair, sc, where), f"{where}.a", diagonal)
            b = _parse_state(_require(pair, "b", where), a.dim, f"{where}.b", diagonal)
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
    def doc(name, kind, ptype, horizon, seed, state, **extra) -> dict:
        return {"name": name, "algebra": {"kind": kind, "dim": 2}, "process_type": ptype,
                "horizon": horizon, "seed": seed, "initial_state": state, **extra}

    def volterra():
        return {"classical": {"builtin": "volterra", "a": 1.0}}

    defs = [
        doc("constant-n2", "full", "A", 6, {"builtin": "constant"}, {"maximally_mixed": True}),
        doc("mixed-n2-typeA", "full", "A", 8, {"builtin": "mixed"}, {"diag": [0.7, 0.3]}),
        doc("mixed-n2-typeB", "full", "B", 8, {"builtin": "entangling-mixed"},
            {"diag": [0.7, 0.3]}),
        doc("volterra-a1-typeA", "diagonal", "A", 6, volterra(), {"diag": [0.5, 0.5]}),
        doc("volterra-a1-typeB", "diagonal", "B", 6, volterra(), {"diag": [0.5, 0.5]}),
        doc("mendel-typeA", "diagonal", "A", 6, {"classical": {"builtin": "mendel"}},
            {"diag": [0.3, 0.7]}),
        doc("identity-like-typeA", "diagonal", "A", 8, {"classical": {"builtin": "copy-second"}},
            {"diag": [0.6, 0.4]}, mode="permissive"),
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
    # in the table's own order: the report's encoder sorts the keys
    return {"max": table.max_residual,
            "entries": dict(zip(table.keys.texts, table.values.tolist()))}


class _PipelineState:
    def __init__(self):
        self.lattice: Family | None = None
        self.families: dict = {}
        self.classical: ClassicalQSP | None = None
        self.rebuilt: Family | None = None   # the lattice rebuilt from (Q, H), once checked
        self.kc: ResidualTable | None = None   # formed once, by kc or by marginals


def run_scenario(sc: Scenario, mode: str | None = None,
                 seed: int | None = None) -> Report:
    """Execute the pipeline stages in order and assemble the Report.

    Strict-mode failures, and in either mode a computed state that fails State's checks,
    raise ValidationFailure; scenario inconsistencies raise ScenarioError. Each stage's
    seconds and peak RSS after it (``ru_maxrss``, KiB) go to the timings sidecar only.
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
        report.peak_rss_kib[stage] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return report


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
    # strict mode judges the seed once, at the scenario's tolerances; a validate
    # stage has already done so when it ran
    if sc.mode == "strict" and "validate" not in report.stages:
        tol = sc.tolerances
        reject_seed(seed_issues(seed_diagnostics(seed, tol["cp"], tol["unital"]), tol["flip"]))
    ctx.lattice = propagate(seed, strict=False)
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
    table = ctx.kc = ctx.kc or kc_consistency(ctx.lattice)
    report.stages["kc"] = _table_dict(table)
    report.verdicts["kc_ok"] = table.ok(sc.tolerances["kc"])


def _stage_marginals(sc, seed, ctx, report):
    lat = ctx.lattice
    q = build_Q(lat)
    if lat.process_type == "A":
        hh = build_H(lat)
        zz = build_Z(hh, q)
    else:
        hh = build_h(lat)
        zz = build_z(hh, q)
    ctx.families = {"Q": q, hh.kind: hh, zz.kind: zz}
    out = {"kinds": sorted(ctx.families)}
    # H/h's table is the kc table's, and Z/z's is bounded from Q's
    ctx.kc = ctx.kc or kc_consistency(lat)
    tables = {"Q": check_markov(q), hh.kind: composition_from_kc(ctx.kc, hh)}
    tables[zz.kind] = composition_from_q(zz, q, tables["Q"])
    for kind, table in tables.items():
        out[f"composition_{kind}"] = _table_dict(table)
    worst = max(0.0, *(table.max_residual for table in tables.values()))
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
    rec, hh = ctx.rebuilt, ctx.families.get("H") or ctx.families.get("h")
    if rec is None:   # no axioms stage has checked the pair
        rec = reconstruct_qqsp(q, hh, lat.omega(0), lat.process_type,
                               strict=sc.mode == "strict", tol=sc.tolerances["axiom"])
    # the rebuilt maps are H^{s,t} embed: ||H^{s,t} embed - P^{s,t}|| is the reconstruction slot
    deviation = report.stages["marginals"]["slices"]["reconstruction_slot"]
    out = {
        "max_map_deviation": deviation,
        "conclusion_b_residual": conclusion_b_residuals(q, hh, rec).max_residual,
        "fundamental_equation_max": rebuilt_kc(q, hh, rec, ctx.kc).max_residual,
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

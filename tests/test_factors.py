"""Exact factors of the marginal identities, stacked calls and one-walk reports."""

import importlib.util
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qqsp import __version__
from qqsp.algebra import (
    ScaledMapStack,
    State,
    SuperMap,
    expectation_matrices,
    expectation_supermap,
    predual,
)
from qqsp.classical import ClassicalQSP, lift_to_quantum, volterra_tensor
from qqsp.linalg import chunks, operator_norm, operator_norms, unit_tensor_matrix, vec
from qqsp.marginal import (
    build_H,
    build_Q,
    build_Z,
    build_h,
    build_z,
    reconstruct_qqsp,
    slice_residuals,
    state_consistency_residual,
    verify_marginal_axioms,
)
from qqsp.process import (
    Family,
    QQSPSeed,
    ValidationFailure,
    computed_states,
    propagate,
)
from qqsp.scenarios import builtin_scenarios, parse_scenario, run_scenario
from qqsp.seeds import make_entangling_seed, make_mixed_seed, mixed_step_map

from conftest import embed_averaged_supermap, embed_supermap, expectations, random_density

ROOT = Path(__file__).resolve().parents[1]


def _lattice(n, ptype, horizon=4):
    weights = np.arange(n, 0, -1) / (n * (n + 1) / 2)
    return propagate(QQSPSeed.from_single_map(mixed_step_map(n), State.from_weights(weights),
                                              horizon, ptype))


def _marginals(lat):
    q = build_Q(lat)
    if lat.process_type == "A":
        h = build_H(lat)
        return q, h, build_Z(h, q)
    h = build_h(lat)
    return q, h, build_z(h, q)


# ------------------------------------------------------------ exact identities

@pytest.mark.parametrize("n", [1, 2, 3])
def test_averaged_slot_and_constant_map_are_rank_one(rng, n):
    # E_omega embed_averaged = |vec 1><v_omega| and the constant map on M (x) M is
    # |vec 1 (x) 1><v_omega|, entry for entry, with v_omega . vec x = tr(rho x)
    for _ in range(3):
        omega = State(random_density(rng, n))
        v = omega.rho.reshape(-1)
        x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        assert np.isclose(v @ vec(x), np.trace(omega.rho @ x))
        averaged = expectation_supermap(omega) @ embed_averaged_supermap(n)
        assert np.array_equal(averaged.matrix, np.outer(vec(np.eye(n)), v))
        constant = SuperMap.constant(omega, n * n)
        assert np.array_equal(constant.matrix, np.outer(vec(np.eye(n * n)), v))


@pytest.mark.parametrize("n", range(1, 9))
def test_the_reconstruction_slot_is_the_trace_times_the_identity(rng, n):
    # E_omega(1 (x) x) = omega(1) x: the product E_omega embed comes out exactly S[0, 0] 1,
    # and S[0, 0] is tr(rho) up to the order BLAS sums the diagonal in
    for _ in range(10):
        omega = State(random_density(rng, n))
        slot = (expectation_supermap(omega) @ embed_supermap(n)).matrix
        assert np.array_equal(slot, slot[0, 0] * np.eye(n * n))
        trace = np.trace(omega.rho)
        assert abs(slot[0, 0] - trace) <= 4 * np.spacing(abs(trace))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_embed_is_root_n_times_an_isometry(n):
    emb = embed_supermap(n).matrix
    assert set(np.unique(emb)) <= {0, 1}
    assert np.array_equal(emb.conj().T @ emb, n * np.eye(n * n))


# ------------------------------------------------------------ Z/z on Q's maps

@pytest.mark.parametrize("ptype", ["A", "B"])
def test_z_holds_the_maps_of_q(ptype):
    lat = _lattice(2, ptype)
    q, h, z = _marginals(lat)
    assert z.factored and z.lead_norm == math.sqrt(2)
    assert z.maps.keys() == q.maps.keys()
    assert z.maps is q.maps   # Q's one array, shared, not copied per pair
    # embed Q^{s,t}, formed here, has the bits of embed(E_{omega_s} P^{s,t})
    es, emb = expectations(lat), embed_supermap(2)
    for s, t in lat.pairs():
        assert np.array_equal((emb @ z.maps[(s, t)]).matrix,
                              (emb @ (es[s] @ lat.map(s, t))).matrix)


@pytest.mark.parametrize("ptype", ["A", "B"])
def test_a_lattice_is_held_as_one_array(ptype):
    # every map of the lattice is a read-only view of its one array, which H/h hold as it
    # is; Q and Z/z hold Q's one array, and no array of E_{omega_t} is held
    lat = _lattice(2, ptype)
    q, h, z = _marginals(lat)
    p = lat.maps.array
    assert p.shape == (len(lat.pairs()), 16, 4) and not p.flags.writeable
    for i, key in enumerate(lat.pairs()):
        assert np.shares_memory(lat.map(*key).matrix, p[i])
        assert np.shares_memory(q.maps[key].matrix, q.maps.array[i])
    assert (build_H if ptype == "A" else build_h)(lat).maps.array is p
    assert h.maps.array is p and q.maps is lat.conditioned and z.maps.array is q.maps.array


def test_z_takes_only_the_q_of_its_lattice():
    lat, other = _lattice(2, "A"), _lattice(2, "A")
    h = build_H(lat)
    with pytest.raises(ValueError, match="shares its trajectory"):
        build_Z(h, build_Q(other))
    with pytest.raises(ValueError, match="shares its trajectory"):
        build_Z(h, h)
    with pytest.raises(ValueError, match="an h family"):
        build_z(h, build_Q(lat))


@pytest.mark.parametrize("ptype", ["A", "B"])
@pytest.mark.parametrize("ergodic", [True, False], ids=["ergodic", "no-ergodic"])
def test_no_embedded_core_is_formed_but_the_decay_traces(monkeypatch, ptype, ergodic):
    # no stage forms an n^4 x n^2 Z/z map embed Q^{s,t}: the decay trace takes Q's maps too
    stages = ["validate", "propagate", "kc", "marginals", "axioms", "reconstruct", "ergodic"]
    sc = parse_scenario({
        "name": f"mixed-n3-T4-{ptype}", "algebra": {"kind": "full", "dim": 3},
        "process_type": ptype, "horizon": 4, "seed": {"builtin": "mixed"},
        "initial_state": {"diag": [0.5, 0.3, 0.2]}, "ensemble": {"random": 2},
        "sample_count": 4, "pipeline": stages if ergodic else stages[:-1]})
    emb, original = embed_supermap(3), SuperMap.compose
    embedded = []

    def counted(self, other):
        if self is emb:
            embedded.append(other.matrix.shape)
        return original(self, other)

    monkeypatch.setattr(SuperMap, "compose", counted)
    report = run_scenario(sc)
    assert all(report.verdicts[k] for k in ("kc_ok", "composition_ok", "roundtrip_ok"))
    assert embedded == []


# ------------------------------------------------------ one norm per stored map

@pytest.mark.parametrize("ptype", ["A", "B"])
def test_the_marginals_take_the_trajectory_of_their_lattice(ptype):
    # the density stack, the Frobenius norms and the traces of omega_t are computed once per
    # run, on the lattice, with the bits of one matrix at a time
    lat = _lattice(3, ptype)
    for family in _marginals(lat):
        for name in ("rhos", "_rho_norms", "slot_scales"):
            assert getattr(family, name) is getattr(lat, name)
    assert lat._rho_norms == tuple(float(np.linalg.norm(w.rho)) for w in lat.omegas)
    assert [lat.trailing_norm(t) for t in range(5)] == [1.0] * 5
    h = _marginals(lat)[1]
    assert [h.trailing_norm(t) for t in range(5)] == list(lat._rho_norms)


@pytest.mark.parametrize("ptype", ["A", "B"])
def test_map_norms_equal_the_per_map_operator_norm(monkeypatch, ptype):
    import qqsp.process

    lat = _lattice(3, ptype)
    q, h, z = _marginals(lat)
    calls = []
    original = qqsp.process.operator_norms

    def counted(stack):
        calls.append(np.shape(stack))
        return original(stack)

    monkeypatch.setattr(qqsp.process, "operator_norms", counted)
    norms = h.map_norms
    # one call per chunk of the stored array, and once per family
    parts = [range(len(lat.maps))[part] for part in chunks(len(lat.maps), 81 * 9 * 16)]
    assert h.map_norms is norms and len(parts) > 1 and calls == [(len(p), 81, 9) for p in parts]
    monkeypatch.undo()
    assert norms.shape == (len(lat.pairs()),)
    for family in (h, z):
        for key, value in zip(family.pairs(), family.map_norms):
            assert value.tobytes() == np.float64(operator_norm(family.maps[key].matrix)).tobytes()


@pytest.mark.parametrize("ptype", ["A", "B"])
def test_a_run_forms_the_map_norms_once_per_family(monkeypatch, ptype):
    # the marginals stage and the axioms and reconstruct stages read H/h's norms off the one
    # family, and Z/z's once
    import qqsp.process

    calls = []
    original = qqsp.process.operator_norms

    def counted(stack):
        calls.append(np.shape(stack))
        return original(stack)

    monkeypatch.setattr(qqsp.process, "operator_norms", counted)
    n, horizon = 3, 4
    report = run_scenario(parse_scenario({
        "name": f"mixed-n{n}-T{horizon}-{ptype}", "algebra": {"kind": "full", "dim": n},
        "process_type": ptype, "horizon": horizon, "seed": {"builtin": "mixed"},
        "initial_state": {"diag": [0.5, 0.3, 0.2]},
        "pipeline": ["propagate", "marginals", "axioms", "reconstruct"]}))
    assert report.verdicts["roundtrip_ok"]
    pairs = horizon * (horizon + 1) // 2
    per_family = len(chunks(pairs, n ** 4 * n ** 2 * 16)) + len(chunks(pairs, n ** 4 * 16))
    assert len(calls) == per_family   # P's cores for H/h, Q's maps for Z/z


def test_slices_take_only_the_lattice_own_cores():
    # the norms of H's cores stand for P^{s,t} only when the cores are the lattice's maps,
    # and the norms of Z's maps for Q^{s,t} only when they are Q's own
    lat, other = _lattice(2, "A"), _lattice(2, "A")
    q, h, z = _marginals(lat)
    assert slice_residuals(lat, q, h, z)["reconstruction_slot"] <= 1e-14
    with pytest.raises(ValueError, match="cores"):
        slice_residuals(lat, q, build_H(other), z)
    with pytest.raises(ValueError, match="of this Q family"):
        slice_residuals(lat, build_Q(other), h, z)


def _absorption_by_qr(lat, h, rebuilt):
    """The absorption table by the thin-QR route: ||R^{s,t} R_t^dagger|| with D_t^dagger = Q_t R_t.

    D_t = E_{omega_t} - E_{omega_t} embed E_{psi_t} is placed and multiplied out, and each core
    C^{s,t} = Q R^{s,t} is normed on its R factor.
    """
    es, emb = expectations(lat), embed_supermap(lat.n)
    e_psi = expectations(rebuilt)
    want = {}
    for t in range(1, lat.horizon + 1):
        d = es[t].matrix - (es[t] @ emb @ e_psi[t]).matrix
        r_y = np.linalg.qr(d.conj().T, mode="r").conj().T
        group = [(s, t) for s in range(t)]
        norms = operator_norms(np.array([np.linalg.qr(h.maps[key].matrix, mode="r") @ r_y
                                         for key in group]))
        want.update(zip(group, map(float, norms)))
    return want


@pytest.mark.parametrize("ptype", ["A", "B"])
@pytest.mark.parametrize("omega0", [None, [0.1, 0.9]], ids=["own", "foreign"])
def test_absorption_is_the_qr_route_within_8_ulps(ptype, omega0):
    # ||C^{s,t}|| ||rho_t - c_t psi_t||_F against the placed D_t normed on two R factors, for
    # a pair rebuilt from its own initial state (rounding-sized gaps) and from a foreign one
    lat = _lattice(2 if omega0 else 3, ptype)
    q, h, _ = _marginals(lat)
    start = lat.omega(0) if omega0 is None else State.from_weights(omega0)
    rebuilt = reconstruct_qqsp(q, h, start, ptype, strict=False)
    got = verify_marginal_axioms(q, h, rebuilt).absorption.entries
    want = _absorption_by_qr(lat, h, rebuilt)
    assert got.keys() == want.keys() and max(want.values()) > 0
    assert all(abs(got[key] - value) <= 8 * np.spacing(value) for key, value in want.items())


# ----------------------------------------------- the rebuilt lattice as c_t P

def _rebuilt_rows(rebuilt):
    """Every map of a rebuilt lattice, by the one stacked read and by key, which must agree."""
    rows = rebuilt.maps.rows_at(np.arange(len(rebuilt.maps)))
    for key, row in zip(rebuilt.maps.order, rows):
        assert np.array_equal(rebuilt.maps[key].matrix, row)
    return rows


@pytest.mark.parametrize("ptype", ["A", "B"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_the_rebuilt_lattice_is_p_scaled_by_the_slot(n, ptype):
    # S_t = E_{omega_t} embed is exactly c_t 1, so the rebuilt lattice holds P's own array
    # and its maps, scaled as they are read, have the bits of the products H^{s,t} S_t
    lat = _lattice(n, ptype)
    q, h, _ = _marginals(lat)
    rebuilt = reconstruct_qqsp(q, h, lat.omega(0), ptype, strict=False)
    assert isinstance(rebuilt.maps, ScaledMapStack)
    assert rebuilt.maps.base.array is lat.maps.array
    es, emb = expectations(lat), embed_supermap(n)
    slots = {t: (es[t] @ emb).matrix for t in range(1, lat.horizon + 1)}
    want = np.array([h.maps[(s, t)].matrix @ slots[t] for s, t in lat.pairs()])
    assert np.array_equal(_rebuilt_rows(rebuilt), want)
    # its E_{psi_s} P_rec^{s,t}, placed a chunk at a time, against the per-pair products
    e_psi = [expectation_supermap(psi).matrix for psi in rebuilt.omegas]
    assert np.array_equal(rebuilt.conditioned.array,
                          [e_psi[s] @ m for (s, _), m in zip(lat.pairs(), want)])


def test_rebuilding_and_checking_a_pair_stays_under_one_lattice_array():
    # the rebuilt lattice shares P's array and E_{psi_t}, E_{phi_t} are placed a chunk at a
    # time, so the axioms stage grows the heap by less than one lattice array
    lat = propagate(QQSPSeed.from_single_map(mixed_step_map(4), State.maximally_mixed(4), 6,
                                             "A"))
    q, h, _ = _marginals(lat)
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        rebuilt = reconstruct_qqsp(q, h, lat.omega(0), "A", strict=False)
        assert verify_marginal_axioms(q, h, rebuilt).ok(1e-8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - start < lat.maps.array.nbytes


def test_a_full_run_stays_under_two_lattice_arrays():
    # no stage holds an array of E_{omega_t} or a sample-sized stack beside the lattice, so a
    # whole strict run, ergodic stage included, peaks under two lattice arrays
    import numpy.random  # noqa: F401  (the first draw imports it; that is not the run's memory)

    n, horizon = 4, 6
    sc = parse_scenario({"name": "mixed-n4-T6-A", "algebra": {"kind": "full", "dim": n},
                         "process_type": "A", "horizon": horizon, "seed": {"builtin": "mixed"},
                         "initial_state": {"maximally_mixed": True}})
    tracemalloc.start()
    try:
        run_scenario(sc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    lattice = horizon * (horizon + 1) // 2 * n ** 6 * np.dtype(complex).itemsize
    assert peak < 2 * lattice


# ------------------------------------------------ carried states, one row a call

def test_expectation_supermaps_equal_the_stack_of_ones(rng):
    # the stacked matrices against each state's supermap and against the one-state
    # construction Tr_1[(rho (x) 1) z] written out
    n = 3
    states = [State(random_density(rng, n)) for _ in range(4)]
    stacked = expectation_matrices(np.array([w.rho for w in states]))
    assert stacked.shape == (len(states), n * n, n ** 4)
    for state, matrix in zip(states, stacked):
        t = np.einsum("ae,xb,yd->xyebad", state.rho, np.eye(n), np.eye(n))
        one = SuperMap(n * n, n, unit_tensor_matrix(t.reshape(n, n, n * n, n * n)))
        m = expectation_supermap(state)
        assert (m.in_dim, m.out_dim) == (one.in_dim, one.out_dim)
        assert m.matrix.tobytes() == matrix.tobytes() == one.matrix.tobytes()
        assert m.matrix.flags.c_contiguous and not m.matrix.flags.writeable


@pytest.mark.parametrize("make", [lambda: _lattice(3, "B"),
                                  lambda: propagate(make_entangling_seed(5, "B")),
                                  lambda: propagate(make_mixed_seed(5, "A"))],
                         ids=["mixed-n3-B", "entangling-n2-B", "mixed-n2-A"])
def test_carried_states_equal_the_per_state_loop(monkeypatch, make):
    import qqsp.process

    q = build_Q(make())
    rows = []
    original = qqsp.process.computed_states

    def recorded(rhos, quantity, first_t):
        states = original(rhos, quantity, first_t)
        rows.append(states)
        return states

    monkeypatch.setattr(qqsp.process, "computed_states", recorded)   # carried_states' check
    state_consistency_residual(q)
    assert len(rows) == 1   # one check for every pair
    got = [w.rho.tobytes() for states in rows for w in states]
    monkeypatch.undo()   # computed_states below is the same check
    want = [computed_states([predual(q.map(s, t))(q.omega(s).rho)], "carried", t)[0]
            .rho.tobytes() for s, t in q.pairs()]
    assert got == want


def test_a_carried_state_that_fails_is_named_as_before():
    lat = _lattice(2, "B")
    q = build_Q(lat)
    maps = dict(q.maps)
    maps[(0, 3)] = SuperMap(2, 2, 2 * maps[(0, 3)].matrix)   # Q_* omega_0 has trace 2 at t=3
    bad = Family("Q", 2, maps, q.omegas)
    with pytest.raises(ValidationFailure) as stacked:
        state_consistency_residual(bad)
    with pytest.raises(ValidationFailure) as one_at_a_time:
        for s, t in bad.pairs():
            computed_states([predual(bad.map(s, t))(bad.omega(s).rho)],
                            f"Q^{{{s},t}}_* omega_{s}", t)
    assert str(stacked.value) == str(one_at_a_time.value)
    assert "Q^{0,t}_* omega_0 at t=3" in str(stacked.value)


@pytest.mark.parametrize("bad", [(1, 3), (2, 4)])
def test_a_carried_state_that_fails_in_a_chunk_across_rows_is_named_by_its_pair(monkeypatch,
                                                                               bad):
    import qqsp.linalg

    gap_bytes = 16 * 4 * 16   # one (n^2, n^4) gap at n=2
    monkeypatch.setattr(qqsp.linalg, "CHUNK_BYTES", 3 * gap_bytes)
    q = build_Q(_lattice(2, "B"))
    maps = dict(q.maps)
    maps[bad] = SuperMap(2, 2, 2 * maps[bad].matrix)   # Q_* omega_s has trace 2 there
    spoiled = Family("Q", 2, maps, q.omegas)
    pairs = spoiled.pairs()
    chunk = next(c for c in qqsp.linalg.chunks(len(pairs), gap_bytes) if bad in pairs[c])
    assert len({s for s, _ in pairs[chunk]}) == 2   # the failing pair's chunk spans two rows
    with pytest.raises(ValidationFailure) as stacked:
        state_consistency_residual(spoiled)
    with pytest.raises(ValidationFailure) as one_at_a_time:
        for s, t in pairs:
            computed_states([predual(spoiled.map(s, t))(spoiled.omega(s).rho)],
                            f"Q^{{{s},t}}_* omega_{s}", t)
    s, t = bad
    assert str(stacked.value) == str(one_at_a_time.value)
    assert f"Q^{{{s},t}}_* omega_{s} at t={t} " in str(stacked.value)


# ------------------------------------------------------------ one-walk reports

def _jsonify(obj):
    """The two-walk serializer the report used before: normalise, then dump."""
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, str) or obj is None:
        return obj
    if isinstance(obj, np.ndarray):
        return _jsonify(obj.tolist())
    if isinstance(obj, dict):
        key = (lambda k: ",".join(str(x) for x in k) if isinstance(k, tuple) else str(k))
        return {key(k): _jsonify(v) for k, v in sorted(obj.items(), key=lambda kv: key(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _two_walk_text(report):
    document = {"tool": {"name": "qqsp", "version": __version__},
                "scenario": report.scenario_echo,
                "run": {"seed": report.run_seed, "mode": report.mode},
                "stages": report.stages, "verdicts": report.verdicts}
    return json.dumps(_jsonify(document), sort_keys=True, indent=2) + "\n"


def _workload_documents(workload):
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.scenario_documents(workload, 1)[0]


@pytest.mark.parametrize("source", ["builtins", "full-A", "full-B"])
def test_one_walk_report_equals_the_two_walk_path(source):
    if source == "builtins":
        scenarios = list(builtin_scenarios().values())
    else:
        scenarios = [parse_scenario(doc) for doc in _workload_documents(source)]
    for sc in scenarios:
        report = run_scenario(sc, seed=1)
        text = report.to_structured_text()
        assert text == _two_walk_text(report), sc.name


def test_numpy_scalars_serialize_as_their_python_values():
    from qqsp.report import Report

    report = Report({"name": "x"}, 1, "strict",
                    stages={"s": {"flag": np.bool_(True), "count": np.int64(3),
                                  "value": np.float64(0.1), "single": np.float32(0.5)}})
    assert report.to_structured_text() == _two_walk_text(report)


# ----------------------------------------------------- one lift per distinct tensor

def test_a_homogeneous_classical_seed_lifts_its_tensor_once(monkeypatch):
    import qqsp.classical

    calls = []
    original = qqsp.classical.tensor_to_step_map   # writes the lifted matrix in closed form

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(qqsp.classical, "tensor_to_step_map", counted)
    classical = ClassicalQSP.homogeneous(volterra_tensor(0.5), [0.4, 0.6], 6, "A")
    assert len({id(p) for p in classical.step_tensors}) == 1
    seed = lift_to_quantum(classical)
    assert len(calls) == 1 and all(m is seed.step_maps[0] for m in seed.step_maps)
    # distinct tensors stay distinct maps
    mixed = ClassicalQSP((volterra_tensor(0.5), volterra_tensor(0.5)), classical.x0, "A")
    assert len({id(m) for m in lift_to_quantum(mixed).step_maps}) == 2


def test_classical_builtins_hold_one_step_map():
    for name, sc in builtin_scenarios().items():
        if "classical" in sc.seed_spec:
            assert len({id(m) for m in sc.resolved[0].step_maps}) == 1, name

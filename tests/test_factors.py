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
    MapStack,
    ScaledMapStack,
    State,
    SuperMap,
    embed_averaged_supermap,
    embed_supermap,
    expectation_supermap,
    expectation_supermaps,
    predual,
)
from qqsp.classical import ClassicalQSP, lift_to_quantum, volterra_tensor
from qqsp.linalg import chunks, operator_norms, unit_tensor_matrix, vec
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
    computed_state,
    propagate,
)
from qqsp.scenarios import builtin_scenarios, parse_scenario, run_scenario
from qqsp.seeds import make_entangling_seed, make_mixed_seed, mixed_step_map

from conftest import dense, random_density

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
    es, emb = lat.expectations, embed_supermap(2)
    for s, t in lat.pairs():
        assert np.array_equal((emb @ z.maps[(s, t)]).matrix,
                              (emb @ (es[s] @ lat.map(s, t))).matrix)


@pytest.mark.parametrize("ptype", ["A", "B"])
def test_a_lattice_is_held_as_one_array(ptype):
    # every map of the lattice is a read-only view of its one array, which H/h hold as it
    # is; Q and Z/z hold Q's one array, and E_{omega_t} is one array by t
    lat = _lattice(2, ptype)
    q, h, z = _marginals(lat)
    p = lat.maps.array
    assert p.shape == (len(lat.pairs()), 16, 4) and not p.flags.writeable
    for i, key in enumerate(lat.pairs()):
        assert np.shares_memory(lat.map(*key).matrix, p[i])
        assert np.shares_memory(q.maps[key].matrix, q.maps.array[i])
    for t in range(lat.horizon + 1):
        assert np.shares_memory(lat.expectations[t].matrix, lat.expectations.array[t])
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


# ------------------------------------------------------ one R factor per core

@pytest.mark.parametrize("ptype", ["A", "B"])
def test_stacked_qr_equals_the_per_matrix_qr(monkeypatch, ptype):
    lat = _lattice(3, ptype)
    _, h, _ = _marginals(lat)
    calls = []
    original = np.linalg.qr

    def counted(a, mode="reduced"):
        calls.append(np.shape(a))
        return original(a, mode=mode)

    monkeypatch.setattr(np.linalg, "qr", counted)
    r = h.thin_r
    # one call per chunk of the stored array, once
    parts = [range(len(lat.maps))[part] for part in chunks(len(lat.maps), 81 * 9 * 16)]
    assert h.thin_r is r and len(parts) > 1 and calls == [(len(p), 81, 9) for p in parts]
    monkeypatch.undo()
    for key in lat.pairs():
        want = np.linalg.qr(h.maps[key].matrix, mode="r")
        assert r[key].tobytes() == want.tobytes()


def test_slices_take_only_the_lattice_own_cores():
    # the R of H's cores stands for P^{s,t} only when the cores are the lattice's maps
    lat, other = _lattice(2, "A"), _lattice(2, "A")
    q, h, z = _marginals(lat)
    assert slice_residuals(lat, q, h, z)["reconstruction_slot"] <= 1e-14
    with pytest.raises(ValueError, match="cores"):
        slice_residuals(lat, q, build_H(other), z)


@pytest.mark.parametrize("ptype", ["A", "B"])
def test_absorption_keeps_the_bits_of_the_per_core_qr(ptype):
    lat = _lattice(3, ptype)
    q, h, _ = _marginals(lat)
    rebuilt = reconstruct_qqsp(q, h, lat.omega(0), ptype, strict=False)
    got = verify_marginal_axioms(q, h, rebuilt).absorption.entries
    emb, e_psi = embed_supermap(3), expectation_supermaps([w.rho for w in rebuilt.omegas])
    want = {}
    for t in range(1, lat.horizon + 1):
        d = lat.expectations[t].matrix - (lat.expectations[t] @ emb @ e_psi[t]).matrix
        r_y = np.linalg.qr(d.conj().T, mode="r").conj().T
        group = [(s, t) for s in range(t)]
        norms = operator_norms(np.array([np.linalg.qr(h.maps[key].matrix, mode="r") @ r_y
                                         for key in group]))
        want.update(zip(group, map(float, norms)))
    assert got == want


# ----------------------------------------------- the rebuilt lattice as c_t P

def _rebuilt_rows(rebuilt):
    """Every map of a rebuilt lattice, by the one stacked read and by key, which must agree."""
    rows = rebuilt.maps.rows(rebuilt.maps.order)
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
    assert isinstance(rebuilt.maps, ScaledMapStack) and rebuilt.expectations is None
    assert rebuilt.maps.base.array is lat.maps.array
    emb = embed_supermap(n)
    slots = {t: (lat.expectations[t] @ emb).matrix for t in range(1, lat.horizon + 1)}
    want = np.array([h.maps[(s, t)].matrix @ slots[t] for s, t in lat.pairs()])
    assert np.array_equal(_rebuilt_rows(rebuilt), want)
    # its E_{psi_s} P_rec^{s,t}, placed a chunk at a time, against the per-pair products
    e_psi = [expectation_supermap(psi).matrix for psi in rebuilt.omegas]
    assert np.array_equal(rebuilt.conditioned.array,
                          [e_psi[s] @ m for (s, _), m in zip(lat.pairs(), want)])


@pytest.mark.parametrize("ptype", ["A", "B"])
def test_a_slot_that_is_not_scalar_gets_the_stored_product(ptype):
    # a factored H whose slot at T is moved off c_T 1 (hermiticity- and unit-preserving, so
    # psi_T stays a state), and an unfactored H: both keep the stored products H^{s,t} S_t
    lat = _lattice(2, ptype)
    q, h, _ = _marginals(lat)
    slots = h.slots.copy()
    slots[-1, 1, 2] += 1e-3   # E_10 picks up E_01 and E_01 picks up E_10
    slots[-1, 2, 1] += 1e-3
    moved = Family(h.kind, 2, h.maps, h.omegas, expectations=h.expectations, factored=True,
                   slots=slots, conditioned_maps=h.conditioned_maps)
    unfactored = Family(h.kind, 2, dense(h), h.omegas)
    emb = embed_supermap(2).matrix
    for family, slot in ((moved, lambda t: slots[t]), (unfactored, lambda t: emb)):
        rebuilt = reconstruct_qqsp(q, family, lat.omega(0), ptype, strict=False)
        assert isinstance(rebuilt.maps, MapStack)
        want = np.array([family.maps[(s, t)].matrix @ slot(t) for s, t in lat.pairs()])
        assert np.array_equal(rebuilt.maps.array, want)
        assert np.array_equal(_rebuilt_rows(rebuilt), want)


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


# ------------------------------------------------ carried states, one row a call

def test_expectation_supermaps_equal_the_stack_of_ones(rng):
    # against the one-state construction Tr_1[(rho (x) 1) z] written out
    n = 3
    states = [State(random_density(rng, n)) for _ in range(4)]
    stacked = expectation_supermaps(np.array([w.rho for w in states]))
    for state, m in zip(states, stacked):
        t = np.einsum("ae,xb,yd->xyebad", state.rho, np.eye(n), np.eye(n))
        one = SuperMap(n * n, n, unit_tensor_matrix(t.reshape(n, n, n * n, n * n)))
        assert (m.in_dim, m.out_dim) == (one.in_dim, one.out_dim)
        assert m.matrix.tobytes() == one.matrix.tobytes()
        assert m.matrix.flags.c_contiguous and not m.matrix.flags.writeable
        assert expectation_supermap(state).matrix.tobytes() == one.matrix.tobytes()


@pytest.mark.parametrize("make", [lambda: _lattice(3, "B"),
                                  lambda: propagate(make_entangling_seed(5, "B")),
                                  lambda: propagate(make_mixed_seed(5, "A"))],
                         ids=["mixed-n3-B", "entangling-n2-B", "mixed-n2-A"])
def test_carried_states_equal_the_per_state_loop(monkeypatch, make):
    import qqsp.marginal

    q = build_Q(make())
    rows = []
    original = qqsp.marginal.computed_states

    def recorded(rhos, quantity, first_t):
        states = original(rhos, quantity, first_t)
        rows.append(states)
        return states

    monkeypatch.setattr(qqsp.marginal, "computed_states", recorded)
    state_consistency_residual(q)
    got = [w.rho.tobytes() for states in rows for w in states]
    want = [computed_state(predual(q.map(s, t))(q.omega(s).rho), "carried", t).rho.tobytes()
            for s, t in q.pairs()]
    assert len(rows) == q.horizon and got == want


def test_a_carried_state_that_fails_is_named_as_before():
    lat = _lattice(2, "B")
    q = build_Q(lat)
    maps = dict(q.maps)
    maps[(0, 3)] = SuperMap(2, 2, 2 * maps[(0, 3)].matrix)   # Q_* omega_0 has trace 2 at t=3
    bad = Family("Q", 2, maps, q.omegas, expectations=q.expectations)
    with pytest.raises(ValidationFailure) as stacked:
        state_consistency_residual(bad)
    with pytest.raises(ValidationFailure) as one_at_a_time:
        for s, t in bad.pairs():
            computed_state(predual(bad.map(s, t))(bad.omega(s).rho), f"Q^{{{s},t}}_* omega_{s}", t)
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
    spoiled = Family("Q", 2, maps, q.omegas, expectations=q.expectations)
    pairs = spoiled.pairs()
    chunk = next(c for c in qqsp.linalg.chunks(len(pairs), gap_bytes) if bad in pairs[c])
    assert len({s for s, _ in pairs[chunk]}) == 2   # the failing pair's chunk spans two rows
    with pytest.raises(ValidationFailure) as stacked:
        state_consistency_residual(spoiled)
    with pytest.raises(ValidationFailure) as one_at_a_time:
        for s, t in pairs:
            computed_state(predual(spoiled.map(s, t))(spoiled.omega(s).rho),
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
        assert report.to_document() == json.loads(text)


def test_numpy_scalars_serialize_as_their_python_values():
    from qqsp.report import Report

    report = Report({"name": "x"}, 1, "strict",
                    stages={"s": {"flag": np.bool_(True), "count": np.int64(3),
                                  "value": np.float64(0.1), "single": np.float32(0.5)}})
    assert report.to_structured_text() == _two_walk_text(report)


# ----------------------------------------------------- one lift per distinct tensor

def test_a_homogeneous_classical_seed_lifts_its_tensor_once(monkeypatch):
    import qqsp.algebra

    calls = []
    original = qqsp.algebra.supermatrix_from_function

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(qqsp.algebra, "supermatrix_from_function", counted)
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

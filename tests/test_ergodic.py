"""Decay traces, contraction coefficients, and the finite-horizon verdict."""

from dataclasses import replace

import numpy as np
import pytest

from qqsp.algebra import InvalidDensity, State, predual, trace_norm_distance
from qqsp.classical import ClassicalQSP, classical_propagate, lift_to_quantum, mendel_tensor, volterra_tensor
from qqsp.ergodic import (
    ErgodicConfig,
    contraction_coefficient,
    decay_trace,
    ergodic_verdict,
    state_pair_ensemble,
)
from qqsp.linalg import ptrace_first, trace_norm, trace_norms
from qqsp.marginal import build_H, build_Q, build_Z, build_h, build_z
from qqsp.process import QQSPSeed, propagate
from qqsp.scenarios import parse_scenario, run_scenario
from qqsp.seeds import (
    make_constant_seed,
    make_entangling_seed,
    make_identity_like_seed,
    make_mixed_seed,
    mixed_step_map,
)

from conftest import core, symmetric_stochastic_tensor


# ---------------------------------------------------------------- oracles

def classical_marginal_chain(filled, s, t):
    """Stochastic matrix of Q^{s,t} from the tensors: q[j, k] = sum_i x_i p_{ij,k}."""
    p = filled.tensor(s, t)
    x = filled.x(s).weights
    N = p.shape[0]
    q = np.zeros((N, N))
    for j in range(N):
        for k in range(N):
            for i in range(N):
                q[j, k] += x[i] * p[i, j, k]
    return q


def build_families(lattice):
    q = build_Q(lattice)
    if lattice.process_type == "A":
        hh = build_H(lattice)
        zz = build_Z(hh, q)
    else:
        hh = build_h(lattice)
        zz = build_z(hh, q)
    return {"Q": q, hh.kind: hh, zz.kind: zz}


# ------------------------------------------------------------ decay traces

def test_constant_lattice_distances_vanish(rng):
    lat = propagate(make_constant_seed(2, 5))
    pairs = state_pair_ensemble(4, 5, rng)
    trace = decay_trace(lat, pairs)
    assert trace.family_kind == "P"
    for row in trace.distances:
        assert max(row) <= 1e-13


def test_identity_channel_distances_constant(rng):
    lat = propagate(make_identity_like_seed(6), strict=False)
    q = build_Q(lat)
    pairs = state_pair_ensemble(2, 5, rng, diagonal=True)
    trace = decay_trace(q, pairs)
    for (phi, psi), row in zip(pairs, trace.distances):
        d0 = trace_norm_distance(phi, psi)
        for d in row:
            assert abs(d - d0) <= 1e-12


def test_volterra_decay_matches_classical_oracle():
    q = ClassicalQSP.homogeneous(volterra_tensor(1.0), [0.5, 0.5], 6, "A")
    filled = classical_propagate(q)
    lat = propagate(lift_to_quantum(q))
    qfam = build_Q(lat)
    d1, d2 = State.from_weights([1.0, 0.0]), State.from_weights([0.0, 1.0])
    trace = decay_trace(qfam, [(d1, d2)])
    for idx, t in enumerate(trace.times):
        chain = classical_marginal_chain(filled, 0, t)
        l1 = np.abs(np.array([1.0, 0.0]) @ chain - np.array([0.0, 1.0]) @ chain).sum()
        assert abs(trace.distances[0][idx] - l1) <= 1e-12


def test_distances_stay_in_range(rng):
    for seed in (make_mixed_seed(5, "A"), make_entangling_seed(5, "B")):
        lat = propagate(seed)
        pairs = state_pair_ensemble(4, 6, rng)
        for row in decay_trace(lat, pairs).distances:
            assert all(0.0 <= d <= 2.0 + 1e-12 for d in row)


def test_decay_trace_dimension_guard(rng):
    # pairs live where the maps land: M (x) M for the lattice, M for Q
    lat = propagate(make_mixed_seed(3, "A"))
    pairs_n = [(State.maximally_mixed(2), State.maximally_mixed(2))]
    pairs_n2 = [(State.maximally_mixed(4), State.maximally_mixed(4))]
    with pytest.raises(ValueError):
        decay_trace(lat, pairs_n)
    assert decay_trace(lat, pairs_n2).family_kind == "P"
    q = build_Q(lat)
    with pytest.raises(ValueError):
        decay_trace(q, pairs_n2)
    assert decay_trace(q, pairs_n).family_kind == "Q"


def _per_t_decay_rows(source, pairs):
    """The per-t loop: the gaps of one t normed in one trace_norms call, t after t.

    A factored Z/z is traced on its core embed Q^{0,t}, formed here.
    """
    states = np.array([x.rho for pair in pairs for x in pair])
    columns = []
    for t in range(1, source.horizon + 1):
        images = predual(core(source, 0, t))(states)
        columns.append(trace_norms(images[0::2] - images[1::2]))
    return tuple(tuple(float(column[p]) for column in columns) for p in range(len(pairs)))


@pytest.mark.parametrize("seed", [make_mixed_seed(6, "A"), make_entangling_seed(5, "B")],
                         ids=["mixed-n2-A", "entangling-n2-B"])
def test_decay_trace_equals_the_per_t_rows(seed):
    lat = propagate(seed)
    families = build_families(lat)
    rng = np.random.default_rng(3)
    for source in (lat, families["Q"]):
        pairs = state_pair_ensemble(source.side, 7, rng)
        assert decay_trace(source, pairs).distances == _per_t_decay_rows(source, pairs)
    assert decay_trace(lat, []).distances == ()


def _per_state_ensemble(dim, count, rng, diagonal):
    """The per-state loop: the basis pair, then each random state drawn and checked alone."""
    def draw():
        if diagonal:
            w = rng.random(dim) + 1e-3
            return State.from_weights(w / w.sum())
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        rho = g @ g.conj().T
        return State(rho / np.trace(rho))

    pairs = [(State.from_weights(np.eye(dim)[0]), State.from_weights(np.eye(dim)[-1]))]
    while len(pairs) < count:
        pairs.append((draw(), draw()))
    return pairs


@pytest.mark.parametrize("diagonal", [False, True], ids=["full", "diagonal"])
@pytest.mark.parametrize("dim", [1, 2, 4, 9, 16])
def test_ensemble_equals_the_per_state_loop(dim, diagonal):
    for count in (1, 2, 20):
        rng, oracle_rng = np.random.default_rng(11), np.random.default_rng(11)
        got = state_pair_ensemble(dim, count, rng, diagonal)
        want = _per_state_ensemble(dim, count, oracle_rng, diagonal)
        assert len(got) == len(want) == count
        assert [(a.rho.tobytes(), b.rho.tobytes()) for a, b in got] == [
            (a.rho.tobytes(), b.rho.tobytes()) for a, b in want]
        # the same stream, left where the loop leaves it
        assert rng.bit_generator.state == oracle_rng.bit_generator.state


def _one_shot_ensemble(dim, count, rng, diagonal):
    """The whole ensemble formed as one stack and checked by one State.stack."""
    k = 2 * (count - 1)
    rhos = np.zeros((k + 2, dim, dim), dtype=complex)
    rhos[0, 0, 0] = rhos[1, -1, -1] = 1.0
    if diagonal:
        w = rng.random((k, dim)) + 1e-3
        rhos[2:, np.arange(dim), np.arange(dim)] = w / w.sum(axis=1, keepdims=True)
    else:
        draws = rng.normal(size=(k, 2, dim, dim))
        g = draws[:, 0] + 1j * draws[:, 1]
        rho = g @ np.conj(g).transpose(0, 2, 1)
        rhos[2:] = rho / np.trace(rho, axis1=1, axis2=2)[:, None, None]
    return np.array([state.rho for state in State.stack(rhos)])


@pytest.mark.parametrize("diagonal", [False, True], ids=["full", "diagonal"])
@pytest.mark.parametrize("dim", [2, 4, 16])
def test_ensemble_equals_the_one_shot_stack_at_any_chunk_budget(monkeypatch, dim, diagonal):
    import qqsp.linalg

    def rhos(pairs):
        return np.array([x.rho for pair in pairs for x in pair])

    default = rhos(state_pair_ensemble(dim, 40, np.random.default_rng(5), diagonal))
    monkeypatch.setattr(qqsp.linalg, "CHUNK_BYTES", 16 * dim * dim)   # one state a chunk
    one = rhos(state_pair_ensemble(dim, 40, np.random.default_rng(5), diagonal))
    assert np.array_equal(one, default)
    assert np.array_equal(default, _one_shot_ensemble(dim, 40, np.random.default_rng(5),
                                                      diagonal))


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_a_failing_ensemble_state_is_named_by_its_index_in_the_ensemble(monkeypatch):
    import qqsp.linalg

    class Draws:   # the stream of default_rng, with state 7 of the random ones spoiled
        def normal(self, size):
            draws = np.random.default_rng(5).normal(size=size)
            draws[7, 0, 0, 0] = np.nan
            return draws

    monkeypatch.setattr(qqsp.linalg, "CHUNK_BYTES", 16 * 3 * 3)   # one state a chunk
    with pytest.raises(InvalidDensity, match="non-finite") as caught:
        state_pair_ensemble(3, 10, Draws())
    assert caught.value.index == 2 + 7   # after the basis pair


# ------------------------------------------------------------- contraction

def test_constant_family_lambda_zero(rng):
    lat = propagate(make_constant_seed(2, 3))
    est = contraction_coefficient(build_Q(lat), 0, 1, sample_count=50, rng=rng)
    assert est.method == "pure-pair-sampling"
    assert est.lam <= 1e-12


def test_identity_channel_lambda_one():
    lat = propagate(make_identity_like_seed(3), strict=False)
    est = contraction_coefficient(build_Q(lat), 0, 1)
    assert est.method == "exact-classical"
    assert abs(est.lam - 1.0) <= 1e-13


@pytest.mark.parametrize("N", [2, 3])
def test_dobrushin_matches_vertex_enumeration_oracle(N):
    if N == 2:
        # smoothed random-parent tensor: half uniform, half mendel
        tensor = 0.5 * np.full((2, 2, 2), 0.5) + 0.5 * mendel_tensor()
    else:
        tensor = symmetric_stochastic_tensor(np.random.default_rng(3), N)
    q = ClassicalQSP.homogeneous(tensor, np.full(N, 1.0 / N), 3, "A")
    lat = propagate(lift_to_quantum(q))
    qfam = build_Q(lat)
    est = contraction_coefficient(qfam, 0, 1)
    assert est.method == "exact-classical" and est.sample_count == 0
    # oracle: brute-force maximization over simplex vertex pairs via the predual
    dual = predual(qfam.map(0, 1))
    best = 0.0
    for i in range(N):
        for j in range(N):
            if i == j:
                continue
            ei = np.zeros((N, N), dtype=complex)
            ej = np.zeros((N, N), dtype=complex)
            ei[i, i] = 1.0
            ej[j, j] = 1.0
            num = np.abs(np.linalg.eigvalsh(dual(ei) - dual(ej))).sum()
            best = max(best, num / 2.0)
    assert abs(est.lam - best) <= 1e-15
    # and the classical Dobrushin coefficient of the stochastic matrix Q^{0,1}
    chain = classical_marginal_chain(classical_propagate(q), 0, 1)
    dobrushin = max(0.5 * np.abs(chain[i] - chain[j]).sum()
                    for i in range(N) for j in range(i + 1, N))
    assert abs(est.lam - dobrushin) <= 1e-15
    if N == 2:
        # hand value: rows differ only in the identity quarter, so lambda = 1/4
        assert abs(est.lam - 0.25) <= 1e-12


def _per_pair_lambda(q_family, sample_count, rng):
    """The per-pair loop: each basis pair, then each sampled pure pair, normed alone."""
    n = q_family.n
    dual = predual(q_family.map(0, 1))
    lam = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            ei, ej = np.zeros((n, n), dtype=complex), np.zeros((n, n), dtype=complex)
            ei[i, i] = 1.0
            ej[j, j] = 1.0
            lam = max(lam, 0.5 * trace_norm(dual(ei) - dual(ej)))
    for _ in range(sample_count):
        g = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
        u, _ = np.linalg.qr(g)
        p1 = np.outer(u[:, 0], u[:, 0].conj())
        p2 = np.outer(u[:, 1], u[:, 1].conj())
        lam = max(lam, 0.5 * trace_norm(dual(p1) - dual(p2)))
    return lam


@pytest.mark.parametrize("seed", [make_mixed_seed(3, "A"),
                                  QQSPSeed.from_single_map(mixed_step_map(3),
                                                           State.from_weights([0.5, 0.3, 0.2]),
                                                           3, "A"),
                                  make_entangling_seed(3, "B")],
                         ids=["mixed-n2-A", "mixed-n3-A", "entangling-n2-B"])
def test_stacked_lambda_equals_the_per_pair_loop(seed):
    # several rng seeds, so that the maximum falls on a sampled pair at least once;
    # an einsum-formed projector or a stacked predual product moves it by an ulp
    qfam = build_Q(propagate(seed))
    for rng_seed in range(10):
        rng, oracle_rng = np.random.default_rng(rng_seed), np.random.default_rng(rng_seed)
        est = contraction_coefficient(qfam, 0, 1, sample_count=50, rng=rng)
        assert est.method == "pure-pair-sampling" and est.sample_count == 50
        assert est.lam == _per_pair_lambda(qfam, 50, oracle_rng)
        # one draw consumes the stream the per-sample draws consume
        assert rng.bit_generator.state == oracle_rng.bit_generator.state


def test_diagonal_contraction_draws_nothing():
    q = ClassicalQSP.homogeneous(volterra_tensor(1.0), [0.5, 0.5], 3, "A")
    qfam = build_Q(propagate(lift_to_quantum(q)))
    rng = np.random.default_rng(5)
    before = rng.bit_generator.state
    est = contraction_coefficient(qfam, 0, 1, sample_count=50, rng=rng)
    assert est.sample_count == 0 and est.method == "exact-classical"
    assert est.lam == _per_pair_lambda(qfam, 0, rng)
    assert rng.bit_generator.state == before


def test_mixed_lambda_is_one_quarter(rng):
    lat = propagate(make_mixed_seed(3, "A"))
    est = contraction_coefficient(build_Q(lat), 0, 1, sample_count=100, rng=rng)
    assert abs(est.lam - 0.25) <= 1e-12


def test_contraction_consistency_invariant(rng):
    # every ensemble pair contracts at least as fast as the measured lambda
    for seed, diag in ((make_mixed_seed(3, "A"), False),
                       (make_entangling_seed(3, "B"), False)):
        lat = propagate(seed)
        qfam = build_Q(lat)
        est = contraction_coefficient(qfam, 0, 1, sample_count=100, rng=rng)
        dual = predual(qfam.map(0, 1))
        for phi, psi in state_pair_ensemble(2, 20, rng, diag):
            num = np.abs(np.linalg.eigvalsh(dual(phi.rho) - dual(psi.rho))).sum()
            den = trace_norm_distance(phi, psi)
            assert num <= (est.lam + 1e-9) * den
    assert est.lam < 1.0


def test_contraction_requires_q_family():
    lat = propagate(make_mixed_seed(3, "A"))
    with pytest.raises(ValueError):
        contraction_coefficient(build_H(lat), 0, 1)


# ----------------------------------------------------------------- verdict

def test_constant_verdict_all_true():
    lat = propagate(make_constant_seed(2, 6))
    rep = ergodic_verdict(lat, build_families(lat))
    assert rep.ergodic_at_horizon and rep.all_agree
    assert set(rep.verdicts) == {"P", "Q", "H", "Z"}
    for v in rep.verdicts.values():
        assert v.final_max_distance <= 1e-12
    assert rep.contraction.lam <= 1e-12


def test_identity_like_verdict_all_false():
    lat = propagate(make_identity_like_seed(8), strict=False)
    rep = ergodic_verdict(lat, build_families(lat))
    assert not rep.ergodic_at_horizon and rep.all_agree
    for kind, trace in rep.traces.items():
        for row in trace.distances:
            assert max(row) - min(row) <= 1e-12  # constant, no decay
    assert abs(rep.contraction.lam - 1.0) <= 1e-13


def test_mixed_verdict_true_with_ratio_bound():
    lat = propagate(make_mixed_seed(8, "A"))
    rep = ergodic_verdict(lat, build_families(lat), ErgodicConfig(epsilon=1e-3))
    assert rep.ergodic_at_horizon and rep.all_agree
    lam = rep.contraction.lam
    assert lam < 1.0
    for v in rep.verdicts.values():
        assert v.max_step_ratio <= lam + 0.05


def test_h_distances_equal_p_distances():
    # H_*(rho) = omega_t (x) P_*(rho) and the omega_t factor drops out of the
    # trace norm, so the verdict takes H/h's trace on P's own maps: equal bits
    for seed in (make_mixed_seed(6, "A"), make_mixed_seed(6, "B"),
                 make_entangling_seed(6, "B")):
        lat = propagate(seed)
        rep = ergodic_verdict(lat, build_families(lat), ErgodicConfig(pair_count=8))
        doubled = "H" if lat.process_type == "A" else "h"
        assert rep.traces[doubled].distances == rep.traces["P"].distances
        assert rep.verdicts[doubled].ergodic == rep.verdicts["P"].ergodic


def test_verdict_takes_three_decay_traces(monkeypatch):
    # P, Q and Z/z are measured; H/h takes P's trace, relabelled
    import qqsp.ergodic

    calls = []
    original = qqsp.ergodic.decay_trace

    def counting(source, pairs):
        calls.append(source.kind)
        return original(source, pairs)

    monkeypatch.setattr(qqsp.ergodic, "decay_trace", counting)
    for seed in (make_mixed_seed(4, "A"), make_entangling_seed(4, "B")):
        calls.clear()
        lat = propagate(seed)
        rep = ergodic_verdict(lat, build_families(lat), ErgodicConfig(pair_count=4))
        doubled = "H" if lat.process_type == "A" else "h"
        assert sorted(calls) == sorted(["P", "Q", "Z" if doubled == "H" else "z"])
        assert rep.traces[doubled].family_kind == doubled
        assert list(rep.traces) == sorted(rep.traces)


def test_verdict_rejects_a_doubled_family_of_another_lattice():
    # H from an equal lattice built anew: same numbers, but not this lattice's maps
    lat, other = propagate(make_mixed_seed(4, "A")), propagate(make_mixed_seed(4, "A"))
    with pytest.raises(ValueError, match="cores"):
        ergodic_verdict(lat, {**build_families(lat), "H": build_H(other)})
    # and h of a shorter type-B lattice
    lat, shorter = propagate(make_entangling_seed(4, "B")), propagate(make_entangling_seed(3, "B"))
    with pytest.raises(ValueError, match="cores"):
        ergodic_verdict(lat, {**build_families(lat), "h": build_h(shorter)})


@pytest.mark.parametrize("n, ptype", [(2, "A"), (2, "B"), (3, "A"), (3, "B")])
def test_z_distances_are_q_distances_on_reduced_pairs(n, ptype, rng):
    # Z_*(rho) = omega_t (x) Q_*(Tr_1 rho): Z/z's trace, in the verdict too, is Q's on the
    # Tr_1 images of its pairs, within 1e-15 of the route through the core embed Q^{0,t}
    weights = np.arange(n, 0, -1) / (n * (n + 1) / 2)
    lat = propagate(QQSPSeed.from_single_map(mixed_step_map(n), State.from_weights(weights),
                                             4, ptype))
    families = build_families(lat)
    kind = "Z" if ptype == "A" else "z"
    pairs = state_pair_ensemble(n * n, 6, rng)
    reduced = [(State(ptrace_first(phi.rho, n, n)), State(ptrace_first(psi.rho, n, n)))
               for phi, psi in pairs]
    tz = decay_trace(families[kind], pairs)
    assert tz == replace(decay_trace(families["Q"], reduced), family_kind=kind)
    assert ergodic_verdict(lat, families, ErgodicConfig(explicit_double=tuple(pairs))
                           ).traces[kind] == tz
    for got, want in zip(tz.distances, _per_t_decay_rows(families[kind], pairs)):
        assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-15


@pytest.mark.parametrize("ptype", ["A", "B"])
def test_no_decay_trace_sees_a_dense_doubled_map(monkeypatch, ptype):
    # every predual the ergodic stage takes is of a stored map, at most n^4 x n^2
    import qqsp.ergodic

    shapes = []
    original = qqsp.ergodic.predual

    def recording(m):
        shapes.append(m.matrix.shape)
        return original(m)

    monkeypatch.setattr(qqsp.ergodic, "predual", recording)
    sc = parse_scenario({
        "name": f"mixed-n3-T4-{ptype}", "algebra": {"kind": "full", "dim": 3},
        "process_type": ptype, "horizon": 4, "mode": "strict",
        "seed": {"builtin": "mixed"}, "initial_state": {"diag": [0.5, 0.3, 0.2]},
        "ensemble": {"random": 2}, "sample_count": 4,
    })
    report = run_scenario(sc)
    assert report.verdicts["verdicts_agree"]
    assert shapes and (81, 81) not in shapes
    assert set(shapes) == {(81, 9), (9, 9)}


def test_verdict_coherence_across_builtin_classes():
    cases = [propagate(make_constant_seed(2, 6)),
             propagate(make_mixed_seed(8, "A")),
             propagate(make_entangling_seed(8, "B")),
             propagate(make_identity_like_seed(6), strict=False)]
    for lat in cases:
        rep = ergodic_verdict(lat, build_families(lat))
        assert rep.all_agree, f"verdicts disagree on {lat.process_type} lattice"


def test_explicit_pair_override():
    lat = propagate(make_constant_seed(2, 4))
    phi, psi = State.pure([1, 0, 0, 0]), State.pure([0, 0, 0, 1])
    cfg = ErgodicConfig(explicit_double=((phi, psi),),
                        explicit_single=((State.pure([1, 0]), State.pure([0, 1])),))
    rep = ergodic_verdict(lat, build_families(lat), cfg)
    assert all(len(t.distances) == 1 for t in rep.traces.values())

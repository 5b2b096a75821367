"""Decay traces, contraction coefficients, and the finite-horizon verdict."""

import numpy as np
import pytest

from qqsp.algebra import State, predual, trace_norm_distance
from qqsp.classical import ClassicalQSP, classical_propagate, lift_to_quantum, mendel_tensor, volterra_tensor
from qqsp.ergodic import (
    ErgodicConfig,
    contraction_coefficient,
    decay_trace,
    ergodic_verdict,
    state_pair_ensemble,
)
from qqsp.marginal import build_H, build_Q, build_Z, build_h, build_z
from qqsp.process import propagate
from qqsp.seeds import (
    make_constant_seed,
    make_entangling_seed,
    make_identity_like_seed,
    make_mixed_seed,
)


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
        zz = build_Z(hh)
    else:
        hh = build_h(lattice)
        zz = build_z(hh)
    return {"Q": q, hh.kind: hh, zz.kind: zz}


# ------------------------------------------------------------ decay traces

def test_constant_lattice_distances_vanish(rng):
    lat = propagate(make_constant_seed(2, 5))
    pairs = state_pair_ensemble(4, 5, rng)
    trace = decay_trace(lat, pairs, 0)
    assert trace.family_kind == "P"
    for row in trace.distances:
        assert max(row) <= 1e-13


def test_identity_channel_distances_constant(rng):
    lat = propagate(make_identity_like_seed(6), strict=False)
    q = build_Q(lat)
    pairs = state_pair_ensemble(2, 5, rng, diagonal=True)
    trace = decay_trace(q, pairs, 0)
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
    trace = decay_trace(qfam, [(d1, d2)], 0)
    for idx, t in enumerate(trace.times):
        chain = classical_marginal_chain(filled, 0, t)
        l1 = np.abs(np.array([1.0, 0.0]) @ chain - np.array([0.0, 1.0]) @ chain).sum()
        assert abs(trace.distances[0][idx] - l1) <= 1e-12


def test_distances_stay_in_range(rng):
    for seed in (make_mixed_seed(5, "A"), make_entangling_seed(5, "B")):
        lat = propagate(seed)
        pairs = state_pair_ensemble(4, 6, rng)
        for row in decay_trace(lat, pairs, 0).distances:
            assert all(0.0 <= d <= 2.0 + 1e-12 for d in row)


def test_decay_trace_dimension_guard(rng):
    # pairs live where the maps land: M (x) M for the lattice, M for Q
    lat = propagate(make_mixed_seed(3, "A"))
    pairs_n = [(State.maximally_mixed(2), State.maximally_mixed(2))]
    pairs_n2 = [(State.maximally_mixed(4), State.maximally_mixed(4))]
    with pytest.raises(ValueError):
        decay_trace(lat, pairs_n, 0)
    assert decay_trace(lat, pairs_n2, 0).family_kind == "P"
    q = build_Q(lat)
    with pytest.raises(ValueError):
        decay_trace(q, pairs_n2, 0)
    assert decay_trace(q, pairs_n, 0).family_kind == "Q"


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


def test_dobrushin_matches_vertex_enumeration_oracle():
    # smoothed random-parent tensor: half uniform, half mendel
    tensor = 0.5 * np.full((2, 2, 2), 0.5) + 0.5 * mendel_tensor()
    q = ClassicalQSP.homogeneous(tensor, [0.5, 0.5], 3, "A")
    lat = propagate(lift_to_quantum(q))
    qfam = build_Q(lat)
    est = contraction_coefficient(qfam, 0, 1)
    assert est.method == "exact-classical"
    # oracle: brute-force maximization over simplex vertex pairs via the predual
    dual = predual(qfam.map(0, 1))
    best = 0.0
    for i in range(2):
        for j in range(2):
            if i == j:
                continue
            ei = np.zeros((2, 2), dtype=complex)
            ej = np.zeros((2, 2), dtype=complex)
            ei[i, i] = 1.0
            ej[j, j] = 1.0
            num = np.abs(np.linalg.eigvalsh(dual(ei) - dual(ej))).sum()
            best = max(best, num / 2.0)
    assert abs(est.lam - best) <= 1e-12
    # hand value: rows differ only in the identity quarter, so lambda = 1/4
    assert abs(est.lam - 0.25) <= 1e-12


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


def test_h_distances_equal_p_distances(rng):
    # the omega_t factor cancels in trace norm, so H and P decay identically
    lat = propagate(make_mixed_seed(6, "A"))
    pairs = state_pair_ensemble(4, 8, rng)
    tp = decay_trace(lat, pairs, 0)
    th = decay_trace(build_H(lat), pairs, 0)
    for rp, rh in zip(tp.distances, th.distances):
        for a, b in zip(rp, rh):
            assert abs(a - b) <= 1e-10


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

"""Acceptance suite: one test per criterion, tolerances pinned in-line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion; any assertion failure marks the criterion FAILED.
"""

import numpy as np

from qqsp.algebra import (
    State,
    certify_unital_cp,
    conditional_expectation,
    expectation_supermap,
    flip_symmetry_residual,
)
from qqsp.classical import (
    ClassicalQSP,
    classical_propagate,
    lift_to_quantum,
    mendel_tensor,
    project_to_classical,
    volterra_tensor,
)
from qqsp.ergodic import ErgodicConfig, ergodic_verdict
from qqsp.linalg import matrix_unit, operator_norm
from qqsp.marginal import (
    build_H,
    build_Q,
    build_Z,
    build_h,
    build_z,
    check_markov,
    reconstruct_qqsp,
    state_consistency_residual,
    verify_marginal_axioms,
)
from qqsp.process import Family, kc_consistency, propagate
from qqsp.report import emit_report
from qqsp.scenarios import builtin_scenarios, run_scenario
from qqsp.seeds import (
    make_constant_seed,
    make_entangling_seed,
    make_identity_like_seed,
    make_mixed_seed,
    symmetrized_embedding,
    transpose_embedding,
)

from conftest import dense, random_density, symmetric_stochastic_tensor

TOL_STRUCTURAL = 1e-10
TOL_MARKOV = 1e-9
TOL_KC = 1e-10
TOL_ROUNDTRIP = 1e-10
TOL_CONCLUSION_B = 1e-12
TOL_EXACT = 1e-12
TOL_BRIDGE = 1e-11
EPSILON = 1e-3

BASIS2 = [matrix_unit(2, i, j) for i in range(2) for j in range(2)]


def _pass(number: int, label: str):
    print(f"\nACCEPTANCE {number} [{label}]: PASS", flush=True)


def _families(lattice):
    q = build_Q(lattice)
    if lattice.process_type == "A":
        hh = build_H(lattice)
        zz = build_Z(hh, q)
    else:
        hh = build_h(lattice)
        zz = build_z(hh, q)
    return q, hh, zz


def test_criterion_1_structural_identities(rng):
    lat = propagate(make_mixed_seed(5, "A"))
    q, h, z = _families(lat)

    # conditional expectation on a product basis
    for _ in range(3):
        phi = State(random_density(rng, 2))
        for a in BASIS2:
            for b in BASIS2:
                got = conditional_expectation(phi, np.kron(a, b)).entries
                want = phi.expect(a) * b
                assert np.abs(got - want).max() <= TOL_STRUCTURAL

    one2, one4 = np.eye(2, dtype=complex), np.eye(4, dtype=complex)
    dense_h, dense_z = dense(h), dense(z)
    for (s, t) in lat.pairs():
        pm, hm, qm, zm = lat.map(s, t), dense_h[(s, t)], q.map(s, t), dense_z[(s, t)]
        # flip symmetry and unital complete positivity of every P^{s,t}
        assert flip_symmetry_residual(pm) <= TOL_STRUCTURAL
        rep = certify_unital_cp(pm)
        assert rep.unitality_residual <= TOL_STRUCTURAL
        assert rep.min_choi_eigenvalue >= -TOL_STRUCTURAL
        for x in BASIS2:
            # reconstruction slot: H applied to the unaveraged embedding is P
            assert np.abs(hm(np.kron(one2, x)) - pm(x)).max() <= TOL_STRUCTURAL
            # averaged slot collapses to omega_t(x) times the unit
            want = lat.omega(t).expect(x) * one4
            assert np.abs(hm(np.kron(x, one2)) - want).max() <= TOL_STRUCTURAL
            # Z carries the embedded slot through Q
            assert np.abs(zm(np.kron(one2, x))
                          - np.kron(one2, qm(x))).max() <= TOL_STRUCTURAL
        # intertwining E_{omega_s} H = Q E_{omega_t}
        lhs = (expectation_supermap(lat.omega(s)) @ hm).matrix
        rhs = (qm @ expectation_supermap(lat.omega(t))).matrix
        assert operator_norm(lhs - rhs) <= TOL_STRUCTURAL

    # phi_t = psi_t
    axioms = verify_marginal_axioms(
        q, h, reconstruct_qqsp(q, h, lat.omega(0), "A", strict=False))
    assert axioms.trajectory_gap <= TOL_STRUCTURAL
    _pass(1, "structural identity suite")


def test_criterion_2_markov_composition():
    lat_a = propagate(make_mixed_seed(5, "A"))
    assert kc_consistency(lat_a).max_residual <= TOL_KC
    h_a = build_H(lat_a)
    assert check_markov(h_a).max_residual <= TOL_MARKOV
    assert check_markov(build_Z(h_a, build_Q(lat_a))).max_residual <= TOL_MARKOV

    lat_b = propagate(make_entangling_seed(5, "B"))
    h_b = build_h(lat_b)
    doubled = check_markov(h_b)
    at_construction = {k: v for k, v in doubled.entries.items() if k[1] == k[2] - 1}
    assert max(at_construction.values()) <= TOL_KC
    plain = check_markov(h_b, law="plain")
    assert plain.max_residual > 0.01
    _pass(2, "markov and composition suite")


def test_criterion_3_reconstruction_round_trips():
    lat_a = propagate(make_mixed_seed(5, "A"))
    q_a, h_a, _ = _families(lat_a)
    rec_a = reconstruct_qqsp(q_a, h_a, lat_a.omega(0), "A")
    dev_a = max(operator_norm(rec_a.map(*k).matrix - lat_a.map(*k).matrix)
                for k in lat_a.pairs())
    assert dev_a <= TOL_ROUNDTRIP

    lat_b = propagate(make_entangling_seed(5, "B"))
    q_b, h_b, _ = _families(lat_b)
    rec_b = reconstruct_qqsp(q_b, h_b, lat_b.omega(0), "B")
    dev_b = max(operator_norm(rec_b.map(*k).matrix - lat_b.map(*k).matrix)
                for k in lat_b.pairs())
    assert dev_b <= TOL_ROUNDTRIP
    assert state_consistency_residual(q_b).max_residual <= TOL_ROUNDTRIP

    for rec, q in ((rec_a, q_a), (rec_b, q_b)):
        for (s, t) in rec.pairs():
            got = (expectation_supermap(rec.omega(s)) @ rec.map(s, t)).matrix
            assert operator_norm(got - q.map(s, t).matrix) <= TOL_CONCLUSION_B
    _pass(3, "reconstruction round trips")


def test_criterion_4_ergodic_equivalence():
    # constant: lambda = 0 and every distance 0 at every time
    lat = propagate(make_constant_seed(2, 8))
    q, hh, zz = _families(lat)
    rep = ergodic_verdict(lat, {"Q": q, hh.kind: hh, zz.kind: zz},
                          ErgodicConfig(epsilon=EPSILON))
    assert rep.contraction.lam <= TOL_EXACT
    for trace in rep.traces.values():
        for row in trace.distances:
            assert max(row) <= TOL_EXACT
    assert rep.ergodic_at_horizon and rep.all_agree

    # identity-like: all four verdicts false, distances constant
    lat = propagate(make_identity_like_seed(8), strict=False)
    q, hh, zz = _families(lat)
    rep = ergodic_verdict(lat, {"Q": q, hh.kind: hh, zz.kind: zz},
                          ErgodicConfig(epsilon=EPSILON))
    assert rep.all_agree and not rep.ergodic_at_horizon
    assert all(not v.ergodic for v in rep.verdicts.values())
    assert len(rep.verdicts) == 4
    for trace in rep.traces.values():
        for row in trace.distances:
            assert max(row) - min(row) <= TOL_EXACT

    # mixed: measured lambda < 1, all four verdicts true at T = 8
    lat = propagate(make_mixed_seed(8, "A"))
    q, hh, zz = _families(lat)
    rep = ergodic_verdict(lat, {"Q": q, hh.kind: hh, zz.kind: zz},
                          ErgodicConfig(epsilon=EPSILON, pair_count=20))
    lam = rep.contraction.lam
    assert lam < 1.0
    assert rep.ergodic_at_horizon and rep.all_agree
    assert len(rep.verdicts) == 4
    for v in rep.verdicts.values():
        assert v.max_step_ratio <= lam + 0.05
    _pass(4, "ergodic equivalence")


def test_criterion_5_classical_bridge(rng):
    volterra = classical_propagate(
        ClassicalQSP.homogeneous(volterra_tensor(1.0), [0.5, 0.5], 6, "A"))
    prefix = [(0.5, 0.5), (0.75, 0.25), (0.9375, 0.0625)]
    for t, want in enumerate(prefix):
        assert np.abs(volterra.x(t).weights - want).max() <= TOL_EXACT

    for ptype in ("A", "B"):
        for N in (2, 3, 4):
            tensor = symmetric_stochastic_tensor(rng, N)
            x0 = rng.random(N) + 0.1
            x0 /= x0.sum()
            q = ClassicalQSP.homogeneous(tensor, x0, 6, ptype)
            classical = classical_propagate(q)
            quantum = project_to_classical(propagate(lift_to_quantum(q)))
            for key in sorted(classical.lattice):
                gap = np.abs(quantum.tensor(*key) - classical.tensor(*key)).max()
                assert gap <= TOL_BRIDGE

    mendel = classical_propagate(
        ClassicalQSP.homogeneous(mendel_tensor(), [0.3, 0.7], 6, "A"))
    for t in range(7):
        assert np.abs(mendel.x(t).weights - [0.3, 0.7]).max() <= TOL_EXACT
    _pass(5, "classical bridge")


def test_criterion_6_negative_controls():
    # the fixed symmetrized-embedding family is not Kolmogorov-Chapman consistent
    omega = State.maximally_mixed(2)
    s_map = symmetrized_embedding(2)
    fixed = Family(
        "P", 2, {(s, t): s_map for s in range(4) for t in range(s + 1, 5)},
        omegas=(omega,) * 5, process_type="A")
    assert kc_consistency(fixed).max_residual > 0.01

    # a mismatched marginal pair fails the exchange axiom
    lat_const = propagate(make_constant_seed(2, 5))
    lat_mixed = propagate(make_mixed_seed(5, "A"))
    q_const, h_mixed = build_Q(lat_const), build_H(lat_mixed)
    rep = verify_marginal_axioms(
        q_const, h_mixed,
        reconstruct_qqsp(q_const, h_mixed, lat_mixed.omega(0), "A", strict=False))
    assert rep.exchange.max_residual > 0.01

    # the transpose-based map is not completely positive
    choi = certify_unital_cp(transpose_embedding(2))
    assert choi.min_choi_eigenvalue <= -0.5
    assert not choi.is_cp
    _pass(6, "negative controls")


def test_criterion_7_determinism(tmp_path):
    for name, sc in sorted(builtin_scenarios().items()):
        emitted = {}
        for tag in ("first", "second"):
            report = run_scenario(sc, seed=777)
            files = emit_report(report, tmp_path / tag / name, "csv-bundle")
            emitted[tag] = {p.name: p.read_bytes() for p in files}
        assert emitted["first"] == emitted["second"], f"{name} reports differ"
    _pass(7, "determinism")

"""Marginal families, their composition laws, axioms, and reconstruction."""

import numpy as np
import pytest

from qqsp.algebra import (
    State,
    SuperMap,
    expectation_supermap,
    predual,
    trace_norm_distance,
)
from qqsp.linalg import matrix_unit, operator_norm
from qqsp.marginal import (
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
from qqsp.process import Family, ValidationFailure, kc_consistency, propagate
from qqsp.seeds import (
    make_constant_seed,
    make_entangling_seed,
    make_mixed_seed,
    symmetrized_embedding,
)

from conftest import random_density

BASIS2 = [matrix_unit(2, i, j) for i in range(2) for j in range(2)]


@pytest.fixture(scope="module")
def mixed_lattice():
    return propagate(make_mixed_seed(5, "A"))


@pytest.fixture(scope="module")
def entangling_lattice():
    return propagate(make_entangling_seed(5, "B"))


@pytest.fixture(scope="module")
def constant_lattice():
    return propagate(make_constant_seed(2, 5))


# ---------------------------------------------------------------------- Q

def test_q_constant_lattice(constant_lattice):
    q = build_Q(constant_lattice)
    omega = State.maximally_mixed(2)
    for (s, t) in q.pairs():
        for x in BASIS2:
            want = omega.expect(x) * np.eye(2)
            assert np.abs(q.map(s, t)(x) - want).max() <= 1e-12


def test_q_is_unital(mixed_lattice):
    q = build_Q(mixed_lattice)
    for (s, t) in q.pairs():
        assert np.abs(q.map(s, t)(np.eye(2, dtype=complex)) - np.eye(2)).max() <= 1e-12


def test_q_matches_composition_oracle(mixed_lattice):
    # independent composition: raw matrix product with a freshly built E matrix
    q = build_Q(mixed_lattice)
    e0 = expectation_supermap(mixed_lattice.omega(0))
    oracle = e0.matrix @ mixed_lattice.map(0, 2).matrix
    assert operator_norm(q.map(0, 2).matrix - oracle) <= 1e-12


# ------------------------------------------------------------------ H / h

def test_h_reconstruction_slot_identity(mixed_lattice):
    # the embedding the expectation leaves alone recovers the lattice map
    h = build_H(mixed_lattice)
    for (s, t) in h.pairs():
        for x in BASIS2:
            got = h.map(s, t)(np.kron(np.eye(2), x))
            assert np.abs(got - mixed_lattice.map(s, t)(x)).max() <= 1e-12


def test_h_averaged_slot_identity(mixed_lattice):
    h = build_H(mixed_lattice)
    for (s, t) in h.pairs():
        for x in BASIS2:
            got = h.map(s, t)(np.kron(x, np.eye(2)))
            want = mixed_lattice.omega(t).expect(x) * np.eye(4)
            assert np.abs(got - want).max() <= 1e-12


def test_h_constant_lattice_products(constant_lattice, rng):
    h = build_H(constant_lattice)
    omega = State.maximally_mixed(2)
    for _ in range(5):
        a, b = random_density(rng, 2), random_density(rng, 2)
        got = h.map(0, 2)(np.kron(a, b))
        want = omega.expect(a) * omega.expect(b) * np.eye(4)
        assert np.abs(got - want).max() <= 1e-12


def test_h_typeB_reconstruction_slot(entangling_lattice):
    h = build_h(entangling_lattice)
    for (s, t) in h.pairs():
        for x in BASIS2:
            got = h.map(s, t)(np.kron(np.eye(2), x))
            assert np.abs(got - entangling_lattice.map(s, t)(x)).max() <= 1e-12


def test_build_kind_guards(mixed_lattice, entangling_lattice):
    with pytest.raises(ValueError):
        build_H(entangling_lattice)
    with pytest.raises(ValueError):
        build_h(mixed_lattice)
    with pytest.raises(ValueError):
        build_Z(build_Q(mixed_lattice))


# ---------------------------------------------------------------------- Z

def test_z_slice_identities(mixed_lattice):
    h = build_H(mixed_lattice)
    q = build_Q(mixed_lattice)
    z = build_Z(h)
    for (s, t) in z.pairs():
        for x in BASIS2:
            got = z.map(s, t)(np.kron(np.eye(2), x))
            want = np.kron(np.eye(2), q.map(s, t)(x))
            assert np.abs(got - want).max() <= 1e-12
            got2 = z.map(s, t)(np.kron(x, np.eye(2)))
            want2 = mixed_lattice.omega(t).expect(x) * np.eye(4)
            assert np.abs(got2 - want2).max() <= 1e-12


def test_slice_residual_summary(mixed_lattice):
    q, h = build_Q(mixed_lattice), build_H(mixed_lattice)
    res = slice_residuals(mixed_lattice, q, h, build_Z(h))
    assert max(res.values()) <= 1e-10


# ------------------------------------------------------------ composition

def test_constant_all_kinds_compose(constant_lattice):
    q = build_Q(constant_lattice)
    h = build_H(constant_lattice)
    z = build_Z(h)
    for fam in (q, h, z):
        assert check_markov(fam).max_residual <= 1e-13


def test_h_and_z_markov_when_kc_holds(mixed_lattice):
    assert kc_consistency(mixed_lattice).max_residual <= 1e-10
    h = build_H(mixed_lattice)
    assert check_markov(h).max_residual <= 1e-9
    assert check_markov(build_Z(h)).max_residual <= 1e-9
    assert check_markov(build_Q(mixed_lattice)).max_residual <= 1e-9


def test_type_b_contrast(entangling_lattice):
    # h satisfies the doubled law but is not plainly Markov
    h = build_h(entangling_lattice)
    native = check_markov(h)
    construction = {key: r for key, r in native.entries.items() if key[1] == key[2] - 1}
    assert max(construction.values()) <= 1e-11
    plain = check_markov(h, law="plain")
    assert plain.max_residual > 0.01
    z = build_z(h)
    assert check_markov(z).max_residual <= 1e-9


def test_h_native_requires_companion(entangling_lattice):
    h = build_h(entangling_lattice)
    orphan = Family("h", h.n, dict(h.maps), h.omegas, algebra_kind=h.algebra_kind)
    with pytest.raises(ValueError):
        check_markov(orphan)


# ----------------------------------------------------------------- axioms

def test_axioms_hold_for_built_pair(mixed_lattice):
    q, h = build_Q(mixed_lattice), build_H(mixed_lattice)
    rep = verify_marginal_axioms(
        q, h, reconstruct_qqsp(q, h, mixed_lattice.omega(0), "A", strict=False))
    assert rep.flip.max_residual <= 1e-10
    assert rep.exchange.max_residual <= 1e-10
    assert rep.absorption.max_residual <= 1e-10
    assert rep.trajectory_gap <= 1e-10


def test_axioms_hold_for_type_b_pair(entangling_lattice):
    q, h = build_Q(entangling_lattice), build_h(entangling_lattice)
    rep = verify_marginal_axioms(
        q, h, reconstruct_qqsp(q, h, entangling_lattice.omega(0), "B", strict=False))
    assert rep.max_residual <= 1e-10


def test_mismatched_pair_fails_exchange(constant_lattice, mixed_lattice):
    # deliberate mismatch: Q from the constant lattice, H from the mixed one
    q_const = build_Q(constant_lattice)
    h_mixed = build_H(mixed_lattice)
    rep = verify_marginal_axioms(
        q_const, h_mixed,
        reconstruct_qqsp(q_const, h_mixed, mixed_lattice.omega(0), "A", strict=False))
    assert rep.exchange.max_residual > 0.01


def test_abstract_families_are_accepted():
    # hand-built identity families: valid inputs, axioms measured not assumed
    n, T = 2, 3
    keys = [(s, t) for s in range(T) for t in range(s + 1, T + 1)]
    q = Family("Q", n, {k: SuperMap.identity(n) for k in keys})
    h = Family("H", n, {k: SuperMap.identity(n * n) for k in keys})
    omega0 = State.maximally_mixed(n)
    rec = reconstruct_qqsp(q, h, omega0, "A", strict=False)
    assert rec.horizon == T
    rep = verify_marginal_axioms(q, h, rec)
    assert rep.exchange.max_residual <= 1e-12   # both sides are E_{omega0}
    assert rep.absorption.max_residual > 0.1    # identity does not absorb
    with pytest.raises(ValidationFailure):
        reconstruct_qqsp(q, h, omega0, "A", strict=True, tol=1e-8)


# --------------------------------------------------------- reconstruction

def test_permissive_reconstruction_skips_the_axiom_suite(monkeypatch, mixed_lattice):
    def refuse(*args, **kwargs):
        raise AssertionError("the axiom suite ran in permissive mode")

    monkeypatch.setattr("qqsp.marginal.verify_marginal_axioms", refuse)
    q, h = build_Q(mixed_lattice), build_H(mixed_lattice)
    rec = reconstruct_qqsp(q, h, mixed_lattice.omega(0), "A", strict=False)
    assert rec.pairs() == mixed_lattice.pairs()


def test_round_trip_type_a(mixed_lattice):
    q, h = build_Q(mixed_lattice), build_H(mixed_lattice)
    rec = reconstruct_qqsp(q, h, mixed_lattice.omega(0), "A")
    dev = max(operator_norm(rec.map(*k).matrix - mixed_lattice.map(*k).matrix)
              for k in mixed_lattice.pairs())
    assert dev <= 1e-10
    for t in range(rec.horizon + 1):
        assert trace_norm_distance(rec.omega(t), mixed_lattice.omega(t)) <= 1e-10
    # conclusion (b): Q = E_{omega_s} P
    for (s, t) in rec.pairs():
        got = (expectation_supermap(rec.omega(s)) @ rec.map(s, t)).matrix
        assert operator_norm(got - q.map(s, t).matrix) <= 1e-12
    # the reconstructed lattice satisfies the fundamental equation at every split
    assert kc_consistency(rec).max_residual <= 1e-10


def test_round_trip_type_b(entangling_lattice):
    q, h = build_Q(entangling_lattice), build_h(entangling_lattice)
    rec = reconstruct_qqsp(q, h, entangling_lattice.omega(0), "B")
    dev = max(operator_norm(rec.map(*k).matrix - entangling_lattice.map(*k).matrix)
              for k in entangling_lattice.pairs())
    assert dev <= 1e-10
    assert kc_consistency(rec).max_residual <= 1e-10
    # trajectory consistency along the way
    assert state_consistency_residual(q).max_residual <= 1e-10


def test_round_trip_constant_exact(constant_lattice):
    q, h = build_Q(constant_lattice), build_H(constant_lattice)
    rec = reconstruct_qqsp(q, h, constant_lattice.omega(0), "A")
    dev = max(operator_norm(rec.map(*k).matrix - constant_lattice.map(*k).matrix)
              for k in constant_lattice.pairs())
    assert dev <= 1e-13


def test_state_consistency_also_type_a(mixed_lattice):
    assert state_consistency_residual(build_Q(mixed_lattice)).max_residual <= 1e-10


# -------------------------------------------------- predual factorization

def test_predual_factorization_h(mixed_lattice, rng):
    # H_*(rho) = rho_{omega_t} (x) P_*(rho) for states on the doubled algebra
    h = build_H(mixed_lattice)
    for (s, t) in [(0, 1), (0, 3), (1, 4), (2, 5)]:
        for _ in range(3):
            rho = random_density(rng, 4)
            lhs = predual(h.map(s, t))(rho)
            rhs = np.kron(mixed_lattice.omega(t).rho,
                          predual(mixed_lattice.map(s, t))(rho))
            assert np.abs(lhs - rhs).max() <= 1e-10


def test_predual_factorization_z(mixed_lattice, rng):
    # Z_*(sigma (x) psi) = rho_{omega_t} (x) P_*(rho_{omega_s} (x) psi)
    z = build_Z(build_H(mixed_lattice))
    for (s, t) in [(0, 2), (1, 3)]:
        for _ in range(3):
            sigma, psi = random_density(rng, 2), random_density(rng, 2)
            lhs = predual(z.map(s, t))(np.kron(sigma, psi))
            rhs = np.kron(mixed_lattice.omega(t).rho,
                          predual(mixed_lattice.map(s, t))(
                              np.kron(mixed_lattice.omega(s).rho, psi)))
            assert np.abs(lhs - rhs).max() <= 1e-10


def test_family_dimension_guard():
    with pytest.raises(ValueError):
        Family("Q", 2, {(0, 1): SuperMap.identity(4)})
    with pytest.raises(ValueError):
        Family("H", 2, {(0, 1): SuperMap.identity(2)})
    with pytest.raises(ValueError, match="expected \\(2, 4\\)"):
        Family("P", 2, {(0, 1): SuperMap.identity(4)}, process_type="A")
    with pytest.raises(ValueError, match="unknown family kind"):
        Family("X", 2, {(0, 1): SuperMap.identity(2)})
    with pytest.raises(ValueError, match="type"):
        Family("P", 2, {(0, 1): symmetrized_embedding(2)})
    assert Family("P", 2, {(0, 1): symmetrized_embedding(2)}, process_type="B").side == 4

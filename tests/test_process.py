"""Seeds, propagation, Kolmogorov-Chapman diagnostics, state interaction."""

import numpy as np
import pytest

from qqsp.algebra import (
    State,
    SuperMap,
    certify_unital_cp,
    expectation_matrices,
    expectation_supermap,
    flip_symmetry_residual,
    predual,
    trace_norm_distance,
)
from qqsp.classical import ClassicalQSP, lift_to_quantum, volterra_tensor
from qqsp.linalg import matrix_unit, operator_norm, ptrace_first
from qqsp.marginal import build_H
from qqsp.process import (
    Family,
    QQSPSeed,
    ValidationFailure,
    conditioned_products,
    fundamental_products,
    interact_states,
    kc_consistency,
    propagate,
    triples,
    validate_seed,
)
from qqsp.seeds import (
    make_constant_seed,
    make_entangling_seed,
    make_mixed_seed,
    mixed_step_map,
    symmetrized_embedding,
    transpose_embedding,
    unsymmetrized_embedding,
)

from conftest import dense, expectations, random_density


# ---------------------------------------------------------------- oracles

def expectation_matrix_by_hand(rho: np.ndarray) -> np.ndarray:
    """Independent vectorization matrix of E_phi via the block-slice formula."""
    n = rho.shape[0]
    cols = []
    for q in range(n * n * n * n):
        i, j = q % (n * n), q // (n * n)
        z = np.zeros((n * n, n * n), dtype=complex)
        z[i, j] = 1
        out = ptrace_first(np.kron(rho, np.eye(n)) @ z, n, n)
        cols.append(out.reshape(-1, order="F"))
    return np.column_stack(cols)


def classical_type_b_fill(p01, p12, xs):
    """Brute-force type-B tensor at (0, 2) with explicit quintuple loops."""
    N = p01.shape[0]
    out = np.zeros((N, N, N))
    for i in range(N):
        for j in range(N):
            for k in range(N):
                acc = 0.0
                for m in range(N):
                    for l in range(N):
                        for g in range(N):
                            for h in range(N):
                                acc += p01[i, m, l] * p01[j, g, h] * p12[l, h, k] \
                                    * xs[m] * xs[g]
                out[i, j, k] = acc
    return out


# ------------------------------------------------------------- validation

def test_constant_seed_is_valid():
    seed = make_constant_seed(2, 4)
    assert validate_seed(seed) == []


def test_unsymmetrized_embedding_fails_flip():
    seed = QQSPSeed.from_single_map(unsymmetrized_embedding(2),
                                    State.maximally_mixed(2), 3, "A")
    issues = validate_seed(seed)
    assert issues and all(i.kind == "flip" for i in issues)
    assert issues[0].residual > 0.5
    # oracle: U(x (x) 1) = 1 (x) x differs from x (x) 1 already at x = diag(1, 0)
    x = np.diag([1, 0]).astype(complex)
    gap = np.abs(np.kron(np.eye(2), x) - np.kron(x, np.eye(2))).max()
    assert gap >= 1.0


def test_transpose_seed_fails_cp():
    seed = QQSPSeed.from_single_map(transpose_embedding(2),
                                    State.maximally_mixed(2), 3, "A")
    issues = validate_seed(seed)
    kinds = {i.kind for i in issues}
    assert "cp" in kinds
    rep = certify_unital_cp(seed.step_maps[0])
    assert rep.min_choi_eigenvalue <= -0.5


def test_strict_propagate_rejects_bad_seed():
    seed = QQSPSeed.from_single_map(unsymmetrized_embedding(2),
                                    State.maximally_mixed(2), 3, "A")
    with pytest.raises(ValidationFailure):
        propagate(seed, strict=True)
    lat = propagate(seed, strict=False)
    assert lat.horizon == 3


# ------------------------------------------------------------ propagation

def test_constant_lattice_is_fixed_point():
    omega = State.maximally_mixed(2)
    seed = make_constant_seed(2, 5)
    lat = propagate(seed)
    base = seed.step_maps[0].matrix
    for (s, t) in lat.pairs():
        assert operator_norm(lat.map(s, t).matrix - base) <= 1e-13
    for t in range(1, 6):
        assert trace_norm_distance(lat.omega(t), omega) <= 1e-13


def test_mixed_type_a_matches_composition_oracle(rng):
    seed = make_mixed_seed(3, "A")
    lat = propagate(seed)
    # oracle: compose the matrices directly with an independently built E matrix
    e1 = expectation_matrix_by_hand(lat.omega(1).rho)
    oracle = lat.map(0, 1).matrix @ e1 @ lat.map(1, 2).matrix
    assert operator_norm(lat.map(0, 2).matrix - oracle) <= 1e-12
    # omega_2 agrees with (omega_0 (x) omega_0)(P^{0,2} .) on the basis
    rho00 = np.kron(seed.omega0.rho, seed.omega0.rho)
    for x in [matrix_unit(2, i, j) for i in range(2) for j in range(2)]:
        lhs = np.trace(rho00 @ lat.map(0, 2)(x))
        rhs = lat.omega(2).expect(x)
        assert abs(lhs - rhs) <= 1e-12


def test_mixed_type_b_matches_composition_oracle(rng):
    seed = make_entangling_seed(3, "B")
    lat = propagate(seed)
    q01 = expectation_supermap(lat.omega(0)) @ lat.map(0, 1)
    # oracle: expand P^{1,2}x in product units and apply Q to each leg by hand
    x = random_density(rng, 2)
    y12 = lat.map(1, 2)(x)
    blocks = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            blk = y12[i * 2:(i + 1) * 2, j * 2:(j + 1) * 2]
            blocks += np.kron(q01(matrix_unit(2, i, j)), q01(blk))
    assert np.abs(lat.map(0, 2)(x) - blocks).max() <= 1e-12


def test_volterra_lift_trajectory():
    q = ClassicalQSP.homogeneous(volterra_tensor(1.0), [0.5, 0.5], 3, "A")
    lat = propagate(lift_to_quantum(q))
    assert np.abs(lat.omega(1).diagonal_weights() - [0.75, 0.25]).max() <= 1e-13
    assert np.abs(lat.omega(2).diagonal_weights() - [0.9375, 0.0625]).max() <= 1e-13


def test_type_b_volterra_matches_classical_bruteforce():
    q = ClassicalQSP.homogeneous(volterra_tensor(1.0), [0.5, 0.5], 2, "B")
    lat = propagate(lift_to_quantum(q))
    want = classical_type_b_fill(volterra_tensor(1.0), volterra_tensor(1.0), [0.5, 0.5])
    got = np.zeros((2, 2, 2))
    for k in range(2):
        chi = np.zeros((2, 2), dtype=complex)
        chi[k, k] = 1
        out = lat.map(0, 2)(chi)
        got[:, :, k] = np.real(np.diag(out)).reshape(2, 2)
    assert np.abs(got - want).max() <= 1e-12


def test_unit_step_agreement():
    seed = make_mixed_seed(4, "A")
    lat = propagate(seed)
    for k in range(4):
        assert np.array_equal(lat.map(k, k + 1).matrix, seed.step_maps[k].matrix)


def test_propagated_maps_stay_unital_cp_flip_symmetric():
    for seed in (make_mixed_seed(4, "A"), make_entangling_seed(4, "B")):
        lat = propagate(seed)
        for (s, t) in lat.pairs():
            rep = certify_unital_cp(lat.map(s, t))
            assert rep.is_cp and rep.is_unital
            assert rep.unitality_residual <= 1e-10
            assert flip_symmetry_residual(lat.map(s, t)) <= 1e-10


def test_omega_consistency_on_basis():
    for seed in (make_mixed_seed(5, "A"), make_entangling_seed(5, "B")):
        lat = propagate(seed)
        rho00 = np.kron(lat.omega(0).rho, lat.omega(0).rho)
        for t in range(1, 6):
            for x in [matrix_unit(2, i, j) for i in range(2) for j in range(2)]:
                lhs = np.trace(rho00 @ lat.map(0, t)(x))
                assert abs(lhs - lat.omega(t).expect(x)) <= 1e-10


# ----------------------------------------------------------- consistency

def _one_split(p_s_tau, p_tau_t, e_s, e_tau, law):
    """The kernel's product at one split, as a stack of one; the conditioned factor is
    E_{omega_tau} P^{tau,t} under law A and Q = E_{omega_s} P^{s,tau} under law B."""
    right = e_tau @ p_tau_t if law == "A" else p_tau_t
    left = e_s @ p_s_tau if law == "B" else p_s_tau
    return SuperMap(p_tau_t.in_dim, p_s_tau.out_dim,
                    fundamental_products(left.matrix[None], right.matrix[None], law)[0])


def test_fundamental_composition_matches_explicit_laws(rng):
    n = 3
    shape = (n ** 4, n * n)
    p_s_tau, p_tau_t = (SuperMap(n, n * n, rng.normal(size=shape) + 1j * rng.normal(size=shape))
                        for _ in range(2))
    omega_s, omega_tau = State(random_density(rng, n)), State(random_density(rng, n))
    # type A: P^{s,tau} E_{omega_tau} P^{tau,t} with an independently built E matrix
    oracle = p_s_tau.matrix @ expectation_matrix_by_hand(omega_tau.rho) @ p_tau_t.matrix
    e_s, e_tau = expectation_supermap(omega_s), expectation_supermap(omega_tau)
    got = _one_split(p_s_tau, p_tau_t, e_s, e_tau, "A").matrix
    assert operator_norm(got - oracle) <= 1e-12 * operator_norm(oracle)
    # type B: (Q (x) Q) P^{tau,t} x with Q = E_{omega_s} P^{s,tau}, expanded in blocks
    type_b = _one_split(p_s_tau, p_tau_t, e_s, e_tau, "B")
    q = e_s @ p_s_tau
    x = random_density(rng, n)
    y = p_tau_t(x)
    blocks = np.zeros((n * n, n * n), dtype=complex)
    for i in range(n):
        for j in range(n):
            blk = y[i * n:(i + 1) * n, j * n:(j + 1) * n]
            blocks += np.kron(q(matrix_unit(n, i, j)), q(blk))
    assert np.abs(type_b(x) - blocks).max() <= 1e-12 * np.abs(blocks).max()


@pytest.mark.parametrize("n", [2, 3])
def test_type_a_composition_is_reassociated_exactly(n):
    # P^{s,tau} (E_tau P^{tau,t}) against the left-to-right product through the
    # n^4 x n^4 intermediate P^{s,tau} E_tau
    omega0 = State.from_weights(np.arange(1, n + 1) / (n * (n + 1) / 2))
    lat = propagate(QQSPSeed.from_single_map(mixed_step_map(n), omega0, 4, "A"))
    es = expectations(lat)
    for s, tau, t in triples(lat.horizon):
        want = (lat.map(s, tau).matrix @ es[tau].matrix) @ lat.map(tau, t).matrix
        got = _one_split(lat.map(s, tau), lat.map(tau, t), es[s], es[tau], "A")
        assert operator_norm(got.matrix - want) <= 1e-14 * operator_norm(want)


@pytest.mark.parametrize("k", [1, 7])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_batched_e_products_keep_each_pairs_bits(rng, n, k):
    # one batched matmul over the stacks rounds as the gemm of each pair alone, whether the
    # maps are a fresh stack, a slice of a larger one, or gathered by position
    rhos = np.array([random_density(rng, n) for _ in range(k)])
    larger = rng.normal(size=(2 * k + 1, n ** 4, n * n)) + 1j * rng.normal(
        size=(2 * k + 1, n ** 4, n * n))
    for maps in (np.ascontiguousarray(larger[:k]), larger[k + 1:], larger.take(
            rng.permutation(2 * k + 1)[:k], axis=0)):
        got = conditioned_products(rhos, maps)
        for j in range(k):
            want = expectation_matrices(rhos[j:j + 1])[0] @ maps[j]
            assert got[j].tobytes() == want.tobytes()


def test_kc_constant_lattice_zero():
    lat = propagate(make_constant_seed(2, 5))
    assert kc_consistency(lat).max_residual <= 1e-13


def test_kc_construction_split_is_exact():
    lat = propagate(make_mixed_seed(5, "A"))
    table = kc_consistency(lat)
    for (s, tau, t), res in table.entries.items():
        if tau == t - 1:
            assert res <= 1e-12


def test_kc_fixed_family_violates():
    # the FIXED family P^{s,t} := S for every pair is not a valid process
    omega = State.maximally_mixed(2)
    s_map = symmetrized_embedding(2)
    maps = {(s, t): s_map for s in range(5) for t in range(s + 1, 6)}
    lat = Family("P", 2, maps, omegas=(omega,) * 6, process_type="A")
    table = kc_consistency(lat)
    assert table.max_residual > 0.01
    # oracle: direct evaluation at x = diag(1, 0)
    x = np.diag([1, 0]).astype(complex)
    composed = s_map(expectation_supermap(omega)(s_map(x)))
    assert np.abs(composed - s_map(x)).max() > 0.01


def test_theorem_a_composition_for_type_a():
    # P^{s,t} = H^{s,tau} P^{tau,t} whenever the lattice is KC consistent
    lat = propagate(make_mixed_seed(5, "A"))
    assert kc_consistency(lat).max_residual <= 1e-10
    h = dense(build_H(lat))
    for (s, tau, t) in [(0, 1, 2), (0, 2, 4), (1, 3, 5), (2, 3, 5)]:
        lhs = (h[(s, tau)] @ lat.map(tau, t)).matrix
        assert operator_norm(lhs - lat.map(s, t).matrix) <= 1e-10


# ------------------------------------------------------------ interaction

def test_interact_constant_collapses():
    lat = propagate(make_constant_seed(2, 4))
    omega = State.maximally_mixed(2)
    phi, psi = State.pure([1, 0]), State.from_weights([0.2, 0.8])
    for (s, t) in [(0, 1), (1, 3), (0, 4)]:
        assert trace_norm_distance(interact_states(lat, phi, psi, s, t), omega) <= 1e-12


def test_interact_symmetry(rng):
    lat = propagate(make_mixed_seed(4, "A"))
    for _ in range(20):
        phi = State(random_density(rng, 2))
        psi = State(random_density(rng, 2))
        v1 = interact_states(lat, phi, psi, 0, 2)
        v2 = interact_states(lat, psi, phi, 0, 2)
        assert trace_norm_distance(v1, v2) <= 1e-12


def test_interact_volterra_vertex_pair():
    q = ClassicalQSP.homogeneous(volterra_tensor(1.0), [0.5, 0.5], 2, "A")
    lat = propagate(lift_to_quantum(q))
    d1 = State.from_weights([1.0, 0.0])
    d2 = State.from_weights([0.0, 1.0])
    out = interact_states(lat, d1, d2, 0, 1)
    assert trace_norm_distance(out, d1) <= 1e-13


def test_an_interaction_image_that_is_no_state_names_its_map():
    lat = propagate(make_mixed_seed(3, "A"))
    maps = dict(lat.maps)
    maps[(0, 2)] = SuperMap(2, 4, 2 * maps[(0, 2)].matrix)   # its predual doubles the trace
    doubled = Family("P", 2, maps, lat.omegas, "A")
    mixed = State.maximally_mixed(2)
    with pytest.raises(ValidationFailure, match=r"P\^\{0,t\}_\*\(phi \(x\) psi\) at t=2 "
                                                r"is not a state: density matrix trace"):
        interact_states(doubled, mixed, mixed, 0, 2)
    assert issubclass(ValidationFailure, ValueError)
    assert trace_norm_distance(interact_states(doubled, mixed, mixed, 0, 1),
                               interact_states(lat, mixed, mixed, 0, 1)) == 0.0


def test_interact_time_range():
    lat = propagate(make_constant_seed(2, 3))
    with pytest.raises(ValueError):
        interact_states(lat, State.maximally_mixed(2), State.maximally_mixed(2), 2, 2)
    with pytest.raises(ValueError):
        interact_states(lat, State.maximally_mixed(2), State.maximally_mixed(2), 0, 9)


def test_predual_images_are_states(rng):
    lat = propagate(make_entangling_seed(4, "B"))
    for (s, t) in lat.pairs():
        rho = predual(lat.map(s, t))(np.kron(random_density(rng, 2), random_density(rng, 2)))
        State(rho)  # constructor enforces hermitian, psd, unit trace

"""Classical simplex processes and the diagonal-algebra bridge."""

import numpy as np
import pytest

from qqsp.algebra import certify_unital_cp
from qqsp.classical import (
    ClassicalQSP,
    Distribution,
    classical_issues,
    classical_propagate,
    classical_validate,
    copy_second_parent_tensor,
    lift_to_quantum,
    mendel_tensor,
    project_to_classical,
    tensor_to_step_map,
    volterra_tensor,
)
from qqsp.process import ValidationFailure, propagate

from conftest import symmetric_stochastic_tensor


# ---------------------------------------------------------------- oracles

def type_a_fill_by_loops(p_sr, p_rt, x_r):
    """(iii_A) evaluated with explicit sums, no einsum."""
    N = p_sr.shape[0]
    out = np.zeros((N, N, N))
    for i in range(N):
        for j in range(N):
            for k in range(N):
                acc = 0.0
                for m in range(N):
                    for l in range(N):
                        acc += p_sr[i, j, m] * p_rt[m, l, k] * x_r[l]
                out[i, j, k] = acc
    return out


def trajectory_step_by_loops(p_0t, x0):
    N = p_0t.shape[0]
    out = np.zeros(N)
    for k in range(N):
        for i in range(N):
            for j in range(N):
                out[k] += p_0t[i, j, k] * x0[i] * x0[j]
    return out


# ------------------------------------------------------------- validation

def test_mendel_tensor_is_valid():
    q = ClassicalQSP.homogeneous(mendel_tensor(), [0.5, 0.5], 3, "A")
    assert classical_issues(q) == []


def test_volterra_tensor_is_valid():
    q = ClassicalQSP.homogeneous(volterra_tensor(1.0), [0.5, 0.5], 3, "A")
    assert classical_issues(q) == []
    diag = classical_validate(q)[0]
    assert diag.symmetry_residual == 0.0
    assert diag.min_entry >= 0.0
    assert diag.normalization_residual == 0.0


def test_asymmetric_tensor_rejected():
    p = np.zeros((2, 2, 2))
    p[0, 1, 0] = 1.0
    p[1, 0, 0] = 0.0
    p[:, :, 1] = 1.0 - p[:, :, 0]
    q = ClassicalQSP.homogeneous(p, [0.5, 0.5], 2, "A")
    issues = classical_issues(q)
    assert issues and issues[0].symmetry_residual == 1.0
    with pytest.raises(ValidationFailure):
        classical_propagate(q)


def test_distribution_validation():
    with pytest.raises(ValueError):
        Distribution(np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        Distribution(np.array([1.2, -0.2]))


# ------------------------------------------------------------ propagation

def test_mendel_trajectory_is_constant():
    q = classical_propagate(ClassicalQSP.homogeneous(mendel_tensor(), [0.3, 0.7], 5, "A"))
    for t in range(6):
        assert np.abs(q.x(t).weights - [0.3, 0.7]).max() <= 1e-13


def test_volterra_trajectory_hand_oracle():
    q = classical_propagate(ClassicalQSP.homogeneous(volterra_tensor(1.0), [0.5, 0.5], 3, "A"))
    assert np.abs(q.x(1).weights - [0.75, 0.25]).max() <= 1e-13
    # x2_1 = (3/4)^2 + 2 (3/4)(1/4) = 15/16
    assert np.abs(q.x(2).weights - [0.9375, 0.0625]).max() <= 1e-13


def test_type_a_fill_matches_loop_oracle():
    x0 = [0.3, 0.7]
    q = classical_propagate(ClassicalQSP.homogeneous(mendel_tensor(), x0, 2, "A"))
    x1 = trajectory_step_by_loops(mendel_tensor(), np.asarray(x0))
    want = type_a_fill_by_loops(mendel_tensor(), mendel_tensor(), x1)
    assert np.abs(q.tensor(0, 2) - want).max() <= 1e-13


def test_filled_tensors_stay_symmetric_stochastic(rng):
    for ptype in "AB":
        for N in (2, 3):
            q = ClassicalQSP.homogeneous(symmetric_stochastic_tensor(rng, N),
                                         np.full(N, 1.0 / N), 5, ptype)
            filled = classical_propagate(q)
            for d in classical_validate(filled):
                assert d.symmetry_residual <= 1e-11
                assert d.min_entry >= -1e-11
                assert d.normalization_residual <= 1e-11


# ------------------------------------------------------------------ lift

def test_lift_unitality_from_stochasticity():
    m = tensor_to_step_map(volterra_tensor(1.0))
    out = m(np.eye(2, dtype=complex))
    assert np.abs(out - np.eye(4)).max() <= 1e-13


def test_lift_volterra_indicator_pattern():
    # reading the tensor back off the lifted map at the indicator of type 1
    m = tensor_to_step_map(volterra_tensor(1.0))
    chi1 = np.diag([1.0, 0.0]).astype(complex)
    out = np.real(np.diag(m(chi1))).reshape(2, 2)
    assert np.array_equal(out, np.array([[1.0, 1.0], [1.0, 0.0]]))


def test_lifted_seed_passes_validation(rng):
    from qqsp.process import validate_seed
    for N in (2, 3, 4):
        q = ClassicalQSP.homogeneous(symmetric_stochastic_tensor(rng, N),
                                     np.full(N, 1.0 / N), 3, "A")
        seed = lift_to_quantum(q)
        assert seed.algebra_kind == "diagonal"
        assert validate_seed(seed) == []
        for m in seed.step_maps:
            assert certify_unital_cp(m).is_cp


def test_lift_requires_valid_tensors():
    q = ClassicalQSP.homogeneous(copy_second_parent_tensor(2), [0.5, 0.5], 2, "A")
    with pytest.raises(ValidationFailure):
        lift_to_quantum(q)
    seed = lift_to_quantum(q, strict=False)
    assert seed.horizon == 2


# ------------------------------------------------------------ projection

def test_round_trip_is_bit_exact():
    q = ClassicalQSP.homogeneous(volterra_tensor(0.5), [0.25, 0.75], 4, "A")
    lat = propagate(lift_to_quantum(q))
    back = project_to_classical(lat)
    for k in range(4):
        assert np.array_equal(back.step_tensors[k], q.step_tensors[k])


def test_constant_uniform_projects_to_uniform_tensor():
    N = 3
    uniform = np.full((N, N, N), 1.0 / N)
    q = ClassicalQSP.homogeneous(uniform, np.full(N, 1.0 / N), 4, "A")
    lat = propagate(lift_to_quantum(q))
    back = project_to_classical(lat)
    for key in lat.pairs():
        assert np.abs(back.tensor(*key) - 1.0 / N).max() <= 1e-12


def test_mendel_unit_step_projection():
    q = ClassicalQSP.homogeneous(mendel_tensor(), [0.3, 0.7], 2, "A")
    lat = propagate(lift_to_quantum(q))
    back = project_to_classical(lat)
    assert np.array_equal(back.tensor(0, 1), mendel_tensor())


def test_projection_rejects_non_diagonal_lattice():
    # a rotated embedding sends indicators to matrices with off-diagonal mass
    from qqsp.algebra import State, SuperMap
    from qqsp.process import Family

    had = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    r = np.kron(had, had)

    def rotated(x):
        return r @ np.kron(x, np.eye(2, dtype=complex)) @ r.conj().T

    lat = Family("P", 2, {(0, 1): SuperMap.from_function(rotated, 2, 4)},
                 omegas=(State.maximally_mixed(2), State.maximally_mixed(2)),
                 process_type="A", algebra_kind="diagonal")
    with pytest.raises(ValueError):
        project_to_classical(lat)


# ---------------------------------------------------------------- bridge

@pytest.mark.parametrize("ptype", ["A", "B"])
def test_bridge_commutation(rng, ptype):
    # lift then propagate then project == classical propagate, N = 2..4, T = 6
    for N in (2, 3, 4):
        tensor = symmetric_stochastic_tensor(rng, N)
        x0 = rng.random(N) + 0.1
        x0 /= x0.sum()
        q = ClassicalQSP.homogeneous(tensor, x0, 6, ptype)
        classical = classical_propagate(q)
        quantum = project_to_classical(propagate(lift_to_quantum(q)))
        for key in sorted(classical.lattice):
            assert np.abs(quantum.tensor(*key) - classical.tensor(*key)).max() <= 1e-11
        for t in range(7):
            assert np.abs(quantum.x(t).weights - classical.x(t).weights).max() <= 1e-11


def test_trajectory_agreement_with_lattice_omegas(rng):
    q = ClassicalQSP.homogeneous(volterra_tensor(0.7), [0.4, 0.6], 5, "A")
    classical = classical_propagate(q)
    lat = propagate(lift_to_quantum(q))
    for t in range(6):
        assert np.abs(lat.omega(t).diagonal_weights()
                      - classical.x(t).weights).max() <= 1e-11

"""Algebra substrate: tensor, flip, conditional expectation, Choi, duality."""

import numpy as np
import pytest

from qqsp.algebra import (
    AlgebraElement,
    InvalidDensity,
    State,
    SuperMap,
    certify_unital_cp,
    conditional_expectation,
    doubled_after,
    expectation_matrices,
    expectation_supermap,
    flip_after,
    flip_symmetry_residual,
    predual,
    supermap_tensor,
    tensor,
    trace_norm_distance,
)
from qqsp.linalg import (
    apply_supermatrix,
    choi_matrix,
    matrix_unit,
    operator_norm,
    operator_norms,
    predual_matrix,
    supermatrix_from_function,
    supermatrix_tensor,
    swap_matrix,
    trace_norm,
    trace_norms,
    vec,
)
from qqsp.seeds import symmetrized_embedding, transpose_embedding

from conftest import (basis_elements, embed_averaged_supermap, embed_supermap, flip_conjugate,
                      flip_supermap, random_density, random_hermitian)


# ---------------------------------------------------------------- oracles

def choi_by_hand(m: SuperMap) -> np.ndarray:
    """Independent Choi construction: explicit double loop over matrix units."""
    d_in, d_out = m.in_dim, m.out_dim
    c = np.zeros((d_in * d_out, d_in * d_out), dtype=complex)
    for i in range(d_in):
        for j in range(d_in):
            e = np.zeros((d_in, d_in), dtype=complex)
            e[i, j] = 1
            c += np.kron(e, m(e))
    return c


def expectation_by_basis_expansion(rho_phi: np.ndarray, z: np.ndarray) -> np.ndarray:
    """E_phi(z) = sum_ij phi(E_ij) B_ij with B_ij the (i, j) block of z."""
    n = rho_phi.shape[0]
    out = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            phi_eij = rho_phi[j, i]  # trace(rho E_ij)
            out += phi_eij * z[i * n:(i + 1) * n, j * n:(j + 1) * n]
    return out


def tensor_by_units(m1: SuperMap, m2: SuperMap) -> np.ndarray:
    """Tensor of two maps, column by column from its image of E_ij (x) E_kl."""
    n1, n2 = m1.in_dim, m2.in_dim
    d = n1 * n2
    mat = np.zeros(((m1.out_dim * m2.out_dim) ** 2, d * d), dtype=complex)
    for q in range(d * d):
        (i1, i2), (j1, j2) = divmod(q % d, n2), divmod(q // d, n2)
        mat[:, q] = vec(np.kron(m1(matrix_unit(n1, i1, j1)), m2(matrix_unit(n2, i2, j2))))
    return mat


def random_supermap(rng, in_dim: int, out_dim: int) -> SuperMap:
    shape = (out_dim ** 2, in_dim ** 2)
    return SuperMap(in_dim, out_dim, rng.normal(size=shape) + 1j * rng.normal(size=shape))


# ----------------------------------------------------------- closed forms

@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_closed_forms_equal_their_references(rng, n):
    phi = State(random_density(rng, n))
    one = np.eye(n, dtype=complex)
    one2 = np.eye(n * n, dtype=complex)
    probed = {
        "expectation": (expectation_supermap(phi), supermatrix_from_function(
            lambda z: conditional_expectation(phi, z).entries, n * n, n)),
        "embed": (embed_supermap(n), supermatrix_from_function(
            lambda x: np.kron(one, x), n, n * n)),
        "embed_averaged": (embed_averaged_supermap(n), supermatrix_from_function(
            lambda x: np.kron(x, one), n, n * n)),
        "constant": (SuperMap.constant(phi, n * n), supermatrix_from_function(
            lambda x: phi.expect(x) * one2, n, n * n)),
    }
    for name, (closed, reference) in probed.items():
        assert np.array_equal(closed.matrix, reference), name

    m = random_supermap(rng, n, n + 1)
    assert np.array_equal(choi_matrix(m.matrix, n, n + 1), choi_by_hand(m))
    assert np.array_equal(predual_matrix(m.matrix, n, n + 1),
                          swap_matrix(n) @ m.matrix.T @ swap_matrix(n + 1))
    a = rng.normal(size=(n, n))
    assert np.array_equal(swap_matrix(n) @ vec(a), vec(a.T))
    m1, m2 = random_supermap(rng, n, n), random_supermap(rng, 2, 3)
    assert np.array_equal(supermatrix_tensor(m1.matrix, n, n, m2.matrix, 2, 3),
                          tensor_by_units(m1, m2))

    stored = [closed for closed, _ in probed.values()] + [
        predual(m), supermap_tensor(m1, m2), m1 @ m1,
        SuperMap(n, n + 1, np.asfortranarray(m.matrix))]
    assert all(x.matrix.flags.c_contiguous for x in stored)


# ----------------------------------------------------------------- tensor

def test_tensor_unit_case():
    one2 = AlgebraElement.unit(2)
    assert np.array_equal(tensor(one2, one2).entries, np.eye(4))


def test_tensor_hand_oracle():
    # diag(2,3) (x) diag(1,0): expanding the Kronecker product by hand
    a = AlgebraElement.diagonal([2, 3])
    b = AlgebraElement.diagonal([1, 0])
    expected = np.diag([2, 0, 3, 0]).astype(complex)
    assert np.array_equal(tensor(a, b).entries, expected)
    assert tensor(a, b).algebra_kind == "diagonal"


def test_tensor_bilinear(rng):
    for _ in range(5):
        a, a2, b = (AlgebraElement(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
                    for _ in range(3))
        lhs = tensor(AlgebraElement(a.entries + a2.entries), b).entries
        rhs = tensor(a, b).entries + tensor(a2, b).entries
        assert np.abs(lhs - rhs).max() <= 1e-13


# ------------------------------------------------------------------- flip

def test_flip_on_products():
    x = AlgebraElement.diagonal([1, 0])
    y = AlgebraElement.diagonal([0, 1])
    assert np.array_equal(flip_conjugate(tensor(x, y)).entries, tensor(y, x).entries)


def test_flip_symmetric_case(rng):
    for _ in range(5):
        x = AlgebraElement(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        z = tensor(x, x)
        assert np.abs(flip_conjugate(z).entries - z.entries).max() <= 1e-13


def test_flip_involution(rng):
    for n in (2, 3):
        for _ in range(5):
            z = AlgebraElement(rng.normal(size=(n * n, n * n))
                               + 1j * rng.normal(size=(n * n, n * n)))
            twice = flip_conjugate(flip_conjugate(z)).entries
            assert np.abs(twice - z.entries).max() <= 1e-12


def test_flip_rejects_non_square_tensor_dim():
    with pytest.raises(ValueError):
        flip_conjugate(AlgebraElement(np.eye(3)))


# -------------------------------------------------- conditional expectation

def test_expectation_product_formula(rng):
    phi = State(np.diag([1, 0]).astype(complex))
    for _ in range(5):
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        z = np.kron(np.diag([2, 3]).astype(complex), b)
        assert np.abs(conditional_expectation(phi, z).entries - 2 * b).max() <= 1e-13


def test_expectation_unit_preservation(rng):
    for _ in range(3):
        phi = State(random_density(rng, 2))
        out = conditional_expectation(phi, np.eye(4)).entries
        assert np.abs(out - np.eye(2)).max() <= 1e-13


def test_expectation_matches_basis_expansion_oracle(rng):
    for _ in range(10):
        phi = State(random_density(rng, 2))
        z = random_hermitian(rng, 4)
        got = conditional_expectation(phi, z).entries
        want = expectation_by_basis_expansion(phi.rho, z)
        assert np.abs(got - want).max() <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_expectation_gram_identity(rng, n):
    # E_sigma E_sigma^dagger = ||sigma||_F^2 I for a state and for sigma = rho - c rho',
    # which is none, so ||C E_sigma|| = ||sigma||_F ||C|| for every C
    rho, other = random_density(rng, n), random_density(rng, n)
    for sigma in (rho, rho - (0.9 + 0.1j) * other):
        e = expectation_matrices(sigma[None])[0]
        want = np.linalg.norm(sigma) ** 2 * np.eye(n * n)
        assert np.abs(e @ e.conj().T - want).max() <= 1e-14
        for _ in range(3):
            c = rng.normal(size=(n ** 4, n * n)) + 1j * rng.normal(size=(n ** 4, n * n))
            want = np.linalg.norm(sigma) * operator_norm(c)
            assert abs(operator_norm(c @ e) - want) <= 8 * np.spacing(want)


def test_expectation_fixes_unaveraged_slot(rng):
    # E_phi(1 (x) x) = x for every phi, forced by the product formula at a = 1
    states = [State(random_density(rng, 2)), State(np.diag([1, 0]).astype(complex))]
    for phi in states:
        for x in basis_elements(2):
            out = conditional_expectation(phi, np.kron(np.eye(2), x)).entries
            assert np.abs(out - x).max() <= 1e-13


def test_expectation_supermap_is_unital_cp(rng):
    full_rank = State(random_density(rng, 2))
    rank_def = State(np.diag([1, 0]).astype(complex))
    for phi in (full_rank, rank_def):
        rep = certify_unital_cp(expectation_supermap(phi))
        assert rep.is_cp and rep.is_unital


# ------------------------------------------------------------ certify CP

def test_certify_constant_map():
    rep = certify_unital_cp(SuperMap.constant(State.maximally_mixed(2), 4))
    assert rep.is_cp and rep.is_unital


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_the_closed_form_embedding_is_the_probed_one_bit_for_bit(n):
    from conftest import probed_symmetrized_embedding

    closed, probed = symmetrized_embedding(n).matrix, probed_symmetrized_embedding(n).matrix
    assert closed.shape == probed.shape and closed.tobytes() == probed.tobytes()   # sign bits too


def test_certify_symmetrized_embedding_against_choi_oracle():
    m = symmetrized_embedding(2)
    rep = certify_unital_cp(m)
    assert rep.is_cp and rep.is_unital
    # oracle: diagonalize the explicitly assembled 8x8 Choi matrix
    eigs = np.linalg.eigvalsh(choi_by_hand(m))
    assert abs(rep.min_choi_eigenvalue - eigs.min()) <= 1e-12
    assert rep.min_choi_eigenvalue >= -1e-12


def test_certify_transpose_map_fails_cp():
    rep = certify_unital_cp(transpose_embedding(2))
    assert not rep.is_cp
    assert rep.min_choi_eigenvalue <= -0.5
    # oracle: the Choi matrix is swap (x) identity, eigenvalues +-1
    eigs = np.linalg.eigvalsh(choi_by_hand(transpose_embedding(2)))
    assert abs(eigs.min() + 1.0) <= 1e-12
    assert abs(rep.min_choi_eigenvalue + 1.0) <= 1e-12
    assert rep.is_unital


# ------------------------------------------------------------ trace norm

def test_trace_norm_coincidence(rng):
    phi = State(random_density(rng, 3))
    assert trace_norm_distance(phi, phi) == 0.0


def test_trace_norm_orthogonal_pure_states():
    phi = State.pure([1, 0])
    psi = State.pure([0, 1])
    assert abs(trace_norm_distance(phi, psi) - 2.0) <= 1e-13


def test_trace_norm_classical_l1():
    d = trace_norm_distance(State.from_weights([0.7, 0.3]),
                            State.from_weights([0.4, 0.6]))
    assert abs(d - 0.6) <= 1e-13


def test_trace_norm_dimension_mismatch():
    with pytest.raises(ValueError):
        trace_norm_distance(State.maximally_mixed(2), State.maximally_mixed(3))


def test_trace_norm_is_a_metric_on_samples(rng):
    states = [State(random_density(rng, 2)) for _ in range(6)]
    for a in states:
        for b in states:
            dab = trace_norm_distance(a, b)
            assert 0.0 <= dab <= 2.0
            assert abs(dab - trace_norm_distance(b, a)) == 0.0
            for c in states:
                assert dab <= trace_norm_distance(a, c) + trace_norm_distance(c, b) + 1e-12


# --------------------------------------------------------------- predual

@pytest.mark.parametrize("count", [1, 3], ids=["one-matrix", "k-matrices"])
def test_apply_supermatrix_on_a_stack_of_maps_is_each_map_alone(rng, count):
    # a (k, out^2, in^2) stack of maps meets one matrix or one matrix each; every image has
    # the bits of its map applied to its matrix alone
    k, in_dim, out_dim = 3, 3, 2
    maps = rng.normal(size=(k, out_dim ** 2, in_dim ** 2)) + 1j * rng.normal(
        size=(k, out_dim ** 2, in_dim ** 2))
    xs = rng.normal(size=(count, in_dim, in_dim)) + 1j * rng.normal(size=(count, in_dim, in_dim))
    images = apply_supermatrix(maps, xs, out_dim)
    assert images.shape == (k, out_dim, out_dim)
    for i, image in enumerate(images):
        alone = SuperMap(in_dim, out_dim, maps[i])(xs[i if count > 1 else 0])
        assert image.tobytes() == alone.tobytes()


def test_predual_constant_map(rng):
    omega = State.maximally_mixed(2)
    dual = predual(SuperMap.constant(omega, 4))
    for _ in range(5):
        rho = random_density(rng, 4)
        assert np.abs(dual(rho) - omega.rho).max() <= 1e-13


def test_predual_duality_oracle(rng):
    # direct two-sided evaluation on 20 random (rho, x) pairs
    m = SuperMap(2, 4, 0.5 * SuperMap.constant(State.maximally_mixed(2), 4).matrix
                 + 0.5 * symmetrized_embedding(2).matrix)
    dual = predual(m)
    for _ in range(20):
        rho = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        lhs = np.trace(dual(rho) @ x)
        rhs = np.trace(rho @ m(x))
        assert abs(lhs - rhs) <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_predual_holds_the_one_matrix_it_forms(monkeypatch, n):
    # the predual's matrix is the one predual_matrix returns, read-only and C-ordered, not a
    # second copy of it
    import qqsp.algebra

    formed = []

    def recorded(*args):
        formed.append(predual_matrix(*args))
        return formed[-1]

    monkeypatch.setattr(qqsp.algebra, "predual_matrix", recorded)
    m = symmetrized_embedding(n)
    dual = predual(m)
    assert dual.matrix is formed[0] and not dual.matrix.flags.writeable
    assert dual.matrix.flags.c_contiguous
    assert np.array_equal(dual.matrix, predual_matrix(m.matrix, n, n * n))


def test_predual_of_unital_map_preserves_trace(rng):
    dual = predual(symmetrized_embedding(2))
    for _ in range(5):
        rho = random_density(rng, 4)
        assert abs(np.trace(dual(rho)) - 1.0) <= 1e-12


def test_duality_on_spanning_set(rng):
    maps = [symmetrized_embedding(2),
            SuperMap.constant(State.maximally_mixed(2), 4),
            expectation_supermap(State(random_density(rng, 2))),
            embed_supermap(2)]
    for m in maps:
        dual = predual(m)
        for rho in basis_elements(m.out_dim):
            for x in basis_elements(m.in_dim):
                lhs = np.trace(dual(rho) @ x)
                rhs = np.trace(rho @ m(x))
                assert abs(lhs - rhs) <= 1e-12


# ------------------------------------------------------- supermap algebra

def test_supermap_tensor_on_products(rng):
    m1 = SuperMap.from_function(lambda v: v.T, 2, 2)
    m2 = expectation_supermap(State(random_density(rng, 2))) @ symmetrized_embedding(2)
    mt = supermap_tensor(m1, m2)
    for _ in range(5):
        x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        y = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        assert np.abs(mt(np.kron(x, y)) - np.kron(m1(x), m2(y))).max() <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("k_is_n", [True, False])
def test_doubled_after_matches_the_dense_tensor(rng, n, k_is_n):
    k = n if k_is_n else 1
    q, m = random_supermap(rng, n, n), random_supermap(rng, k, n * n)
    want = (supermap_tensor(q, q) @ m).matrix
    got = doubled_after(q, [m.matrix])[0]
    assert np.linalg.norm(got - want) <= 1e-15 * np.linalg.norm(want)


def test_doubled_after_rejects_mismatched_maps(rng):
    with pytest.raises(ValueError):
        doubled_after(random_supermap(rng, 2, 4), [random_supermap(rng, 2, 4).matrix])
    with pytest.raises(ValueError):
        doubled_after(random_supermap(rng, 2, 2), [random_supermap(rng, 2, 9).matrix])


def _slices(rng, count, rows, cols):
    return rng.normal(size=(count, rows, cols)) + 1j * rng.normal(size=(count, rows, cols))


@pytest.mark.parametrize("shape", [(0, 4, 4), (5, 1, 1), (4, 9, 9), (3, 81, 9), (2, 0, 3)])
def test_stacked_operator_norms_equal_the_per_matrix_norm(rng, shape):
    stack = _slices(rng, *shape)
    assert np.array_equal(operator_norms(stack), [operator_norm(a) for a in stack])


@pytest.mark.parametrize("count, side", [(0, 4), (5, 1), (6, 2), (6, 9)])
def test_stacked_trace_norms_equal_the_per_matrix_norm(rng, count, side):
    # hermitian, nearly hermitian and non-hermitian slices mixed: both branches run
    stack = _slices(rng, count, side, side)
    stack[::2] = (stack[::2] + np.conj(stack[::2]).transpose(0, 2, 1)) / 2
    stack[2::4] += 1e-14 * _slices(rng, len(stack[2::4]), side, side)
    assert np.array_equal(trace_norms(stack), [trace_norm(a) for a in stack])


@pytest.mark.parametrize("side", [1, 2, 9])
def test_an_all_hermitian_stack_takes_the_trace_norm_of_each_matrix(rng, side):
    # no slice is gathered when every one is hermitian within the bound; same bits
    stack = _slices(rng, 7, side, side)
    stack = (stack + np.conj(stack).transpose(0, 2, 1)) / 2
    stack[1::3] += 1e-14 * _slices(rng, len(stack[1::3]), side, side)
    assert np.array_equal(trace_norms(stack), [trace_norm(a) for a in stack])


def test_flip_supermap_matches_elementwise(rng):
    f = flip_supermap(2)
    z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert np.abs(f(z) - flip_conjugate(AlgebraElement(z)).entries).max() <= 1e-13


@pytest.mark.parametrize("n, in_dim", [(2, 2), (2, 4), (3, 3)])
def test_flip_by_row_permutation_is_exact(rng, n, in_dim):
    # flip_after permutes rows; multiplying by the 0/1 flip_supermap gives the same bits
    m = random_supermap(rng, in_dim, n * n)
    want = flip_supermap(n).matrix @ m.matrix
    assert np.array_equal(flip_after(m).matrix, want)
    z = rng.normal(size=(n * n, n * n)) + 1j * rng.normal(size=(n * n, n * n))
    w = swap_matrix(n)
    assert np.array_equal(flip_conjugate(AlgebraElement(z)).entries, w @ z @ w)
    assert flip_symmetry_residual(m) == operator_norm(want - m.matrix)


def test_supermap_shape_validation():
    with pytest.raises(ValueError):
        SuperMap(2, 4, np.eye(4))
    with pytest.raises(ValueError):
        SuperMap.identity(2)(np.eye(3))


# ------------------------------------------------------------- data types

def test_diagonal_element_rejects_offdiagonal():
    with pytest.raises(ValueError):
        AlgebraElement(np.ones((2, 2)), "diagonal")


def test_state_validation():
    with pytest.raises(ValueError):
        State(np.array([[1.0, 1.0], [0.0, 0.0]]))  # not hermitian
    with pytest.raises(ValueError):
        State(np.diag([1.5, -0.5]).astype(complex))  # negative eigenvalue
    with pytest.raises(ValueError):
        State(np.diag([0.6, 0.6]).astype(complex))  # trace != 1
    # tiny skew parts are symmetrized away
    rho = np.diag([0.5, 0.5]).astype(complex)
    rho[0, 1] = 1e-14j
    s = State(rho)
    assert np.abs(s.rho - s.rho.conj().T).max() == 0.0


def _per_matrix_state_rho(m):
    """State's checks written out for one matrix, as the constructor ran them one at a time.

    Returns the hermitian part it stores, or raises ValueError with its message.
    """
    m = np.asarray(m, dtype=complex)
    if not np.isfinite(m).all():
        raise ValueError("density matrix has non-finite entries")
    skew = float(np.linalg.norm(m - m.conj().T))
    if skew > 1e-12 * max(1.0, float(np.linalg.norm(m))):
        raise ValueError(f"density matrix is not hermitian (defect {skew:.2e})")
    m = (m + m.conj().T) / 2
    if not np.isfinite(m).all():
        raise ValueError("density matrix's hermitian part overflows")
    tr = float(np.real(np.trace(m)))
    if not abs(tr - 1.0) <= 1e-12:
        raise ValueError(f"density matrix trace {tr!r} is not 1")
    lo = float(np.linalg.eigvalsh(m).min())
    if not lo >= -1e-12:
        raise ValueError(f"density matrix has eigenvalue {lo:.2e} < -1e-12")
    return m


def _density_cases():
    rng = np.random.default_rng(7)
    valid = random_density(rng, 3)
    nan = valid.copy()
    nan[1, 2] = np.nan
    skewed = valid.copy()
    skewed[0, 1] += 1e-11j   # a skew part above the 1e-12 tolerance
    faint = valid.copy()
    faint[0, 1] += 1e-14j    # below it: symmetrized away
    return {
        "valid": valid,
        "nan": nan,
        "skew": skewed,
        "faint-skew": faint,
        "trace-off-2e-12": np.diag([0.5 + 2e-12, 0.3, 0.2]).astype(complex),
        "trace-off-5e-13": np.diag([0.5 + 5e-13, 0.3, 0.2]).astype(complex),
        "eigenvalue-minus-1e-11": np.diag([0.6 + 1e-11, 0.4, -1e-11]).astype(complex),
        "eigenvalue-minus-1e-13": np.diag([0.6 + 1e-13, 0.4, -1e-13]).astype(complex),
        # finite, but the hermitian part overflows: its trace is NaN, which passed the trace
        # and eigenvalue bounds, or an eigvalsh of it raised LinAlgError
        "overflowing-trace": np.diag([1e308, -1e308, 1.0]).astype(complex),
        "overflowing-off-diagonal": np.array([[0.5, 1e308, 0], [1e308, 0.5, 0], [0, 0, 0]],
                                             dtype=complex),
    }


@pytest.mark.parametrize("case", sorted(_density_cases()))
def test_state_stack_accepts_and_rejects_what_state_does(case):
    m = _density_cases()[case]
    good = random_density(np.random.default_rng(8), 3)
    try:
        want = _per_matrix_state_rho(m)
    except ValueError as exc:
        for check in (lambda: State(m), lambda: State.stack([good, m, good])):
            with pytest.raises(InvalidDensity) as info:
                check()
            assert str(info.value) == str(exc)
        assert info.value.index == 1
        return
    assert State(m).rho.tobytes() == want.tobytes()
    stacked = State.stack([good, m, good])
    assert [x.rho.tobytes() for x in stacked] == [
        _per_matrix_state_rho(x).tobytes() for x in (good, m, good)]
    assert not stacked[1].rho.flags.writeable and stacked[1].rho.flags.c_contiguous


def test_state_stack_decides_at_the_hermiticity_bound_as_one_matrix_does():
    # skew parts within a few ulps of the 1e-12 bound, where a stacked norm that sums
    # in another order than a single matrix's norm would flip some decisions
    rng = np.random.default_rng(3)
    cases = []
    for _ in range(8):
        r = np.diag(rng.random(3)).astype(complex)
        r /= np.trace(r)
        s = rng.normal(size=(3, 3))
        s = s + s.T
        s *= 1e-12 / np.linalg.norm(2 * s)
        cases += [r + 1j * s * (1 + k * 1e-16) for k in range(-4, 5)]
    verdicts = set()
    for m in cases:
        try:
            want = _per_matrix_state_rho(m).tobytes()
        except ValueError as exc:
            want = str(exc)
        for check in (lambda: State(m).rho.tobytes(),
                      lambda: State.stack([m, m])[1].rho.tobytes()):
            try:
                got = check()
            except InvalidDensity as exc:
                got = str(exc)
            assert got == want
        verdicts.add(isinstance(want, str))
    assert verdicts == {True, False}   # the cases straddle the bound


def test_state_stack_names_the_first_failing_slice_and_its_first_failing_check():
    cases = _density_cases()
    both = cases["skew"].copy()
    both[0, 0] = np.inf   # fails the finite check before the hermitian one
    stack = [cases["valid"], cases["trace-off-2e-12"], both, cases["nan"]]
    with pytest.raises(InvalidDensity, match="trace") as info:
        State.stack(stack)
    assert info.value.index == 1
    with pytest.raises(InvalidDensity, match="non-finite") as info:
        State.stack(stack[2:])
    assert info.value.index == 0
    assert State.stack(np.zeros((0, 3, 3))) == ()

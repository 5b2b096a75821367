"""Dense linear algebra for superoperators on small matrix spaces.

Vectorization is column-stacking throughout: ``vec(A)[i + n*j] = A[i, j]``.
A linear map Phi from n x n to m x m matrices is stored as the (m^2, n^2)
matrix acting on vectorizations. Its tensor view (:func:`unit_tensor`) is
the column-major reshape ``t[o1, o2, i1, i2] = Phi(E_{i1 i2})[o1, o2]``, so
every structural map (the Choi matrix, the predual, the tensor of two maps,
the transpose) is an index permutation of ``t``; see Wood, Biamonte and
Cory, arXiv:1111.6950. Tensor factors of M_{n1} (x) M_{n2} split a matrix
index row-major, ``(a, b) -> a * n2 + b``, as ``np.kron`` does.
"""

from __future__ import annotations

import numpy as np

Array = np.ndarray


def vec(a: Array) -> Array:
    """Column-stack a matrix into a vector."""
    return np.asarray(a, dtype=complex).reshape(-1, order="F")


def unvec(v: Array, n: int) -> Array:
    """Inverse of :func:`vec` for an n x n matrix."""
    return np.asarray(v, dtype=complex).reshape(n, n, order="F")


def dagger(a: Array) -> Array:
    return np.conj(np.asarray(a)).T


def matrix_unit(n: int, i: int, j: int) -> Array:
    e = np.zeros((n, n), dtype=complex)
    e[i, j] = 1.0
    return e


def unit_tensor(mat: Array, in_dim: int, out_dim: int) -> Array:
    """The view t[o1, o2, i1, i2] = Phi(E_{i1 i2})[o1, o2] of a supermatrix."""
    return np.asarray(mat, dtype=complex).reshape(out_dim, out_dim, in_dim, in_dim,
                                                  order="F")


def unit_tensor_matrix(t: Array) -> Array:
    """Inverse of :func:`unit_tensor`: the (out^2, in^2) supermatrix of t."""
    out_dim, _, in_dim, _ = t.shape
    return np.reshape(t, (out_dim * out_dim, in_dim * in_dim), order="F")


def swap_matrix(n: int) -> Array:
    """Permutation W on C^n (x) C^n with W(e_a (x) e_b) = e_b (x) e_a.

    W is the supermatrix of the transpose map, vec(A^T) = W vec(A), which
    is why it doubles as the commutation matrix used when forming preduals.
    """
    identity = unit_tensor(np.eye(n * n), n, n)
    return unit_tensor_matrix(identity.transpose(1, 0, 2, 3))


def ptrace_first(z: Array, n_first: int, n_second: int) -> Array:
    """Partial trace over the first tensor factor of M_{n1} (x) M_{n2}."""
    z4 = np.asarray(z, dtype=complex).reshape(n_first, n_second, n_first, n_second)
    return np.einsum("ikil->kl", z4)


def apply_supermatrix(mat: Array, x: Array, out_dim: int) -> Array:
    """Apply a vectorization-form map to a matrix."""
    return unvec(mat @ vec(x), out_dim)


def supermatrix_from_function(f, in_dim: int, out_dim: int) -> Array:
    """Build the vectorization matrix of a linear map given as a function."""
    mat = np.zeros((out_dim * out_dim, in_dim * in_dim), dtype=complex)
    for q in range(in_dim * in_dim):
        i, j = q % in_dim, q // in_dim
        mat[:, q] = vec(f(matrix_unit(in_dim, i, j)))
    return mat


def supermatrix_tensor(m1: Array, in1: int, out1: int,
                       m2: Array, in2: int, out2: int) -> Array:
    """Vectorization matrix of the tensor product of two maps.

    Acts on M_{in1*in2} with the Kronecker index convention (first factor
    major), sending E_{i1 j1} (x) E_{i2 j2} to Phi1(E_{i1 j1}) (x) Phi2(E_{i2 j2}).
    """
    t = np.multiply.outer(unit_tensor(m1, in1, out1), unit_tensor(m2, in2, out2))
    t = t.transpose(0, 4, 1, 5, 2, 6, 3, 7)
    out_dim, in_dim = out1 * out2, in1 * in2
    return unit_tensor_matrix(t.reshape(out_dim, out_dim, in_dim, in_dim))


def choi_matrix(mat: Array, in_dim: int, out_dim: int) -> Array:
    """Choi matrix sum_ij E_ij (x) Phi(E_ij) of a map in vectorization form."""
    c = unit_tensor(mat, in_dim, out_dim).transpose(2, 0, 3, 1)
    return c.reshape(in_dim * out_dim, in_dim * out_dim)


def predual_matrix(mat: Array, in_dim: int, out_dim: int) -> Array:
    """Vectorization matrix of the bilinear adjoint.

    Satisfies trace(Phi_*(rho) x) = trace(rho Phi(x)) for all rho, x
    (no conjugation; on hermitian arguments this is the usual predual).
    Its tensor view is t_*[a, b, p, q] = t[q, p, b, a].
    """
    return unit_tensor_matrix(unit_tensor(mat, in_dim, out_dim).transpose(3, 2, 1, 0))


def trace_norm(a: Array) -> float:
    """Sum of singular values; uses eigvalsh when the input is hermitian."""
    a = np.asarray(a, dtype=complex)
    if np.linalg.norm(a - dagger(a)) <= 1e-12 * max(1.0, np.linalg.norm(a)):
        return float(np.abs(np.linalg.eigvalsh((a + dagger(a)) / 2)).sum())
    return float(np.linalg.svd(a, compute_uv=False).sum())


def operator_norm(a: Array) -> float:
    """Largest singular value (operator norm on Frobenius vectorizations)."""
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(np.asarray(a, dtype=complex), ord=2))


def product_norm(x: Array, y: Array) -> float:
    """operator_norm(x @ y) without forming the product.

    With thin QRs x = Q_x R_x and y^dagger = Q_y R_y, x y = Q_x R_x R_y^dagger Q_y^dagger
    and both Q factors are isometries, so ||x y|| = ||R_x R_y^dagger||: for a
    tall x and a wide y the norm is taken on their small inner dimension.
    """
    r_x = np.linalg.qr(np.asarray(x, dtype=complex), mode="r")
    r_y = np.linalg.qr(dagger(y), mode="r")
    return operator_norm(r_x @ dagger(r_y))


def hermiticity_defect(a: Array) -> float:
    return float(np.linalg.norm(a - dagger(a)))

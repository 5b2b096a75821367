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

    W is the supermatrix of the transpose map, vec(A^T) = W vec(A). No library
    code forms it: it is the oracle the tests check the predual and flip kernels against.
    """
    identity = unit_tensor(np.eye(n * n), n, n)
    return unit_tensor_matrix(identity.transpose(1, 0, 2, 3))


def ptrace_first(z: Array, n_first: int, n_second: int) -> Array:
    """Partial trace over the first tensor factor of M_{n1} (x) M_{n2}, or of each of a stack."""
    z = np.asarray(z, dtype=complex)
    z4 = z.reshape(*z.shape[:-2], n_first, n_second, n_first, n_second)
    return np.einsum("...ikil->...kl", z4)


def apply_supermatrix(mat: Array, x: Array, out_dim: int) -> Array:
    """Apply a vectorization-form map to a matrix, or to each matrix of a (k, side, side) stack.

    A stack is applied as ``mat @ vecs[:, :, None]``, one gemv per matrix, so each
    image has the bits of the single-matrix product; one gemm over the stacked
    columns would round differently. ``mat`` may be a (k, out^2, in^2) stack of maps,
    broadcast against the stack of matrices as matmul broadcasts, still one gemv per image.
    """
    x = np.asarray(x, dtype=complex)
    if x.ndim == 2:
        return unvec(mat @ vec(x), out_dim)
    vecs = x.transpose(0, 2, 1).reshape(len(x), x.shape[1] ** 2)   # column-stack each matrix
    images = (mat @ vecs[:, :, None]).reshape(-1, out_dim, out_dim)
    return np.ascontiguousarray(images.transpose(0, 2, 1))


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
    """Vectorization matrix of the bilinear adjoint, or of every map of a (k, out^2, in^2) stack.

    Satisfies trace(Phi_*(rho) x) = trace(rho Phi(x)) for all rho, x
    (no conjugation; on hermitian arguments this is the usual predual).
    Its tensor view is t_*[a, b, p, q] = t[q, p, b, a].
    """
    m = np.asarray(mat, dtype=complex)
    k = m.ndim - 2
    # in C order a row o1 + out*o2 splits as (o2, o1), so m is [o2, o1, i2, i1] = t[o1, o2, i1, i2]
    # and the predual [b, a, q, p] = t_*[a, b, p, q] = t[q, p, b, a] reverses those four axes
    t = m.reshape(*m.shape[:k], out_dim, out_dim, in_dim, in_dim)
    return t.transpose(*range(k), k + 3, k + 2, k + 1, k).reshape(
        *m.shape[:k], in_dim * in_dim, out_dim * out_dim)


def trace_norm(a: Array) -> float:
    """Sum of singular values; uses eigvalsh when the input is hermitian."""
    a = np.asarray(a, dtype=complex)
    if np.linalg.norm(a - dagger(a)) <= 1e-12 * max(1.0, np.linalg.norm(a)):
        return float(np.abs(np.linalg.eigvalsh((a + dagger(a)) / 2)).sum())
    return float(np.linalg.svd(a, compute_uv=False).sum())


def operator_norm(a: Array) -> float:
    """Largest singular value (operator norm on Frobenius vectorizations)."""
    return float(operator_norms(np.asarray(a)[None])[0])


def operator_norms(stack: Array) -> Array:
    """:func:`operator_norm` of every matrix of a (k, rows, cols) stack.

    The norm is 2^e sqrt(lambda_max) of a scaled Gram matrix
    (:func:`scaled_grams`, :func:`gram_norms`). It agrees with the largest
    singular value of an SVD to a few ulps, relative.
    """
    if np.size(stack) == 0:
        return np.zeros(len(stack))
    return gram_norms(*scaled_grams(stack))


CHUNK_BYTES = 1 << 16


def chunks(count: int, slice_bytes: int):
    """Consecutive slices of ``range(count)``, each holding about ``CHUNK_BYTES`` of slices.

    A slice larger than the budget is a chunk of its own. The one budget sizes
    every stack a residual table forms and scales at once, so its copies stay in
    cache however large the table is.
    """
    step = max(1, CHUNK_BYTES // max(1, slice_bytes))
    return [slice(start, start + step) for start in range(0, count, step)]


def scaled_grams(stack: Array) -> tuple[Array, Array]:
    """The smaller Gram matrix of every scaled slice of a (k, rows, cols) stack, and the scales.

    Slice X is scaled by 2^-e, with 2^e the power of two frexp takes from its
    largest real or imaginary part. The scaling is exact and keeps the Gram
    matrix, X^dagger X or X X^dagger, from underflowing or overflowing.
    Returns the (k, side, side) Grams and the k exponents e. The scaled and
    conjugated copies are as large as the stack, so a residual table hands in
    one chunk (:func:`chunks`) at a time.
    """
    parts = np.ascontiguousarray(stack, dtype=complex).view(float)
    _, exp = np.frexp(np.abs(parts).max(axis=(1, 2)))
    x = np.ldexp(parts, -exp[:, None, None]).view(complex)
    adjoint = np.conj(x).transpose(0, 2, 1)
    return (adjoint @ x if x.shape[1] >= x.shape[2] else x @ adjoint), exp


def gram_norms(grams: Array, exps: Array) -> Array:
    """Operator norms from :func:`scaled_grams`: 2^e sqrt(lambda_max), one stacked eigvalsh.

    A sweep can gather the Grams of many stacks of one shape and take all their
    norms in one call.
    """
    return np.ldexp(np.sqrt(np.linalg.eigvalsh(grams)[:, -1]), exps)


def frobenius_norms(stack: Array) -> Array:
    """``np.linalg.norm(stack, axis=(1, 2))`` of a complex (k, rows, cols) stack, with its bits
    and without its argument handling."""
    return np.sqrt(np.add.reduce((stack.conj() * stack).real, axis=(1, 2)))


def trace_norms(stack: Array) -> Array:
    """:func:`trace_norm` of every matrix of a (k, side, side) stack.

    The hermitian slices go through one stacked eigvalsh, the rest through
    one stacked svd; each slice takes the branch :func:`trace_norm` takes.
    """
    stack = np.asarray(stack, dtype=complex)
    out = np.zeros(len(stack))
    if stack.size == 0:
        return out
    bound = 1e-12 * np.maximum(1.0, frobenius_norms(stack))
    adjoint = np.conj(stack).transpose(0, 2, 1)
    # frobenius_norms(stack - adjoint) and (stack + adjoint) / 2 are formed in place, with
    # the bits of those expressions and fewer stack-sized copies alive at once
    squares = stack - adjoint
    squares *= np.conj(squares)
    hermitian = np.sqrt(np.add.reduce(squares.real, axis=(1, 2))) <= bound
    del squares
    if hermitian.any():
        if hermitian.all():
            herm = stack + adjoint
        else:
            herm = stack[hermitian]
            herm += adjoint[hermitian]
        del adjoint
        herm /= 2
        out[hermitian] = np.abs(np.linalg.eigvalsh(herm)).sum(axis=1)
    if not hermitian.all():
        out[~hermitian] = np.linalg.svd(stack[~hermitian], compute_uv=False).sum(axis=1)
    return out


def hermiticity_defect(a: Array) -> float:
    return float(np.linalg.norm(a - dagger(a)))

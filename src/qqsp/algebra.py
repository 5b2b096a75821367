"""Matrix-algebra substrate: elements, states, superoperators, duality.

Conventions, fixed once for the whole package:

* vectorization is column-stacking (see :mod:`qqsp.linalg`);
* tensor factors are ordered "first (x) second", and the conditional
  expectation averages the FIRST factor: E_phi(a (x) b) = phi(a) b;
* consequently the embedding of M into M (x) M that the expectation leaves
  untouched is x -> 1 (x) x (:func:`embed_supermap`). Texts that average
  the second factor state the same identities with the slots exchanged.

In finite dimension every linear functional is normal, so the predual and
the dual coincide; states are plain density matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    Array,
    apply_supermatrix,
    choi_matrix,
    dagger,
    hermiticity_defect,
    matrix_unit,
    operator_norm,
    predual_matrix,
    ptrace_first,
    supermatrix_from_function,
    supermatrix_tensor,
    swap_matrix,
    trace_norm,
    unit_tensor,
    unit_tensor_matrix,
)

DEFAULT_CP_TOL = 1e-9
DEFAULT_UNITAL_TOL = 1e-10
HERMITICITY_TOL = 1e-12


def _frozen(a: Array) -> Array:
    # One layout for every stored matrix: BLAS sums in an order that depends
    # on it, so a reshuffled (non-contiguous) copy would shift results.
    out = np.array(a, dtype=complex, order="C")
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class AlgebraElement:
    """A complex square matrix over a full or diagonal matrix algebra."""

    entries: Array
    algebra_kind: str = "full"

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"algebra element must be square, got shape {m.shape}")
        if self.algebra_kind not in ("full", "diagonal"):
            raise ValueError(f"unknown algebra kind {self.algebra_kind!r}")
        if self.algebra_kind == "diagonal":
            off = m - np.diag(np.diag(m))
            if np.any(off != 0):
                raise ValueError("diagonal algebra element has off-diagonal entries")
        object.__setattr__(self, "entries", _frozen(m))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def unit(cls, n: int, algebra_kind: str = "full") -> "AlgebraElement":
        return cls(np.eye(n, dtype=complex), algebra_kind)

    @classmethod
    def diagonal(cls, values) -> "AlgebraElement":
        return cls(np.diag(np.asarray(values, dtype=complex)), "diagonal")


def as_matrix(x) -> Array:
    """Accept an AlgebraElement or a bare ndarray."""
    if isinstance(x, AlgebraElement):
        return x.entries
    return np.asarray(x, dtype=complex)


@dataclass(frozen=True)
class State:
    """A density matrix: hermitian, positive semidefinite, unit trace.

    Harmless skew parts (below 1e-12) are symmetrized away; anything worse
    is rejected rather than silently repaired.
    """

    rho: Array

    def __post_init__(self):
        m = np.asarray(self.rho, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {m.shape}")
        skew = hermiticity_defect(m)
        if skew > HERMITICITY_TOL * max(1.0, float(np.linalg.norm(m))):
            raise ValueError(f"density matrix is not hermitian (defect {skew:.2e})")
        m = (m + dagger(m)) / 2
        tr = float(np.real(np.trace(m)))
        if abs(tr - 1.0) > 1e-12:
            raise ValueError(f"density matrix trace {tr!r} is not 1")
        lo = float(np.linalg.eigvalsh(m).min())
        if lo < -1e-12:
            raise ValueError(f"density matrix has eigenvalue {lo:.2e} < -1e-12")
        object.__setattr__(self, "rho", _frozen(m))

    @property
    def dim(self) -> int:
        return self.rho.shape[0]

    @classmethod
    def maximally_mixed(cls, n: int) -> "State":
        return cls(np.eye(n, dtype=complex) / n)

    @classmethod
    def pure(cls, vector) -> "State":
        v = np.asarray(vector, dtype=complex)
        v = v / np.linalg.norm(v)
        return cls(np.outer(v, v.conj()))

    @classmethod
    def from_weights(cls, weights) -> "State":
        w = np.asarray(weights, dtype=float)
        return cls(np.diag(w).astype(complex))

    def expect(self, x) -> complex:
        """phi(x) = trace(rho x)."""
        return complex(np.trace(self.rho @ as_matrix(x)))

    def diagonal_weights(self) -> Array:
        return np.real(np.diag(self.rho)).copy()


@dataclass(frozen=True)
class SuperMap:
    """A linear map between matrix spaces in vectorization form.

    ``matrix`` has shape (out_dim^2, in_dim^2) and acts on column-stacked
    vectorizations.
    """

    in_dim: int
    out_dim: int
    matrix: Array

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        want = (self.out_dim ** 2, self.in_dim ** 2)
        if m.shape != want:
            raise ValueError(f"supermap matrix shape {m.shape} != {want}")
        object.__setattr__(self, "matrix", _frozen(m))

    def __call__(self, x) -> Array:
        x = as_matrix(x)
        if x.shape != (self.in_dim, self.in_dim):
            raise ValueError(f"input shape {x.shape} does not match in_dim {self.in_dim}")
        return apply_supermatrix(self.matrix, x, self.out_dim)

    def compose(self, other: "SuperMap") -> "SuperMap":
        """self after other."""
        if other.out_dim != self.in_dim:
            raise ValueError("dimension mismatch in composition")
        return SuperMap(other.in_dim, self.out_dim, self.matrix @ other.matrix)

    def __matmul__(self, other: "SuperMap") -> "SuperMap":
        return self.compose(other)

    @classmethod
    def identity(cls, n: int) -> "SuperMap":
        return cls(n, n, np.eye(n * n, dtype=complex))

    @classmethod
    def from_function(cls, f, in_dim: int, out_dim: int) -> "SuperMap":
        return cls(in_dim, out_dim, supermatrix_from_function(f, in_dim, out_dim))

    @classmethod
    def constant(cls, omega: State, out_dim: int) -> "SuperMap":
        """x -> omega(x) * 1 on the out_dim algebra.

        In the tensor view, t[o1, o2, i1, i2] = delta_{o1 o2} rho[i2, i1].
        """
        t = np.einsum("xy,ji->xyij", np.eye(out_dim), omega.rho)
        return cls(omega.dim, out_dim, unit_tensor_matrix(t))


def predual(m: SuperMap) -> SuperMap:
    """Map on densities with trace(predual(m)(rho) x) = trace(rho m(x)).

    If m is unital and completely positive the predual carries states to
    states (it is trace preserving and positive).
    """
    return SuperMap(m.out_dim, m.in_dim, predual_matrix(m.matrix, m.in_dim, m.out_dim))


def supermap_tensor(m1: SuperMap, m2: SuperMap) -> SuperMap:
    mat = supermatrix_tensor(m1.matrix, m1.in_dim, m1.out_dim,
                             m2.matrix, m2.in_dim, m2.out_dim)
    return SuperMap(m1.in_dim * m2.in_dim, m1.out_dim * m2.out_dim, mat)


def doubled_after(q: SuperMap, m: SuperMap) -> SuperMap:
    """(q (x) q) m for a map q on M_n and a map m into M_n (x) M_n, without q (x) q.

    In the tensor view of m each output index splits as (a, b); q (x) q
    acts on the two a's and on the two b's separately, so it is two
    n^2 x n^2 mode products: n^6 k^2 MACs each instead of the n^8 k^2 of
    the dense (q (x) q) m, for m on M_k.
    """
    n, k = q.in_dim, m.in_dim
    if q.out_dim != n or m.out_dim != n * n:
        raise ValueError("doubled_after needs q on M_n and m into M_n (x) M_n")
    # t[a, b, c, d, i, j] = m(E_ij)[(a, b), (c, d)]; q.matrix rows and columns
    # are column-stacked pairs, i.e. (c, a) -> c * n + a in C order
    t = unit_tensor(m.matrix, k, n * n).reshape(n, n, n, n, k, k)
    t = q.matrix @ t.transpose(2, 0, 1, 3, 4, 5).reshape(n * n, -1)     # [y, x, b, d, i, j]
    t = t.reshape(n, n, n, n, k, k).transpose(3, 2, 0, 1, 4, 5).reshape(n * n, -1)
    t = (q.matrix @ t).reshape(n, n, n, n, k, k)                         # [v, u, y, x, i, j]
    t = t.transpose(3, 1, 2, 0, 4, 5).reshape(n * n, n * n, k, k)       # [x, u, y, v, i, j]
    return SuperMap(k, n * n, unit_tensor_matrix(t))


def tensor(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Kronecker product of algebra elements; bilinear in both arguments."""
    kind = "diagonal" if (a.algebra_kind == "diagonal" and b.algebra_kind == "diagonal") else "full"
    return AlgebraElement(np.kron(a.entries, b.entries), kind)


def flip_conjugate(z) -> AlgebraElement:
    """Exchange tensor factors: the involution with U(x (x) y) = y (x) x."""
    m = as_matrix(z)
    d = m.shape[0]
    n = int(round(np.sqrt(d)))
    if n * n != d:
        raise ValueError(f"flip needs a matrix on M_n (x) M_n, got side {d}")
    # W m W with W the swap: exchange the factors of the row and the column index
    flipped = m.reshape(n, n, n, n).transpose(1, 0, 3, 2).reshape(d, d)
    kind = z.algebra_kind if isinstance(z, AlgebraElement) else "full"
    return AlgebraElement(flipped, kind)


def flip_after(m: SuperMap) -> SuperMap:
    """U m for a map m into M_n (x) M_n, U(x (x) y) = y (x) x.

    A permutation of the rows, exact and without a product: in the tensor
    view each output index splits as (a, b) and U exchanges a and b.
    """
    n = int(round(np.sqrt(m.out_dim)))
    if n * n != m.out_dim:
        raise ValueError("the flip needs a map into a doubled algebra")
    t = unit_tensor(m.matrix, m.in_dim, m.out_dim).reshape(n, n, n, n, m.in_dim, m.in_dim)
    t = t.transpose(1, 0, 3, 2, 4, 5).reshape(m.out_dim, m.out_dim, m.in_dim, m.in_dim)
    return SuperMap(m.in_dim, m.out_dim, unit_tensor_matrix(t))


def flip_supermap(n: int) -> SuperMap:
    """The flip as a superoperator on M_{n^2}; :func:`flip_after` applies it."""
    w = swap_matrix(n)
    return SuperMap(n * n, n * n, np.kron(w, w))


def conditional_expectation(phi: State, z) -> AlgebraElement:
    """Slice map averaging the first factor: E_phi(a (x) b) = phi(a) b.

    Realized as the partial trace of (rho_phi (x) 1) z over the first
    factor, which agrees with the product formula and extends linearly.
    """
    m = as_matrix(z)
    n = phi.dim
    if m.shape != (n * n, n * n):
        raise ValueError(f"expected an element of M_{n} (x) M_{n}, got side {m.shape[0]}")
    lifted = np.kron(phi.rho, np.eye(n, dtype=complex)) @ m
    return AlgebraElement(ptrace_first(lifted, n, n))


def expectation_supermap(phi: State) -> SuperMap:
    """The conditional expectation E_phi as a SuperMap from M_{n^2} to M_n.

    Tr_1[(rho (x) 1) z] sends E_{(e, b), (a, d)} to rho[a, e] E_{bd}.
    """
    n = phi.dim
    t = np.einsum("ae,xb,yd->xyebad", phi.rho, np.eye(n), np.eye(n))
    return SuperMap(n * n, n, unit_tensor_matrix(t.reshape(n, n, n * n, n * n)))


def embed_supermap(n: int) -> SuperMap:
    """The unital embedding x -> 1 (x) x left fixed by every E_phi.

    This is the reconstruction slot: for marginal processes built from a
    process lattice, applying them after this embedding recovers the
    lattice maps.
    """
    t = np.einsum("ac,bi,dj->abcdij", np.eye(n), np.eye(n), np.eye(n))
    return SuperMap(n, n * n, unit_tensor_matrix(t.reshape(n * n, n * n, n, n)))


def embed_averaged_supermap(n: int) -> SuperMap:
    """The complementary embedding x -> x (x) 1 (the slot E_phi averages)."""
    t = np.einsum("ai,bd,cj->abcdij", np.eye(n), np.eye(n), np.eye(n))
    return SuperMap(n, n * n, unit_tensor_matrix(t.reshape(n * n, n * n, n, n)))


@dataclass(frozen=True)
class ChoiReport:
    """Certificate for unitality and complete positivity of a SuperMap.

    ``min_choi_eigenvalue`` is taken on the hermitian part of the Choi
    matrix; ``hermiticity_residual`` records how far the Choi matrix is
    from hermitian (nonzero only for maps that are not hermiticity
    preserving, which can never be CP).
    """

    is_unital: bool
    min_choi_eigenvalue: float
    unitality_residual: float
    is_cp: bool
    hermiticity_residual: float = 0.0


def certify_unital_cp(m: SuperMap,
                      cp_tolerance: float = DEFAULT_CP_TOL,
                      unital_tolerance: float = DEFAULT_UNITAL_TOL) -> ChoiReport:
    """Certify Def-style unital complete positivity via the Choi matrix."""
    c = choi_matrix(m.matrix, m.in_dim, m.out_dim)
    herm = hermiticity_defect(c)
    c_h = (c + dagger(c)) / 2
    min_eig = float(np.linalg.eigvalsh(c_h).min())
    one_in = np.eye(m.in_dim, dtype=complex)
    one_out = np.eye(m.out_dim, dtype=complex)
    unital_res = float(np.linalg.norm(m(one_in) - one_out))
    return ChoiReport(
        is_unital=unital_res <= unital_tolerance,
        min_choi_eigenvalue=min_eig,
        unitality_residual=unital_res,
        is_cp=(min_eig >= -cp_tolerance and herm <= cp_tolerance),
        hermiticity_residual=herm,
    )


def flip_symmetry_residual(m: SuperMap) -> float:
    """Operator-norm residual of U Phi = Phi for a map into M_n (x) M_n."""
    return operator_norm(flip_after(m).matrix - m.matrix)


def trace_norm_distance(phi: State, psi: State) -> float:
    """Trace-norm distance between two states; lies in [0, 2]."""
    if phi.dim != psi.dim:
        raise ValueError(f"dimension mismatch: {phi.dim} vs {psi.dim}")
    return trace_norm(phi.rho - psi.rho)


def basis_elements(n: int):
    """The matrix units E_ij of M_n, a spanning set for identity checks."""
    return [matrix_unit(n, i, j) for i in range(n) for j in range(n)]

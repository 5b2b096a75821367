"""Matrix-algebra substrate: elements, states, superoperators, duality.

Conventions, fixed once for the whole package:

* vectorization is column-stacking (see :mod:`qqsp.linalg`);
* tensor factors are ordered "first (x) second", and the conditional
  expectation averages the FIRST factor: E_phi(a (x) b) = phi(a) b;
* consequently the embedding of M into M (x) M that the expectation leaves
  untouched is x -> 1 (x) x, and E_phi(1 (x) x) = phi(1) x. Texts that average
  the second factor state the same identities with the slots exchanged.

In finite dimension every linear functional is normal, so the predual and
the dual coincide; states are plain density matrices.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .linalg import (
    Array,
    apply_supermatrix,
    choi_matrix,
    dagger,
    frobenius_norms,
    hermiticity_defect,
    operator_norm,
    predual_matrix,
    ptrace_first,
    supermatrix_from_function,
    supermatrix_tensor,
    trace_norm,
    unit_tensor_matrix,
)

DEFAULT_CP_TOL = 1e-9
DEFAULT_UNITAL_TOL = 1e-10
HERMITICITY_TOL = 1e-12


def _frozen(a: Array) -> Array:
    # One layout for every stored matrix: BLAS sums in an order that depends
    # on it, so a reshuffled (non-contiguous) copy would shift results. An array
    # already so laid out and read-only, such as a row of a MapStack, is kept.
    if getattr(a, "dtype", None) == complex and a.flags.c_contiguous and not a.flags.writeable:
        return a
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


class InvalidDensity(ValueError):
    """A matrix failed :class:`State`'s checks; ``index`` is its slice in the checked stack."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


def _hermitian_densities(stack: Array) -> Array:
    """The hermitian parts of a (k, d, d) stack of density matrices, checked per slice.

    Each slice must be finite, hermitian up to 1e-12 relative, have a finite hermitian part,
    a trace 1 within 1e-12 and no eigenvalue below -1e-12. Every check runs on the whole stack;
    the first failing slice raises :class:`InvalidDensity` with the message of the
    first check it fails, as a loop over the slices would.
    """
    m = stack
    index, message = len(m), None

    def reject(bad, describe) -> None:
        nonlocal m, index, message
        if bad.any():
            index = int(np.argmax(bad))   # the first failing slice
            message = describe(index)
            m = m[:index]   # only slices before the first failure are checked further

    finite = np.isfinite(m)   # NaN would pass every comparison below
    if not finite.all():
        reject(~finite.all(axis=(1, 2)), lambda i: "density matrix has non-finite entries")
    adjoint = np.conj(m).transpose(0, 2, 1)
    # entries above ~9e307 overflow the norms and the hermitian part, which the checks refuse
    with np.errstate(over="ignore", invalid="ignore"):
        skew = frobenius_norms(m - adjoint)
        bound = HERMITICITY_TOL * np.maximum(1.0, frobenius_norms(m))
        # the stacked norms sum in another order than one matrix's norm and can differ
        # from it by an ulp, so the slices near the bound are settled one at a time
        for i in np.flatnonzero(np.abs(skew - bound) <= 1e-9 * bound):
            skew[i] = hermiticity_defect(m[i])
            bound[i] = HERMITICITY_TOL * max(1.0, float(np.linalg.norm(m[i])))
        reject(skew > bound, lambda i: "density matrix is not hermitian "
                                       f"(defect {hermiticity_defect(m[i]):.2e})")
        m = (m + adjoint[:len(m)]) / 2   # the bounds below fail on NaN
    reject(~np.isfinite(m).all(axis=(1, 2)), lambda i: "density matrix's hermitian part overflows")
    tr = np.real(np.trace(m, axis1=1, axis2=2))
    reject(~(np.abs(tr - 1.0) <= 1e-12),
           lambda i: f"density matrix trace {float(tr[i])!r} is not 1")
    lo = np.linalg.eigvalsh(m).min(axis=1, initial=np.inf)
    reject(~(lo >= -1e-12), lambda i: f"density matrix has eigenvalue {lo[i]:.2e} < -1e-12")
    if message is not None:
        raise InvalidDensity(message, index)
    return m


@dataclass(frozen=True)
class State:
    """A density matrix: hermitian, positive semidefinite, unit trace.

    Harmless skew parts (below 1e-12) are symmetrized away; anything worse
    is rejected rather than silently repaired. :meth:`stack` runs the same
    checks on a whole stack of matrices at once.
    """

    rho: Array

    def __post_init__(self):
        m = np.asarray(self.rho, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {m.shape}")
        object.__setattr__(self, "rho", _frozen(_hermitian_densities(m[None])[0]))

    @classmethod
    def stack(cls, rhos) -> tuple["State", ...]:
        """The State of every matrix of a (k, d, d) stack, checked in one pass.

        Accepts and rejects what the constructor does, slice by slice, and gives
        the same ``rho`` bits; a failure raises :class:`InvalidDensity` naming the
        first failing slice in ``index``.
        """
        m = np.asarray(rhos, dtype=complex)
        if m.ndim != 3 or m.shape[1] != m.shape[2]:
            raise ValueError(f"expected a (k, d, d) stack of density matrices, got shape {m.shape}")
        checked = _hermitian_densities(m)
        checked.setflags(write=False)
        states = []
        for rho in checked:   # read-only views of one C-ordered stack, as _frozen would lay them out
            state = object.__new__(cls)
            object.__setattr__(state, "rho", rho)
            states.append(state)
        return tuple(states)

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
        """The image of a matrix, or the images of a (k, in_dim, in_dim) stack."""
        x = as_matrix(x)
        if x.ndim not in (2, 3) or x.shape[-2:] != (self.in_dim, self.in_dim):
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


class MapStack(Mapping):
    """Maps of one shape as one read-only (K, out_dim^2, in_dim^2) array, keyed in ``order``.

    ``x[key]`` is a SuperMap view of the row of ``key``; :meth:`rows_at` reads many rows,
    given by position, as one stack.
    """

    def __init__(self, array, order):
        self.array = np.ascontiguousarray(array, dtype=complex)
        self.array.setflags(write=False)
        self.order = tuple(order)
        self.out_dim, self.in_dim = (math.isqrt(d) for d in self.array.shape[1:])
        self.norms = None   # the maps' operator norms, which the first Family.map_norms takes

    @cached_property
    def index(self) -> dict:
        """The row of each key, for reads by key."""
        return {key: i for i, key in enumerate(self.order)}

    def __getitem__(self, key) -> SuperMap:
        return SuperMap(self.in_dim, self.out_dim, self.array[self.index[key]])

    def __iter__(self):
        return iter(self.order)

    def __len__(self) -> int:
        return len(self.order)

    def rows_at(self, at) -> Array:
        """The rows at the positions ``at``: a slice where they are consecutive, else one take."""
        if len(at) and at[-1] - at[0] == len(at) - 1 and (np.diff(at) == 1).all():
            return self.array[at[0]:at[0] + len(at)]
        return self.array.take(at, axis=0)


class ScaledMapStack(Mapping):
    """The maps c_k F_k of a :class:`MapStack` F, one factor per row, without a copy of F.

    ``base`` is F itself; there is no array of the scaled maps. :meth:`rows_at` is the one
    read, and it scales each row as it is gathered; ``x[key]`` is a SuperMap of one row.
    """

    def __init__(self, base: MapStack, factors):
        self.base, self.factors = base, np.asarray(factors)
        self.order = base.order
        self.in_dim, self.out_dim = base.in_dim, base.out_dim

    def __getitem__(self, key) -> SuperMap:
        return SuperMap(self.in_dim, self.out_dim, self.rows_at([self.base.index[key]])[0])

    def __iter__(self):
        return iter(self.order)

    def __len__(self) -> int:
        return len(self.order)

    def rows_at(self, at) -> Array:
        """c_k F_k for every position k of ``at``, as one fresh stack."""
        return self.base.rows_at(at) * self.factors[at][:, None, None]


def predual(m: SuperMap) -> SuperMap:
    """Map on densities with trace(predual(m)(rho) x) = trace(rho m(x)).

    If m is unital and completely positive the predual carries states to
    states (it is trace preserving and positive).
    """
    mat = predual_matrix(m.matrix, m.in_dim, m.out_dim)
    mat.setflags(write=False)   # a fresh C-ordered copy, which SuperMap then keeps as it is
    return SuperMap(m.out_dim, m.in_dim, mat)


def supermap_tensor(m1: SuperMap, m2: SuperMap) -> SuperMap:
    mat = supermatrix_tensor(m1.matrix, m1.in_dim, m1.out_dim,
                             m2.matrix, m2.in_dim, m2.out_dim)
    return SuperMap(m1.in_dim * m2.in_dim, m1.out_dim * m2.out_dim, mat)


def doubled_after(q, ms) -> Array:
    """(q (x) q) m for every pair of a q and a map m into M_n (x) M_n, without q (x) q.

    ``q`` is a map on M_n (a SuperMap, its matrix, or a (K, n^2, n^2) stack, one per m);
    ``ms`` the (n^4, k^2) matrices of maps on M_k, a (K, n^4, k^2) array or a sequence; a
    single q or m serves every slice of the other. Each output index of m splits as (a, b)
    and q (x) q is two n^2 x n^2 mode products, one broadcast matmul each: n^6 k^2 MACs per
    map instead of n^8 k^2. Each slice has the bits of its pair taken alone.
    """
    q = q.matrix if isinstance(q, SuperMap) else np.asarray(q)
    n = math.isqrt(q.shape[-1])
    ms = np.asarray(ms)
    count, rows, cols = ms.shape
    k = math.isqrt(cols)
    if q.shape[-2:] != (n * n, n * n) or rows != n ** 4 or k * k != cols:
        raise ValueError("doubled_after needs q on M_n and maps into M_n (x) M_n")
    # in C order m.reshape(n, n, n, n, k, k) is [c, d, a, b, j, i] with
    # m(E_ij)[(a, b), (c, d)]; q's rows and columns are column-stacked pairs,
    # i.e. (c, a) -> c * n + a in C order
    t = ms.reshape(count, n, n, n, n, k, k).transpose(0, 1, 3, 4, 2, 6, 5)   # [c, a, b, d, i, j]
    t = q @ t.reshape(count, n * n, -1)                                 # [y, x, b, d, i, j]
    count = len(t)
    t = t.reshape(count, n, n, n, n, k, k).transpose(0, 4, 3, 1, 2, 5, 6)
    t = q @ t.reshape(count, n * n, -1)                                 # [v, u, y, x, i, j]
    t = t.reshape(count, n, n, n, n, k, k)
    # the matrix of the product is [y, v, x, u, j, i] in C order
    return t.transpose(0, 3, 1, 4, 2, 6, 5).reshape(count, n ** 4, cols)


def tensor(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Kronecker product of algebra elements; bilinear in both arguments."""
    kind = "diagonal" if (a.algebra_kind == "diagonal" and b.algebra_kind == "diagonal") else "full"
    return AlgebraElement(np.kron(a.entries, b.entries), kind)


def flip_rows(n: int) -> Array:
    """The row permutation of U m for maps m into M_n (x) M_n, U(x (x) y) = y (x) x.

    In the tensor view each output index splits as (a, b) and U exchanges a and b;
    in C order the rows of m are [c, d, a, b] with output (a, b), (c, d).
    """
    return np.arange(n ** 4).reshape(n, n, n, n).transpose(1, 0, 3, 2).reshape(-1)


def flip_after(m: SuperMap) -> SuperMap:
    """U m for a map m into M_n (x) M_n: a permutation of the rows, exact and without a product."""
    n = math.isqrt(m.out_dim)
    if n * n != m.out_dim:
        raise ValueError("the flip needs a map into a doubled algebra")
    return SuperMap(m.in_dim, m.out_dim, m.matrix[flip_rows(n)])


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

    Tr_1[(rho (x) 1) z] sends E_{(e, b), (a, d)} to rho[a, e] E_{bd}; its matrix is
    :func:`expectation_matrices` of a stack of one.
    """
    n = phi.dim
    return SuperMap(n * n, n, expectation_matrices(phi.rho[None])[0])


@cache
def _expectation_entries(n: int) -> tuple[Array, ...]:
    """Row, column and (a, e) of rho of the n^4 nonzero entries of E_phi's matrix on M_n.

    E_{(e, b), (a, d)} -> rho[a, e] E_{bd}: the entries sit at row (x, y) = (b, d) and
    column (e, x) + n^2 (a, y) of the column-stacked matrix. Built once per n.
    """
    x, y, e, a = np.indices((n, n, n, n)).reshape(4, -1)
    entries = (x + n * y, e * n + x + n * n * (a * n + y), a, e)
    for index in entries:
        index.setflags(write=False)
    return entries


def expectation_matrices(rhos) -> Array:
    """The (k, n^2, n^4) matrices of E_phi for every density matrix of a (k, n, n) stack."""
    rhos = np.asarray(rhos, dtype=complex)
    k, n = len(rhos), rhos.shape[-1]
    rows, cols, a, e = _expectation_entries(n)
    mats = np.zeros((k, n * n, n ** 4), dtype=complex)
    mats[:, rows, cols] = rhos[:, a, e]
    return mats


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

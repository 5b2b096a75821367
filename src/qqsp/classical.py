"""Classical quadratic stochastic processes on the finite simplex.

A process is a family of cubic tensors p[i, j, k]: the probability that
types i and j interacting at time s produce type k at time t. Valid
tensors are symmetric in (i, j) and stochastic over k. Propagation uses
the same fixed split r = t-1 as the quantum lattice, for either the
type-A law

    p^{[s,t]}_{ij,k} = sum_{m,l} p^{[s,r]}_{ij,m} p^{[r,t]}_{ml,k} x^{(r)}_l

or the type-B law

    p^{[s,t]}_{ij,k} = sum_{m,l,g,h} p^{[s,r]}_{im,l} p^{[s,r]}_{jg,h}
                       p^{[r,t]}_{lh,k} x^{(s)}_m x^{(s)}_g,

with the trajectory x^{(t)}_k = sum_{ij} p^{[0,t]}_{ij,k} x0_i x0_j.

The diagonal-algebra bridge: a tensor lifts to the quantum step map
(P f)(i, j) = sum_k f_k p_{ij,k}, and a diagonal-preserving lattice
projects back through p_{ij,k} = P(indicator_k)(i, j).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import State, SuperMap
from .linalg import Array
from .process import Family, QQSPSeed, ValidationFailure


@dataclass(frozen=True)
class Distribution:
    """A point of the finite simplex."""

    weights: Array

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1:
            raise ValueError("distribution weights must be a vector")
        if w.min() < -1e-14:
            raise ValueError(f"negative weight {w.min():.2e}")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {w.sum()!r}, not 1")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def N(self) -> int:
        return self.weights.shape[0]


def _check_tensor_shape(p: Array, N: int, where: str):
    if p.shape != (N, N, N):
        raise ValueError(f"{where}: tensor shape {p.shape}, expected {(N, N, N)}")


@dataclass(frozen=True)
class ClassicalQSP:
    """Cubic step tensors with an initial distribution; filled on demand."""

    step_tensors: tuple[Array, ...]
    x0: Distribution
    process_type: str
    lattice: dict | None = None
    trajectory: tuple[Distribution, ...] | None = None

    def __post_init__(self):
        if self.process_type not in ("A", "B"):
            raise ValueError(f"process type must be 'A' or 'B', got {self.process_type!r}")
        copies = {}   # one copy per distinct tensor object, so a repeated tensor stays one
        for p in self.step_tensors:
            if id(p) not in copies:
                copies[id(p)] = np.array(p, dtype=float)
        ts = tuple(copies[id(p)] for p in self.step_tensors)
        if not ts:
            raise ValueError("need at least one step tensor")
        for k, p in enumerate(ts):
            _check_tensor_shape(p, self.x0.N, f"step {k}")
            p.setflags(write=False)
        object.__setattr__(self, "step_tensors", ts)

    @property
    def N(self) -> int:
        return self.x0.N

    @property
    def horizon(self) -> int:
        return len(self.step_tensors)

    @classmethod
    def homogeneous(cls, tensor: Array, x0, horizon: int, process_type: str) -> "ClassicalQSP":
        if not isinstance(x0, Distribution):
            x0 = Distribution(np.asarray(x0, dtype=float))
        return cls((np.asarray(tensor, dtype=float),) * horizon, x0, process_type)

    def tensor(self, s: int, t: int) -> Array:
        if t == s + 1:
            return self.step_tensors[s]
        if self.lattice is None:
            raise ValueError("lattice not filled; call classical_propagate first")
        return self.lattice[(s, t)]

    def x(self, t: int) -> Distribution:
        if t == 0:
            return self.x0
        if self.trajectory is None:
            raise ValueError("trajectory not filled; call classical_propagate first")
        return self.trajectory[t]


@dataclass(frozen=True)
class TensorDiagnostic:
    key: tuple
    symmetry_residual: float
    min_entry: float
    normalization_residual: float

    def ok(self, tol: float) -> bool:
        return (self.symmetry_residual <= tol
                and self.min_entry >= -1e-14
                and self.normalization_residual <= tol)


def tensor_diagnostic(p: Array, key) -> TensorDiagnostic:
    p = np.asarray(p, dtype=float)
    return TensorDiagnostic(
        key=tuple(key) if isinstance(key, (tuple, list)) else (key,),
        symmetry_residual=float(np.abs(p - p.transpose(1, 0, 2)).max()),
        min_entry=float(p.min()),
        normalization_residual=float(np.abs(p.sum(axis=2) - 1.0).max()),
    )


def classical_validate(q: ClassicalQSP) -> list[TensorDiagnostic]:
    """Symmetry and stochasticity residuals, one entry per stored tensor."""
    out = [tensor_diagnostic(p, (k, k + 1)) for k, p in enumerate(q.step_tensors)]
    if q.lattice is not None:
        for key in sorted(q.lattice):
            out.append(tensor_diagnostic(q.lattice[key], key))
    return out


def classical_issues(q: ClassicalQSP, tol: float = 1e-12) -> list[TensorDiagnostic]:
    return [d for d in classical_validate(q) if not d.ok(tol)]


def require_valid_tensors(q: ClassicalQSP, tol: float = 1e-12) -> None:
    """Raise ValidationFailure unless every tensor is symmetric and stochastic."""
    bad = classical_issues(q, tol)
    if bad:
        raise ValidationFailure(f"classical tensors violate (i)-(ii): {bad[0]}")


def classical_propagate(q: ClassicalQSP, strict: bool = True, tol: float = 1e-12) -> ClassicalQSP:
    """Fill tensors and trajectory with the fixed split r = t-1."""
    if strict:
        require_valid_tensors(q, tol)
    N, T = q.N, q.horizon
    lattice: dict = {}
    for k in range(T):
        lattice[(k, k + 1)] = q.step_tensors[k]
    xs = [np.asarray(q.x0.weights, dtype=float)]
    xs.append(np.einsum("ijk,i,j->k", lattice[(0, 1)], xs[0], xs[0]))
    for t in range(2, T + 1):
        step = lattice[(t - 1, t)]
        for s in range(t - 2, -1, -1):
            prev = lattice[(s, t - 1)]
            if q.process_type == "A":
                lattice[(s, t)] = np.einsum("ijm,mlk,l->ijk", prev, step, xs[t - 1])
            else:
                lattice[(s, t)] = np.einsum("iml,jgh,lhk,m,g->ijk",
                                            prev, prev, step, xs[s], xs[s])
        xs.append(np.einsum("ijk,i,j->k", lattice[(0, t)], xs[0], xs[0]))
    for p in lattice.values():
        p.setflags(write=False)
    trajectory = tuple(Distribution(x) for x in xs)
    return ClassicalQSP(q.step_tensors, q.x0, q.process_type,
                        lattice=lattice, trajectory=trajectory)


def diagonal_layout(N: int) -> tuple[Array, Array]:
    """The rows ij (N^2 + 1), the diagonal entries of M_N (x) M_N, and the columns k (N + 1),
    vec E_kk, where the matrix of a map of the diagonal algebra of M_N may hold entries."""
    return np.arange(N * N) * (N * N + 1), np.arange(N) * (N + 1)


def tensor_to_step_map(p: Array) -> SuperMap:
    """Lift one cubic tensor to the diagonal-algebra step map.

    Sends diag(f) to the diagonal element of M_N (x) M_N whose (i, j) entry is
    sum_k f_k p_{ij,k} and annihilates off-diagonal inputs: a sum of maps
    x -> x_kk * (psd diagonal), completely positive when the tensor is entrywise >= 0.
    Its matrix is written in closed form: column k + N k (vec E_kk) holds p_{ij,k} on the
    rows of the diagonal (+ 0.0 gives the +0.0 a product with E_kk gives for -0.0).
    """
    p = np.asarray(p, dtype=float)
    N = p.shape[0]
    mat = np.zeros((N ** 4, N * N), dtype=complex)
    rows, cols = diagonal_layout(N)
    mat[rows[:, None], cols] = p.reshape(N * N, N) + 0.0
    return SuperMap(N, N * N, mat)


def lift_to_quantum(q: ClassicalQSP, strict: bool = True) -> QQSPSeed:
    """Embed a classical process as a diagonal-algebra seed.

    Each distinct step-tensor object is lifted once, and a repeated tensor
    gives the seed one SuperMap repeated, which validation certifies once.
    """
    if strict:
        require_valid_tensors(q)
    lifted = {}
    for p in q.step_tensors:
        if id(p) not in lifted:
            lifted[id(p)] = tensor_to_step_map(p)
    maps = tuple(lifted[id(p)] for p in q.step_tensors)
    return QQSPSeed(maps, State.from_weights(q.x0.weights), q.process_type, "diagonal")


def project_to_classical(lattice: Family, tol: float = 1e-12) -> ClassicalQSP:
    """Read tensors off a diagonal-preserving lattice via indicator elements.

    The image of E_kk is its map's column k + N k, an N^2 x N^2 matrix with p_{ij,k} at
    diagonal entry (i, j): one gather of every map's columns. An image with off-diagonal
    mass above ``tol`` raises ValueError for the first such (pair, k).
    """
    N, T = lattice.n, lattice.horizon
    pairs = lattice.pairs()
    diagonal, cols = diagonal_layout(N)
    images = lattice.maps.rows_at(np.arange(len(pairs)))[:, :, cols]   # (pairs, N^4, N)
    off = np.abs(images)
    off[:, diagonal] = 0
    residuals = off.max(axis=1).reshape(-1)
    bad = np.flatnonzero(residuals > tol)
    if bad.size:
        raise ValueError(f"map does not preserve the diagonal algebra "
                         f"(residual {residuals[bad[0]]:.2e})")
    # + 0.0: a gemv against the indicator gives +0.0 where the column holds -0.0
    tensors = np.real(images[:, diagonal]).reshape(len(pairs), N, N, N) + 0.0
    tensors.setflags(write=False)
    filled = dict(zip(pairs, tensors))
    steps = tuple(filled[(k, k + 1)] for k in range(T))
    x0 = Distribution(lattice.omega(0).diagonal_weights())
    trajectory = tuple(Distribution(lattice.omega(t).diagonal_weights())
                       for t in range(T + 1))
    return ClassicalQSP(steps, x0, lattice.process_type,
                        lattice=filled, trajectory=trajectory)


def mendel_tensor() -> Array:
    """Two-type random-parent inheritance; the induced simplex map is the identity."""
    p = np.zeros((2, 2, 2))
    p[0, 0, 0] = 1.0
    p[0, 1, 0] = p[1, 0, 0] = 0.5
    p[1, 1, 0] = 0.0
    p[:, :, 1] = 1.0 - p[:, :, 0]
    return p


def volterra_tensor(a: float = 1.0) -> Array:
    """Two-type dominance family: p_{11,1} = 1, p_{12,1} = a, p_{22,1} = 0."""
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"parameter must lie in [0, 1], got {a}")
    p = np.zeros((2, 2, 2))
    p[0, 0, 0] = 1.0
    p[0, 1, 0] = p[1, 0, 0] = a
    p[1, 1, 0] = 0.0
    p[:, :, 1] = 1.0 - p[:, :, 0]
    return p


def copy_second_parent_tensor(N: int = 2) -> Array:
    """p_{ij,k} = delta_{jk}: offspring copies the second parent.

    Deliberately asymmetric (fails condition (i)); its lift has the
    identity channel as marginal Markov process, making it the canonical
    non-ergodic witness. Propagate permissively.
    """
    p = np.zeros((N, N, N))
    for i in range(N):
        for j in range(N):
            p[i, j, j] = 1.0
    return p

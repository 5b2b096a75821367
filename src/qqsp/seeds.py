"""Named seed constructions used by the built-in scenarios and the tests."""

from __future__ import annotations

import numpy as np

from .algebra import State, SuperMap
from .classical import ClassicalQSP, copy_second_parent_tensor, lift_to_quantum
from .process import QQSPSeed


def constant_step_map(omega: State) -> SuperMap:
    """x -> omega(x) 1 (x) 1; the unique fixed point of both recursions."""
    n = omega.dim
    return SuperMap.constant(omega, n * n)


def symmetrized_embedding(n: int) -> SuperMap:
    """S(x) = (x (x) 1 + 1 (x) x) / 2, unital CP and flip symmetric.

    Column i + n j (vec E_ij) holds 0.5 at vec(E_ij (x) 1), rows (i n + b) + n^2 (j n + b),
    and 0.5 more at vec(1 (x) E_ij), rows (b n + i) + n^2 (b n + j), for every b: the
    matrix of the basis probes, bit for bit.
    """
    i, j, b = np.indices((n, n, n)).reshape(3, -1)
    mat = np.zeros((n ** 4, n * n), dtype=complex)
    mat[i * n + b + n * n * (j * n + b), i + n * j] = 0.5
    mat[b * n + i + n * n * (b * n + j), i + n * j] += 0.5
    return SuperMap(n, n * n, mat)


def unsymmetrized_embedding(n: int) -> SuperMap:
    """x -> x (x) 1; unital CP but NOT flip symmetric (a validation witness)."""
    one = np.eye(n, dtype=complex)
    return SuperMap.from_function(lambda x: np.kron(x, one), n, n * n)


def transpose_embedding(n: int) -> SuperMap:
    """x -> x^T (x) 1; unital but not completely positive (a CP witness)."""
    one = np.eye(n, dtype=complex)
    return SuperMap.from_function(lambda x: np.kron(x.T, one), n, n * n)


def mixed_step_map(n: int = 2) -> SuperMap:
    """Half the constant map at the normalized trace, half the symmetrized embedding."""
    const = constant_step_map(State.maximally_mixed(n))
    s = symmetrized_embedding(n)
    return SuperMap(n, n * n, 0.5 * const.matrix + 0.5 * s.matrix)


def entangled_preparation_step_map() -> SuperMap:
    """Measure in the computational basis, prepare a swap-symmetric block.

    The two prepared effects G1 (triplet-like) and G2 (its complement)
    sum to the identity, so the map is unital CP and flip symmetric. Its
    image is not spanned by x (x) 1 and 1 (x) x, which keeps the type-B
    composition genuinely different from the type-A one.
    """
    e11 = np.zeros(4)
    e22 = np.zeros(4)
    e11[0] = 1.0
    e22[3] = 1.0
    sym = np.zeros(4)
    anti = np.zeros(4)
    sym[1] = sym[2] = 1 / np.sqrt(2)
    anti[1], anti[2] = 1 / np.sqrt(2), -1 / np.sqrt(2)
    g1 = (np.outer(e11, e11) + np.outer(sym, sym)).astype(complex)
    g2 = (np.outer(e22, e22) + np.outer(anti, anti)).astype(complex)
    return SuperMap.from_function(lambda x: x[0, 0] * g1 + x[1, 1] * g2, 2, 4)


def entangling_mixed_step_map() -> SuperMap:
    """Half constant, half entangled preparation; the type-B workhorse."""
    const = constant_step_map(State.maximally_mixed(2))
    prep = entangled_preparation_step_map()
    return SuperMap(2, 4, 0.5 * const.matrix + 0.5 * prep.matrix)


DEFAULT_MIXED_OMEGA0 = (0.7, 0.3)


def make_constant_seed(n: int, horizon: int, process_type: str = "A",
                       omega0: State | None = None) -> QQSPSeed:
    omega = omega0 if omega0 is not None else State.maximally_mixed(n)
    return QQSPSeed.from_single_map(constant_step_map(State.maximally_mixed(n)),
                                    omega, horizon, process_type)


def make_mixed_seed(horizon: int, process_type: str = "A",
                    omega0: State | None = None) -> QQSPSeed:
    """The n=2 mixed seed: half constant at tr/2, half symmetrized embedding."""
    omega = omega0 if omega0 is not None else State.from_weights(DEFAULT_MIXED_OMEGA0)
    return QQSPSeed.from_single_map(mixed_step_map(2), omega, horizon, process_type)


def make_entangling_seed(horizon: int, process_type: str = "B",
                         omega0: State | None = None) -> QQSPSeed:
    """The n=2 type-B mixed seed built on the entangled preparation."""
    omega = omega0 if omega0 is not None else State.from_weights(DEFAULT_MIXED_OMEGA0)
    return QQSPSeed.from_single_map(entangling_mixed_step_map(), omega,
                                    horizon, process_type)


def make_identity_like_seed(horizon: int, process_type: str = "A",
                            weights=(0.6, 0.4)) -> QQSPSeed:
    """Diagonal lift of the copy-second-parent tensor.

    Its marginal Markov process is the identity channel, so nothing
    decays; the seed fails flip symmetry and must be propagated
    permissively.
    """
    q = ClassicalQSP.homogeneous(copy_second_parent_tensor(len(weights)),
                                 list(weights), horizon, process_type)
    return lift_to_quantum(q, strict=False)

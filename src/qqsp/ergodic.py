"""Ergodic principle diagnostics: decay traces, contraction, verdicts.

The ergodic principle asks that trace-norm distances between evolved
state pairs vanish as t grows. At desk scale the limit is replaced by a
finite-horizon verdict: every tracked family must push the whole pair
ensemble below epsilon by t = T.

The ergodic relations follow from F = C E_{omega_t}: H_*(rho) = omega_t (x) P_*(rho),
Z_*(rho) = omega_t (x) Q_*(Tr_1 rho) and Q_*(sigma) = P_*(omega_s (x) sigma). So
:func:`ergodic_verdict` hands H/h P's trace, Z/z decay as Q on the Tr_1 images of the
pairs, and only {P, H/h} against {Q, Z/z} can disagree (Q and Z/z by their ensembles).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache

import numpy as np

from .algebra import InvalidDensity, State, predual
from .linalg import chunks, matrix_unit, predual_matrix, ptrace_first, trace_norms
from .process import Family


@dataclass(frozen=True)
class DecayTrace:
    """Distances ||map_*(rho_phi) - map_*(rho_psi)||_1 per pair and time t = 1..T."""

    family_kind: str
    times: tuple[int, ...]
    distances: tuple[tuple[float, ...], ...]  # [pair][time]


def _check_pairs(family: Family, pairs) -> None:
    for phi, psi in pairs:
        if phi.dim != family.side or psi.dim != family.side:
            raise ValueError(f"pair dimension {phi.dim} does not match the family "
                             f"({family.side})")


def decay_trace(family: Family, pairs) -> DecayTrace:
    """Distance table over t = 1 .. horizon for each state pair, from s = 0.

    The pairs live where the maps land (``family.side``); the distances are taken on the
    stored C^{0,t}, since omega_t (x) C_* is the predual of C E_{omega_t}, and a Z/z's on Q's
    maps Y and the Tr_1 images of the pairs ((embed Y)_* = Y_* Tr_1). The pairs' vectors are
    stacked once; per chunk of t (:func:`qqsp.linalg.chunks`) one
    :func:`qqsp.linalg.predual_matrix` call and one broadcast matmul, a gemv per image, give
    the gaps, which :func:`qqsp.linalg.trace_norms` norms. Monotonicity is not asserted.
    """
    _check_pairs(family, pairs)
    side, out_dim = family.maps.in_dim, family.maps.out_dim   # preduals land on M_side
    gaps = np.empty((family.horizon, len(pairs), side, side), dtype=complex)
    if pairs:
        # each state's transpose in C order is its column-stacked vector, and Tr_1
        # commutes with the transpose, so the vectors are formed in one copy of the pairs
        vecs = np.array([x.rho.T for pair in pairs for x in pair])
        if family.stores_q:
            vecs = ptrace_first(vecs, family.n, family.n)
        vecs = vecs.reshape(2 * len(pairs), -1, 1)
        firsts = family.key_index.firsts   # the rows of C^{0,t}
        for part in chunks(len(firsts), 16 * side * side * max(out_dim * out_dim, len(vecs))):
            duals = predual_matrix(family.maps.rows_at(firsts[part]), side, out_dim)
            images = np.matmul(duals[:, None], vecs)   # [t][pair, phi or psi], one gemv each
            images = images.reshape(-1, len(pairs), 2, side, side)   # the transposed images
            np.subtract(images[:, :, 0], images[:, :, 1], out=gaps[part].transpose(0, 1, 3, 2))
    norms = trace_norms(gaps.reshape(-1, side, side)).reshape(gaps.shape[:2])
    return DecayTrace(family.kind, tuple(range(1, family.horizon + 1)),
                      tuple(map(tuple, norms.T.tolist())))   # [pair][time]


@dataclass(frozen=True)
class ContractionEstimate:
    """Trace-norm contraction coefficient of Q^{s,t} on the predual.

    The supremum is taken over the computational-basis pairs and, on a full
    algebra with n >= 2, over ``sample_count`` sampled orthonormal pure pairs
    (a lower bound). On a diagonal algebra and on M_1 the basis pairs attain
    it (the Dobrushin coefficient), so it is exact and nothing is sampled.
    """

    s: int
    t: int
    lam: float
    method: str
    sample_count: int


def _contraction_gaps(q_family: Family, s: int, t: int, rng, gaps) -> None:
    """Write the image gaps under Q^{s,t}_* of the computational-basis pairs, then of
    ``len(gaps) - n(n-1)/2`` sampled orthonormal pure pairs, into ``gaps``.

    The samples are drawn and imaged a chunk at a time (:func:`qqsp.linalg.chunks`); each
    chunk's ``rng.normal`` call continues the stream, so the bits and the generator's final
    state are those of one draw of every sample.
    """
    n = q_family.n
    dual = predual(q_family.map(s, t))
    images = dual(np.array([matrix_unit(n, i, i) for i in range(n)]))
    first, second = np.triu_indices(n, 1)
    np.subtract(images[first], images[second], out=gaps[:len(first)])
    sampled = gaps[len(first):]
    for part in chunks(len(sampled), 2 * 16 * n * n):   # a sample's two projectors
        # in the per-sample order: the real, then the imaginary n x 2 block
        draws = rng.normal(size=(len(range(len(sampled))[part]), 2, n, 2))
        u, _ = np.linalg.qr(draws[:, 0] + 1j * draws[:, 1])
        # projectors[k, c] = |u_c><u_c| of sample k; each stack is let go as soon as the
        # next is formed, so the chunk's copies are not all alive at once
        projectors = (u[:, :, None, :] * u[:, None, :, :].conj()).transpose(0, 3, 1, 2)
        del draws, u
        projectors = projectors.reshape(-1, n, n)   # a copy, and the product is let go
        images = dual(projectors)
        del projectors
        np.subtract(images[0::2], images[1::2], out=sampled[part])
        del images


@dataclass(frozen=True)
class ErgodicConfig:
    epsilon: float = 1e-3
    pair_count: int = 20
    rng_seed: int = 12345
    sample_count: int = 200
    explicit_single: tuple = ()   # (State, State) pairs on M, overrides sampling
    explicit_double: tuple = ()   # (State, State) pairs on M (x) M


def contraction_coefficient(q_family: Family, s: int, t: int,
                            sample_count: int = ErgodicConfig.sample_count,
                            rng: np.random.Generator | None = None) -> ContractionEstimate:
    """The largest half trace distance of Q^{s,t}_* over the basis pairs and sampled pure
    pairs (:func:`_contraction_gaps`), normed a chunk at a time."""
    if (s, t) not in q_family.maps:
        raise ValueError(f"no map stored at ({s}, {t})")
    if q_family.kind != "Q":
        raise ValueError("contraction coefficients are measured on the Q family")
    n = q_family.n
    # M_1 = C is diagonal too and has no orthonormal pure pair to sample
    if q_family.algebra_kind == "diagonal" or n == 1:
        method, sample_count = "exact-classical", 0
    else:
        method = "pure-pair-sampling"
    gaps = np.empty((n * (n - 1) // 2 + sample_count, n, n), dtype=complex)
    _contraction_gaps(q_family, s, t, rng if rng is not None else np.random.default_rng(0), gaps)
    lam = 0.5 * float(trace_norms(gaps).max(initial=0.0))
    return ContractionEstimate(s, t, lam, method, sample_count)


@cache
def _basis_pair(dim: int) -> tuple[State, State]:
    """The extremal basis pair (e_0 vs e_last) on M_dim, checked once; States are immutable."""
    basis = np.zeros((2, dim, dim), dtype=complex)
    basis[0, 0, 0] = basis[1, -1, -1] = 1.0
    return State.stack(basis)


def state_pair_ensemble(dim: int, count: int, rng: np.random.Generator,
                        diagonal: bool = False) -> list[tuple[State, State]]:
    """count pairs: the extremal basis pair (e_0 vs e_last), then count - 1 random pairs.

    The random states are drawn and checked (:meth:`State.stack`) a chunk at a time
    (:func:`qqsp.linalg.chunks`): g g^dagger / tr with g from ``rng.normal(size=(k, 2, dim,
    dim))`` (real, then imaginary part) on a full algebra, normalised ``rng.random((k, dim))
    + 1e-3`` on a diagonal one. Each call continues the stream, so the states are those of
    one draw at a time, bit for bit. A failing state raises :class:`InvalidDensity` with its
    index in the whole ensemble.
    """
    k = 2 * max(count - 1, 0)
    states = list(_basis_pair(dim))
    for part in chunks(k, 16 * dim * dim):
        size = len(range(k)[part])
        if diagonal:
            w = rng.random((size, dim)) + 1e-3
            rhos = (w / w.sum(axis=1, keepdims=True))[:, :, None] * np.eye(dim)
        else:
            draws = rng.normal(size=(size, 2, dim, dim))
            g = draws[:, 0] + 1j * draws[:, 1]
            rhos = g @ np.conj(g).transpose(0, 2, 1)
            rhos /= np.trace(rhos, axis1=1, axis2=2)[:, None, None]
        try:
            states += State.stack(rhos)
        except InvalidDensity as exc:
            raise InvalidDensity(str(exc), 2 + part.start + exc.index) from exc
    return list(zip(states[0::2], states[1::2]))


@dataclass(frozen=True)
class FamilyVerdict:
    kind: str
    final_max_distance: float
    ergodic: bool
    max_step_ratio: float


@dataclass(frozen=True)
class ErgodicReport:
    traces: dict
    contraction: ContractionEstimate
    verdicts: dict
    all_agree: bool
    ergodic_at_horizon: bool
    epsilon: float
    horizon: int


def _verdict(kind: str, distances: np.ndarray, epsilon: float) -> FamilyVerdict:
    """A family's verdict from its [t][pair] distances: the largest at t = T, and the largest
    step ratio over every pair, skipping the steps from a vanished distance."""
    final = float(distances[-1].max()) if distances.shape[1] else 0.0
    before, after = distances[:-1], distances[1:]
    live = before > 1e-14
    ratios = after[live] / before[live]
    return FamilyVerdict(kind, final, final < epsilon,
                         float(ratios.max()) if ratios.size else 0.0)


def ergodic_verdict(lattice: Family, families: dict,
                    config: ErgodicConfig = ErgodicConfig()) -> ErgodicReport:
    """Finite-horizon ergodicity verdict for the lattice and its marginals.

    ``families`` maps kind to marginal Family ({Q, H, Z} or {Q, h, z}).
    All sources are driven over one seeded ensemble: pairs on M (x) M for
    the doubled families and the lattice itself, pairs on M for Q. H/h
    must store ``lattice``'s own maps as its cores; it takes P's trace and verdict. P, then
    each other family in turn, is traced by :func:`decay_trace`, and the coefficient of
    Q^{0,1} by :func:`contraction_coefficient`, on the stream after both ensembles.
    """
    if "Q" not in families:
        raise ValueError("a Q family is required")
    for kind in {"H", "h"} & set(families):
        if families[kind].maps is not lattice.maps:
            raise ValueError(f"{kind} does not store this lattice's maps P^{{s,t}} as its cores")
    rng = np.random.default_rng(config.rng_seed)
    n, diagonal = lattice.n, lattice.algebra_kind == "diagonal"
    pairs_single = (list(config.explicit_single) or
                    state_pair_ensemble(n, config.pair_count, rng, diagonal))
    pairs_double = (list(config.explicit_double) or
                    state_pair_ensemble(n * n, config.pair_count, rng, diagonal))
    # each family takes the ensemble of its own side; at n = 1 every side is n
    traces = {kind: decay_trace(src, pairs_single if src.side == n else pairs_double)
              for kind, src in {"P": lattice, **families}.items() if kind not in ("H", "h")}
    verdicts = {kind: _verdict(kind, np.array(trace.distances).reshape(-1, len(trace.times)).T,
                               config.epsilon) for kind, trace in traces.items()}
    for kind in {"H", "h"} & set(families):
        traces[kind] = replace(traces["P"], family_kind=kind)
        verdicts[kind] = replace(verdicts["P"], kind=kind)
    contraction = contraction_coefficient(families["Q"], 0, 1, config.sample_count, rng)
    flags = [v.ergodic for v in verdicts.values()]
    return ErgodicReport(
        traces=dict(sorted(traces.items())),
        contraction=contraction,
        verdicts=dict(sorted(verdicts.items())),
        all_agree=len(set(flags)) == 1,
        ergodic_at_horizon=all(flags),
        epsilon=config.epsilon,
        horizon=lattice.horizon,
    )

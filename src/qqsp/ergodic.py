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


def _chunked_trace_norms(gaps) -> np.ndarray:
    """:func:`qqsp.linalg.trace_norms` of a (k, side, side) stack, one chunk at a time
    (:func:`qqsp.linalg.chunks`), so its copies stay a few chunks however long the stack;
    per slice the bits of the whole stack's call."""
    norms = np.empty(len(gaps))
    for part in chunks(len(gaps), gaps[0].nbytes if len(gaps) else 1):
        norms[part] = trace_norms(gaps[part])
    return norms


def _decay_gaps(runs, gaps) -> None:
    """Write the gaps of the pairs of every (family, pairs) of ``runs``, families that store
    one array of maps (Q and a Z/z on Q's maps), into ``gaps[t - 1, pair]``, each run's pairs
    in turn, for t = 1 .. horizon.

    The pairs' vectors of every run are stacked once; per chunk of t
    (:func:`qqsp.linalg.chunks`) one :func:`qqsp.linalg.predual_matrix` call and one
    broadcast matmul, a gemv per image, give the gaps, each with the bits of its family's run
    alone.
    """
    source = runs[0][0]
    vecs = []
    for family, pairs in runs:
        if family.maps is not source.maps:
            raise ValueError(f"{family.kind} does not store the maps of {source.kind}")
        if pairs:
            # each state's transpose in C order is its column-stacked vector, and Tr_1
            # commutes with the transpose, so the vectors are formed in one copy of the pairs
            stack = np.array([x.rho.T for pair in pairs for x in pair])
            vecs.append(ptrace_first(stack, family.n, family.n) if family.stores_q else stack)
    if not vecs:
        return
    count = len(gaps[0])
    side, out_dim = source.maps.in_dim, source.maps.out_dim   # preduals land on M_side
    # one run's vectors are not copied again
    vecs = (vecs[0] if len(vecs) == 1 else np.concatenate(vecs)).reshape(2 * count, -1, 1)
    firsts = source.key_index.firsts   # the rows of P^{0,t}
    for part in chunks(len(firsts), 16 * side * side * max(out_dim * out_dim, len(vecs))):
        duals = predual_matrix(source.maps.rows_at(firsts[part]), side, out_dim)
        images = np.matmul(duals[:, None], vecs)   # [t][pair, phi or psi], one gemv each
        images = images.reshape(-1, count, 2, side, side)   # the transposed images
        np.subtract(images[:, :, 0], images[:, :, 1], out=gaps[part].transpose(0, 1, 3, 2))


def _traces(runs, norms) -> list[DecayTrace]:
    """The DecayTrace of each run from the [t][pair] norms of :func:`_decay_gaps`."""
    times = tuple(range(1, len(norms) + 1))
    rows, start, traces = norms.T.tolist(), 0, []
    for family, pairs in runs:   # rows [pair][time], each run's pairs in turn
        traces.append(DecayTrace(family.kind, times,
                                 tuple(map(tuple, rows[start:start + len(pairs)]))))
        start += len(pairs)
    return traces


def decay_trace(source: Family, pairs) -> DecayTrace:
    """Distance table over t = 1 .. horizon for each state pair, from s = 0.

    The pairs live where the maps land (``source.side``); the distances are taken on the
    stored C^{0,t}, since omega_t (x) C_* is the predual of C E_{omega_t}, and a Z/z's on Q's
    maps Y and the Tr_1 images of the pairs ((embed Y)_* = Y_* Tr_1). It is
    :func:`decay_traces` of one family.
    """
    return decay_traces((source, pairs))[0]


def decay_traces(*runs) -> tuple[DecayTrace, ...]:
    """The :func:`decay_trace` of each (family, pairs) of ``runs``, families that store one
    array of maps (Q and a Z/z on Q's maps), in one pass over it (:func:`_decay_gaps`),
    normed a chunk at a time. Each distance has the bits of its family's run alone.
    Monotonicity is not asserted.
    """
    for family, pairs in runs:
        _check_pairs(family, pairs)
    source = runs[0][0]
    side = source.maps.in_dim
    gaps = np.empty((source.horizon, sum(len(pairs) for _, pairs in runs), side, side),
                    dtype=complex)
    _decay_gaps(runs, gaps)
    norms = _chunked_trace_norms(gaps.reshape(-1, side, side)).reshape(gaps.shape[:2])
    return tuple(_traces(runs, norms))


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


def _contraction_setup(q_family: Family, s: int, t: int, sample_count: int):
    """The method and the sample count :func:`contraction_coefficient` takes."""
    if (s, t) not in q_family.maps:
        raise ValueError(f"no map stored at ({s}, {t})")
    if q_family.kind != "Q":
        raise ValueError("contraction coefficients are measured on the Q family")
    # M_1 = C is diagonal too and has no orthonormal pure pair to sample
    exact = q_family.algebra_kind == "diagonal" or q_family.n == 1
    return ("exact-classical", 0) if exact else ("pure-pair-sampling", sample_count)


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


def contraction_coefficient(q_family: Family, s: int, t: int,
                            sample_count: int = 200,
                            rng: np.random.Generator | None = None) -> ContractionEstimate:
    """The largest half trace distance of Q^{s,t}_* over the basis pairs and sampled pure
    pairs (:func:`_contraction_gaps`), normed a chunk at a time."""
    method, sample_count = _contraction_setup(q_family, s, t, sample_count)
    n = q_family.n
    gaps = np.empty((n * (n - 1) // 2 + sample_count, n, n), dtype=complex)
    _contraction_gaps(q_family, s, t, rng if rng is not None else np.random.default_rng(0), gaps)
    lam = 0.5 * float(_chunked_trace_norms(gaps).max(initial=0.0))
    return ContractionEstimate(s, t, lam, method, sample_count)


@dataclass(frozen=True)
class ErgodicConfig:
    epsilon: float = 1e-3
    pair_count: int = 20
    rng_seed: int = 12345
    sample_count: int = 200
    explicit_single: tuple = ()   # (State, State) pairs on M, overrides sampling
    explicit_double: tuple = ()   # (State, State) pairs on M (x) M


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
    must store ``lattice``'s own maps as its cores; it takes P's trace and verdict. Q and a
    Z/z on Q's maps are traced in one :func:`_decay_gaps` pass. Every gap the stage norms,
    P's, Q's and Z/z's at every t and the contraction's (:func:`_contraction_gaps`), is
    written into one stack, normed a chunk at a time; each distance and the coefficient
    have the bits of :func:`decay_trace` and :func:`contraction_coefficient`. Explicit pairs
    are checked against their families' side; drawn ones have it.
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
    passes = {}   # maps array -> its kinds and runs: Q and Z/z take one pass
    for kind, src in {"P": lattice, **families}.items():
        if kind not in ("H", "h"):
            single = src.side == n
            pairs = pairs_single if single else pairs_double
            if config.explicit_single if single else config.explicit_double:
                _check_pairs(src, pairs)
            kinds, runs = passes.setdefault(id(src.maps), ([], []))
            kinds.append(kind)
            runs.append((src, pairs))
    q = families["Q"]
    method, sample_count = _contraction_setup(q, 0, 1, config.sample_count)
    # one block of the stack per pass, [t][pair], then the contraction's block
    shapes = [(runs[0][0].horizon, sum(len(pairs) for _, pairs in runs))
              for _, runs in passes.values()]
    bounds = np.cumsum([0, *(h * count for h, count in shapes),
                        n * (n - 1) // 2 + sample_count])
    blocks = [slice(start, stop) for start, stop in zip(bounds, bounds[1:])]
    gaps = np.empty((bounds[-1], n, n), dtype=complex)
    for (_, runs), shape, block in zip(passes.values(), shapes, blocks):
        _decay_gaps(runs, gaps[block].reshape(*shape, n, n))
    _contraction_gaps(q, 0, 1, rng, gaps[blocks[-1]])
    norms = _chunked_trace_norms(gaps)
    traces, verdicts = {}, {}
    for (kinds, runs), shape, block in zip(passes.values(), shapes, blocks):
        distances, start = norms[block].reshape(shape), 0
        for kind, trace, (_, pairs) in zip(kinds, _traces(runs, distances), runs):
            traces[kind] = trace
            verdicts[kind] = _verdict(kind, distances[:, start:start + len(pairs)],
                                      config.epsilon)
            start += len(pairs)
    for kind in {"H", "h"} & set(families):
        traces[kind] = replace(traces["P"], family_kind=kind)
        verdicts[kind] = replace(verdicts["P"], kind=kind)
    contraction = ContractionEstimate(0, 1, 0.5 * float(norms[blocks[-1]].max(initial=0.0)),
                                      method, sample_count)
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

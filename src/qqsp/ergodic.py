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

    @property
    def final_max(self) -> float:
        return max((row[-1] for row in self.distances), default=0.0)

    def step_ratios(self) -> list[float]:
        """Per-step distance ratios over all pairs (skipping vanished ones)."""
        out = []
        for row in self.distances:
            for a, b in zip(row, row[1:]):
                if a > 1e-14:
                    out.append(b / a)
        return out


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
    array of maps (Q and a Z/z on Q's maps), in one pass over it.

    The pairs' vectors of every run are stacked once; per chunk of t
    (:func:`qqsp.linalg.chunks`) one :func:`qqsp.linalg.predual_matrix` call and one
    broadcast matmul, a gemv per image, give the gaps, normed in one
    :func:`qqsp.linalg.trace_norms` call. Each distance has the bits of its family's run
    alone. Monotonicity is not asserted.
    """
    source = runs[0][0]
    vecs = []
    for family, pairs in runs:
        if family.maps is not source.maps:
            raise ValueError(f"{family.kind} does not store the maps of {source.kind}")
        for phi, psi in pairs:
            if phi.dim != family.side or psi.dim != family.side:
                raise ValueError(f"pair dimension {phi.dim} does not match the family "
                                 f"({family.side})")
        if pairs:
            # each state's transpose in C order is its column-stacked vector, and Tr_1
            # commutes with the transpose, so the vectors are formed in one copy of the pairs
            stack = np.array([x.rho.T for pair in pairs for x in pair])
            vecs.append(ptrace_first(stack, family.n, family.n) if family.stores_q else stack)
    times = tuple(range(1, source.horizon + 1))
    side, out_dim = source.maps.in_dim, source.maps.out_dim   # preduals land on M_side
    count = sum(len(pairs) for _, pairs in runs)
    gaps = np.empty((len(times), count, side, side), dtype=complex)
    if count:
        vecs = np.concatenate(vecs).reshape(2 * count, -1, 1)
        keys = [(0, t) for t in times]
        for part in chunks(len(times), 16 * side * side * max(out_dim * out_dim, len(vecs))):
            duals = predual_matrix(source.maps.rows(keys[part]), side, out_dim)
            images = np.matmul(duals[:, None], vecs)   # [t][pair, phi or psi], one gemv each
            images = images.reshape(-1, count, 2, side, side)   # the transposed images
            np.subtract(images[:, :, 0], images[:, :, 1], out=gaps[part].transpose(0, 1, 3, 2))
    rows = trace_norms(gaps.reshape(-1, side, side)).reshape(len(times), count).T.tolist()
    traces, start = [], 0
    for family, pairs in runs:   # rows [pair][time], each run's pairs in turn
        traces.append(DecayTrace(family.kind, times,
                                 tuple(map(tuple, rows[start:start + len(pairs)]))))
        start += len(pairs)
    return tuple(traces)


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


def contraction_coefficient(q_family: Family, s: int, t: int,
                            sample_count: int = 200,
                            rng: np.random.Generator | None = None) -> ContractionEstimate:
    """The largest half trace distance of Q^{s,t}_* over the basis pairs and sampled pure pairs.

    The sampled pairs are drawn and imaged a chunk at a time (:func:`qqsp.linalg.chunks`)
    under a running maximum; each chunk's ``rng.normal`` call continues the stream, so the
    bits and the generator's final state are those of one draw of every sample.
    """
    if (s, t) not in q_family.maps:
        raise ValueError(f"no map stored at ({s}, {t})")
    if q_family.kind != "Q":
        raise ValueError("contraction coefficients are measured on the Q family")
    n = q_family.n
    # M_1 = C is diagonal too and has no orthonormal pure pair to sample
    exact = q_family.algebra_kind == "diagonal" or n == 1
    sample_count = 0 if exact else sample_count
    dual = predual(q_family.map(s, t))
    images = dual(np.array([matrix_unit(n, i, i) for i in range(n)]))
    first, second = np.triu_indices(n, 1)
    lam = trace_norms(images[first] - images[second]).max(initial=0.0)
    if sample_count:
        rng = rng if rng is not None else np.random.default_rng(0)
        for part in chunks(sample_count, 2 * 16 * n * n):   # a sample's two projectors
            # in the per-sample order: the real, then the imaginary n x 2 block
            draws = rng.normal(size=(len(range(sample_count)[part]), 2, n, 2))
            g = draws[:, 0] + 1j * draws[:, 1]
            u, _ = np.linalg.qr(g)
            # projectors[k, c] = |u_c><u_c| of sample k
            projectors = (u[:, :, None, :] * u[:, None, :, :].conj()).transpose(0, 3, 1, 2)
            images = dual(projectors.reshape(-1, n, n))
            lam = np.maximum(lam, trace_norms(images[0::2] - images[1::2]).max())
    return ContractionEstimate(s, t, 0.5 * float(lam),
                               "exact-classical" if exact else "pure-pair-sampling",
                               sample_count)


@dataclass(frozen=True)
class ErgodicConfig:
    epsilon: float = 1e-3
    pair_count: int = 20
    rng_seed: int = 12345
    sample_count: int = 200
    explicit_single: tuple = ()   # (State, State) pairs on M, overrides sampling
    explicit_double: tuple = ()   # (State, State) pairs on M (x) M


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
    basis = np.zeros((2, dim, dim), dtype=complex)
    basis[0, 0, 0] = basis[1, -1, -1] = 1.0
    states = list(State.stack(basis))
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


def ergodic_verdict(lattice: Family, families: dict,
                    config: ErgodicConfig = ErgodicConfig()) -> ErgodicReport:
    """Finite-horizon ergodicity verdict for the lattice and its marginals.

    ``families`` maps kind to marginal Family ({Q, H, Z} or {Q, h, z}).
    All sources are driven over one seeded ensemble: pairs on M (x) M for
    the doubled families and the lattice itself, pairs on M for Q. H/h
    must store ``lattice``'s own maps as its cores; it takes P's trace. Q and a Z/z
    on Q's maps are traced in one :func:`decay_traces` pass.
    """
    if "Q" not in families:
        raise ValueError("a Q family is required")
    for kind in {"H", "h"} & set(families):
        if families[kind].maps is not lattice.maps:
            raise ValueError(f"{kind} does not store this lattice's maps P^{{s,t}} as its cores")
    rng = np.random.default_rng(config.rng_seed)
    diagonal = lattice.algebra_kind == "diagonal"
    pairs_single = (list(config.explicit_single) or
                    state_pair_ensemble(lattice.n, config.pair_count, rng, diagonal))
    pairs_double = (list(config.explicit_double) or
                    state_pair_ensemble(lattice.n * lattice.n, config.pair_count,
                                        rng, diagonal))
    sources = {"P": lattice, **families}
    traces, verdicts = {}, {}
    shared = {}   # the kinds whose families store one array: Q and Z/z take one pass
    for kind, src in sources.items():
        if kind not in ("H", "h"):
            shared.setdefault(id(src.maps), []).append(kind)
    for kinds in shared.values():
        runs = [(sources[kind], pairs_single if sources[kind].side == lattice.n
                 else pairs_double) for kind in kinds]
        # a family alone goes through decay_trace, the name perfbench's tracer times
        traces.update(zip(kinds, decay_traces(*runs) if len(runs) > 1
                          else [decay_trace(*runs[0])]))
    for kind in {"H", "h"} & set(families):
        traces[kind] = replace(traces["P"], family_kind=kind)
    traces = dict(sorted(traces.items()))
    for kind, tr in traces.items():
        ratios = tr.step_ratios()
        verdicts[kind] = FamilyVerdict(kind, tr.final_max,
                                       tr.final_max < config.epsilon,
                                       max(ratios) if ratios else 0.0)
    contraction = contraction_coefficient(families["Q"], 0, 1,
                                          sample_count=config.sample_count, rng=rng)
    flags = [v.ergodic for v in verdicts.values()]
    return ErgodicReport(
        traces=traces,
        contraction=contraction,
        verdicts=verdicts,
        all_agree=len(set(flags)) == 1,
        ergodic_at_horizon=all(flags),
        epsilon=config.epsilon,
        horizon=lattice.horizon,
    )

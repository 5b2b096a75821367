"""Ergodic principle diagnostics: decay traces, contraction, verdicts.

The ergodic principle asks that trace-norm distances between evolved
state pairs vanish as t grows. At desk scale the limit is replaced by a
finite-horizon verdict: every tracked family must push the whole pair
ensemble below epsilon by t = T.

The ergodic relations between the marginals follow from F = C E_{omega_t}:
H_*(rho) = omega_t (x) P_*(rho), Z_*(rho) = omega_t (x) Q_*(Tr_1 rho) and
Q_*(sigma) = P_*(omega_s (x) sigma). :func:`decay_trace` takes every distance
on the stored maps. H/h's cores are P's own maps, so :func:`ergodic_verdict`
hands H/h P's trace as it is; Z/z store Q's maps and decay as Q does on the
Tr_1 images of the pairs. Only {P, H/h} against {Q, Z/z} can still disagree,
and Q against Z/z only through the two pair ensembles they see.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .algebra import InvalidDensity, State, predual
from .linalg import chunks, matrix_unit, ptrace_first, trace_norms
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

    The pairs live on the algebra the maps land in (``source.side``). The
    distances are taken on the stored map C^{0,t}: omega_t (x) C_* is the
    predual of C E_{omega_t}, and omega_t drops out of the trace norm. A factored
    Z/z stores Q's maps Y, and (embed Y)_* = Y_* Tr_1, so its trace is Q's on the
    Tr_1 images of the pairs. The gaps of every t are normed in one
    :func:`qqsp.linalg.trace_norms` call.
    Monotonicity is not asserted; the full table is the point of the diagnostic.
    """
    for phi, psi in pairs:
        if phi.dim != source.side or psi.dim != source.side:
            raise ValueError(f"pair dimension {phi.dim} does not match the family "
                             f"({source.side})")
    times = tuple(range(1, source.horizon + 1))
    states = np.array([x.rho for pair in pairs for x in pair]).reshape(
        2 * len(pairs), source.side, source.side)
    if source.stores_q:
        states = ptrace_first(states, source.n, source.n)
    side = source.maps.in_dim   # where the stored maps' preduals land
    gaps = np.empty((len(times), len(pairs), side, side), dtype=complex)
    for t, gap in zip(times, gaps):
        images = predual(source.maps[(0, t)])(states)
        np.subtract(images[0::2], images[1::2], out=gap)
    norms = trace_norms(gaps.reshape(-1, side, side))
    rows = norms.reshape(len(times), len(pairs)).T.tolist()   # [pair][time]
    return DecayTrace(source.kind, times, tuple(map(tuple, rows)))


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
    gaps = [images[first] - images[second]]
    if sample_count:
        rng = rng if rng is not None else np.random.default_rng(0)
        # one draw in the per-sample order: the real, then the imaginary n x 2 block
        draws = rng.normal(size=(sample_count, 2, n, 2))
        g = draws[:, 0] + 1j * draws[:, 1]
        u, _ = np.linalg.qr(g)
        # projectors[k, c] = |u_c><u_c| of sample k
        projectors = (u[:, :, None, :] * u[:, None, :, :].conj()).transpose(0, 3, 1, 2)
        images = dual(projectors.reshape(-1, n, n))
        gaps.append(images[0::2] - images[1::2])
    norms = trace_norms(np.concatenate(gaps))
    return ContractionEstimate(s, t, 0.5 * float(norms.max(initial=0.0)),
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

    The 2 (count - 1) random states are drawn in one call: on a full algebra
    g g^dagger / tr with g from ``rng.normal(size=(k, 2, dim, dim))`` (real part,
    then imaginary part), on a diagonal one normalised weights from
    ``rng.random((k, dim)) + 1e-3``. That is the stream and the order of drawing
    the states one at a time. The states are formed and checked by :meth:`State.stack`
    one chunk of about ``CHUNK_BYTES`` at a time (:func:`qqsp.linalg.chunks`), so beside
    the draws and the states only one chunk's copies are live; per state the bits do
    not depend on the chunks. A failing state raises :class:`InvalidDensity` with its
    index in the whole ensemble.
    """
    k = 2 * max(count - 1, 0)
    basis = np.zeros((2, dim, dim), dtype=complex)
    basis[0, 0, 0] = basis[1, -1, -1] = 1.0
    draws = rng.random((k, dim)) + 1e-3 if diagonal else rng.normal(size=(k, 2, dim, dim))
    states = list(State.stack(basis))
    for part in chunks(k, 16 * dim * dim):
        if diagonal:
            w = draws[part]
            rhos = (w / w.sum(axis=1, keepdims=True))[:, :, None] * np.eye(dim)
        else:
            g = draws[part, 0] + 1j * draws[part, 1]
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
    must store ``lattice``'s own maps as its cores; it takes P's trace.
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
    for kind in sorted(sources, key=lambda k: k in ("H", "h")):   # P before H/h
        src = sources[kind]
        traces[kind] = (replace(traces["P"], family_kind=kind) if kind in ("H", "h") else
                        decay_trace(src, pairs_single if src.side == lattice.n
                                    else pairs_double))
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

"""Ergodic principle diagnostics: decay traces, contraction, verdicts.

The ergodic principle asks that trace-norm distances between evolved
state pairs vanish as t grows. At desk scale the limit is replaced by a
finite-horizon verdict: every tracked family must push the whole pair
ensemble below epsilon by t = T.

The ergodic relations between the marginals follow from F = C E_{omega_t}:
H_*(rho) = omega_t (x) P_*(rho), Z_*(rho) = omega_t (x) Q_*(Tr_1 rho) and
Q_*(sigma) = P_*(omega_s (x) sigma). :func:`decay_trace` applies them by
taking every distance on the stored core, so H/h decays exactly as P does
on the same pairs and Z/z as Q does on the Tr_1 images of those pairs.
Only {P, H/h} against {Q, Z/z} can still disagree, and Q against Z/z only
through the two different pair ensembles they see.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import State, predual
from .linalg import trace_norm
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
    distances are taken on the stored core C^{0,t}: omega_t (x) C_* is the
    predual of C E_{omega_t}, and omega_t drops out of the trace norm.
    Monotonicity is not asserted; the full table is the point of the diagnostic.
    """
    for phi, psi in pairs:
        if phi.dim != source.side or psi.dim != source.side:
            raise ValueError(f"pair dimension {phi.dim} does not match the family "
                             f"({source.side})")
    times = tuple(range(1, source.horizon + 1))
    preduals = {t: predual(source.core(0, t)) for t in times}
    rows = []
    for phi, psi in pairs:
        rows.append(tuple(trace_norm(preduals[t](phi.rho) - preduals[t](psi.rho))
                          for t in times))
    return DecayTrace(source.kind, times, tuple(rows))


@dataclass(frozen=True)
class ContractionEstimate:
    """Trace-norm contraction coefficient of Q^{s,t} on the predual.

    Exact for diagonal algebras and for M_1 (Dobrushin coefficient of the
    induced stochastic matrix, attained on vertex pairs). On full matrix algebras
    the supremum is sampled over orthonormal pure pairs and reported as a
    lower bound; basis-aligned pairs are always included.
    """

    s: int
    t: int
    lam: float
    method: str
    sample_count: int


def _dobrushin(q_family: Family, s: int, t: int) -> float:
    n = q_family.n
    dual = predual(q_family.map(s, t))
    rows = np.zeros((n, n))
    for i in range(n):
        e = np.zeros((n, n), dtype=complex)
        e[i, i] = 1.0
        rows[i] = np.real(np.diag(dual(e)))
    lam = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            lam = max(lam, 0.5 * float(np.abs(rows[i] - rows[j]).sum()))
    return lam


def contraction_coefficient(q_family: Family, s: int, t: int,
                            sample_count: int = 200,
                            rng: np.random.Generator | None = None) -> ContractionEstimate:
    if (s, t) not in q_family.maps:
        raise ValueError(f"no map stored at ({s}, {t})")
    if q_family.kind != "Q":
        raise ValueError("contraction coefficients are measured on the Q family")
    # M_1 = C is diagonal too and has no orthonormal pure pair to sample
    if q_family.algebra_kind == "diagonal" or q_family.n == 1:
        return ContractionEstimate(s, t, _dobrushin(q_family, s, t),
                                   "exact-classical", 0)
    rng = rng if rng is not None else np.random.default_rng(0)
    n = q_family.n
    dual = predual(q_family.map(s, t))
    lam = 0.0
    # deterministic floor: all computational-basis pairs
    basis_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for i, j in basis_pairs:
        ei, ej = np.zeros((n, n), dtype=complex), np.zeros((n, n), dtype=complex)
        ei[i, i] = 1.0
        ej[j, j] = 1.0
        lam = max(lam, 0.5 * trace_norm(dual(ei) - dual(ej)))
    for _ in range(sample_count):
        g = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
        u, _ = np.linalg.qr(g)
        p1 = np.outer(u[:, 0], u[:, 0].conj())
        p2 = np.outer(u[:, 1], u[:, 1].conj())
        lam = max(lam, 0.5 * trace_norm(dual(p1) - dual(p2)))
    return ContractionEstimate(s, t, lam, "pure-pair-sampling", sample_count)


@dataclass(frozen=True)
class ErgodicConfig:
    epsilon: float = 1e-3
    pair_count: int = 20
    rng_seed: int = 12345
    sample_count: int = 200
    explicit_single: tuple = ()   # (State, State) pairs on M, overrides sampling
    explicit_double: tuple = ()   # (State, State) pairs on M (x) M


def random_state(rng: np.random.Generator, dim: int, diagonal: bool = False) -> State:
    if diagonal:
        w = rng.random(dim) + 1e-3
        return State.from_weights(w / w.sum())
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return State(rho / np.trace(rho))


def state_pair_ensemble(dim: int, count: int, rng: np.random.Generator,
                        diagonal: bool = False) -> list[tuple[State, State]]:
    """count pairs; the first is the extremal basis pair (e_0 vs e_last)."""
    pairs = []
    w0, w1 = np.zeros(dim), np.zeros(dim)
    w0[0] = 1.0
    w1[-1] = 1.0
    pairs.append((State.from_weights(w0), State.from_weights(w1)))
    while len(pairs) < count:
        pairs.append((random_state(rng, dim, diagonal),
                      random_state(rng, dim, diagonal)))
    return pairs


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
    the doubled families and the lattice itself, pairs on M for Q.
    """
    if "Q" not in families:
        raise ValueError("a Q family is required")
    rng = np.random.default_rng(config.rng_seed)
    diagonal = lattice.algebra_kind == "diagonal"
    pairs_single = (list(config.explicit_single) or
                    state_pair_ensemble(lattice.n, config.pair_count, rng, diagonal))
    pairs_double = (list(config.explicit_double) or
                    state_pair_ensemble(lattice.n * lattice.n, config.pair_count,
                                        rng, diagonal))
    T = lattice.horizon
    sources = {"P": lattice, **families}
    traces, verdicts = {}, {}
    for kind in sorted(sources):
        src = sources[kind]
        pairs = pairs_single if src.side == lattice.n else pairs_double
        tr = decay_trace(src, pairs)
        ratios = tr.step_ratios()
        traces[kind] = tr
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
        horizon=T,
    )

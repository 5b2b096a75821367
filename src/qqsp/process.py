"""Process lattices: seeds, type A/B propagation, consistency diagnostics.

A seed supplies the unit-step maps P^{k,k+1} and an initial state. The
lattice is filled on the integer time grid with the constructing split
fixed at tau = t-1; consistency at every other split is measured, never
assumed. The state trajectory obeys omega_t(x) = (omega_0 (x) omega_0)(P^{0,t} x).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    ChoiReport,
    State,
    SuperMap,
    certify_unital_cp,
    expectation_supermap,
    flip_symmetry_residual,
    predual,
    supermap_tensor,
)
from .linalg import operator_norm

DEFAULT_FLIP_TOL = 1e-10


class ValidationFailure(ValueError):
    """A strict-mode mathematical check failed."""


@dataclass(frozen=True)
class QQSPSeed:
    """Unit-step maps plus an initial state, tagged type A or B."""

    step_maps: tuple[SuperMap, ...]
    omega0: State
    process_type: str
    homogeneous: bool = False
    algebra_kind: str = "full"

    def __post_init__(self):
        if self.process_type not in ("A", "B"):
            raise ValueError(f"process type must be 'A' or 'B', got {self.process_type!r}")
        n = self.omega0.dim
        object.__setattr__(self, "step_maps", tuple(self.step_maps))
        if not self.step_maps:
            raise ValueError("seed needs at least one unit-step map")
        for k, m in enumerate(self.step_maps):
            if m.in_dim != n or m.out_dim != n * n:
                raise ValueError(
                    f"step map {k} has dims ({m.in_dim}, {m.out_dim}), expected ({n}, {n * n})")

    @property
    def n(self) -> int:
        return self.omega0.dim

    @property
    def horizon(self) -> int:
        return len(self.step_maps)

    @classmethod
    def from_single_map(cls, step_map: SuperMap, omega0: State, horizon: int,
                        process_type: str, algebra_kind: str = "full") -> "QQSPSeed":
        return cls((step_map,) * horizon, omega0, process_type,
                   homogeneous=True, algebra_kind=algebra_kind)


@dataclass(frozen=True)
class StepDiagnostic:
    step: int
    choi: ChoiReport
    flip_residual: float


@dataclass(frozen=True)
class SeedIssue:
    step: int
    kind: str
    residual: float


def seed_diagnostics(seed: QQSPSeed, cp_tolerance: float = 1e-9,
                     unital_tolerance: float = 1e-10) -> list[StepDiagnostic]:
    """ChoiReport plus flip-symmetry residual for every unit-step map."""
    out = []
    for k, m in enumerate(seed.step_maps):
        out.append(StepDiagnostic(k, certify_unital_cp(m, cp_tolerance, unital_tolerance),
                                  flip_symmetry_residual(m)))
    return out


def validate_seed(seed: QQSPSeed, tol: float = DEFAULT_FLIP_TOL) -> list[SeedIssue]:
    """Return one issue per violated seed invariant; empty means valid."""
    issues = []
    for d in seed_diagnostics(seed, cp_tolerance=max(tol, 1e-9), unital_tolerance=tol):
        if not d.choi.is_cp:
            issues.append(SeedIssue(d.step, "cp", -d.choi.min_choi_eigenvalue))
        if not d.choi.is_unital:
            issues.append(SeedIssue(d.step, "unitality", d.choi.unitality_residual))
        if d.flip_residual > tol:
            issues.append(SeedIssue(d.step, "flip", d.flip_residual))
    return issues


@dataclass(frozen=True)
class ProcessLattice:
    """The filled family {P^{s,t}} with its state trajectory."""

    maps: dict
    omegas: tuple[State, ...]
    process_type: str
    algebra_kind: str = "full"

    @property
    def n(self) -> int:
        return self.omegas[0].dim

    @property
    def horizon(self) -> int:
        return len(self.omegas) - 1

    def map(self, s: int, t: int) -> SuperMap:
        return self.maps[(s, t)]

    def omega(self, t: int) -> State:
        return self.omegas[t]

    def pairs(self):
        return sorted(self.maps.keys())


def _omega_from(map0t: SuperMap, omega0: State) -> State:
    rho = predual(map0t)(np.kron(omega0.rho, omega0.rho))
    return State(rho)


def fundamental_composition(p_s_tau: SuperMap, p_tau_t: SuperMap, omega_s: State,
                            omega_tau: State, process_type: str) -> SuperMap:
    """Right-hand side of the fundamental equation at the split s < tau < t.

    Type A: P^{s,tau} E_{omega_tau} P^{tau,t}. Type B:
    (Q (x) Q) P^{tau,t} with Q = E_{omega_s} P^{s,tau}.
    """
    if process_type == "A":
        return p_s_tau @ expectation_supermap(omega_tau) @ p_tau_t
    q = expectation_supermap(omega_s) @ p_s_tau
    return supermap_tensor(q, q) @ p_tau_t


def triples(horizon: int):
    """Every admissible split s < tau < t <= horizon, in a fixed order."""
    for s in range(horizon - 1):
        for t in range(s + 2, horizon + 1):
            for tau in range(s + 1, t):
                yield s, tau, t


def propagate(seed: QQSPSeed, strict: bool = True) -> ProcessLattice:
    """Fill the lattice by the type-appropriate recursion at tau = t-1."""
    if strict:
        issues = validate_seed(seed)
        if issues:
            worst = max(issues, key=lambda i: i.residual)
            raise ValidationFailure(
                f"seed fails validation: step {worst.step} {worst.kind} "
                f"residual {worst.residual:.3e} ({len(issues)} issue(s))")
    n, T = seed.n, seed.horizon
    maps: dict = {}
    omegas = [seed.omega0]
    for k in range(T):
        maps[(k, k + 1)] = seed.step_maps[k]
    omegas.append(_omega_from(maps[(0, 1)], seed.omega0))
    for t in range(2, T + 1):
        for s in range(t - 2, -1, -1):
            maps[(s, t)] = fundamental_composition(maps[(s, t - 1)], maps[(t - 1, t)],
                                                   omegas[s], omegas[t - 1],
                                                   seed.process_type)
        omegas.append(_omega_from(maps[(0, t)], seed.omega0))
    return ProcessLattice(maps=maps, omegas=tuple(omegas),
                          process_type=seed.process_type,
                          algebra_kind=seed.algebra_kind)


def propagate_type_A(seed: QQSPSeed, strict: bool = True) -> ProcessLattice:
    if seed.process_type != "A":
        raise ValueError("seed is not of type A")
    return propagate(seed, strict=strict)


def propagate_type_B(seed: QQSPSeed, strict: bool = True) -> ProcessLattice:
    if seed.process_type != "B":
        raise ValueError("seed is not of type B")
    return propagate(seed, strict=strict)


@dataclass(frozen=True)
class ResidualTable:
    """Operator-norm residuals indexed by time tuples."""

    entries: dict
    label: str = ""

    @property
    def max_residual(self) -> float:
        if not self.entries:
            return 0.0
        return max(self.entries.values())

    def worst(self):
        if not self.entries:
            return None
        return max(self.entries.items(), key=lambda kv: kv[1])

    def ok(self, tol: float) -> bool:
        return self.max_residual <= tol

    def sorted_items(self):
        return sorted(self.entries.items())


def kc_consistency(lattice: ProcessLattice) -> ResidualTable:
    """Residual of the fundamental equation at every admissible split.

    For each s < tau < t the gap between P^{s,t} and
    :func:`fundamental_composition` is evaluated in operator norm. The
    maximum is the lattice's consistency score; a nonzero score is a
    diagnostic, not an error.
    """
    entries = {}
    for s, tau, t in triples(lattice.horizon):
        comp = fundamental_composition(lattice.map(s, tau), lattice.map(tau, t),
                                       lattice.omega(s), lattice.omega(tau),
                                       lattice.process_type)
        entries[(s, tau, t)] = operator_norm(lattice.map(s, t).matrix - comp.matrix)
    return ResidualTable(entries, label=f"kc-type-{lattice.process_type}")


def interact_states(lattice: ProcessLattice, phi: State, psi: State,
                    s: int, t: int) -> State:
    """Law of interaction: the state with density predual(P^{s,t})(rho_phi (x) rho_psi).

    Symmetric in (phi, psi) because the lattice maps are flip symmetric.
    """
    if not (0 <= s < t <= lattice.horizon and t - s >= 1):
        raise ValueError(f"times ({s}, {t}) outside the lattice")
    rho = predual(lattice.map(s, t))(np.kron(phi.rho, psi.rho))
    return State(rho)

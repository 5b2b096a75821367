"""Process lattices: seeds, type A/B propagation, consistency diagnostics.

A seed supplies the unit-step maps P^{k,k+1} and an initial state. The
lattice is filled on the integer time grid with the constructing split
fixed at tau = t-1; consistency at every other split is measured, never
assumed. The state trajectory obeys omega_t(x) = (omega_0 (x) omega_0)(P^{0,t} x).
The lattice and its marginals share one type, :class:`Family`, which
carries the trajectory's conditional expectations E_{omega_t}.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    ChoiReport,
    State,
    SuperMap,
    certify_unital_cp,
    doubled_after,
    expectation_supermap,
    flip_symmetry_residual,
    predual,
)
# operator_norm is not called here since the sweeps take stacked norms; perfbench's
# tracer test still looks the name up in this module
from .linalg import operator_norm  # noqa: F401
from .linalg import operator_norms

DEFAULT_FLIP_TOL = 1e-10


class ValidationFailure(ValueError):
    """A strict-mode mathematical check failed."""


@dataclass(frozen=True)
class QQSPSeed:
    """Unit-step maps plus an initial state, tagged type A or B."""

    step_maps: tuple[SuperMap, ...]
    omega0: State
    process_type: str
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
        return cls((step_map,) * horizon, omega0, process_type, algebra_kind)


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


def seed_issues(diagnostics: list[StepDiagnostic], flip_tol: float) -> list[SeedIssue]:
    """One issue per violated invariant of already certified unit-step maps."""
    issues = []
    for d in diagnostics:
        if not d.choi.is_cp:
            issues.append(SeedIssue(d.step, "cp", -d.choi.min_choi_eigenvalue))
        if not d.choi.is_unital:
            issues.append(SeedIssue(d.step, "unitality", d.choi.unitality_residual))
        if d.flip_residual > flip_tol:
            issues.append(SeedIssue(d.step, "flip", d.flip_residual))
    return issues


def validate_seed(seed: QQSPSeed, tol: float = DEFAULT_FLIP_TOL) -> list[SeedIssue]:
    """Return one issue per violated seed invariant; empty means valid."""
    return seed_issues(seed_diagnostics(seed, cp_tolerance=max(tol, 1e-9),
                                        unital_tolerance=tol), tol)


FAMILY_KINDS = ("P", "Q", "H", "h", "Z", "z")


@dataclass(frozen=True)
class Family:
    """A two-time family of maps {F^{s,t}} over one state trajectory.

    Kind P is the process itself (M -> M (x) M, tagged type A or B); Q is
    its marginal Markov process on M; H/h and Z/z are the doubled
    marginals on M (x) M (see :mod:`qqsp.marginal`). ``expectations``
    holds E_{omega_t} for every t of ``omegas``; it is built here unless
    the caller already has it.

    A ``factored`` family stores in ``maps`` the core C^{s,t} (M -> M (x) M)
    of F^{s,t} = C^{s,t} E_{omega_t} and never forms the n^4 x n^4 product;
    it is read through :meth:`core`. Residual sweeps work on the cores:
    E E^dagger = ||rho||_F^2 1 gives ||X E_{omega_t}|| = ||rho_t||_F ||X||
    (:meth:`trailing_norm`). Any other family has the trivial trailing
    factor, so the same sweeps read its maps as they are.
    """

    kind: str
    n: int
    maps: dict
    omegas: tuple[State, ...] | None = None
    process_type: str | None = None
    algebra_kind: str = "full"
    companion_q: "Family | None" = None
    expectations: tuple[SuperMap, ...] | None = field(default=None, repr=False,
                                                      compare=False)
    factored: bool = False

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise ValueError(f"unknown family kind {self.kind!r}")
        if self.kind == "P" and self.process_type not in ("A", "B"):
            raise ValueError(f"a process needs type 'A' or 'B', got {self.process_type!r}")
        if self.factored and (self.kind in ("P", "Q") or self.omegas is None):
            raise ValueError(f"a factored family is a doubled marginal with a trajectory, "
                             f"got kind {self.kind!r}")
        in_dim = self.n if self.kind in ("P", "Q") or self.factored else self.n * self.n
        for key, m in self.maps.items():
            if m.in_dim != in_dim or m.out_dim != self.side:
                raise ValueError(f"map {key} has dims ({m.in_dim}, {m.out_dim}), "
                                 f"expected ({in_dim}, {self.side})")
        if self.expectations is None and self.omegas is not None:
            object.__setattr__(self, "expectations",
                               tuple(expectation_supermap(w) for w in self.omegas))

    @property
    def side(self) -> int:
        """Side of the algebra the maps land in, where their preduals' states live."""
        return self.n if self.kind == "Q" else self.n * self.n

    @property
    def horizon(self) -> int:
        return max(t for (_, t) in self.maps)

    def core(self, s: int, t: int) -> SuperMap:
        """C^{s,t}: the stored map, F^{s,t} itself unless the family is factored."""
        return self.maps[(s, t)]

    def map(self, s: int, t: int) -> SuperMap:
        """F^{s,t} of a family stored as it is; a factored family has only its core."""
        if self.factored:
            raise ValueError(f"factored {self.kind} stores only C^{{s,t}}; use core(s, t)")
        return self.maps[(s, t)]

    def times_trailing(self, m: SuperMap, t: int) -> SuperMap:
        """m followed by the trailing factor of F^{., t}: m E_{omega_t}, or m."""
        return m @ self.expectations[t] if self.factored else m

    def trailing_times(self, t: int, m: SuperMap) -> SuperMap:
        """The trailing factor of F^{., t} after m: E_{omega_t} m, or m."""
        return self.expectations[t] @ m if self.factored else m

    def trailing_norm(self, t: int) -> float:
        """||X T_t|| / ||X|| for the trailing factor T_t: ||rho_t||_F, or 1."""
        return float(np.linalg.norm(self.omegas[t].rho)) if self.factored else 1.0

    def omega(self, t: int) -> State:
        return self.omegas[t]

    def pairs(self):
        return sorted(self.maps.keys())


def computed_state(rho, quantity: str, t: int) -> State:
    """A state the pipeline computed; failing State's checks is a ValidationFailure."""
    try:
        return State(rho)
    except ValueError as exc:
        raise ValidationFailure(f"computed state {quantity} at t={t} is not a state: "
                                f"{exc}") from exc


def fundamental_composition(p_s_tau: SuperMap, p_tau_t: SuperMap, e_s: SuperMap,
                            e_tau: SuperMap, process_type: str) -> SuperMap:
    """Right-hand side of the fundamental equation at the split s < tau < t.

    ``e_s`` and ``e_tau`` are E_{omega_s} and E_{omega_tau}. Type A:
    P^{s,tau} E_{omega_tau} P^{tau,t}, associated right to left so that no
    n^4 x n^4 product is formed (n^8 MACs, not n^10). Type B:
    (Q (x) Q) P^{tau,t} with Q = E_{omega_s} P^{s,tau}, by mode products
    (:func:`qqsp.algebra.doubled_after`).
    """
    if process_type == "A":
        return p_s_tau @ (e_tau @ p_tau_t)
    return doubled_after(e_s @ p_s_tau, p_tau_t)


def triples(horizon: int):
    """Every admissible split s < tau < t <= horizon, grouped by the pair (s, tau)."""
    for s in range(horizon - 1):
        for tau in range(s + 1, horizon):
            for t in range(tau + 1, horizon + 1):
                yield s, tau, t


def propagate(seed: QQSPSeed, strict: bool = True) -> Family:
    """Fill the lattice by the type-appropriate recursion at tau = t-1."""
    if strict:
        issues = validate_seed(seed)
        if issues:
            worst = max(issues, key=lambda i: i.residual)
            raise ValidationFailure(
                f"seed fails validation: step {worst.step} {worst.kind} "
                f"residual {worst.residual:.3e} ({len(issues)} issue(s))")
    maps = {(k, k + 1): m for k, m in enumerate(seed.step_maps)}
    omegas = [seed.omega0]
    rho00 = np.kron(seed.omega0.rho, seed.omega0.rho)
    expectations = [expectation_supermap(seed.omega0)]
    for t in range(1, seed.horizon + 1):
        for s in range(t - 2, -1, -1):
            maps[(s, t)] = fundamental_composition(maps[(s, t - 1)], maps[(t - 1, t)],
                                                   expectations[s], expectations[t - 1],
                                                   seed.process_type)
        omegas.append(computed_state(predual(maps[(0, t)])(rho00), "omega_t", t))
        expectations.append(expectation_supermap(omegas[t]))
    return Family("P", seed.n, maps, tuple(omegas), seed.process_type, seed.algebra_kind,
                  expectations=tuple(expectations))


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


def _grouped(keys):
    """``keys`` in order, in runs that agree on everything but the last time."""
    groups = {}
    for key in keys:
        groups.setdefault(key[:-1], []).append(key)
    return groups.values()


def _gap_norms(sides, count: int) -> np.ndarray:
    """Operator norms of lhs - rhs over ``count`` (lhs, rhs) pairs of one shape.

    Each gap is written straight into one preallocated stack, so a group
    is held once, not once as gaps and again as their stack.
    """
    stack = None
    for i, (lhs, rhs) in enumerate(sides):
        if stack is None:
            stack = np.empty((count, *lhs.shape), dtype=complex)
        np.subtract(lhs, rhs, out=stack[i])
    return operator_norms(stack)


def split_residuals(family: Family, compose, label: str) -> ResidualTable:
    """||F^{s,t} - compose(s, tau, t) T_t|| at every split whose two factors are stored.

    ``compose`` gives the core of the split product; T_t is the family's
    trailing factor, so the norm is taken on the cores (:class:`Family`).
    The gaps of one pair (s, tau) are normed in one stacked call.
    """
    keys = [(s, tau, t) for s, tau, t in triples(family.horizon)
            if (s, tau) in family.maps and (tau, t) in family.maps]
    entries = {}
    for group in _grouped(keys):
        norms = _gap_norms(((family.core(s, t).matrix, compose(s, tau, t).matrix)
                            for s, tau, t in group), len(group))
        for (s, tau, t), norm in zip(group, norms):
            entries[(s, tau, t)] = family.trailing_norm(t) * float(norm)
    return ResidualTable(entries, label)


def pair_residuals(family: Family, lhs, rhs, label: str,
                   trailing: Family | None = None) -> ResidualTable:
    """||(lhs(s, t) - rhs(s, t)) T_t|| at every stored pair (s, t) of ``family``.

    T_t is the trailing factor of ``trailing`` (none by default), applied
    through :meth:`Family.trailing_norm`. The gaps of one row s are normed
    in one stacked call.
    """
    entries = {}
    for group in _grouped(family.pairs()):
        norms = _gap_norms(((lhs(s, t).matrix, rhs(s, t).matrix) for s, t in group),
                           len(group))
        for (s, t), norm in zip(group, norms):
            entries[(s, t)] = (float(norm) if trailing is None
                               else trailing.trailing_norm(t) * float(norm))
    return ResidualTable(entries, label)


def kc_consistency(lattice: Family) -> ResidualTable:
    """Residual of the fundamental equation at every admissible split.

    For each s < tau < t the gap between P^{s,t} and
    :func:`fundamental_composition` is evaluated in operator norm. The
    maximum is the lattice's consistency score; a nonzero score is a
    diagnostic, not an error.
    """
    es = lattice.expectations
    return split_residuals(
        lattice,
        lambda s, tau, t: fundamental_composition(lattice.map(s, tau), lattice.map(tau, t),
                                                  es[s], es[tau], lattice.process_type),
        f"kc-type-{lattice.process_type}")


def interact_states(lattice: Family, phi: State, psi: State,
                    s: int, t: int) -> State:
    """Law of interaction: the state with density predual(P^{s,t})(rho_phi (x) rho_psi).

    Symmetric in (phi, psi) because the lattice maps are flip symmetric.
    """
    if not (0 <= s < t <= lattice.horizon and t - s >= 1):
        raise ValueError(f"times ({s}, {t}) outside the lattice")
    rho = predual(lattice.map(s, t))(np.kron(phi.rho, psi.rho))
    return State(rho)

"""Marginal processes of a lattice and reconstruction from a marginal pair.

From a lattice {P^{s,t}} with trajectory {omega_t} we form

    Q^{s,t} = E_{omega_s} P^{s,t}          on M      (both types)
    H^{s,t} = P^{s,t} E_{omega_t}          on M (x) M (type A; written h for type B)
    Z^{s,t} = embed(E_{omega_s} H^{s,t})   on M (x) M (z for type B)

where embed(x) = 1 (x) x is the slot the conditional expectation leaves
untouched. Q, H and Z are Markov; h is not, but satisfies the doubled
composition law h^{s,t} = (Q^{s,tau} (x) Q^{s,tau}) h^{tau,t}.

A pair (Q, H) with the right exchange axioms determines the lattice:
P^{s,t} x = H^{s,t}(embed(x)). Conventions that place x in the averaged
slot state the same identities with the tensor factors exchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    State,
    SuperMap,
    embed_averaged_supermap,
    embed_supermap,
    expectation_supermap,
    flip_supermap,
    predual,
    supermap_tensor,
    trace_norm_distance,
)
from .linalg import operator_norm
from .process import Family, ResidualTable, ValidationFailure, split_residuals


def _derived(source: Family, kind: str, maps: dict,
             companion_q: Family | None = None) -> Family:
    """A marginal family on the trajectory of ``source``, sharing its E_{omega_t}."""
    return Family(kind, source.n, maps, source.omegas, algebra_kind=source.algebra_kind,
                  companion_q=companion_q, expectations=source.expectations)


def build_Q(lattice: Family) -> Family:
    """Q^{s,t} = E_{omega_s} P^{s,t}, the marginal Markov process on M."""
    es = lattice.expectations
    return _derived(lattice, "Q", {(s, t): es[s] @ lattice.map(s, t)
                                   for (s, t) in lattice.pairs()})


def _build_doubled(lattice: Family, kind: str) -> Family:
    es = lattice.expectations
    maps = {(s, t): lattice.map(s, t) @ es[t] for (s, t) in lattice.pairs()}
    companion = build_Q(lattice) if kind == "h" else None
    return _derived(lattice, kind, maps, companion)


def build_H(lattice: Family) -> Family:
    """H^{s,t} = P^{s,t} E_{omega_t} for a type-A lattice."""
    if lattice.process_type != "A":
        raise ValueError("H is the type-A marginal; got a type-B lattice")
    return _build_doubled(lattice, "H")


def build_h(lattice: Family) -> Family:
    """h^{s,t} = P^{s,t} E_{omega_t} for a type-B lattice (not Markov)."""
    if lattice.process_type != "B":
        raise ValueError("h is the type-B marginal; got a type-A lattice")
    return _build_doubled(lattice, "h")


def _derive_embedded(family: Family, kind: str) -> Family:
    if family.expectations is None:
        raise ValueError("need the omega trajectory to build the derived family")
    emb = embed_supermap(family.n)
    es = family.expectations
    maps = {(s, t): emb @ es[s] @ family.map(s, t) for (s, t) in family.pairs()}
    return _derived(family, kind, maps, family.companion_q)


def build_Z(h_family: Family) -> Family:
    """Z^{s,t} = embed(E_{omega_s} H^{s,t}(.)), a Markov process on M (x) M."""
    if h_family.kind != "H":
        raise ValueError(f"Z derives from an H family, got kind {h_family.kind!r}")
    return _derive_embedded(h_family, "Z")


def build_z(h_family: Family) -> Family:
    """z^{s,t} = embed(E_{omega_s} h^{s,t}(.)); Markov despite h not being so."""
    if h_family.kind != "h":
        raise ValueError(f"z derives from an h family, got kind {h_family.kind!r}")
    return _derive_embedded(h_family, "z")


def check_markov(family: Family, law: str = "native") -> ResidualTable:
    """Residuals of the composition law over every admissible triple.

    Kinds Q, H, Z, z use the plain Markov law; kind h natively uses the
    doubled law with its companion Q family. Pass ``law='plain'`` to force
    the plain law (the type-B contrast makes it fail on purpose).
    """
    if law not in ("native", "plain"):
        raise ValueError(f"unknown law {law!r}")
    doubled = family.kind == "h" and law == "native"
    if doubled and family.companion_q is None:
        raise ValueError("h family needs its companion Q to check the doubled law")
    if doubled:
        def compose(s, tau, t):
            q = family.companion_q.map(s, tau)
            return supermap_tensor(q, q) @ family.map(tau, t)
    else:
        def compose(s, tau, t):
            return family.map(s, tau) @ family.map(tau, t)
    label = "doubled-composition" if doubled else "markov"
    return split_residuals(family, compose, f"{label}-{family.kind}")


def _phi_trajectory(q_family: Family, omega0: State) -> list[State]:
    """phi_t = omega_0 after Q^{0,t} on the predual side."""
    out = [omega0]
    for t in range(1, q_family.horizon + 1):
        out.append(State(predual(q_family.map(0, t))(omega0.rho)))
    return out


def _psi_trajectory(h_family: Family, omega0: State) -> list[State]:
    """psi_t = (omega_0 (x) omega_0) after H^{0,t} on the embedded slot."""
    emb = embed_supermap(h_family.n)
    rho00 = np.kron(omega0.rho, omega0.rho)
    out = [omega0]
    for t in range(1, h_family.horizon + 1):
        out.append(State(predual(h_family.map(0, t) @ emb)(rho00)))
    return out


@dataclass(frozen=True)
class AxiomReport:
    """Residuals of the marginal-pair axioms over the whole lattice.

    flip: U H = H; exchange: E_{psi_s} H = Q E_{phi_t}; absorption:
    H = H(embed(E_{psi_t} .)); trajectory_gap: max_t ||phi_t - psi_t||_1.
    """

    flip: ResidualTable
    exchange: ResidualTable
    absorption: ResidualTable
    trajectory_gap: float

    @property
    def max_residual(self) -> float:
        return max(self.flip.max_residual, self.exchange.max_residual,
                   self.absorption.max_residual, self.trajectory_gap)

    def ok(self, tol: float) -> bool:
        return self.max_residual <= tol


def verify_marginal_axioms(q_family: Family, h_family: Family,
                           omega0: State) -> AxiomReport:
    """Check the exchange axioms an abstract pair (Q, H or h) must satisfy."""
    if q_family.n != h_family.n:
        raise ValueError("families live on different algebras")
    if set(q_family.maps) != set(h_family.maps):
        raise ValueError("families cover different (s, t) lattices")
    n = q_family.n
    flip_m = flip_supermap(n)
    emb = embed_supermap(n)
    phis = _phi_trajectory(q_family, omega0)
    psis = _psi_trajectory(h_family, omega0)
    e_phi = [expectation_supermap(phi) for phi in phis]
    e_psi = [expectation_supermap(psi) for psi in psis]
    flip_res, exch_res, absorb_res = {}, {}, {}
    for (s, t) in h_family.pairs():
        hm = h_family.map(s, t)
        qm = q_family.map(s, t)
        flip_res[(s, t)] = operator_norm(flip_m.matrix @ hm.matrix - hm.matrix)
        lhs = e_psi[s] @ hm
        rhs = qm @ e_phi[t]
        exch_res[(s, t)] = operator_norm(lhs.matrix - rhs.matrix)
        absorbed = hm @ emb @ e_psi[t]
        absorb_res[(s, t)] = operator_norm(hm.matrix - absorbed.matrix)
    gap = max(trace_norm_distance(phis[t], psis[t]) for t in range(len(phis)))
    return AxiomReport(
        flip=ResidualTable(flip_res, "axiom-flip"),
        exchange=ResidualTable(exch_res, "axiom-exchange"),
        absorption=ResidualTable(absorb_res, "axiom-absorption"),
        trajectory_gap=gap,
    )


def reconstruct_qqsp(q_family: Family, h_family: Family,
                     omega0: State, target_type: str,
                     strict: bool = True, tol: float = 1e-8) -> Family:
    """Rebuild the lattice from a marginal pair: P^{s,t} x = H^{s,t}(embed(x)).

    In strict mode the axiom suite must pass at ``tol`` first. The
    returned trajectory is psi_t, which the axioms force to agree with
    phi_t.
    """
    if target_type not in ("A", "B"):
        raise ValueError(f"target type must be 'A' or 'B', got {target_type!r}")
    if strict:
        report = verify_marginal_axioms(q_family, h_family, omega0)
        if not report.ok(tol):
            raise ValidationFailure(
                f"marginal pair fails the axiom suite (max residual {report.max_residual:.3e})")
    emb = embed_supermap(h_family.n)
    maps = {key: h_family.map(*key) @ emb for key in h_family.pairs()}
    omegas = tuple(_psi_trajectory(h_family, omega0))
    return Family("P", h_family.n, maps, omegas, target_type, h_family.algebra_kind)


def state_consistency_residual(q_family: Family) -> ResidualTable:
    """Residual of E_{omega_s} Q^{s,t} = E_{omega_t} (trajectory consistency).

    Measured as the operator-norm gap between the two conditional
    expectations, i.e. with omega_s carried forward through Q^{s,t}.
    """
    if q_family.omegas is None:
        raise ValueError("family carries no omega trajectory")
    entries = {}
    for (s, t) in q_family.pairs():
        carried = State(predual(q_family.map(s, t))(q_family.omegas[s].rho))
        lhs = expectation_supermap(carried)
        rhs = q_family.expectations[t]
        entries[(s, t)] = operator_norm(lhs.matrix - rhs.matrix)
    return ResidualTable(entries, "state-consistency")


def slice_residuals(lattice: Family, q_family: Family,
                    h_family: Family,
                    z_family: Family | None = None) -> dict:
    """Map-level residuals of the slice identities, keyed by identity name.

    reconstruction_slot: H(embed x) = P x; averaged_slot: H(x (x) 1) =
    omega_t(x) 1 (x) 1; intertwining: E_{omega_s} H = Q E_{omega_t};
    z_reconstruction_slot: Z(embed x) = embed(Q x); z_averaged_slot as for H.
    """
    n = lattice.n
    emb = embed_supermap(n)
    emb_avg = embed_averaged_supermap(n)
    out = {"reconstruction_slot": 0.0, "averaged_slot": 0.0, "intertwining": 0.0}
    if z_family is not None:
        out["z_reconstruction_slot"] = 0.0
        out["z_averaged_slot"] = 0.0
    for (s, t) in lattice.pairs():
        hm, qm, pm = h_family.map(s, t), q_family.map(s, t), lattice.map(s, t)
        const = SuperMap.constant(lattice.omega(t), n * n)
        out["reconstruction_slot"] = max(out["reconstruction_slot"],
                                         operator_norm((hm @ emb).matrix - pm.matrix))
        out["averaged_slot"] = max(out["averaged_slot"],
                                   operator_norm((hm @ emb_avg).matrix - const.matrix))
        lhs = lattice.expectations[s] @ hm
        rhs = qm @ lattice.expectations[t]
        out["intertwining"] = max(out["intertwining"],
                                  operator_norm(lhs.matrix - rhs.matrix))
        if z_family is not None:
            zm = z_family.map(s, t)
            out["z_reconstruction_slot"] = max(
                out["z_reconstruction_slot"],
                operator_norm((zm @ emb).matrix - (emb @ qm).matrix))
            out["z_averaged_slot"] = max(
                out["z_averaged_slot"],
                operator_norm((zm @ emb_avg).matrix - const.matrix))
    return out

"""Marginal processes of a lattice and reconstruction from a marginal pair.

From a lattice {P^{s,t}} with trajectory {omega_t} we form

    Q^{s,t} = E_{omega_s} P^{s,t}          on M      (both types)
    H^{s,t} = P^{s,t} E_{omega_t}          on M (x) M (type A; written h for type B)
    Z^{s,t} = embed(E_{omega_s} H^{s,t})   on M (x) M (z for type B)

where embed(x) = 1 (x) x is the slot the conditional expectation leaves
untouched. Q, H and Z are Markov; h is not, but satisfies the doubled
composition law h^{s,t} = (Q^{s,tau} (x) Q^{s,tau}) h^{tau,t}.

H/h and Z/z are stored factored (:class:`qqsp.process.Family`): each keeps
its core C^{s,t}, P^{s,t} for H/h and embed(E_{omega_s} P^{s,t}) for Z/z,
and every residual that ends in E_{omega_t} is taken on the n^4 x n^2 core.

A pair (Q, H) with the right exchange axioms determines the lattice:
P^{s,t} x = H^{s,t}(embed(x)) along the trajectory psi_t. That rebuilt
lattice is built once, by :func:`reconstruct_qqsp`, and the axiom suite
reads psi_t and E_{psi_t} from it. Conventions that place x in the averaged
slot state the same identities with the tensor factors exchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    State,
    SuperMap,
    doubled_after,
    embed_averaged_supermap,
    embed_supermap,
    expectation_supermap,
    flip_after,
    predual,
    trace_norm_distance,
)
# not called here since pair_residuals took the residual loops; perfbench's
# tracer test still looks the name up in this module
from .linalg import operator_norm  # noqa: F401
from .linalg import product_norm
from .process import (
    Family,
    ResidualTable,
    ValidationFailure,
    computed_state,
    pair_residuals,
    split_residuals,
)


def _derived(source: Family, kind: str, maps: dict, factored: bool,
             companion_q: Family | None = None) -> Family:
    """A marginal family on the trajectory of ``source``, sharing its E_{omega_t}."""
    return Family(kind, source.n, maps, source.omegas, algebra_kind=source.algebra_kind,
                  companion_q=companion_q, expectations=source.expectations,
                  factored=factored)


def build_Q(lattice: Family) -> Family:
    """Q^{s,t} = E_{omega_s} P^{s,t}, the marginal Markov process on M."""
    es = lattice.expectations
    return _derived(lattice, "Q", {(s, t): es[s] @ lattice.map(s, t)
                                   for (s, t) in lattice.pairs()}, False)


def _build_doubled(lattice: Family, kind: str) -> Family:
    # the core of H^{s,t} = P^{s,t} E_{omega_t} is the lattice map itself
    companion = build_Q(lattice) if kind == "h" else None
    return _derived(lattice, kind, dict(lattice.maps), True, companion)


def build_H(lattice: Family) -> Family:
    """H^{s,t} = P^{s,t} E_{omega_t} for a type-A lattice, stored as its core P^{s,t}."""
    if lattice.process_type != "A":
        raise ValueError("H is the type-A marginal; got a type-B lattice")
    return _build_doubled(lattice, "H")


def build_h(lattice: Family) -> Family:
    """h^{s,t} = P^{s,t} E_{omega_t} for a type-B lattice (not Markov), stored as P^{s,t}."""
    if lattice.process_type != "B":
        raise ValueError("h is the type-B marginal; got a type-A lattice")
    return _build_doubled(lattice, "h")


def _derive_embedded(family: Family, kind: str) -> Family:
    if family.expectations is None:
        raise ValueError("need the omega trajectory to build the derived family")
    emb = embed_supermap(family.n)
    es = family.expectations
    # embed(E_{omega_s} C^{s,t}) keeps the trailing factor of the source family
    maps = {(s, t): emb @ (es[s] @ family.core(s, t)) for (s, t) in family.pairs()}
    return _derived(family, kind, maps, family.factored, family.companion_q)


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
            return doubled_after(family.companion_q.map(s, tau), family.core(tau, t))
    else:
        # where F^{s,tau} meets F^{tau,t}: T_tau C^{tau,t}, once per pair
        inner = {(tau, t): family.trailing_times(tau, family.core(tau, t))
                 for (tau, t) in family.pairs() if tau > 0}

        def compose(s, tau, t):
            return family.core(s, tau) @ inner[(tau, t)]
    label = "doubled-composition" if doubled else "markov"
    return split_residuals(family, compose, f"{label}-{family.kind}")


def _phi_trajectory(q_family: Family, omega0: State) -> list[State]:
    """phi_t = omega_0 after Q^{0,t} on the predual side."""
    out = [omega0]
    for t in range(1, q_family.horizon + 1):
        out.append(computed_state(predual(q_family.map(0, t))(omega0.rho), "phi_t", t))
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
                           rebuilt: Family) -> AxiomReport:
    """Check the exchange axioms an abstract pair (Q, H or h) must satisfy.

    ``rebuilt`` is :func:`reconstruct_qqsp` of the pair: its maps are
    H^{s,t} embed, its trajectory is psi_t and it carries E_{psi_t}.
    """
    if q_family.n != h_family.n:
        raise ValueError("families live on different algebras")
    if not set(q_family.maps) == set(h_family.maps) == set(rebuilt.maps):
        raise ValueError("families cover different (s, t) lattices")
    phis = _phi_trajectory(q_family, rebuilt.omega(0))
    e_phi = [expectation_supermap(phi) for phi in phis]
    e_psi = rebuilt.expectations
    core, q = h_family.core, q_family.map
    tails = _absorption_tails(h_family, e_psi)
    return AxiomReport(
        flip=pair_residuals(h_family, lambda s, t: flip_after(core(s, t)), core,
                            "axiom-flip", trailing=h_family),
        exchange=pair_residuals(h_family,
                                lambda s, t: h_family.times_trailing(e_psi[s] @ core(s, t), t),
                                lambda s, t: q(s, t) @ e_phi[t], "axiom-exchange"),
        absorption=ResidualTable({(s, t): product_norm(core(s, t).matrix, tails[t])
                                  for (s, t) in h_family.pairs()}, "axiom-absorption"),
        trajectory_gap=max(trace_norm_distance(phi, psi)
                           for phi, psi in zip(phis, rebuilt.omegas)),
    )


def _absorption_tails(h_family: Family, e_psi) -> dict:
    """D_t = T_t - T_t embed E_{psi_t} per t, so that H - H embed E_{psi_t} = C D_t.

    T_t is the trailing factor of ``h_family`` (the identity if it has none).
    """
    emb = embed_supermap(h_family.n)
    tails = {}
    for t in sorted({t for _, t in h_family.pairs()}):
        absorbed = (h_family.trailing_times(t, emb) @ e_psi[t]).matrix
        lead = (h_family.expectations[t].matrix if h_family.factored
                else np.eye(len(absorbed)))
        tails[t] = lead - absorbed
    return tails


def reconstruct_qqsp(q_family: Family, h_family: Family,
                     omega0: State, target_type: str,
                     strict: bool = True, tol: float = 1e-8) -> Family:
    """Rebuild the lattice from a marginal pair: P^{s,t} x = H^{s,t}(embed(x)).

    The returned trajectory is psi_t, omega_0 (x) omega_0 after P^{0,t},
    which the axioms force to agree with phi_t. In strict mode the
    rebuilt lattice must pass the axiom suite at ``tol``.
    """
    if target_type not in ("A", "B"):
        raise ValueError(f"target type must be 'A' or 'B', got {target_type!r}")
    emb = embed_supermap(h_family.n)
    slots = {t: h_family.trailing_times(t, emb) for t in {t for _, t in h_family.pairs()}}
    maps = {(s, t): h_family.core(s, t) @ slots[t] for (s, t) in h_family.pairs()}
    rho00 = np.kron(omega0.rho, omega0.rho)
    psis = [computed_state(predual(maps[(0, t)])(rho00), "psi_t", t)
            for t in range(1, h_family.horizon + 1)]
    rebuilt = Family("P", h_family.n, maps, (omega0, *psis), target_type,
                     h_family.algebra_kind)
    if strict:
        report = verify_marginal_axioms(q_family, h_family, rebuilt)
        if not report.ok(tol):
            raise ValidationFailure(
                f"marginal pair fails the axiom suite (max residual {report.max_residual:.3e})")
    return rebuilt


def state_consistency_residual(q_family: Family) -> ResidualTable:
    """Residual of E_{omega_s} Q^{s,t} = E_{omega_t} (trajectory consistency).

    Measured as the operator-norm gap between the two conditional
    expectations, i.e. with omega_s carried forward through Q^{s,t}.
    """
    if q_family.omegas is None:
        raise ValueError("family carries no omega trajectory")

    def carried(s, t):
        rho = predual(q_family.map(s, t))(q_family.omegas[s].rho)
        return expectation_supermap(computed_state(rho, f"Q^{{{s},t}}_* omega_{s}", t))

    return pair_residuals(q_family, carried, lambda s, t: q_family.expectations[t],
                          "state-consistency")


def slice_residuals(lattice: Family, q_family: Family,
                    h_family: Family,
                    z_family: Family | None = None) -> dict:
    """Map-level residuals of the slice identities, keyed by identity name.

    reconstruction_slot: H(embed x) = P x; averaged_slot: H(x (x) 1) =
    omega_t(x) 1 (x) 1; intertwining: E_{omega_s} H = Q E_{omega_t};
    z_reconstruction_slot: Z(embed x) = embed(Q x); z_averaged_slot as for H.
    """
    if not (h_family.factored and (z_family is None or z_family.factored)):
        raise ValueError("slice identities are stated for the marginals built from the lattice")
    n = lattice.n
    emb = embed_supermap(n)
    es = lattice.expectations
    times = range(1, lattice.horizon + 1)
    slot = {t: es[t] @ emb for t in times}
    averaged = {t: es[t] @ embed_averaged_supermap(n) for t in times}
    consts = [SuperMap.constant(w, n * n) for w in lattice.omegas]
    h, q = h_family.core, q_family.map
    sides = {
        "reconstruction_slot": (lambda s, t: h(s, t) @ slot[t], lattice.map, None),
        "averaged_slot": (lambda s, t: h(s, t) @ averaged[t], lambda s, t: consts[t], None),
        "intertwining": (lambda s, t: es[s] @ h(s, t), q, h_family),
    }
    if z_family is not None:
        z = z_family.core
        sides["z_reconstruction_slot"] = (lambda s, t: z(s, t) @ slot[t],
                                          lambda s, t: emb @ q(s, t), None)
        sides["z_averaged_slot"] = (lambda s, t: z(s, t) @ averaged[t],
                                    lambda s, t: consts[t], None)
    return {name: pair_residuals(lattice, lhs, rhs, name, trailing).max_residual
            for name, (lhs, rhs, trailing) in sides.items()}

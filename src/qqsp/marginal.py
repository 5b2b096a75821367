"""Marginal processes of a lattice and reconstruction from a marginal pair.

From a lattice {P^{s,t}} with trajectory {omega_t} we form

    Q^{s,t} = E_{omega_s} P^{s,t}          on M      (both types)
    H^{s,t} = P^{s,t} E_{omega_t}          on M (x) M (type A; written h for type B)
    Z^{s,t} = embed(E_{omega_s} H^{s,t})   on M (x) M (z for type B)

where embed(x) = 1 (x) x is the slot the conditional expectation leaves
untouched. Q, H and Z are Markov; h is not, but satisfies the doubled
composition law h^{s,t} = (Q^{s,tau} (x) Q^{s,tau}) h^{tau,t}. On the cores
H's Markov law is the type-A fundamental equation and h's doubled law the
type-B one, so :func:`check_markov` only picks a split law of
:func:`qqsp.process.split_residuals`; h reads Q^{s,tau} = E_{omega_s} P^{s,tau}
off its own cores.

H/h and Z/z are stored factored (:class:`qqsp.process.Family`). H/h hold
P's own array as their cores C^{s,t}. Z^{s,t} = embed Q^{s,t} E_{omega_t}, so Z/z
hold Q's array, and nothing forms embed Q^{s,t}. Every Z/z residual is taken
on n^2 x n^2 stacks and scaled by sqrt(n) (embed is a 0/1 row selection with
embed^dagger embed = n 1), with the slot S_tau = E_{omega_tau} embed between
two of Q's maps. H/h's residuals that start with C^{s,t} are normed on its
thin R factor, taken once per core; the absorption axiom is then one table of
n^2 x n^2 products of two R factors.

A pair (Q, H) with the right exchange axioms determines the lattice:
P^{s,t} x = H^{s,t}(embed(x)) along the trajectory psi_t. That rebuilt
lattice is built once, by :func:`reconstruct_qqsp`; from the H/h of a lattice it is P's own
array scaled by tr(rho_t). The axiom suite reads psi_t from it and places E_{psi_t} and
E_{phi_t} a chunk at a time. Conventions that place x in the averaged
slot state the same identities with the tensor factors exchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    MapStack,
    ScaledMapStack,
    State,
    SuperMap,
    embed_averaged_supermap,
    embed_supermap,
    expectation_matrices,
    flip_rows,
    predual,
    trace_norm_distance,
)
# not called here since pair_residuals took the residual loops; perfbench's
# tracer test still looks the name up in this module
from .linalg import operator_norm  # noqa: F401
from .linalg import dagger, predual_matrix, vec
from .process import (
    Family,
    ResidualTable,
    ValidationFailure,
    computed_states,
    pair_residuals,
    split_residuals,
    triples,
)


def _derived(source: Family, kind: str, maps: MapStack, factored: bool, **shared) -> Family:
    """A marginal family on the trajectory of ``source``, sharing its E_{omega_t} and slots."""
    return Family(kind, source.n, maps, source.omegas, algebra_kind=source.algebra_kind,
                  expectations=source.expectations, factored=factored, slots=source.slots,
                  **shared)


def build_Q(lattice: Family) -> Family:
    """Q^{s,t} = E_{omega_s} P^{s,t}, the marginal Markov process on M.

    Its maps are the lattice's :attr:`Family.conditioned` maps, so Q^{s,t} that
    propagation or kc already formed are not formed again.
    """
    return _derived(lattice, "Q", lattice.conditioned, False)


def _build_doubled(lattice: Family, kind: str) -> Family:
    # the core of H^{s,t} = P^{s,t} E_{omega_t} is the lattice map itself, so H/h
    # hold the lattice's own array and share its E_{omega_s} P^{s,t}
    return _derived(lattice, kind, lattice.maps, True, conditioned_maps=lattice.conditioned)


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


def _derive_embedded(h_family: Family, q_family: Family, kind: str) -> Family:
    # embed(E_{omega_s} P^{s,t} E_{omega_t}) = embed Q^{s,t} E_{omega_t}: Q's maps, with embed
    # as the lead
    if not h_family.factored:
        raise ValueError(f"{kind} derives from the {h_family.kind} built from a lattice")
    if q_family.maps is not h_family.conditioned_maps:   # Q's own array, not a copy
        raise ValueError(f"{kind} takes Q^{{s,t}} from the Q family of its {h_family.kind}'s "
                         f"lattice, which shares its trajectory")
    return _derived(h_family, kind, q_family.maps, True)


def build_Z(h_family: Family, q_family: Family) -> Family:
    """Z^{s,t} = embed(E_{omega_s} H^{s,t}(.)), a Markov process on M (x) M.

    Stored as the maps of ``q_family``, the Q of H's lattice: Z^{s,t} = embed Q^{s,t} E_{omega_t}.
    """
    if h_family.kind != "H":
        raise ValueError(f"Z derives from an H family, got kind {h_family.kind!r}")
    return _derive_embedded(h_family, q_family, "Z")


def build_z(h_family: Family, q_family: Family) -> Family:
    """z^{s,t} = embed(E_{omega_s} h^{s,t}(.)); Markov despite h not being so.

    Stored as the maps of ``q_family``, the Q of h's lattice: z^{s,t} = embed Q^{s,t} E_{omega_t}.
    """
    if h_family.kind != "h":
        raise ValueError(f"z derives from an h family, got kind {h_family.kind!r}")
    return _derive_embedded(h_family, q_family, "z")


def check_markov(family: Family, law: str = "native") -> ResidualTable:
    """Residuals of the composition law over every admissible triple.

    The law is the split law of :func:`qqsp.process.split_residuals` that the
    kind asks for. Q and any unfactored family compose plainly, F^{s,tau} F^{tau,t}.
    The factored H, Z, z compose as C^{s,tau} E_{omega_tau} C^{tau,t} (law A), and so
    does h with ``law='plain'`` (the type-B contrast makes it fail on purpose).
    Natively h obeys the doubled law (Q^{s,tau} (x) Q^{s,tau}) h^{tau,t} (law B), with
    Q^{s,tau} = E_{omega_s} P^{s,tau} read off its own cores.
    """
    if law not in ("native", "plain"):
        raise ValueError(f"unknown law {law!r}")
    doubled = family.kind == "h" and law == "native"
    if doubled and not family.factored:
        raise ValueError("the doubled law of h reads Q^{s,tau} = E_{omega_s} P^{s,tau} off "
                         "its cores; an unfactored h stores no P^{s,tau}")
    split = "B" if doubled else "A" if family.factored else "plain"
    label = "doubled-composition" if doubled else "markov"
    return split_residuals(family, split, f"{label}-{family.kind}")


def composition_from_kc(kc: ResidualTable, family: Family) -> ResidualTable:
    """:func:`check_markov` of the H or h built from the lattice whose kc table is ``kc``.

    H's Markov law and h's doubled law compare the core P^{s,t} with the
    fundamental equation's product of P^{s,tau} and P^{tau,t}, formed as
    :func:`qqsp.process.kc_consistency` forms it. The gaps are the kc gaps, so
    each entry is the kc entry times ||rho_t||_F, bit for bit.
    """
    ptype = {"H": "A", "h": "B"}.get(family.kind)
    if kc.label != f"kc-type-{ptype}" or set(kc.entries) != set(triples(family.horizon)):
        raise ValueError(f"{kc.label!r} is not the kc table of a lattice an {family.kind} "
                         f"family can share")
    label = "doubled-composition" if family.kind == "h" else "markov"
    return ResidualTable({key: family.trailing_norm(key[-1]) * value
                          for key, value in kc.entries.items()}, f"{label}-{family.kind}")


def _phi_trajectory(q_family: Family, omega0: State) -> list[State]:
    """phi_t = omega_0 after Q^{0,t} on the predual side, checked as one stack."""
    images = [predual(q_family.map(0, t))(omega0.rho) for t in range(1, q_family.horizon + 1)]
    return [omega0, *computed_states(images, "phi_t", 1)]


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
    H^{s,t} embed and its trajectory is psi_t. The exchange table places each chunk's
    E_{psi_s} and E_{phi_t} in one :func:`qqsp.algebra.expectation_matrices` call each,
    and the absorption table E_{psi_t} once per t.
    """
    if q_family.n != h_family.n:
        raise ValueError("families live on different algebras")
    if not set(q_family.maps) == set(h_family.maps) == set(rebuilt.maps):
        raise ValueError("families cover different (s, t) lattices")
    phis = _phi_trajectory(q_family, rebuilt.omega(0))
    phi_rhos = np.array([phi.rho for phi in phis])
    cores = h_family.maps.array   # H/h carry no lead, so their cores are the stored maps
    flip = flip_rows(h_family.n)
    ss, ts = np.array(h_family.pairs()).T

    def flipped(part):
        # H - U H, so that each flipped core is made only while it is subtracted
        return cores[part] - cores[part][:, flip]

    def exchanged(part):   # E_{psi_s} H^{s,t}, followed by H's trailing factor E_{omega_t}
        stack = np.matmul(rebuilt.expectation_rows(ss[part]), cores[part])
        if not h_family.factored:
            return stack
        return np.matmul(stack, h_family.expectation_rows(ts[part]))

    def intertwined(part):   # Q^{s,t} E_{phi_t}
        return np.matmul(q_family.maps.array[part], expectation_matrices(phi_rhos[ts[part]]))

    side = h_family.n * h_family.n
    return AxiomReport(
        flip=pair_residuals(h_family, cores.shape[1:], flipped, None,
                            "axiom-flip", scale=h_family.trailing_norm),
        exchange=pair_residuals(h_family, (side, side * side), exchanged, intertwined,
                                "axiom-exchange"),
        absorption=_absorption(h_family, rebuilt),
        trajectory_gap=max(trace_norm_distance(phi, psi)
                           for phi, psi in zip(phis, rebuilt.omegas)),
    )


def _absorption(h_family: Family, rebuilt: Family) -> ResidualTable:
    """||H - H embed E_{psi_t}|| = ||C D_t|| = ||R^{s,t} R_t^dagger|| at every pair (s, t).

    D_t = T_t - T_t embed E_{psi_t}, with T_t the trailing factor of ``h_family`` (the
    identity if it has none), psi_t the trajectory of ``rebuilt``, and R^{s,t} the
    family's thin R factor of C^{s,t}. With the thin QR D_t^dagger = Q_t R_t, Q_t is an
    isometry, so the norm is taken on the small product R^{s,t} R_t^dagger, one QR per t.
    """
    lead, r_t = embed_supermap(h_family.n).matrix, []   # R_t^dagger at t - 1
    for t in range(1, h_family.horizon + 1):
        e_psi = rebuilt.expectation_rows([t])[0]
        # D_t = E_{omega_t} - S_t E_{psi_t}, or 1 - embed E_{psi_t}
        d = (h_family.expectations.array[t] - h_family.slots[t] @ e_psi
             if h_family.factored else np.eye(len(lead)) - lead @ e_psi)
        r_t.append(dagger(np.linalg.qr(dagger(d), mode="r")))
    r, r_t = h_family.thin_r.array, np.array(r_t)
    ts = np.array([t for _, t in h_family.pairs()])
    return pair_residuals(h_family, r_t.shape[1:],
                          lambda part: np.matmul(r[part], r_t[ts[part] - 1]),
                          None, "axiom-absorption")


def _scalar_slots(slots) -> bool:
    """Whether every slot S of a (k, m, m) stack is exactly S[0, 0] times the identity."""
    return bool(np.array_equal(slots, slots[:, :1, :1] * np.eye(slots.shape[-1])))


def reconstruct_qqsp(q_family: Family, h_family: Family,
                     omega0: State, target_type: str,
                     strict: bool = True, tol: float = 1e-8) -> Family:
    """Rebuild the lattice from a marginal pair: P^{s,t} x = H^{s,t}(embed(x)).

    The rebuilt maps are H^{s,t} S_t, with S_t = E_{omega_t} embed for a factored H/h.
    Where every S_t is exactly c_t 1 (n^4 compares a t), H^{s,t} S_t has the bits of
    c_t C^{s,t}, so the rebuilt lattice holds H's own array and scales each row as it is
    read (:class:`qqsp.algebra.ScaledMapStack`). Any other slot, and an unfactored H
    (S_t = embed), gets the products in one batched call.

    The returned trajectory is psi_t, omega_0 (x) omega_0 after P^{0,t},
    which the axioms force to agree with phi_t. In strict mode the
    rebuilt lattice must pass the axiom suite at ``tol``.
    """
    if target_type not in ("A", "B"):
        raise ValueError(f"target type must be 'A' or 'B', got {target_type!r}")
    order = h_family.maps.order
    ts = [t for _, t in order]
    if h_family.factored and _scalar_slots(h_family.slots[1:]):
        # S_t = c_t 1, and H^{s,t} S_t has the bits of c_t H^{s,t}: H's own array, scaled as read
        maps = ScaledMapStack(h_family.maps, h_family.slots[ts, 0, 0])
    else:
        slots = h_family.slots[ts] if h_family.factored else embed_supermap(h_family.n).matrix
        maps = MapStack(np.matmul(h_family.maps.array, slots), order)   # H^{s,t} S_t, one call
    rho00 = np.kron(omega0.rho, omega0.rho)
    psis = computed_states([predual(maps[(0, t)])(rho00) for t in range(1, h_family.horizon + 1)],
                           "psi_t", 1)
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
    expectations, i.e. with omega_s carried forward through Q^{s,t}. One matmul
    of the preduals carries every state; each row s of them is checked as one
    stack, so a failure names Q^{s,t}_* omega_s and its t. Each chunk of the
    table places its E_{Q_* omega_s} in one call.
    """
    if q_family.omegas is None:
        raise ValueError("family carries no omega trajectory")
    n, pairs = q_family.n, q_family.pairs()
    duals = predual_matrix(q_family.maps.array, n, n)
    vecs = np.array([vec(w.rho) for w in q_family.omegas])[[s for s, _ in pairs]]
    images = duals @ vecs[:, :, None]   # one gemv per map
    rhos = images.reshape(len(pairs), n, n).transpose(0, 2, 1)   # unvec of each image
    starts = [i for i, (s, _) in enumerate(pairs) if i == 0 or pairs[i - 1][0] != s]
    states = []
    for lo, hi in zip(starts, [*starts[1:], len(pairs)]):   # one row s at a time
        s, t = pairs[lo]
        states += computed_states(rhos[lo:hi], f"Q^{{{s},t}}_* omega_{s}", t)
    ts = np.array([t for _, t in pairs])

    # E_{omega_t} - E_{Q_* omega_s}
    return pair_residuals(
        q_family, (n * n, n ** 4),
        lambda part: q_family.expectations.array[ts[part]],
        lambda part: expectation_matrices([w.rho for w in states[part]]),
        "state-consistency")


def slice_residuals(lattice: Family, q_family: Family,
                    h_family: Family,
                    z_family: Family | None = None) -> dict:
    """Map-level residuals of the slice identities, keyed by identity name.

    reconstruction_slot: H(embed x) = P x; averaged_slot: H(x (x) 1) =
    omega_t(x) 1 (x) 1; z_reconstruction_slot: Z(embed x) = embed(Q x);
    z_averaged_slot as for H. The intertwining E_{omega_s} H = Q E_{omega_t}
    holds here by the definition of Q; the axiom exchange checks it for a pair.

    Each is taken on its smallest exact factor. With S_t = E_{omega_t} embed and
    the thin R factor of P^{s,t}, H's reconstruction slot is ||R^{s,t} (S_t - 1)||.
    E_{omega_t} embed_averaged is |vec 1><rho_t| and the constant map |vec 1 (x) 1><rho_t|,
    so H's averaged slot is the rank-one ||P^{s,t}(1) - 1 (x) 1||_F ||rho_t||_F. Z/z
    store Q's maps Y: its slots are sqrt(n) ||Y^{s,t} S_t - Q^{s,t}|| and
    sqrt(n) ||Y^{s,t} A_t - K_t||, with A_t = E_{omega_t} embed_averaged and K_t the
    constant map x -> omega_t(x) 1 on M.
    """
    if not (h_family.factored and (z_family is None or z_family.factored)):
        raise ValueError("slice identities are stated for the marginals built from the lattice")
    if h_family.maps is not lattice.maps:
        raise ValueError(f"{h_family.kind} does not store this lattice's maps P^{{s,t}} "
                         f"as its cores")
    n, pairs = lattice.n, lattice.pairs()
    ts = np.array([t for _, t in pairs])
    units = lattice.maps.array @ vec(np.eye(n))   # P(1), one gemv per map
    unital = np.linalg.norm(units - vec(np.eye(n * n)), axis=1)

    def products(left, right):
        """The products left[(s, t)] right[t] of a chunk, from an array by pair and one by t."""
        return lambda part: np.matmul(left[part], right[ts[part]])

    side = (n * n, n * n)
    out = {
        "reconstruction_slot": pair_residuals(
            lattice, side, products(h_family.thin_r.array, h_family.slots - np.eye(n * n)), None,
            "reconstruction_slot").max_residual,
        "averaged_slot": max(float(gap) * h_family.trailing_norm(t)
                             for gap, (_, t) in zip(unital, pairs)),
    }
    if z_family is not None:
        averaged = np.matmul(z_family.expectations.array, embed_averaged_supermap(n).matrix)
        consts = np.array([SuperMap.constant(w, n).matrix for w in lattice.omegas])
        root_n = z_family.lead_norm
        out["z_reconstruction_slot"] = pair_residuals(
            lattice, side, products(z_family.maps.array, z_family.slots),
            lambda part: q_family.maps.array[part],
            "z_reconstruction_slot", scale=lambda t: root_n).max_residual
        out["z_averaged_slot"] = pair_residuals(
            lattice, side, products(z_family.maps.array, averaged), lambda part: consts[ts[part]],
            "z_averaged_slot", scale=lambda t: root_n).max_residual
    return out

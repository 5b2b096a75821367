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

H/h and Z/z are stored factored (:class:`qqsp.process.Family`): H/h hold P's own array
as their cores C^{s,t}, and Z^{s,t} = embed Q^{s,t} E_{omega_t}, so Z/z hold Q's array.
E_omega(1 (x) x) = omega(1) x makes the slot E_{omega_t} embed c_t 1 with c_t = tr(rho_t)
(:attr:`Family.slot_scales`), and embed^dagger embed = n 1 makes every Z/z residual an
n^2 x n^2 one scaled by sqrt(n). E_sigma is linear in sigma and E_sigma E_sigma^dagger =
||sigma||_F^2 1, so a gap C E_sigma is normed as ||C|| ||sigma||_F: absorption, state
consistency and the reconstruction slots are a map norm (:attr:`Family.map_norms`) times
one scalar per t, and place no E row.

A pair (Q, H) with the right exchange axioms determines the lattice: P^{s,t} x =
H^{s,t}(embed(x)) = c_t C^{s,t} x along the trajectory psi_t (:func:`reconstruct_qqsp`,
H's own array scaled by c_t as it is read). For the lattice's own pair
(:func:`derived_pair`) the rebuilt lattice's kc and conclusion b and the exchange axiom
are P's and Q's numbers times scalars per t, reported as bounds; any other pair is
swept. Conventions that place x in the averaged slot state the same identities with the
tensor factors exchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    MapStack,
    ScaledMapStack,
    State,
    flip_rows,
)
# not called here since pair_residuals took the residual loops; perfbench's
# tracer test still looks the name up in this module
from .linalg import operator_norm  # noqa: F401
from .linalg import chunks, trace_norms, vec
from .process import (
    Family,
    ResidualTable,
    ValidationFailure,
    carried_states,
    conditioned_products,
    kc_consistency,
    pair_residuals,
    split_residuals,
    trailing_products,
)


def _derived(source: Family, kind: str, maps: MapStack, **shared) -> Family:
    """A marginal family on the trajectory of ``source``, which hands it the stack, the norms
    and the traces of the trajectory's density matrices, so each is computed once per run."""
    family = Family(kind, source.n, maps, source.omegas, algebra_kind=source.algebra_kind,
                    **shared)
    if source.omegas is not None:   # the source's cached properties, the same bits
        for name in ("rhos", "_rho_norms", "slot_scales"):
            family.__dict__[name] = getattr(source, name)
    return family


def build_Q(lattice: Family) -> Family:
    """Q^{s,t} = E_{omega_s} P^{s,t}, the marginal Markov process on M.

    Its maps are the lattice's :attr:`Family.conditioned` maps, so Q^{s,t} that
    propagation or kc already formed are not formed again.
    """
    return _derived(lattice, "Q", lattice.conditioned)


def _build_doubled(lattice: Family, kind: str) -> Family:
    # the core of H^{s,t} = P^{s,t} E_{omega_t} is the lattice map itself, so H/h
    # hold the lattice's own array and share its E_{omega_s} P^{s,t}
    return _derived(lattice, kind, lattice.maps, conditioned_maps=lattice.conditioned)


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
    if q_family.maps is not h_family.conditioned_maps:   # Q's own array, not a copy
        raise ValueError(f"{kind} takes Q^{{s,t}} from the Q family of its {h_family.kind}'s "
                         f"lattice, which shares its trajectory")
    return _derived(h_family, kind, q_family.maps)


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
    """Residuals of the composition law over every admissible triple, under the split law
    of :func:`qqsp.process.split_residuals` the kind asks for: plain for P and Q; law A,
    C^{s,tau} E_{omega_tau} C^{tau,t}, for H, Z, z and for h with ``law='plain'`` (the type-B
    contrast, failing on purpose); natively h's doubled law B, (Q (x) Q) h^{tau,t}.
    """
    if law not in ("native", "plain"):
        raise ValueError(f"unknown law {law!r}")
    doubled = family.kind == "h" and law == "native"
    split = "B" if doubled else "A" if family.factored else "plain"
    label = "doubled-composition" if doubled else "markov"
    return split_residuals(family, split, f"{label}-{family.kind}")


def _split_table(table: ResidualTable, label: str, family: Family, what: str):
    """(s, tau, t), the gaps, and ``family``'s map norms at (s, t), (s, tau) and (tau, t) of
    ``table``, a table labelled ``label`` over the splits of ``family``'s :class:`KeyIndex`,
    in its order; else it is not ``what``.
    """
    index = family.key_index
    if table.label != label or not (table.keys is index.splits or table.keys == index.splits):
        raise ValueError(f"{table.label!r} is not {what}")
    norms = family.map_norms
    return ((index.s, index.tau, index.t), table.values,
            (norms[index.whole], norms[index.left], norms[index.right]))


def composition_from_kc(kc: ResidualTable, family: Family) -> ResidualTable:
    """:func:`check_markov` of the H or h built from the lattice whose kc table is ``kc``.

    H's Markov law and h's doubled law compare the core P^{s,t} with the
    fundamental equation's product of P^{s,tau} and P^{tau,t}, formed as
    :func:`qqsp.process.kc_consistency` forms it. The gaps are the kc gaps, so
    each entry is the kc entry times ||rho_t||_F, bit for bit.
    """
    ptype = {"H": "A", "h": "B"}.get(family.kind)
    (_, _, t), gaps, _ = _split_table(kc, f"kc-type-{ptype}", family,
                                      f"the kc table of a lattice an {family.kind} family "
                                      f"can share")
    label = "doubled-composition" if family.kind == "h" else "markov"
    return ResidualTable(family.key_index.splits, family.trailing_norms[t] * gaps,
                         f"{label}-{family.kind}")


def composition_from_q(family: Family, q_family: Family, q_table: ResidualTable) -> ResidualTable:
    """:func:`check_markov` of a Z or z, bounded from ``q_table``, the Markov table of
    ``q_family``, when the family stores that Q's own array; swept otherwise.

    With E_{omega_tau} embed = c_tau 1 the gap is embed (Q^{s,t} - c_tau Q^{s,tau} Q^{tau,t})
    E_{omega_t}: at most sqrt(n) ||rho_t||_F (G + |1 - c_tau| ||Q^{s,tau}|| ||Q^{tau,t}||),
    with G Q's entry, plus :data:`ROUNDING` of sqrt(n) ||rho_t||_F ||Q^{s,t}||, on the map norms.
    """
    if not family.stores_q or family.maps is not q_family.maps:
        return check_markov(family)
    (_, tau, t), gaps, (whole, left, right) = _split_table(
        q_table, "markov-Q", family, f"the Markov table of the Q whose maps {family.kind} stores")
    scale = family.lead_norm * family.trailing_norms[t]
    drift = np.abs(1 - family.slot_scales[tau])
    bound = scale * (gaps + drift * left * right + ROUNDING * whole)
    return ResidualTable(family.key_index.splits, bound, f"markov-{family.kind}")


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


def derived_pair(q_family: Family, h_family: Family, rebuilt: Family) -> bool:
    """Whether (Q, H or h) is a lattice's own pair and ``rebuilt`` its :func:`reconstruct_qqsp`:
    Q holds the E_{omega_s} P^{s,t} that :func:`build_H`/:func:`build_h` share with the lattice,
    and the rebuilt maps are H's own array scaled by c_t. Checked by identity, never on values.
    """
    maps = rebuilt.maps
    return (q_family.maps is h_family.conditioned_maps and isinstance(maps, ScaledMapStack)
            and maps.base is h_family.maps
            and np.array_equal(maps.factors, h_family.slot_scales[h_family.key_index.pair_t]))


ROUNDING = 1.5 * np.finfo(float).eps   # per unit of operand scale: a bound >= its rounded sweep


def _psi_drift(h_family: Family, rebuilt: Family) -> tuple[np.ndarray, np.ndarray]:
    """c_t = tr(rho_t) and d_t = ||psi_t - c_t omega_t||_F by t: E_{psi_t} = c_t E_{omega_t} +
    E_{delta_t}, ||E_{delta_t}|| = d_t (E is linear, E_sigma E_sigma^dagger = ||sigma||_F^2 1).
    """
    c = h_family.slot_scales
    return c, np.linalg.norm(rebuilt.rhos - c[:, None, None] * h_family.rhos, axis=(1, 2))


def verify_marginal_axioms(q_family: Family, h_family: Family,
                           rebuilt: Family) -> AxiomReport:
    """Check the exchange axioms an abstract pair (Q, H or h) must satisfy.

    ``rebuilt`` is :func:`reconstruct_qqsp` of the pair: maps H^{s,t} embed, trajectory psi_t;
    phi_t = omega_0 after Q^{0,t} on the predual side. A :func:`derived_pair` takes the exchange
    in closed form (:func:`_exchange_bound`); any other pair sweeps it, one
    :func:`qqsp.process.conditioned_products` call for each chunk's E_{psi_s} H^{s,t} and one
    :func:`qqsp.process.trailing_products` call for its E_{phi_t} and for H's trailing
    E_{omega_t}.
    """
    if q_family.n != h_family.n:
        raise ValueError("families live on different algebras")
    if len({q_family.horizon, h_family.horizon, rebuilt.horizon}) > 1:   # so one KeyIndex
        raise ValueError("families cover different (s, t) lattices")
    rho0 = rebuilt.omega(0).rho
    phi_rhos = np.array([rho0, *(w.rho for w in carried_states(
        q_family.maps, rho0, "phi_t", 1, rows=q_family.key_index.firsts))])
    cores = h_family.maps   # H/h carry no lead, so their cores are the stored maps
    flip = flip_rows(h_family.n)
    ss, ts = h_family.key_index.pair_s, h_family.key_index.pair_t

    def flipped(part):
        # H - U H, so that each flipped core is made only while it is subtracted
        stack = cores.rows_at(part)
        return stack - stack[:, flip]

    def exchanged(part):   # E_{psi_s} H^{s,t}, followed by H's trailing factor E_{omega_t}
        stack = conditioned_products(rebuilt.rhos[ss[part]], cores.rows_at(part))
        return trailing_products(stack, h_family.rhos[ts[part]])

    def intertwined(part):   # Q^{s,t} E_{phi_t}
        return trailing_products(q_family.maps.rows_at(part), phi_rhos[ts[part]])

    side = h_family.n * h_family.n
    if derived_pair(q_family, h_family, rebuilt):
        exchange = _exchange_bound(q_family, h_family, rebuilt, phi_rhos)
    else:
        exchange = pair_residuals(h_family, (side, side * side), exchanged, intertwined,
                                  "axiom-exchange")
    return AxiomReport(
        flip=pair_residuals(h_family, (side * side, side), flipped, None,
                            "axiom-flip", scales=h_family.trailing_norms),
        exchange=exchange,
        absorption=_absorption(h_family, rebuilt),
        trajectory_gap=float(trace_norms(phi_rhos - rebuilt.rhos).max()),
    )


def _exchange_bound(q_family: Family, h_family: Family, rebuilt: Family,
                    phi_rhos: np.ndarray) -> ResidualTable:
    """||E_{psi_s} H^{s,t} - Q^{s,t} E_{phi_t}|| of a :func:`derived_pair`, bounded per pair.

    With Q = E_{omega_s} C and :func:`_psi_drift` the gap is Q E_{c_s rho_t - phi_t} +
    E_{delta_s} C E_{omega_t}: at most ||Q|| ||c_s rho_t - phi_t||_F + d_s ||C|| ||rho_t||_F,
    plus :data:`ROUNDING` of ||Q|| ||rho_t||_F, on the map norms. No E is placed.
    """
    c, d = _psi_drift(h_family, rebuilt)
    ss, ts = h_family.key_index.pair_s, h_family.key_index.pair_t
    rho_norms = h_family.trailing_norms[ts]
    shift = np.linalg.norm(c[ss, None, None] * h_family.rhos[ts] - phi_rhos[ts], axis=(1, 2))
    qs, cores = q_family.map_norms, h_family.map_norms
    return ResidualTable(h_family.key_index.pairs, qs * shift + d[ss] * cores * rho_norms
                         + ROUNDING * qs * rho_norms, "axiom-exchange")


def _absorption(h_family: Family, rebuilt: Family) -> ResidualTable:
    """||H - H embed E_{psi_t}|| = ||C^{s,t}|| ||rho_t - c_t psi_t||_F at every pair (s, t).

    With E_{omega_t} embed = c_t 1 the gap is C^{s,t} E_{rho_t - c_t psi_t}: the core's norm
    (:attr:`Family.map_norms`) times one Frobenius norm per t; no E is placed.
    """
    gaps = np.linalg.norm(h_family.rhos - h_family.slot_scales[:, None, None] * rebuilt.rhos,
                          axis=(1, 2))
    index = h_family.key_index
    return ResidualTable(index.pairs, h_family.map_norms * gaps[index.pair_t], "axiom-absorption")


def reconstruct_qqsp(q_family: Family, h_family: Family,
                     omega0: State, target_type: str,
                     strict: bool = True, tol: float = 1e-8) -> Family:
    """Rebuild the lattice from a marginal pair: P^{s,t} x = H^{s,t}(embed(x)).

    E_{omega_t} embed = c_t 1, so the rebuilt maps are H's own array scaled by c_t as read
    (:class:`qqsp.algebra.ScaledMapStack`), and the trajectory psi_t, omega_0 (x) omega_0
    after P^{0,t}, is carried a chunk of rows at a time. In strict mode the rebuilt lattice
    must pass the axiom suite at ``tol``.
    """
    if target_type not in ("A", "B"):
        raise ValueError(f"target type must be 'A' or 'B', got {target_type!r}")
    maps = ScaledMapStack(h_family.maps, h_family.slot_scales[h_family.key_index.pair_t])
    psis = carried_states(maps, np.kron(omega0.rho, omega0.rho), "psi_t", 1,
                          rows=h_family.key_index.firsts)
    rebuilt = Family("P", h_family.n, maps, (omega0, *psis), target_type,
                     h_family.algebra_kind)
    if strict:
        report = verify_marginal_axioms(q_family, h_family, rebuilt)
        if not report.ok(tol):
            raise ValidationFailure(
                f"marginal pair fails the axiom suite (max residual {report.max_residual:.3e})")
    return rebuilt


def conclusion_b_residuals(q_family: Family, h_family: Family, rebuilt: Family) -> ResidualTable:
    """||E_{psi_s} P_rec^{s,t} - Q^{s,t}|| at every pair, the rebuilt lattice's conclusion b.

    Swept on the rebuilt lattice's conditioned maps, except for a :func:`derived_pair`:
    P_rec = c_t C and :func:`_psi_drift` make the gap (c_s c_t - 1) Q + c_t E_{delta_s} C, at
    most |c_s c_t - 1| ||Q|| + |c_t| d_s ||C|| plus :data:`ROUNDING` of ||Q||.
    """
    if not derived_pair(q_family, h_family, rebuilt):
        return pair_residuals(rebuilt, (q_family.n ** 2, q_family.n ** 2),
                              rebuilt.conditioned.rows_at, q_family.maps.rows_at, "conclusion-b")
    c, d = _psi_drift(h_family, rebuilt)
    ss, ts = h_family.key_index.pair_s, h_family.key_index.pair_t
    qs = q_family.map_norms
    return ResidualTable(h_family.key_index.pairs, np.abs(c[ss] * c[ts] - 1) * qs
                         + np.abs(c[ts]) * d[ss] * h_family.map_norms + ROUNDING * qs,
                         "conclusion-b")


def rebuilt_kc(q_family: Family, h_family: Family, rebuilt: Family,
               kc: ResidualTable | None = None) -> ResidualTable:
    """:func:`qqsp.process.kc_consistency` of the rebuilt lattice, swept unless the pair is a
    :func:`derived_pair` and ``kc`` the lattice's own table, whose gaps G it then rescales.

    With P_rec = c_t C and :func:`_psi_drift` the rebuilt gap is c_t [(1 - k) C^{s,t} + k G]
    less a delta term: at most |c_t| (|k| G + |1 - k| ||C^{s,t}||) plus, for law A,
    k = c_tau^2 and |c_tau c_t| d_tau ||C^{s,tau}|| ||C^{tau,t}||; for law B, k = (c_s c_tau)^2
    and (2ab + b^2) |c_t| ||C^{tau,t}||, a = |c_s c_tau| ||Q^{s,tau}|| and b = |c_tau| d_s
    ||C^{s,tau}|| the parts of E_{psi_s} P_rec^{s,tau}; plus :data:`ROUNDING` of |c_t| ||C^{s,t}||.
    """
    if kc is None or not derived_pair(q_family, h_family, rebuilt):
        return kc_consistency(rebuilt)
    law = rebuilt.process_type
    (s, tau, t), gaps, (whole, left, right) = _split_table(
        kc, f"kc-type-{law}", h_family, f"the kc table of a type-{law} lattice on "
                                        f"{h_family.kind}'s cores")
    c, d = _psi_drift(h_family, rebuilt)
    ac = np.abs(c)
    if law == "A":
        k = c[tau] ** 2
        spread = ac[tau] * ac[t] * d[tau] * left * right
    else:
        k = (c[s] * c[tau]) ** 2
        a = ac[s] * ac[tau] * q_family.map_norms[h_family.key_index.left]
        b = ac[tau] * d[s] * left
        spread = (2 * a * b + b * b) * ac[t] * right
    bound = ac[t] * (np.abs(k) * gaps + np.abs(1 - k) * whole + ROUNDING * whole) + spread
    return ResidualTable(h_family.key_index.splits, bound, kc.label)


def state_consistency_residual(q_family: Family) -> ResidualTable:
    """Residual of E_{omega_s} Q^{s,t} = E_{omega_t} (trajectory consistency).

    Measured as the operator-norm gap between the two conditional expectations, i.e.
    with omega_s carried forward through Q^{s,t}. E is linear in the state and
    E_sigma E_sigma^dagger = ||sigma||_F^2 1, so the gap E_{omega_t} - E_{Q_* omega_s}
    has norm ||rho_t - Q^{s,t}_* rho_s||_F and no E is placed. One
    :func:`qqsp.process.carried_states` call carries every pair; a failure names its pair.
    """
    if q_family.omegas is None:
        raise ValueError("family carries no omega trajectory")
    ss, ts = q_family.key_index.pair_s, q_family.key_index.pair_t
    carried = carried_states(q_family.maps, q_family.rhos[ss],
                             lambda k: (f"Q^{{{ss[k]},t}}_* omega_{ss[k]}", ts[k]))
    gaps = q_family.rhos[ts] - np.array([w.rho for w in carried])
    return ResidualTable(q_family.key_index.pairs, np.linalg.norm(gaps, axis=(1, 2)),
                         "state-consistency")


def slice_residuals(lattice: Family, q_family: Family,
                    h_family: Family,
                    z_family: Family | None = None) -> dict:
    """Map-level residuals of the slice identities, keyed by identity name.

    reconstruction_slot: H(embed x) = P x; averaged_slot: H(x (x) 1) = omega_t(x) 1 (x) 1;
    z_reconstruction_slot: Z(embed x) = embed(Q x); z_averaged_slot as for H. Each is a
    closed form: with E_{omega_t} embed = c_t 1 the reconstruction slots are
    max |c_t - 1| ||P^{s,t}|| and sqrt(n) max |c_t - 1| ||Q^{s,t}||; E_{omega_t} embed_averaged
    and the constant map are rank one, so the averaged slots are ||P^{s,t}(1) - 1 (x) 1||_F
    ||rho_t||_F and sqrt(n) ||Q^{s,t}(1) - 1||_F ||rho_t||_F.
    """
    if h_family.maps is not lattice.maps:
        raise ValueError(f"{h_family.kind} does not store this lattice's maps P^{{s,t}} "
                         f"as its cores")
    if z_family is not None and z_family.maps is not q_family.maps:
        raise ValueError(f"{z_family.kind} does not store the maps Q^{{s,t}} of this Q family")
    n, ts = lattice.n, lattice.key_index.pair_t
    drifts = np.abs(h_family.slot_scales - 1)[ts]   # |c_t - 1| by pair

    def averaged(maps, side: int) -> float:
        """max ||F^{s,t}(1) - 1||_F ||rho_t||_F over the pairs, one gemv per map for F(1)."""
        units = np.concatenate([maps.rows_at(part) @ vec(np.eye(n))
                                for part in chunks(len(maps), 16 * side ** 2 * n ** 2)])
        gaps = np.linalg.norm(units - vec(np.eye(side)), axis=1)
        return max((gaps * h_family.trailing_norms[ts]).tolist())

    out = {
        "reconstruction_slot": float(np.max(drifts * h_family.map_norms)),
        "averaged_slot": averaged(lattice.maps, n * n),
    }
    if z_family is not None:
        root_n = z_family.lead_norm
        out["z_reconstruction_slot"] = root_n * float(np.max(drifts * z_family.map_norms))
        out["z_averaged_slot"] = root_n * averaged(z_family.maps, n)
    return out

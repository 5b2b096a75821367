"""Process lattices: seeds, type A/B propagation, consistency diagnostics.

A seed supplies the unit-step maps P^{k,k+1} and an initial state. The
lattice is filled on the integer time grid with the constructing split
fixed at tau = t-1; consistency at every other split is measured, never
assumed. The state trajectory obeys omega_t(x) = (omega_0 (x) omega_0)(P^{0,t} x).
The lattice and its marginals share one type, :class:`Family`, which holds
its maps and the trajectory's conditional expectations E_{omega_t} as one array each.

Every split product is formed by one kernel, :func:`fundamental_rights` and
:func:`fundamental_products`, under one of three laws: A, the type-A
fundamental equation; B, the type-B one with Q = E_{omega_s} C^{s,tau}; plain,
C^{s,tau} C^{tau,t}. :func:`propagate` fills the lattice with it, a row at a
time, and :func:`split_residuals` is the one sweep that measures it, for
:func:`kc_consistency` and for the Markov laws of the marginals. Every residual
table, split or pair (:func:`pair_residuals`), is taken a chunk of its keys at a
time: the operands are slices or takes of the stored arrays, and each chunk's
gaps are one batched product, one subtraction and one Gram call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .algebra import (
    ChoiReport,
    InvalidDensity,
    State,
    SuperMap,
    certify_unital_cp,
    MapStack,
    ScaledMapStack,
    Stacked,
    doubled_after,
    embed_supermap,
    expectation_matrices,
    flip_symmetry_residual,
    predual,
)
# operator_norm is not called here since the sweeps take stacked norms; perfbench's
# tracer test still looks the name up in this module
from .linalg import operator_norm  # noqa: F401
from .linalg import chunks, gram_norms, predual_matrix, scaled_grams, stacked_products, unvec, vec

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
    """ChoiReport plus flip-symmetry residual for every unit-step map.

    Each distinct map object is certified once; a seed that holds one map T
    times gets its row T times.
    """
    rows = {}
    for m in seed.step_maps:
        if id(m) not in rows:
            rows[id(m)] = (certify_unital_cp(m, cp_tolerance, unital_tolerance),
                           flip_symmetry_residual(m))
    return [StepDiagnostic(k, *rows[id(m)]) for k, m in enumerate(seed.step_maps)]


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


def reject_seed(issues: list[SeedIssue]) -> None:
    """Raise ValidationFailure naming the worst of ``issues``, if there is any."""
    if issues:
        worst = max(issues, key=lambda i: i.residual)
        raise ValidationFailure(
            f"seed fails validation: step {worst.step} {worst.kind} "
            f"residual {worst.residual:.3e} ({len(issues)} issue(s))")


FAMILY_KINDS = ("P", "Q", "H", "h", "Z", "z")


@dataclass(frozen=True)
class Family:
    """A two-time family of maps {F^{s,t}} over one state trajectory.

    Kind P is the process itself (M -> M (x) M, tagged type A or B); Q is
    its marginal Markov process on M; H/h and Z/z are the doubled
    marginals on M (x) M (see :mod:`qqsp.marginal`). ``maps`` holds the stored maps
    in sorted pair order as one array (:class:`qqsp.algebra.MapStack`), or a rebuilt
    lattice's scaled view of another family's (:class:`qqsp.algebra.ScaledMapStack`).
    ``expectations`` holds E_{omega_t} by t as one array, where the caller hands it or
    the maps come as a dict; otherwise :meth:`expectation_rows` places them.

    A ``factored`` family never forms its n^4 x n^4 maps. H/h store in ``maps``
    the core C^{s,t} (M -> M (x) M) of F^{s,t} = C^{s,t} E_{omega_t}; Z/z store
    Q's maps Y^{s,t} (M -> M) of F^{s,t} = embed Y^{s,t} E_{omega_t}
    (:attr:`stores_q`), and nothing forms embed Y^{s,t}. Residual sweeps work on
    the stored maps: E E^dagger = ||rho||_F^2 1 gives ||X E_{omega_t}|| =
    ||rho_t||_F ||X|| (:meth:`trailing_norm`), and embed^dagger embed = n 1 gives
    ||embed X|| = sqrt(n) ||X|| (:attr:`lead_norm`). Any other family has trivial
    lead and trailing factors, so the same sweeps read its maps as they are.
    """

    kind: str
    n: int
    maps: MapStack | ScaledMapStack
    omegas: tuple[State, ...] | None = None
    process_type: str | None = None
    algebra_kind: str = "full"
    expectations: MapStack | None = field(default=None, repr=False, compare=False)
    factored: bool = False
    # the reconstruction slot S_t = E_{omega_t} embed of a factored family by t, which stands
    # between two stored maps of Z/z; shared by the families derived from it
    slots: np.ndarray | None = field(default=None, repr=False, compare=False)
    # E_{omega_s} C^{s,t} (:attr:`conditioned`); shared by a lattice and its H/h
    conditioned_maps: MapStack | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise ValueError(f"unknown family kind {self.kind!r}")
        if self.kind == "P" and self.process_type not in ("A", "B"):
            raise ValueError(f"a process needs type 'A' or 'B', got {self.process_type!r}")
        if self.factored and (self.kind in ("P", "Q") or self.expectations is None):
            raise ValueError(f"a factored family is a doubled marginal with the E_{{omega_t}} "
                             f"of its lattice, got kind {self.kind!r}")
        if not isinstance(self.maps, (MapStack, ScaledMapStack)):
            # a hand-built {(s, t): SuperMap} dict: its maps and E_{omega_t} are stacked once
            order = sorted(self.maps)
            object.__setattr__(self, "maps", MapStack([self.maps[k].matrix for k in order], order))
            if self.expectations is None and self.omegas is not None:
                object.__setattr__(self, "expectations", MapStack(
                    expectation_matrices([w.rho for w in self.omegas]), range(len(self.omegas))))
        in_dim = self.n if self.kind in ("P", "Q") or self.factored else self.n * self.n
        out_dim = self.n if self.kind == "Q" or self.stores_q else self.side
        if (self.maps.in_dim, self.maps.out_dim) != (in_dim, out_dim):
            raise ValueError(f"maps have dims ({self.maps.in_dim}, {self.maps.out_dim}), "
                             f"expected ({in_dim}, {out_dim})")
        if self.factored and self.slots is None:   # S_t, one composition per t
            embed, es = embed_supermap(self.n), self.expectations
            object.__setattr__(self, "slots", np.array([(es[t] @ embed).matrix for t in es]))

    @property
    def side(self) -> int:
        """Side of the algebra the maps land in, where their preduals' states live."""
        return self.n if self.kind == "Q" else self.n * self.n

    @property
    def horizon(self) -> int:
        return max(t for (_, t) in self.maps)

    @property
    def stores_q(self) -> bool:
        """Whether this is a factored Z/z: its stored maps are Q's, and its lead is embed."""
        return self.factored and self.kind in ("Z", "z")

    @property
    def lead_norm(self) -> float:
        """||embed X|| / ||X|| = sqrt(n) for a factored Z/z; 1 for every other family."""
        return math.sqrt(self.n) if self.stores_q else 1.0

    def map(self, s: int, t: int) -> SuperMap:
        """F^{s,t} of a family stored as it is; a factored family has only its core."""
        if self.factored:
            raise ValueError(f"factored {self.kind} stores only the core of F^{{s,t}}; read maps")
        return self.maps[(s, t)]

    def expectation_rows(self, ts) -> np.ndarray:
        """E_{omega_t} for every t of ``ts``, as one (k, n^2, n^4) stack.

        Rows of the stored array where the family has one, else placed from the states
        in one :func:`qqsp.algebra.expectation_matrices` call. Placing is exact, so both
        give the same bits.
        """
        if self.expectations is not None:
            return self.expectations.array[list(ts)]
        return expectation_matrices([self.omegas[t].rho for t in ts])

    @property
    def conditioned(self) -> MapStack:
        """E_{omega_s} C^{s,t} at every pair, the lattice's Q^{s,t}, formed once into one array.

        One gemm a pair, a chunk of pairs at a time (:func:`qqsp.linalg.chunks`), with the
        chunk's maps read by ``maps.rows`` and its E_{omega_s} by :meth:`expectation_rows`;
        Z/z's E_{omega_s} embed Y^{s,t} is S_s Y^{s,t}. A type-B lattice comes from
        :func:`propagate` with them; kc, h's doubled law, the lattice's Q family and the
        rebuilt lattice's kc and conclusion-b read them here.
        """
        if self.conditioned_maps is None:
            order, rows, cols = self.maps.order, self.maps.out_dim ** 2, self.maps.in_dim ** 2
            q = np.empty((len(order), self.n ** 2, cols), dtype=complex)
            for part in chunks(len(order), 16 * rows * cols):
                starts = [s for s, _ in order[part]]
                before = self.slots[starts] if self.stores_q else self.expectation_rows(starts)
                q[part] = stacked_products(before, self.maps.rows(order[part]))
            object.__setattr__(self, "conditioned_maps", MapStack(q, order))
        return self.conditioned_maps

    def trailing_norm(self, t: int) -> float:
        """||X T_t|| / ||X|| for the trailing factor T_t: ||rho_t||_F, or 1."""
        return self._rho_norms[t] if self.factored else 1.0

    @cached_property
    def _rho_norms(self) -> tuple[float, ...]:
        return tuple(float(np.linalg.norm(w.rho)) for w in self.omegas)

    @cached_property
    def thin_r(self) -> Stacked:
        """R^{s,t} of the thin QR of every stored map, one ``np.linalg.qr`` call per chunk.

        ||C X|| = ||R X|| for every X, so a residual C^{s,t} X is normed on R^{s,t} X.
        """
        maps = self.maps.array
        return Stacked(np.concatenate([np.linalg.qr(maps[part], mode="r")
                                       for part in chunks(len(maps), maps[0].nbytes)]),
                       self.maps.order)

    def omega(self, t: int) -> State:
        return self.omegas[t]

    def pairs(self):
        return list(self.maps.order)


def computed_states(rhos, quantity: str, first_t: int) -> tuple[State, ...]:
    """The states the pipeline computed for t = first_t, first_t + 1, ..., checked as one stack.

    Failing :class:`State`'s checks is a ValidationFailure naming the first failing t.
    """
    try:
        return State.stack(rhos)
    except InvalidDensity as exc:
        raise ValidationFailure(f"computed state {quantity} at t={first_t + exc.index} "
                                f"is not a state: {exc}") from exc


def computed_state(rho, quantity: str, t: int) -> State:
    """One state the pipeline computed; see :func:`computed_states`."""
    return computed_states(np.asarray(rho)[None], quantity, t)[0]


LAWS = ("A", "B", "plain")


def fundamental_rights(cores, betweens, law: str):
    """The right factors :func:`fundamental_products` takes for the cores C^{tau,t}.

    ``cores`` holds the matrices of the C^{tau,t} and ``betweens`` the matrix that
    stands before each. Law A: the (k, n^2, n^2) stack of E_{omega_tau} C^{tau,t},
    one gemm per core. Laws B and plain: the cores themselves, which
    :func:`qqsp.algebra.doubled_after` or the matmul takes. Only law A reads ``betweens``.
    """
    if law == "A":
        return stacked_products(betweens, cores)
    return cores


def fundamental_products(lefts, rights, law: str) -> np.ndarray:
    """The split products of C^{s,tau} and C^{tau,t}, one per slice, as a stack.

    ``lefts`` and ``rights`` are stacks of one factor per slice, or a single factor
    that serves every slice; ``rights`` comes from :func:`fundamental_rights`. Law A,
    the type-A fundamental equation: C^{s,tau} (E_{omega_tau} C^{tau,t}), associated
    right to left so that no n^4 x n^4 product is formed (n^8 MACs, not n^10), in one
    batched matmul. Law B, the type-B equation: (Q (x) Q) C^{tau,t}, where ``lefts``
    holds Q = E_{omega_s} C^{s,tau} (:attr:`Family.conditioned`), by mode products
    (:func:`qqsp.algebra.doubled_after`). Law plain: C^{s,tau} C^{tau,t}. Per slice
    each product runs the gemm of its pair taken alone.
    """
    if law == "B":
        return doubled_after(lefts, rights)
    return np.matmul(lefts, rights)


def triples(horizon: int):
    """Every admissible split s < tau < t <= horizon, grouped by the pair (s, tau)."""
    for s in range(horizon - 1):
        for tau in range(s + 1, horizon):
            for t in range(tau + 1, horizon + 1):
                yield s, tau, t


def propagate(seed: QQSPSeed, strict: bool = True) -> Family:
    """Fill the lattice by the type-appropriate recursion at tau = t-1.

    The lattice is one (K, n^4, n^2) array in sorted pair order and E_{omega_t} one
    (T+1, n^2, n^4) array, both allocated up front. Each row t is one call of the split
    kernel over every s < t-1, or one per chunk of the row where its products exceed
    the chunk budget (:func:`qqsp.linalg.chunks`). Type B forms each Q^{s,t} here once
    and hands them on with the lattice (:attr:`Family.conditioned`).
    """
    if strict:
        reject_seed(validate_seed(seed))
    n, law, horizon = seed.n, seed.process_type, seed.horizon
    order = [(s, t) for s in range(horizon) for t in range(s + 1, horizon + 1)]
    at = {key: i for i, key in enumerate(order)}
    maps = np.empty((len(order), n ** 4, n * n), dtype=complex)
    es = np.empty((horizon + 1, n * n, n ** 4), dtype=complex)
    qs = np.empty((len(order), n * n, n * n), dtype=complex) if law == "B" else None
    omegas = [seed.omega0]
    rho00 = np.kron(seed.omega0.rho, seed.omega0.rho)
    for t in range(1, horizon + 1):
        maps[at[(t - 1, t)]] = seed.step_maps[t - 1].matrix
        es[t - 1] = expectation_matrices(omegas[t - 1].rho[None])[0]
        lefts, rows = ([at[(s, tau)] for s in range(t - 1)] for tau in (t - 1, t))
        if rows:
            rights = fundamental_rights(maps[at[(t - 1, t)]][None], es[t - 1][None], law)
        for part in chunks(len(rows), 16 * n ** 6):   # the products are n^4 x n^2
            left = (qs if law == "B" else maps).take(lefts[part], axis=0)
            maps[rows[part]] = fundamental_products(left, rights, law)
        if law == "B":   # Q^{s,t} of the finished column t: the left factors of row t + 1
            column = [at[(s, t)] for s in range(t)]
            qs[column] = stacked_products(es[:t], [maps[i] for i in column])
        image = predual_matrix(maps[at[(0, t)]], n, n * n) @ vec(rho00)
        omegas.append(computed_state(unvec(image, n), "omega_t", t))
    es[horizon] = expectation_matrices(omegas[horizon].rho[None])[0]
    return Family("P", n, MapStack(maps, order), tuple(omegas), law, seed.algebra_kind,
                  expectations=MapStack(es, range(horizon + 1)),
                  conditioned_maps=None if qs is None else MapStack(qs, order))


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


def _table(keys, shape, gaps, scales, label: str) -> ResidualTable:
    """scales[t] ||gap|| for every key (..., t) of ``keys``, each gap of the given shape.

    The keys are taken in chunks of about ``CHUNK_BYTES`` of gaps
    (:func:`qqsp.linalg.chunks`); ``gaps(part)`` returns the stack of the gaps of
    ``keys[part]``, and each chunk's Grams are one :func:`scaled_grams` call.
    Every norm of the table is then taken in one stacked eigvalsh
    (:func:`qqsp.linalg.gram_norms`) and scaled by the one vector ``scales``,
    indexed by t. Per slice the Grams and norms are those of the gap taken alone,
    so the table does not depend on the chunks.
    """
    if not keys:
        return ResidualTable({}, label)
    grams, exps = zip(*(scaled_grams(gaps(part))
                        for part in chunks(len(keys), 16 * shape[0] * shape[1])))
    norms = gram_norms(np.concatenate(grams), np.concatenate(exps))
    values = np.asarray(scales)[[key[-1] for key in keys]] * norms
    return ResidualTable(dict(zip(keys, values.tolist())), label)


def split_residuals(family: Family, law: str, label: str) -> ResidualTable:
    """||F^{s,t} - G^{s,tau,t} T_t|| at every split whose two factors are stored.

    G^{s,tau,t} is the split product under ``law`` of the stored maps C^{s,tau}
    and C^{tau,t} (:func:`fundamental_products`) and T_t is the family's trailing
    factor, so the norm is taken on the stored maps (:class:`Family`). Under law A
    E_{omega_tau} stands between the two, or the slot S_tau = E_{omega_tau} embed for
    Z/z, whose lead embed is taken out of the norm as sqrt(n). Law A's right factors
    E_{omega_tau} C^{tau,t} and law B's left factors E_{omega_s} C^{s,tau} are the
    family's conditioned maps (:attr:`Family.conditioned`), formed once per run. For
    each chunk of splits the operands are slices or takes of those arrays, the products
    are one kernel call and the stored maps C^{s,t} are subtracted into them in one call.
    """
    if law not in LAWS:
        raise ValueError(f"unknown split law {law!r}")
    maps, horizon = family.maps, family.horizon
    # the order of :func:`triples`, which runs over the sorted pairs (s, tau)
    keys = [(s, tau, t) for s, tau in maps.order for t in range(tau + 1, horizon + 1)
            if (tau, t) in maps.index]
    lefts = [(s, tau) for s, tau, _ in keys]
    rights = [(tau, t) for _, tau, t in keys]
    wholes = [(s, t) for s, _, t in keys]
    left_maps = family.conditioned if law == "B" else maps
    right_maps = family.conditioned if law == "A" else maps

    def gaps(part):
        products = fundamental_products(left_maps.rows(lefts[part]),
                                        right_maps.rows(rights[part]), law)
        return np.subtract(maps.rows(wholes[part]), products, out=products)

    scales = [family.lead_norm * family.trailing_norm(t) for t in range(horizon + 1)]
    return _table(keys, (maps.out_dim ** 2, maps.in_dim ** 2), gaps, scales, label)


def pair_residuals(family: Family, shape, lhs, rhs, label: str, scale=None) -> ResidualTable:
    """scale(t) ||L^{s,t} - R^{s,t}|| at every stored pair (s, t) of ``family``.

    The pairs are taken in the order of the family's array, a chunk at a time
    (:func:`_table`), and each L^{s,t} - R^{s,t} has the given ``shape``. For a chunk,
    a slice ``part`` of that order, ``lhs(part)`` gives the L's and ``rhs(part)`` the
    R's, each as one stack; with ``rhs`` None the L's are the gaps. ``scale`` defaults
    to 1; a gap followed by a family's trailing factor takes that family's
    :meth:`Family.trailing_norm`.
    """
    def gaps(part):
        stack = lhs(part)
        return stack if rhs is None else stack - rhs(part)

    scales = [1.0 if scale is None else scale(t) for t in range(family.horizon + 1)]
    return _table(family.pairs(), shape, gaps, scales, label)


def kc_consistency(lattice: Family) -> ResidualTable:
    """Residual of the fundamental equation at every admissible split.

    For each s < tau < t the gap between P^{s,t} and the fundamental
    equation's product under the lattice's own type as the law
    (:func:`split_residuals`) is evaluated in operator norm. The maximum is
    the lattice's consistency score; a nonzero score is a diagnostic, not
    an error.
    """
    ptype = lattice.process_type
    return split_residuals(lattice, ptype, f"kc-type-{ptype}")


def interact_states(lattice: Family, phi: State, psi: State,
                    s: int, t: int) -> State:
    """Law of interaction: the state with density predual(P^{s,t})(rho_phi (x) rho_psi).

    Symmetric in (phi, psi) because the lattice maps are flip symmetric.
    """
    if not (0 <= s < t <= lattice.horizon and t - s >= 1):
        raise ValueError(f"times ({s}, {t}) outside the lattice")
    rho = predual(lattice.map(s, t))(np.kron(phi.rho, psi.rho))
    return State(rho)

"""Process lattices: seeds, type A/B propagation, consistency diagnostics.

A seed supplies the unit-step maps P^{k,k+1} and an initial state. The
lattice is filled on the integer time grid with the constructing split
fixed at tau = t-1; consistency at every other split is measured, never
assumed. The state trajectory obeys omega_t(x) = (omega_0 (x) omega_0)(P^{0,t} x).
The lattice and its marginals share one type, :class:`Family`, which holds
its maps as one array; the trajectory's conditional expectations E_{omega_t} are
placed from the states as they are read, and no array of them is kept.

Every product E_rho F is formed by :func:`conditioned_products` and every F E_rho by
:func:`trailing_products`, every computed state by :func:`carried_images` and
:func:`computed_states`, and every split product by
:func:`fundamental_products` under one of three laws: A, the type-A fundamental equation;
B, the type-B one with Q = E_{omega_s} C^{s,tau}; plain, C^{s,tau} C^{tau,t}.
:func:`propagate` fills the lattice with it and :func:`split_residuals` measures it.
Every residual table (:func:`split_residuals`, :func:`pair_residuals`) is taken a chunk
of its keys at a time, one batched product, subtraction and Gram call per chunk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property
from types import MappingProxyType

import numpy as np

from .algebra import (
    ChoiReport,
    InvalidDensity,
    State,
    SuperMap,
    certify_unital_cp,
    MapStack,
    ScaledMapStack,
    doubled_after,
    expectation_matrices,
    flip_symmetry_residual,
)
# operator_norm is not called here since the sweeps take stacked norms; perfbench's
# tracer test still looks the name up in this module
from .linalg import operator_norm  # noqa: F401
from .linalg import (apply_supermatrix, chunks, gram_norms, operator_norms, predual_matrix,
                     scaled_grams, stacked_products)

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


class Keys(tuple):
    """The time tuples (s, t) or (s, tau, t) of a residual table, in the order of its values."""

    @cached_property
    def texts(self) -> tuple[str, ...]:
        """The report's "s,t" or "s,tau,t" text of every tuple, formed once per key set."""
        return tuple(",".join(map(str, key)) for key in self)


class KeyIndex:
    """The keys of every residual table over one pair order, and the rows they read.

    ``pairs`` is the order, with columns ``pair_s`` and ``pair_t``; ``splits`` the splits of
    :func:`triples` whose (s, tau) and (tau, t) are in it, with columns ``s``, ``tau``, ``t``
    and the rows ``whole``, ``left`` and ``right`` of (s, t), (s, tau) and (tau, t); ``firsts``
    the rows of (0, t) for t = 1 .. horizon and ``position`` the row of each pair. Every family
    over all pairs of one horizon in sorted order shares one (:attr:`Family.key_index`).
    """

    def __init__(self, order):
        self.pairs = Keys(order)
        self.position = at = {key: i for i, key in enumerate(self.pairs)}
        horizon = max((t for _, t in self.pairs), default=0)
        self.splits = Keys(key for key in triples(horizon) if key[:2] in at and key[1:] in at)
        splits = np.array([[s, tau, t, at[(s, t)], at[(s, tau)], at[(tau, t)]]
                           for s, tau, t in self.splits], dtype=int).reshape(-1, 6)
        pairs = np.array(self.pairs, dtype=int).reshape(-1, 2)
        self.firsts = np.array([at[(0, t)] for t in range(1, horizon + 1)], dtype=int)
        for array in (splits, pairs, self.firsts):
            array.setflags(write=False)
        self.s, self.tau, self.t, self.whole, self.left, self.right = splits.T
        self.pair_s, self.pair_t = pairs.T


@cache
def _horizon_index(horizon: int) -> KeyIndex:
    return KeyIndex((s, t) for s in range(horizon) for t in range(s + 1, horizon + 1))


FAMILY_KINDS = ("P", "Q", "H", "h", "Z", "z")


@dataclass(frozen=True)
class Family:
    """A two-time family of maps {F^{s,t}} over one state trajectory.

    Kind P is the process itself (M -> M (x) M, tagged type A or B); Q is
    its marginal Markov process on M; H/h and Z/z are the doubled
    marginals on M (x) M (see :mod:`qqsp.marginal`). ``maps`` holds the stored maps
    in sorted pair order as one array (:class:`qqsp.algebra.MapStack`), or a rebuilt
    lattice's scaled view of another family's (:class:`qqsp.algebra.ScaledMapStack`).
    No family holds an array of E_{omega_t}: a reader places the rows it needs from the
    trajectory's density matrices (:attr:`rhos`) a chunk at a time.

    The doubled marginals are always stored factored (:attr:`factored`) and never
    form their n^4 x n^4 maps. H/h store in ``maps`` the core C^{s,t} (M -> M (x) M)
    of F^{s,t} = C^{s,t} E_{omega_t}; Z/z store Q's maps Y^{s,t} (M -> M) of
    F^{s,t} = embed Y^{s,t} E_{omega_t} (:attr:`stores_q`), and nothing forms
    embed Y^{s,t}. Residual sweeps work on the stored maps: E E^dagger =
    ||rho||_F^2 1 gives ||X E_{omega_t}|| = ||rho_t||_F ||X|| (:meth:`trailing_norm`),
    and embed^dagger embed = n 1 gives ||embed X|| = sqrt(n) ||X|| (:attr:`lead_norm`);
    P and Q have trivial lead and trailing factors.
    """

    kind: str
    n: int
    maps: MapStack | ScaledMapStack
    omegas: tuple[State, ...] | None = None
    process_type: str | None = None
    algebra_kind: str = "full"
    # E_{omega_s} C^{s,t} (:attr:`conditioned`); shared by a lattice and its H/h
    conditioned_maps: MapStack | ScaledMapStack | None = field(default=None, repr=False,
                                                               compare=False)
    # set by :func:`propagate` alone: every P^{s,t} is stored as its law's product at tau = t-1
    propagated: bool = field(default=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise ValueError(f"unknown family kind {self.kind!r}")
        if self.kind == "P" and self.process_type not in ("A", "B"):
            raise ValueError(f"a process needs type 'A' or 'B', got {self.process_type!r}")
        if self.factored and self.omegas is None:
            raise ValueError(f"a doubled marginal {self.kind} needs the E_{{omega_t}} of its "
                             f"lattice, and was given no trajectory")
        if not isinstance(self.maps, (MapStack, ScaledMapStack)):
            # a hand-built {(s, t): SuperMap} dict: its maps are stacked once
            order = sorted(self.maps)
            object.__setattr__(self, "maps", MapStack([self.maps[k].matrix for k in order], order))
        in_dim = self.n if self.kind in ("P", "Q") or self.factored else self.n * self.n
        out_dim = self.n if self.kind == "Q" or self.stores_q else self.side
        if (self.maps.in_dim, self.maps.out_dim) != (in_dim, out_dim):
            raise ValueError(f"maps have dims ({self.maps.in_dim}, {self.maps.out_dim}), "
                             f"expected ({in_dim}, {out_dim})")

    @property
    def side(self) -> int:
        """Side of the algebra the maps land in, where their preduals' states live."""
        return self.n if self.kind == "Q" else self.n * self.n

    @cached_property
    def horizon(self) -> int:
        return max(t for (_, t) in self.maps)

    @cached_property
    def key_index(self) -> KeyIndex:
        """The keys of this family's tables and the rows they read: its horizon's one index
        when it holds every pair in sorted order, else its own."""
        shared = _horizon_index(self.horizon)
        return shared if self.maps.order == shared.pairs else KeyIndex(self.maps.order)

    @property
    def factored(self) -> bool:
        """Whether this is a doubled marginal H/h/Z/z, stored as C^{s,t} of C^{s,t} E_{omega_t}."""
        return self.kind in ("H", "h", "Z", "z")

    @property
    def stores_q(self) -> bool:
        """Whether this is a Z/z: its stored maps are Q's, and its lead is embed."""
        return self.kind in ("Z", "z")

    @property
    def lead_norm(self) -> float:
        """||embed X|| / ||X|| = sqrt(n) for a factored Z/z; 1 for every other family."""
        return math.sqrt(self.n) if self.stores_q else 1.0

    def map(self, s: int, t: int) -> SuperMap:
        """F^{s,t} of a family stored as it is; a factored family has only its core."""
        if self.factored:
            raise ValueError(f"factored {self.kind} stores only the core of F^{{s,t}}; read maps")
        return self.maps[(s, t)]

    @property
    def conditioned(self) -> MapStack | ScaledMapStack:
        """E_{omega_s} C^{s,t} at every pair, the lattice's Q^{s,t}, formed once.

        :func:`propagate` hands a lattice them; any other family fills them here, one
        :func:`conditioned_products` call per chunk of pairs, except Z/z, whose
        E_{omega_s} embed Y^{s,t} = c_s Y^{s,t} (:attr:`slot_scales`) are Y scaled as read
        (:class:`qqsp.algebra.ScaledMapStack`).
        """
        if self.conditioned_maps is None:
            order, rows, cols = self.maps.order, self.maps.out_dim ** 2, self.maps.in_dim ** 2
            starts, at = self.key_index.pair_s, np.arange(len(order))
            if self.stores_q:
                maps = ScaledMapStack(self.maps, self.slot_scales[starts])
            else:
                q = np.empty((len(order), self.n ** 2, cols), dtype=complex)
                for part in chunks(len(order), 16 * rows * cols):
                    q[part] = conditioned_products(self.rhos[starts[part]],
                                                   self.maps.rows_at(at[part]))
                maps = MapStack(q, order)
            object.__setattr__(self, "conditioned_maps", maps)
        return self.conditioned_maps

    def trailing_norm(self, t: int) -> float:
        """||X T_t|| / ||X|| for the trailing factor T_t: ||rho_t||_F, or 1."""
        return self._rho_norms[t] if self.factored else 1.0

    @cached_property
    def rhos(self) -> np.ndarray:
        """The (T+1, n, n) stack of the trajectory's density matrices, for placing E_{omega_t}."""
        return np.array([w.rho for w in self.omegas])

    @cached_property
    def _rho_norms(self) -> tuple[float, ...]:
        return tuple(float(np.linalg.norm(w.rho)) for w in self.omegas)

    @cached_property
    def slot_scales(self) -> np.ndarray:
        """c_t = tr(rho_t) by t: E_omega(1 (x) x) = omega(1) x, so E_{omega_t} embed = c_t 1."""
        return np.array([np.trace(w.rho) for w in self.omegas])

    @property
    def map_norms(self) -> np.ndarray:
        """||C^{s,t}|| of every stored map, in pair order: one operator_norms call per chunk,
        once per array (P and H/h, Q and Z/z share theirs); each entry has the bits of the
        map's :func:`qqsp.linalg.operator_norm` taken alone.
        """
        if self.maps.norms is None:
            maps = self.maps.array
            self.maps.norms = np.concatenate([operator_norms(maps[part])
                                              for part in chunks(len(maps), maps[0].nbytes)])
        return self.maps.norms

    def omega(self, t: int) -> State:
        return self.omegas[t]

    def pairs(self):
        return list(self.maps.order)


def computed_states(rhos, quantity, first_t: int = 1) -> tuple[State, ...]:
    """The states the pipeline computed, checked as one stack. A failure is a ValidationFailure
    naming the first failing slice k: ``quantity`` at t = first_t + k, or for a function
    ``quantity`` the name and t it gives k.
    """
    try:
        return State.stack(rhos)
    except InvalidDensity as exc:
        name, t = (quantity(exc.index) if callable(quantity)
                   else (quantity, first_t + exc.index))
        raise ValidationFailure(f"computed state {name} at t={t} is not a state: {exc}") from exc


def conditioned_products(rhos, maps) -> np.ndarray:
    """The stack of E_{rho_k} F_k over k densities (k, n, n) and k (n^4, m) maps.

    Each E is placed from its density and each product is one gemm, with the bits of E @ F.
    """
    return stacked_products(expectation_matrices(rhos), maps)


def trailing_products(maps, rhos) -> np.ndarray:
    """The stack of F_k E_{rho_k} over k (m, n^2) maps and k densities (k, n, n): each E
    placed from its density, all products one batched matmul."""
    return np.matmul(maps, expectation_matrices(rhos))


def carried_images(maps, rhos, rows=None) -> np.ndarray:
    """The (k, in, in) predual images of densities under maps, unchecked.

    ``maps`` is one (out^2, in^2) map or a stack, or with ``rows`` the rows at those positions
    of a MapStack or ScaledMapStack; ``rhos`` is one (out, out) density or one per map. The maps
    are read and their preduals formed a chunk (:func:`qqsp.linalg.chunks`) at a time; each
    image is one gemv, with the bits of its :func:`qqsp.algebra.predual`.
    """
    rhos = np.asarray(rhos)
    if rows is None:
        maps = np.asarray(maps)
        stack = maps if maps.ndim == 3 else maps[None]
        out_dim, in_dim = (math.isqrt(d) for d in stack.shape[1:])
        count, read = len(stack), stack.__getitem__
    else:
        out_dim, in_dim = maps.out_dim, maps.in_dim
        count, read = len(rows), (lambda part: maps.rows_at(rows[part]))
    each = rhos.ndim == 3
    return np.concatenate([
        apply_supermatrix(predual_matrix(read(part), in_dim, out_dim),
                          (rhos[part] if each else rhos).reshape(-1, out_dim, out_dim), in_dim)
        for part in chunks(count, 16 * out_dim ** 2 * in_dim ** 2)])


def carried_states(maps, rhos, quantity, first_t: int = 1, rows=None) -> tuple[State, ...]:
    """The :func:`carried_images` of densities under maps, checked as the
    :func:`computed_states` from first_t."""
    return computed_states(carried_images(maps, rhos, rows), quantity, first_t)


LAWS = ("A", "B", "plain")


def fundamental_products(lefts, rights, law: str) -> np.ndarray:
    """The split products of C^{s,tau} and C^{tau,t}, one per slice, as a stack.

    ``lefts`` and ``rights`` are stacks of one factor per slice, or a single factor
    that serves every slice. Law A, the type-A fundamental equation:
    C^{s,tau} (E_{omega_tau} C^{tau,t}), ``rights`` holding E_{omega_tau} C^{tau,t}
    (:attr:`Family.conditioned`), so that no n^4 x n^4 product is formed (n^8 MACs, not
    n^10), in one batched matmul. Law B, the type-B equation: (Q (x) Q) C^{tau,t}, ``lefts``
    holding Q = E_{omega_s} C^{s,tau}, by mode products (:func:`qqsp.algebra.doubled_after`).
    Law plain: C^{s,tau} C^{tau,t}. Per slice each product is the gemm of its pair alone.
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
    """Fill the lattice and its Q^{s,t} = E_{omega_s} P^{s,t} by the recursion at tau = t-1.

    Both are one array in sorted pair order, allocated up front. Row t places P^{t-1,t} and
    forms Q^{t-1,t}; then, per chunk of its s < t-1 (:func:`qqsp.linalg.chunks`), one kernel
    call forms the P^{s,t} and one :func:`conditioned_products` call their Q^{s,t}; last it
    carries omega_t, going on with its hermitian part as :class:`State` takes it; the raw
    images are checked at the end in one :func:`computed_states` stack. Law A's right factor
    is Q^{t-1,t} and law B's left factors the Q^{s,t-1}, as in :func:`split_residuals`. Each
    Q^{s,t} is formed once and leaves with the lattice (:attr:`Family.conditioned`).
    """
    if strict:
        reject_seed(validate_seed(seed))
    n, law, horizon = seed.n, seed.process_type, seed.horizon
    index = _horizon_index(horizon)
    order, at = index.pairs, index.position
    maps = np.empty((len(order), n ** 4, n * n), dtype=complex)
    qs = np.empty((len(order), n * n, n * n), dtype=complex)
    lefts_of, rights_of = (maps, qs) if law == "A" else (qs, maps)
    rhos = np.empty((horizon + 1, n, n), dtype=complex)   # omega_t, as State will hold it
    rhos[0], raw = seed.omega0.rho, np.empty((horizon, n, n), dtype=complex)
    rho00 = np.kron(seed.omega0.rho, seed.omega0.rho)
    for t in range(1, horizon + 1):
        step = at[(t - 1, t)]
        maps[step] = seed.step_maps[t - 1].matrix
        qs[step] = conditioned_products(rhos[t - 1][None], maps[step][None])[0]
        lefts, rows = ([at[(s, tau)] for s in range(t - 1)] for tau in (t - 1, t))
        for part in chunks(len(rows), 16 * n ** 6):   # P^{s,t} is n^4 x n^2, E_{omega_s} n^2 x n^4
            maps[rows[part]] = products = fundamental_products(
                lefts_of.take(lefts[part], axis=0), rights_of[step][None], law)
            qs[rows[part]] = conditioned_products(rhos[:t - 1][part], products)
        raw[t - 1] = image = carried_images(maps[at[(0, t)]], rho00)[0]
        rhos[t] = (image + np.conj(image).T) / 2   # State's hermitian part, bit for bit
    omegas = (seed.omega0, *computed_states(raw, "omega_t", 1))
    return Family("P", n, MapStack(maps, order), omegas, law, seed.algebra_kind,
                  conditioned_maps=MapStack(qs, order), propagated=True)


@dataclass(frozen=True, eq=False)
class ResidualTable:
    """Operator-norm residuals: ``values`` in the order of the :class:`KeyIndex`'s ``keys``."""

    keys: Keys
    values: np.ndarray
    label: str = ""

    @property
    def entries(self) -> MappingProxyType:
        """The read-only {time tuple: value} view of the table."""
        return MappingProxyType(dict(zip(self.keys, self.values.tolist())))

    @property
    def max_residual(self) -> float:
        return max(self.values.tolist()) if len(self.values) else 0.0

    def worst(self):
        return max(self.entries.items(), key=lambda kv: kv[1], default=None)

    def ok(self, tol: float) -> bool:
        return self.max_residual <= tol


def _table(keys: Keys, shape, gaps, scales, label: str, swept=None) -> ResidualTable:
    """scales[k] ||gap_k|| at the positions k ``swept`` of ``keys`` (all of them by default),
    each gap of the given shape; an unswept key reads +0.0.

    ``gaps(part)`` stacks the gaps of a chunk ``part`` (:func:`qqsp.linalg.chunks`) of the
    swept positions, whose Grams are one :func:`scaled_grams` call; every norm is then one
    stacked eigvalsh (:func:`qqsp.linalg.gram_norms`), times its key's scale. Per
    slice the norms are those of the gap alone, so the table does not depend on the chunks.
    A chunk whose gaps are all exactly zero takes no Gram: its norms are the +0.0 the Gram
    route gives them.
    """
    at = np.arange(len(keys)) if swept is None else swept
    nonzero, grams = np.zeros(len(at), dtype=bool), []
    for part in chunks(len(at), 16 * shape[0] * shape[1]):
        stack = gaps(part)
        if stack[0].any() or stack.any():   # a nonzero first slice settles a chunk at once
            nonzero[part] = True
            grams.append(scaled_grams(stack))
        del stack   # one chunk's gaps at a time
    norms, values = np.zeros(len(at)), np.zeros(len(keys))
    if grams:
        stacks, exps = zip(*grams)
        norms[nonzero] = gram_norms(np.concatenate(stacks), np.concatenate(exps))
    values[at] = scales[at] * norms
    return ResidualTable(keys, values, label)


def split_residuals(family: Family, law: str, label: str) -> ResidualTable:
    """||F^{s,t} - G^{s,tau,t} T_t|| at every split whose two factors are stored.

    G^{s,tau,t} is the split product under ``law`` of the stored maps C^{s,tau} and
    C^{tau,t} (:func:`fundamental_products`) and T_t the trailing factor; Z/z's lead embed
    is taken out of the norm as sqrt(n). Law A's right and law B's left factors are the
    family's conditioned maps (:attr:`Family.conditioned`). Per chunk of splits the
    products are one kernel call, and the stored C^{s,t} are subtracted into them; the
    splits and their rows are the family's :class:`KeyIndex`. A lattice :func:`propagate`
    filled stores every P^{s,t} as its own law's product at tau = t-1, so under that law
    those gaps are the product less itself: they read 0.0 and are not swept.
    """
    if law not in LAWS:
        raise ValueError(f"unknown split law {law!r}")
    maps, horizon, index = family.maps, family.horizon, family.key_index
    constructed = family.propagated and law == family.process_type
    swept = np.flatnonzero(index.tau < index.t - 1) if constructed else np.arange(len(index.t))
    lefts, rights, wholes = index.left[swept], index.right[swept], index.whole[swept]
    left_maps = family.conditioned if law == "B" else maps
    right_maps = family.conditioned if law == "A" else maps

    def gaps(part):
        products = fundamental_products(left_maps.rows_at(lefts[part]),
                                        right_maps.rows_at(rights[part]), law)
        return np.subtract(maps.rows_at(wholes[part]), products, out=products)

    scales = np.array([family.lead_norm * family.trailing_norm(t) for t in range(horizon + 1)])
    return _table(index.splits, (maps.out_dim ** 2, maps.in_dim ** 2), gaps, scales[index.t],
                  label, swept)


def pair_residuals(family: Family, shape, lhs, rhs, label: str, scale=None) -> ResidualTable:
    """scale(t) ||L^{s,t} - R^{s,t}|| at every stored pair (s, t) of ``family``.

    The pairs are taken in the family's order a chunk at a time (:func:`_table`); for a
    slice ``part``, ``lhs(part)`` and ``rhs(part)`` stack the L's and R's of the given
    ``shape`` (with ``rhs`` None the L's are the gaps). ``scale`` defaults to 1.
    """
    def gaps(part):
        stack = lhs(part)
        return stack if rhs is None else stack - rhs(part)

    index = family.key_index
    scales = np.array([1.0 if scale is None else scale(t) for t in range(family.horizon + 1)])
    return _table(index.pairs, shape, gaps, scales[index.pair_t], label)


def kc_consistency(lattice: Family) -> ResidualTable:
    """Operator-norm residual of the fundamental equation, under the lattice's own type as
    the law (:func:`split_residuals`), at every split s < tau < t; a diagnostic, not an error.

    A lattice :func:`propagate` filled reads 0.0 at its constructing split tau = t-1 unswept;
    any other lattice is swept at every split.
    """
    ptype = lattice.process_type
    return split_residuals(lattice, ptype, f"kc-type-{ptype}")


def interact_states(lattice: Family, phi: State, psi: State,
                    s: int, t: int) -> State:
    """Law of interaction: the state with density predual(P^{s,t})(rho_phi (x) rho_psi).

    Symmetric in (phi, psi) because the lattice maps are flip symmetric. An image that
    is not a state is a ValidationFailure naming P^{s,t}.
    """
    if not (0 <= s < t <= lattice.horizon and t - s >= 1):
        raise ValueError(f"times ({s}, {t}) outside the lattice")
    return carried_states(lattice.map(s, t).matrix, np.kron(phi.rho, psi.rho),
                          f"P^{{{s},t}}_*(phi (x) psi)", t)[0]

"""Stacked residual sweeps against per-gap loops, Gram operator norms, op-count pins."""

from functools import partial

import numpy as np
import pytest

from qqsp.algebra import (
    State,
    SuperMap,
    doubled_after,
    embed_averaged_supermap,
    embed_supermap,
    expectation_supermap,
    flip_after,
    predual,
)
from qqsp.linalg import operator_norm, operator_norms, vec
from qqsp.marginal import (
    build_H,
    build_Q,
    build_Z,
    build_h,
    build_z,
    check_markov,
    composition_from_kc,
    reconstruct_qqsp,
    slice_residuals,
    state_consistency_residual,
    verify_marginal_axioms,
)
from qqsp.process import (
    QQSPSeed,
    kc_consistency,
    pair_residuals,
    propagate,
    triples,
)
from qqsp.scenarios import parse_scenario, run_scenario
from qqsp.seeds import make_entangling_seed, make_mixed_seed, mixed_step_map

from conftest import core

LATTICES = {
    "mixed-n2-A": lambda: propagate(make_mixed_seed(5, "A")),
    "mixed-n3-A": lambda: propagate(QQSPSeed.from_single_map(
        mixed_step_map(3), State.from_weights([0.5, 0.3, 0.2]), 4, "A")),
    "entangling-n2-B": lambda: propagate(make_entangling_seed(5, "B")),
    "mixed-n3-B": lambda: propagate(QQSPSeed.from_single_map(
        mixed_step_map(3), State.from_weights([0.5, 0.3, 0.2]), 4, "B")),
}


@pytest.fixture(params=sorted(LATTICES))
def lattice(request):
    return LATTICES[request.param]()


def _families(lat):
    q = build_Q(lat)
    if lat.process_type == "A":
        h = build_H(lat)
        return q, h, build_Z(h, q)
    h = build_h(lat)
    return q, h, build_z(h, q)


# ------------------------------------------------- per-gap reference loops

def _split_loop(family, compose):
    """The sweep one gap at a time: per-split product of the stored maps, per-gap operator_norm."""
    return {(s, tau, t): family.lead_norm * family.trailing_norm(t)
            * operator_norm(family.maps[(s, t)].matrix - compose(s, tau, t))
            for s, tau, t in triples(family.horizon)}


def _pair_loop(family, lhs, rhs, scale=lambda t: 1.0):
    return {(s, t): scale(t) * operator_norm(lhs(s, t) - rhs(s, t)) for s, t in family.pairs()}


def _plain(family):
    """The plain law on the stored maps; a factored family has E_tau, or S_tau for Z/z, between."""
    y = family.maps

    def compose(s, tau, t):
        if not family.factored:
            return (y[(s, tau)] @ y[(tau, t)]).matrix
        between = (SuperMap(family.n, family.n, family.slots[tau]) if family.stores_q
                   else family.expectations[tau])
        return (y[(s, tau)] @ (between @ y[(tau, t)])).matrix
    return compose


def _dense_split_loop(family):
    """Today's n^4 x n^2 reference: ||rho_t||_F ||C^{s,t} - C^{s,tau} E_tau C^{tau,t}|| on the cores."""
    c, es = partial(core, family), family.expectations
    return {(s, tau, t): family.trailing_norm(t)
            * operator_norm(c(s, t).matrix - (c(s, tau) @ (es[tau] @ c(tau, t))).matrix)
            for s, tau, t in triples(family.horizon)}


def _close(got, want):
    """Within 8 ulps relative or 1e-15 absolute: the drift bound of the factored formulas."""
    return abs(got - want) <= max(8 * np.spacing(abs(want)), 1e-15)


def _slice_loops(lattice, q, h, z):
    """Per-gap loops of the factored slice formulas, in the stacked code's arithmetic."""
    n, es = lattice.n, lattice.expectations
    avg, root_n = embed_averaged_supermap(n), z.lead_norm
    one, one2 = vec(np.eye(n)), vec(np.eye(n * n))
    return {
        "reconstruction_slot": _pair_loop(
            lattice, lambda s, t: np.linalg.qr(h.maps[(s, t)].matrix, mode="r")
            @ (h.slots[t] - np.eye(n * n)), lambda s, t: 0),
        "averaged_slot": {(s, t): float(np.linalg.norm(lattice.map(s, t).matrix @ one - one2,
                                                       axis=-1)) * h.trailing_norm(t)
                          for s, t in lattice.pairs()},
        "z_reconstruction_slot": _pair_loop(
            lattice, lambda s, t: z.maps[(s, t)].matrix @ z.slots[t],
            lambda s, t: q.map(s, t).matrix, lambda t: root_n),
        "z_averaged_slot": _pair_loop(
            lattice, lambda s, t: z.maps[(s, t)].matrix @ (es[t] @ avg).matrix,
            lambda s, t: SuperMap.constant(lattice.omega(t), n).matrix, lambda t: root_n),
    }


def _dense_slices(lattice, q, h, z):
    """Today's n^4 x n^2 sweeps of the slice identities, on the cores."""
    n, es = lattice.n, lattice.expectations
    emb, avg = embed_supermap(n), embed_averaged_supermap(n)
    consts = [SuperMap.constant(w, n * n).matrix for w in lattice.omegas]
    return {
        "reconstruction_slot": _pair_loop(lattice, lambda s, t: (h.maps[(s, t)] @ (es[t] @ emb))
                                          .matrix, lambda s, t: lattice.map(s, t).matrix),
        "averaged_slot": _pair_loop(lattice, lambda s, t: (h.maps[(s, t)] @ (es[t] @ avg)).matrix,
                                    lambda s, t: consts[t]),
        "z_reconstruction_slot": _pair_loop(
            lattice, lambda s, t: (core(z, s, t) @ (es[t] @ emb)).matrix,
            lambda s, t: (emb @ q.map(s, t)).matrix),
        "z_averaged_slot": _pair_loop(lattice, lambda s, t: (core(z, s, t) @ (es[t] @ avg))
                                      .matrix, lambda s, t: consts[t]),
    }


def _fundamental(lattice):
    """The fundamental equation's product at one split, written out for the lattice's type."""
    p, es = lattice.map, lattice.expectations
    if lattice.process_type == "A":
        return lambda s, tau, t: (p(s, tau) @ (es[tau] @ p(tau, t))).matrix
    return lambda s, tau, t: doubled_after(es[s] @ p(s, tau), [p(tau, t).matrix])[0]


def test_stacked_kc_equals_the_per_gap_loop(lattice):
    assert kc_consistency(lattice).entries == _split_loop(lattice, _fundamental(lattice))


@pytest.mark.parametrize("ptype", ["A", "B"])
def test_propagate_fills_each_pair_by_the_one_split_formula(ptype):
    # P^{s,t} is the product of the split tau = t-1, bit for bit
    lat = propagate(make_mixed_seed(6, ptype))
    product = _fundamental(lat)
    pairs = [(s, t) for s, t in lat.pairs() if t - s >= 2]
    assert len(pairs) == 15
    for s, t in pairs:
        assert np.array_equal(lat.map(s, t).matrix, product(s, t - 1, t))


def test_stacked_markov_laws_equal_the_per_gap_loop(lattice):
    q, h, z = _families(lattice)
    for family in (q, z):
        assert check_markov(family).entries == _split_loop(family, _plain(family))
    assert check_markov(h, law="plain").entries == _split_loop(h, _plain(h))
    if h.kind == "h":
        want = _split_loop(h, lambda s, tau, t: doubled_after(q.map(s, tau),
                                                              [h.maps[(tau, t)].matrix])[0])
    else:
        want = _split_loop(h, _plain(h))
    assert check_markov(h).entries == want
    # Z/z's law on Q's maps against the n^4 x n^2 sweep on its cores
    dense = _dense_split_loop(z)
    assert all(_close(value, dense[key]) for key, value in check_markov(z).entries.items())


def test_stacked_pair_sweeps_equal_the_per_pair_loop(lattice):
    q, h, z = _families(lattice)
    es = lattice.expectations
    rebuilt = reconstruct_qqsp(q, h, lattice.omega(0), lattice.process_type, strict=False)
    rep = verify_marginal_axioms(q, h, rebuilt)
    e_psi = [expectation_supermap(psi) for psi in rebuilt.omegas]
    e_phi = [expectation_supermap(lattice.omega(0))] + [
        expectation_supermap(State(predual(q.map(0, t))(lattice.omega(0).rho)))
        for t in range(1, lattice.horizon + 1)]
    assert rep.flip.entries == _pair_loop(
        h, lambda s, t: flip_after(h.maps[(s, t)]).matrix, lambda s, t: h.maps[(s, t)].matrix,
        h.trailing_norm)
    assert rep.exchange.entries == _pair_loop(
        h, lambda s, t: (e_psi[s] @ h.maps[(s, t)] @ es[t]).matrix,
        lambda s, t: (q.map(s, t) @ e_phi[t]).matrix)

    def carried(s, t):
        return expectation_supermap(State(predual(q.map(s, t))(q.omega(s).rho))).matrix

    assert state_consistency_residual(q).entries == _pair_loop(
        q, carried, lambda s, t: es[t].matrix)

    got = slice_residuals(lattice, q, h, z)
    assert got == {name: max(table.values())
                   for name, table in _slice_loops(lattice, q, h, z).items()}
    dense = _dense_slices(lattice, q, h, z)
    assert got.keys() == dense.keys()
    assert all(_close(got[name], max(table.values())) for name, table in dense.items())


# ------------------------------------------------- chunks across row boundaries

def _sweep_tables(lat):
    """Every residual table of the split and pair sweeps, keyed by name."""
    q, h, z = _families(lat)
    rebuilt = reconstruct_qqsp(q, h, lat.omega(0), lat.process_type, strict=False)
    axioms = verify_marginal_axioms(q, h, rebuilt)
    tables = {"kc": kc_consistency(lat), "markov-Q": check_markov(q),
              "markov-h": check_markov(h), "markov-z": check_markov(z),
              "plain-h": check_markov(h, law="plain"), "state": state_consistency_residual(q),
              "flip": axioms.flip, "exchange": axioms.exchange, "absorption": axioms.absorption}
    return {name: table.entries for name, table in tables.items()} | {
        "slices": slice_residuals(lat, q, h, z)}


def _loop_tables(lat):
    """:func:`_sweep_tables` from the per-gap loops, one gap and one operator_norm at a time."""
    q, h, z = _families(lat)
    es = lat.expectations
    rebuilt = reconstruct_qqsp(q, h, lat.omega(0), lat.process_type, strict=False)
    e_psi = [expectation_supermap(psi) for psi in rebuilt.omegas]
    e_phi = [expectation_supermap(lat.omega(0))] + [
        expectation_supermap(State(predual(q.map(0, t))(lat.omega(0).rho)))
        for t in range(1, lat.horizon + 1)]
    if h.kind == "h":
        doubled = _split_loop(h, lambda s, tau, t: doubled_after(q.map(s, tau),
                                                                 [h.maps[(tau, t)].matrix])[0])
    else:
        doubled = _split_loop(h, _plain(h))

    def carried(s, t):
        return expectation_supermap(State(predual(q.map(s, t))(q.omega(s).rho))).matrix

    def absorbed(s, t):   # R^{s,t} R_t^dagger, with D_t^dagger = Q_t R_t
        d = es[t].matrix - h.slots[t] @ e_psi[t].matrix
        return (np.linalg.qr(h.maps[(s, t)].matrix, mode="r")
                @ np.linalg.qr(d.conj().T, mode="r").conj().T)

    return {
        "kc": _split_loop(lat, _fundamental(lat)), "markov-Q": _split_loop(q, _plain(q)),
        "markov-h": doubled, "markov-z": _split_loop(z, _plain(z)),
        "plain-h": _split_loop(h, _plain(h)),
        "state": _pair_loop(q, carried, lambda s, t: es[t].matrix),
        "flip": _pair_loop(h, lambda s, t: flip_after(h.maps[(s, t)]).matrix,
                           lambda s, t: h.maps[(s, t)].matrix, h.trailing_norm),
        "exchange": _pair_loop(h, lambda s, t: (e_psi[s] @ h.maps[(s, t)] @ es[t]).matrix,
                               lambda s, t: (q.map(s, t) @ e_phi[t]).matrix),
        "absorption": _pair_loop(h, absorbed, lambda s, t: 0),
        "slices": {name: max(table.values())
                   for name, table in _slice_loops(lat, q, h, z).items()},
    }


BUDGETS = {"one-slice": 0, "default": None, "whole-table": 1 << 40}


@pytest.mark.parametrize("budget", sorted(BUDGETS))
@pytest.mark.parametrize("ptype", ["A", "B"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_every_table_equals_the_per_gap_loops_at_any_chunk_budget(monkeypatch, n, ptype,
                                                                 budget):
    # one slice per chunk, chunks that hold several groups and rows (n=3 holds five
    # kc gaps per chunk), and one chunk for the whole table all give the loops' bits
    import qqsp.linalg

    lat = propagate(QQSPSeed.from_single_map(mixed_step_map(n), State.maximally_mixed(n),
                                             4, ptype))
    want = _loop_tables(lat)
    if BUDGETS[budget] is not None:
        monkeypatch.setattr(qqsp.linalg, "CHUNK_BYTES", BUDGETS[budget])
    assert _sweep_tables(lat) == want


@pytest.mark.parametrize("n, horizon, ptype", [(2, 12, "A"), (2, 12, "B"), (4, 6, "A"),
                                               (4, 6, "B")])
def test_batched_tables_equal_the_per_group_tables(monkeypatch, n, horizon, ptype):
    # the default chunks against one slice per chunk: same tables, fewer Gram calls
    import qqsp.linalg
    import qqsp.process

    lat = propagate(QQSPSeed.from_single_map(mixed_step_map(n), State.maximally_mixed(n),
                                             horizon, ptype))
    lengths = []
    original = qqsp.process.scaled_grams

    def recorded(stack):
        lengths.append(len(stack))
        return original(stack)

    monkeypatch.setattr(qqsp.process, "scaled_grams", recorded)
    batched = _sweep_tables(lat)
    batches = len(lengths)
    lengths.clear()
    monkeypatch.setattr(qqsp.linalg, "CHUNK_BYTES", 0)   # one slice per chunk
    per_slice = _sweep_tables(lat)
    assert batched == per_slice
    assert set(lengths) == {1} and batches < len(lengths)
    # and the kc table is still the per-gap loop
    assert batched["kc"] == _split_loop(lat, _fundamental(lat))


def test_chunks_cover_the_table_in_order_within_the_budget(monkeypatch):
    import qqsp.linalg

    monkeypatch.setattr(qqsp.linalg, "CHUNK_BYTES", 1000)
    assert [(c.start, c.stop) for c in qqsp.linalg.chunks(7, 300)] == [(0, 3), (3, 6), (6, 9)]
    assert len(qqsp.linalg.chunks(3, 5000)) == 3   # a slice over the budget stands alone
    assert qqsp.linalg.chunks(0, 300) == []


# ------------------------------------------------------ Gram operator norms

def _slices(rng, count, rows, cols):
    return rng.normal(size=(count, rows, cols)) + 1j * rng.normal(size=(count, rows, cols))


def _stacks(rng):
    tall = _slices(rng, 6, 40, 7)
    rank_one = _slices(rng, 5, 30, 1) @ _slices(rng, 5, 1, 8)
    return {"tall": tall, "wide": _slices(rng, 6, 7, 40), "square": _slices(rng, 6, 9, 9),
            "zero": np.zeros((3, 5, 4), dtype=complex), "rank-1": rank_one,
            "empty": _slices(rng, 0, 4, 4), "empty-slices": _slices(rng, 2, 0, 3),
            "tiny": tall * 1e-200, "huge": tall * 1e+200}


@pytest.mark.parametrize("name", ["tall", "wide", "square", "zero", "rank-1", "empty",
                                  "empty-slices", "tiny", "huge"])
def test_gram_operator_norms_match_the_svd_within_8_ulps(rng, name):
    stack = _stacks(rng)[name]
    got = operator_norms(stack)
    want = (np.linalg.svd(stack, compute_uv=False)[:, 0] if stack.size
            else np.zeros(len(stack)))
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 8 * np.spacing(want))


# ------------------------------------------------------------ op-count pins

@pytest.mark.parametrize("ptype", ["A", "B"])
def test_kc_makes_at_most_one_compose_per_stored_pair(monkeypatch, ptype):
    # the right factors of a tau are built once for every s < tau, and the products
    # of a pair (s, tau) are one stacked call: no SuperMap per split
    lat = propagate(make_mixed_seed(8, ptype))
    calls = []
    original = SuperMap.compose

    def counted(self, other):
        calls.append(1)
        return original(self, other)

    monkeypatch.setattr(SuperMap, "compose", counted)
    kc_consistency(lat)
    assert len(calls) <= len(lat.maps)


def test_each_q_is_formed_once_per_type_b_run(monkeypatch):
    # propagate forms Q^{s,t} = E_{omega_s} P^{s,t} for every pair, and kc, h's doubled
    # law and build_Q read them; the rebuilt lattice forms its E_{psi_s} P^{s,t} once, for
    # conclusion-b, and its kc reads them. Each is one gemm of an E before a row of its
    # family's one array, and no E is composed after a map as a SuperMap
    import qqsp.process

    n, horizon = 2, 5
    slots, original = (embed_supermap(n), embed_averaged_supermap(n)), SuperMap.compose
    original_products = qqsp.process.stacked_products
    composed, formed = [], []

    def counted(self, other):   # an E after a map into M (x) M that is no slot
        if ((self.in_dim, self.out_dim, other.in_dim) == (n * n, n, n)
                and not any(other is slot for slot in slots)):
            composed.append((id(self), id(other)))
        return original(self, other)

    def products(lefts, rights):
        pairs = list(zip(lefts, rights))
        if np.shape(pairs[0][0]) == (n * n, n ** 4):   # E_{omega_s} before a map: a Q^{s,t}
            formed.extend(b.__array_interface__["data"][0] for _, b in pairs)
        return original_products([a for a, _ in pairs], [b for _, b in pairs])

    monkeypatch.setattr(SuperMap, "compose", counted)
    monkeypatch.setattr(qqsp.process, "stacked_products", products)
    report = run_scenario(parse_scenario({
        "name": "mixed-n2-T5-B", "algebra": {"kind": "full", "dim": n}, "process_type": "B",
        "horizon": horizon, "seed": {"builtin": "entangling-mixed"},
        "initial_state": {"diag": [0.7, 0.3]},
        "pipeline": ["propagate", "kc", "marginals", "axioms", "reconstruct"]}))
    assert report.verdicts["kc_ok"] and report.verdicts["roundtrip_ok"]
    assert composed == []
    assert len(formed) == len(set(formed)) == 2 * horizon * (horizon + 1) // 2


# ------------------------------------------------- H/h's law from the kc table

@pytest.mark.parametrize("make", [
    lambda: propagate(make_mixed_seed(5, "A")),
    LATTICES["mixed-n3-A"],
    lambda: propagate(make_entangling_seed(5, "B")),
], ids=["mixed-n2-A", "mixed-n3-A", "entangling-n2-B"])
def test_composition_of_h_from_the_kc_table_is_check_markov(make):
    lat = make()
    _, h, _ = _families(lat)
    shared = composition_from_kc(kc_consistency(lat), h)
    want = check_markov(h)
    assert shared.entries == want.entries and shared.label == want.label


def test_composition_from_kc_rejects_the_other_type():
    lat_a, lat_b = (propagate(make_mixed_seed(4, ptype)) for ptype in "AB")
    with pytest.raises(ValueError, match="kc table"):
        composition_from_kc(kc_consistency(lat_a), build_h(lat_b))


@pytest.mark.parametrize("builtin, ptype", [("mixed", "A"), ("entangling-mixed", "B")])
@pytest.mark.parametrize("stages", [["axioms", "reconstruct"], ["reconstruct"]],
                         ids=["after-axioms", "alone"])
def test_map_deviation_is_the_rebuilt_lattice_against_p(builtin, ptype, stages):
    # the reconstruct stage reports the marginals stage's reconstruction slot
    sc = parse_scenario({"name": f"{builtin}-n2-{ptype}", "algebra": {"kind": "full", "dim": 2},
                         "process_type": ptype, "horizon": 5, "seed": {"builtin": builtin},
                         "initial_state": {"diag": [0.7, 0.3]},
                         "pipeline": ["propagate", "marginals", *stages]})
    report = run_scenario(sc)
    lat = propagate(sc.resolved[0])
    q, h, z = _families(lat)
    rebuilt = reconstruct_qqsp(q, h, lat.omega(0), ptype, strict=False)
    dense = pair_residuals(lat, lat.map(0, 1).matrix.shape,
                           lambda part: rebuilt.maps.rows(rebuilt.maps.order[part]),
                           lambda part: lat.maps.array[part], "map-deviation").max_residual
    deviation = report.stages["reconstruct"]["max_map_deviation"]
    assert deviation == max(_slice_loops(lat, q, h, z)["reconstruction_slot"].values())
    assert _close(deviation, dense)


def test_marginals_without_kc_check_the_law_directly(monkeypatch):
    import qqsp.scenarios

    kinds = []
    original = qqsp.scenarios.check_markov

    def counted(family, law="native"):
        kinds.append(family.kind)
        return original(family, law)

    monkeypatch.setattr(qqsp.scenarios, "check_markov", counted)
    doc = {"name": "mixed-n2-T5-B", "algebra": {"kind": "full", "dim": 2},
           "process_type": "B", "horizon": 5, "seed": {"builtin": "entangling-mixed"},
           "initial_state": {"diag": [0.7, 0.3]}}
    with_kc = run_scenario(parse_scenario({**doc, "pipeline": ["propagate", "kc",
                                                               "marginals"]}))
    assert sorted(kinds) == ["Q", "h", "z"] and kinds.count("h") == 1   # the plain law only
    kinds.clear()
    without_kc = run_scenario(parse_scenario({**doc, "pipeline": ["propagate", "marginals"]}))
    assert sorted(kinds) == ["Q", "h", "h", "z"]
    assert with_kc.stages["marginals"] == without_kc.stages["marginals"]


# ------------------------------- factored identities against today's dense sweeps

def _mixed_lattice(n, ptype):
    weights = np.arange(n, 0, -1) / (n * (n + 1) / 2)
    return propagate(QQSPSeed.from_single_map(mixed_step_map(n), State.from_weights(weights),
                                              4, ptype))


def _volterra_lattice(ptype):
    from qqsp.classical import ClassicalQSP, lift_to_quantum, volterra_tensor

    return propagate(lift_to_quantum(ClassicalQSP.homogeneous(volterra_tensor(0.6), [0.3, 0.7],
                                                              5, ptype)))


def _fixed_lattice():
    # not Kolmogorov-Chapman consistent, so its residuals are of order one
    from qqsp.process import Family
    from qqsp.seeds import symmetrized_embedding

    omega = State.from_weights([0.7, 0.3])
    return Family("P", 2, {(s, t): symmetrized_embedding(2)
                           for s in range(4) for t in range(s + 1, 5)},
                  omegas=(omega,) * 5, process_type="A")


DENSE_CASES = {
    **{f"mixed-n{n}-{ptype}": (lambda n=n, ptype=ptype: _mixed_lattice(n, ptype))
       for n in (1, 2, 3) for ptype in "AB"},
    "entangling-n2-B": lambda: propagate(make_entangling_seed(4, "B")),
    "volterra-A": lambda: _volterra_lattice("A"),
    "volterra-B": lambda: _volterra_lattice("B"),
    "fixed-n2-A-foreign-Q": _fixed_lattice,
}


@pytest.mark.parametrize("case", sorted(DENSE_CASES))
def test_factored_identities_match_the_dense_sweeps(case):
    # Z/z's law and the four slots on their smallest factor against the n^4 x n^2 sweeps
    # on the cores, within the drift bound; the per-gap formulas hold with ==
    lat = DENSE_CASES[case]()
    foreign = case.endswith("foreign-Q")
    q, h, z = _families(lat)
    if foreign:   # the pair hands the slices and the axioms the Q of another lattice
        from qqsp.seeds import make_constant_seed
        q = build_Q(propagate(make_constant_seed(lat.n, lat.horizon)))
    markov = check_markov(z).entries
    assert markov == _split_loop(z, _plain(z))
    dense = _dense_split_loop(z)
    assert markov.keys() == dense.keys()
    assert all(_close(value, dense[key]) for key, value in markov.items())
    got = slice_residuals(lat, q, h, z)
    assert got == {name: max(table.values())
                   for name, table in _slice_loops(lat, q, h, z).items()}
    want = {name: max(table.values()) for name, table in _dense_slices(lat, q, h, z).items()}
    assert got.keys() == want.keys()
    assert all(_close(got[name], want[name]) for name in want), (got, want)
    exchange = verify_marginal_axioms(
        q, h, reconstruct_qqsp(q, h, lat.omega(0), lat.process_type, strict=False)).exchange
    assert (got["z_reconstruction_slot"] > 0.01) == foreign
    assert (exchange.max_residual > 0.01) == foreign

"""Stacked residual sweeps against per-gap loops, Gram operator norms, op-count pins."""

import json
import sys
from functools import partial

import numpy as np
import pytest

from qqsp.algebra import (
    State,
    SuperMap,
    doubled_after,
    expectation_supermap,
    flip_after,
    predual,
)
from qqsp.linalg import chunks, gram_norms, operator_norm, operator_norms, vec
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
    ResidualTable,
    kc_consistency,
    pair_residuals,
    propagate,
    triples,
)
from qqsp.scenarios import parse_scenario, run_scenario
from qqsp.seeds import make_entangling_seed, make_mixed_seed, mixed_step_map

from conftest import (
    byteid_scenarios,
    core,
    embed_averaged_supermap,
    embed_supermap,
    expectations,
    swept_q,
)

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
    return {(s, tau, t): family.lead_norm * family.trailing_norms[t]
            * operator_norm(family.maps[(s, t)].matrix - compose(s, tau, t))
            for s, tau, t in triples(family.horizon)}


def _pair_loop(family, lhs, rhs, scales=None):
    scales = np.ones(family.horizon + 1) if scales is None else scales
    return {(s, t): scales[t] * operator_norm(lhs(s, t) - rhs(s, t)) for s, t in family.pairs()}


def _drift(family, t):
    """|c_t - 1| with c_t = tr(rho_t): E_{omega_t} embed = c_t 1."""
    return abs(np.trace(family.omega(t).rho) - 1)


def _frobenius(gap):
    """||gap||_F, summed as the stacked tables sum each slice."""
    return float(np.linalg.norm(gap, axis=(0, 1)))


def _plain(family):
    """The plain law on the stored maps; a factored family has E_tau, or S_tau for Z/z, between.

    S_tau = E_{omega_tau} embed is formed here as the product of the two maps.
    """
    y, es = family.maps, expectations(family)

    def compose(s, tau, t):
        if not family.factored:
            return (y[(s, tau)] @ y[(tau, t)]).matrix
        between = es[tau] @ embed_supermap(family.n) if family.stores_q else es[tau]
        return (y[(s, tau)] @ (between @ y[(tau, t)])).matrix
    return compose


def _dense_split_loop(family):
    """Today's n^4 x n^2 reference: ||rho_t||_F ||C^{s,t} - C^{s,tau} E_tau C^{tau,t}|| on the cores."""
    c, es = partial(core, family), expectations(family)
    return {(s, tau, t): family.trailing_norms[t]
            * operator_norm(c(s, t).matrix - (c(s, tau) @ (es[tau] @ c(tau, t))).matrix)
            for s, tau, t in triples(family.horizon)}


def _carried(q, s, t):
    """Q^{s,t}_* omega_s, one state at a time."""
    return State(predual(q.map(s, t))(q.omega(s).rho))


def _state_loop(q):
    """||rho_t - Q^{s,t}_* rho_s||_F per pair: the norm of E_{omega_t} - E_{Q_* omega_s}."""
    return {(s, t): _frobenius(q.omega(t).rho - _carried(q, s, t).rho) for s, t in q.pairs()}


def _close(got, want):
    """Within 8 ulps relative or 1e-15 absolute: the drift bound of the factored formulas."""
    return abs(got - want) <= max(8 * np.spacing(abs(want)), 1e-15)


def _slice_loops(lattice, q, h, z):
    """Per-gap loops of the factored slice formulas, in the stacked code's arithmetic."""
    n, root_n = lattice.n, z.lead_norm
    one = vec(np.eye(n))

    def averaged(family, unit, scale=1.0):   # the rank-one ||F^{s,t}(1) - 1||_F ||rho_t||_F
        return {(s, t): scale * (float(np.linalg.norm(family.maps[(s, t)].matrix @ one - unit,
                                                      axis=-1)) * family.trailing_norms[t])
                for s, t in lattice.pairs()}

    return {   # |c_t - 1| ||C^{s,t}||, with Z/z's C = Q^{s,t} its stored map
        "reconstruction_slot": {(s, t): _drift(h, t) * operator_norm(h.maps[(s, t)].matrix)
                                for s, t in lattice.pairs()},
        "averaged_slot": averaged(h, vec(np.eye(n * n))),
        "z_reconstruction_slot": {(s, t): root_n * (_drift(z, t)
                                                    * operator_norm(q.map(s, t).matrix))
                                  for s, t in lattice.pairs()},
        "z_averaged_slot": averaged(z, one, root_n),
    }


def _dense_slices(lattice, q, h, z):
    """Today's n^4 x n^2 sweeps of the slice identities, on the cores."""
    n, es = lattice.n, expectations(lattice)
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
    p, es = lattice.map, expectations(lattice)
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
    es = expectations(lattice)
    rebuilt = reconstruct_qqsp(q, h, lattice.omega(0), lattice.process_type, strict=False)
    rep = verify_marginal_axioms(swept_q(q), h, rebuilt)   # the exchange swept, not bounded
    e_psi = [expectation_supermap(psi) for psi in rebuilt.omegas]
    e_phi = [expectation_supermap(lattice.omega(0))] + [
        expectation_supermap(State(predual(q.map(0, t))(lattice.omega(0).rho)))
        for t in range(1, lattice.horizon + 1)]
    assert rep.flip.entries == _pair_loop(
        h, lambda s, t: flip_after(h.maps[(s, t)]).matrix, lambda s, t: h.maps[(s, t)].matrix,
        h.trailing_norms)
    assert rep.exchange.entries == _pair_loop(
        h, lambda s, t: (e_psi[s] @ h.maps[(s, t)] @ es[t]).matrix,
        lambda s, t: (q.map(s, t) @ e_phi[t]).matrix)

    assert state_consistency_residual(q).entries == _state_loop(q)
    # the closed form against the placed E_{omega_t} - E_{Q_* omega_s}
    dense = _pair_loop(q, lambda s, t: expectation_supermap(_carried(q, s, t)).matrix,
                       lambda s, t: es[t].matrix)
    assert all(_close(value, dense[key])
               for key, value in state_consistency_residual(q).entries.items())

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
    axioms = verify_marginal_axioms(swept_q(q), h, rebuilt)   # the exchange swept
    tables = {"kc": kc_consistency(lat), "markov-Q": check_markov(q),
              "markov-h": check_markov(h), "markov-z": check_markov(z),
              "plain-h": check_markov(h, law="plain"), "state": state_consistency_residual(q),
              "flip": axioms.flip, "exchange": axioms.exchange, "absorption": axioms.absorption}
    return {name: table.entries for name, table in tables.items()} | {
        "slices": slice_residuals(lat, q, h, z)}


def _loop_tables(lat):
    """:func:`_sweep_tables` from the per-gap loops, one gap and one operator_norm at a time."""
    q, h, z = _families(lat)
    es = expectations(lat)
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

    def absorbed(s, t):   # ||C^{s,t}|| ||rho_t - c_t psi_t||_F
        c = np.trace(h.omega(t).rho)
        return (operator_norm(h.maps[(s, t)].matrix)
                * _frobenius(h.omega(t).rho - c * rebuilt.omega(t).rho))

    return {
        "kc": _split_loop(lat, _fundamental(lat)), "markov-Q": _split_loop(q, _plain(q)),
        "markov-h": doubled, "markov-z": _split_loop(z, _plain(z)),
        "plain-h": _split_loop(h, _plain(h)),
        "state": _state_loop(q),
        "flip": _pair_loop(h, lambda s, t: flip_after(h.maps[(s, t)]).matrix,
                           lambda s, t: h.maps[(s, t)].matrix, h.trailing_norms),
        "exchange": _pair_loop(h, lambda s, t: (e_psi[s] @ h.maps[(s, t)] @ es[t]).matrix,
                               lambda s, t: (q.map(s, t) @ e_phi[t]).matrix),
        "absorption": {(s, t): absorbed(s, t) for s, t in h.pairs()},
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
    # the default chunks against one slice per chunk: same tables, fewer gap stacks; every
    # gap of this lattice is exactly zero, so no chunk takes a Gram
    import qqsp.linalg
    import qqsp.process

    lat = propagate(QQSPSeed.from_single_map(mixed_step_map(n), State.maximally_mixed(n),
                                             horizon, ptype))
    lengths, grams = [], []
    table, original = qqsp.process._table, qqsp.process.scaled_grams

    def recorded_table(keys, shape, gaps, scales, label, swept=None):
        def recorded_gaps(part):
            stack = gaps(part)
            lengths.append(len(stack))
            return stack

        return table(keys, shape, recorded_gaps, scales, label, swept)

    def recorded(stack):
        grams.append(len(stack))
        return original(stack)

    monkeypatch.setattr(qqsp.process, "_table", recorded_table)
    monkeypatch.setattr(qqsp.process, "scaled_grams", recorded)
    batched = _sweep_tables(lat)
    batches = len(lengths)
    lengths.clear()
    monkeypatch.setattr(qqsp.linalg, "CHUNK_BYTES", 0)   # one slice per chunk
    per_slice = _sweep_tables(lat)
    assert batched == per_slice
    assert set(lengths) == {1} and batches < len(lengths)
    assert grams == []
    # and the kc table is still the per-gap loop
    assert batched["kc"] == _split_loop(lat, _fundamental(lat))


def _gram_table(keys, shape, gaps, scales, label, swept=None):
    """:func:`qqsp.process._table` with one Gram per chunk, zero gaps included."""
    import qqsp.process

    at = range(len(keys)) if swept is None else swept
    values = np.zeros(len(keys))
    if not len(at):
        return ResidualTable(keys, values, label)
    grams, exps = zip(*(qqsp.process.scaled_grams(gaps(part))
                        for part in chunks(len(at), 16 * shape[0] * shape[1])))
    norms = gram_norms(np.concatenate(grams), np.concatenate(exps))
    for i, norm in zip(at, norms):   # an unswept key reads +0.0
        values[i] = scales[i] * norm
    return ResidualTable(keys, values, label)


@pytest.mark.parametrize("budget", [None, 0], ids=["default", "one-slice"])
@pytest.mark.parametrize("name, zeros", [("mixed-n2-T12-A", "all"), ("mixed-n2-T12-B", "some")])
def test_a_zero_gap_chunk_takes_no_gram_and_reads_its_gram_bits(monkeypatch, name, zeros,
                                                                 budget):
    # the type-A flip table is all +0.0, the type-B one mixes zeros and nonzeros; every
    # report byte, every table's sign bits included, is the Gram route's
    import qqsp.linalg
    import qqsp.process

    if budget is not None:
        monkeypatch.setattr(qqsp.linalg, "CHUNK_BYTES", budget)
    sc = byteid_scenarios()[name]
    grams, original = [], qqsp.process.scaled_grams

    def recorded(stack):
        grams.append(len(stack))
        return original(stack)

    monkeypatch.setattr(qqsp.process, "scaled_grams", recorded)
    skipped = run_scenario(sc, seed=1)
    skipped_grams = sum(grams)
    flip = skipped.stages["axioms"]["flip"]["entries"].values()
    assert all(v == 0.0 and not np.signbit(v) for v in flip) if zeros == "all" else (
        0.0 in flip and max(flip) > 0.0)
    grams.clear()
    monkeypatch.setattr(qqsp.process, "_table", _gram_table)
    swept = run_scenario(sc, seed=1)
    assert skipped.to_structured_text() == swept.to_structured_text()
    # only chunks of zero gaps are skipped: the type-A flip table's, and with one slice a
    # chunk each type-B zero; at the default chunks the type-B zeros share chunks with nonzeros
    if (zeros, budget) == ("some", None):
        assert skipped_grams == sum(grams)
    else:
        assert skipped_grams < sum(grams)


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


@pytest.mark.parametrize("ptype", ["A", "B"])
def test_each_q_is_formed_once_per_run(monkeypatch, ptype):
    # propagate forms Q^{s,t} = E_{omega_s} P^{s,t} for every pair of either type, and kc,
    # H/h's laws and build_Q read them. The pair is the lattice's own, so the rebuilt
    # lattice's conclusion-b and kc and the exchange table are closed forms on P's and Q's
    # norms: no E_{psi_s} P^{s,t} or E_{psi_s} H^{s,t} is formed. Each Q is one gemm of an E
    # before a row, counted here by the caller of conditioned_products, and no E is composed
    # after a map as a SuperMap
    import sys

    import qqsp.marginal
    import qqsp.process
    from qqsp.algebra import ScaledMapStack

    n, horizon = 2, 5
    slots, original = (embed_supermap(n), embed_averaged_supermap(n)), SuperMap.compose
    original_products = qqsp.process.conditioned_products
    composed, formed = [], {}

    def counted(self, other):   # an E after a map into M (x) M that is no slot
        if ((self.in_dim, self.out_dim, other.in_dim) == (n * n, n, n)
                and not any(other is slot for slot in slots)):
            composed.append((id(self), id(other)))
        return original(self, other)

    def products(rhos, maps):
        out = original_products(rhos, maps)
        if out.shape[1:] == (n * n, n * n) and np.shape(maps)[1:] == (n ** 4, n * n):
            frame = sys._getframe(1)
            while frame.f_code.co_name not in ("propagate", "conditioned", "exchanged"):
                frame = frame.f_back
            caller = frame.f_code.co_name
            if caller == "conditioned":   # a lattice's own Q, or the rebuilt lattice's
                rebuilt = isinstance(frame.f_locals["self"].maps, ScaledMapStack)
                caller = "rebuilt" if rebuilt else "lattice"
            formed[caller] = formed.get(caller, 0) + len(out)
        return out

    monkeypatch.setattr(SuperMap, "compose", counted)
    for module in (qqsp.process, qqsp.marginal):   # the exchange table's caller imports it
        monkeypatch.setattr(module, "conditioned_products", products)
    report = run_scenario(parse_scenario({
        "name": f"mixed-n2-T5-{ptype}", "algebra": {"kind": "full", "dim": n},
        "process_type": ptype, "horizon": horizon, "seed": {"builtin": "entangling-mixed"},
        "initial_state": {"diag": [0.7, 0.3]},
        "pipeline": ["propagate", "kc", "marginals", "axioms", "reconstruct"]}))
    assert report.verdicts["kc_ok"] and report.verdicts["roundtrip_ok"]
    assert composed == []
    pairs = horizon * (horizon + 1) // 2
    assert formed == {"propagate": pairs}


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
                           lambda part: rebuilt.maps.rows_at(np.arange(len(rebuilt.maps))[part]),
                           lambda part: lat.maps.array[part], "map-deviation").max_residual
    deviation = report.stages["reconstruct"]["max_map_deviation"]
    assert deviation == max(_slice_loops(lat, q, h, z)["reconstruction_slot"].values())
    assert _close(deviation, dense)


def test_marginals_without_kc_read_h_off_the_kc_table(monkeypatch):
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
    reports = []
    for pipeline in (["propagate", "kc", "marginals"], ["propagate", "marginals"]):
        reports.append(run_scenario(parse_scenario({**doc, "pipeline": pipeline})))
        # h's native table is the kc table's and z's is bounded from Q's: h's plain law only
        assert sorted(kinds) == ["Q", "h"]
        kinds.clear()
    assert reports[0].stages["marginals"] == reports[1].stages["marginals"]


@pytest.mark.parametrize("name", ["mixed-n2-T12-A", "mixed-n2-T12-B"])
def test_a_pipeline_without_a_kc_stage_forms_one_kc_table(monkeypatch, name):
    # the marginals stage forms the kc table that H/h's law and the rebuilt lattice's kc
    # bound read; every number is the full pipeline's, bit for bit
    sc = byteid_scenarios()[name]
    full = run_scenario(sc)
    calls = []
    original = kc_consistency

    def counted(lattice):
        calls.append(lattice)
        return original(lattice)

    for module in [m for key, m in sys.modules.items() if key.startswith("qqsp")]:
        if getattr(module, "kc_consistency", None) is original:
            monkeypatch.setattr(module, "kc_consistency", counted)
    short = run_scenario(parse_scenario({**sc.to_dict(),
                                         "pipeline": ["propagate", "marginals", "reconstruct"]}))
    assert len(calls) == 1
    assert sc.mode == "strict" and "kc" in sc.pipeline and "kc" not in short.stages
    kind = "H" if sc.process_type == "A" else "h"
    for stage, key in (("marginals", f"composition_{kind}"),
                       ("reconstruct", "fundamental_equation_max"),
                       ("reconstruct", "conclusion_b_residual")):
        assert json.dumps(short.stages[stage][key]) == json.dumps(full.stages[stage][key])


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
    pair_q = q
    if foreign:   # the pair hands the axioms the Q of another lattice; the slices refuse it
        from qqsp.seeds import make_constant_seed
        pair_q = build_Q(propagate(make_constant_seed(lat.n, lat.horizon)))
        with pytest.raises(ValueError, match="of this Q family"):
            slice_residuals(lat, pair_q, h, z)
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
        pair_q, h,
        reconstruct_qqsp(pair_q, h, lat.omega(0), lat.process_type, strict=False)).exchange
    assert got["z_reconstruction_slot"] <= 1e-14
    assert (exchange.max_residual > 0.01) == foreign

"""Stacked residual sweeps against per-gap loops, Gram operator norms, op-count pins."""

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
from qqsp.linalg import operator_norm, operator_norms
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
    row,
    triples,
)
from qqsp.scenarios import parse_scenario, run_scenario
from qqsp.seeds import make_entangling_seed, make_mixed_seed, mixed_step_map

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
    if lat.process_type == "A":
        h = build_H(lat)
        return build_Q(lat), h, build_Z(h)
    h = build_h(lat)
    return build_Q(lat), h, build_z(h)


# ------------------------------------------------- per-gap reference loops

def _split_loop(family, compose):
    """The sweep one gap at a time: per-split product, per-gap operator_norm."""
    return {(s, tau, t): family.trailing_norm(t)
            * operator_norm(family.core(s, t).matrix - compose(s, tau, t))
            for s, tau, t in triples(family.horizon)}


def _pair_loop(family, lhs, rhs, trailing=None):
    return {(s, t): (1.0 if trailing is None else trailing.trailing_norm(t))
            * operator_norm(lhs(s, t) - rhs(s, t)) for s, t in family.pairs()}


def _plain(family):
    def compose(s, tau, t):
        return (family.core(s, tau) @ family.trailing_times(tau, family.core(tau, t))).matrix
    return compose


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
                                                              [h.core(tau, t).matrix])[0])
    else:
        want = _split_loop(h, _plain(h))
    assert check_markov(h).entries == want


def test_stacked_pair_sweeps_equal_the_per_pair_loop(lattice):
    q, h, z = _families(lattice)
    n, es = lattice.n, lattice.expectations
    rebuilt = reconstruct_qqsp(q, h, lattice.omega(0), lattice.process_type, strict=False)
    rep = verify_marginal_axioms(q, h, rebuilt)
    e_psi = rebuilt.expectations
    e_phi = [expectation_supermap(lattice.omega(0))] + [
        expectation_supermap(State(predual(q.map(0, t))(lattice.omega(0).rho)))
        for t in range(1, lattice.horizon + 1)]
    assert rep.flip.entries == _pair_loop(
        h, lambda s, t: flip_after(h.core(s, t)).matrix, lambda s, t: h.core(s, t).matrix, h)
    assert rep.exchange.entries == _pair_loop(
        h, lambda s, t: (e_psi[s] @ h.core(s, t) @ es[t]).matrix,
        lambda s, t: (q.map(s, t) @ e_phi[t]).matrix)

    def carried(s, t):
        return expectation_supermap(State(predual(q.map(s, t))(q.omega(s).rho))).matrix

    assert state_consistency_residual(q).entries == _pair_loop(
        q, carried, lambda s, t: es[t].matrix)

    emb, avg = embed_supermap(n), embed_averaged_supermap(n)
    consts = [SuperMap.constant(w, n * n).matrix for w in lattice.omegas]
    want = {
        "reconstruction_slot": _pair_loop(lattice, lambda s, t: (h.core(s, t) @ (es[t] @ emb))
                                          .matrix, lambda s, t: lattice.map(s, t).matrix),
        "averaged_slot": _pair_loop(lattice, lambda s, t: (h.core(s, t) @ (es[t] @ avg)).matrix,
                                    lambda s, t: consts[t]),
        "z_reconstruction_slot": _pair_loop(
            lattice, lambda s, t: (z.core(s, t) @ (es[t] @ emb)).matrix,
            lambda s, t: (emb @ q.map(s, t)).matrix),
        "z_averaged_slot": _pair_loop(lattice, lambda s, t: (z.core(s, t) @ (es[t] @ avg))
                                      .matrix, lambda s, t: consts[t]),
    }
    got = slice_residuals(lattice, q, h, z)
    assert got == {name: max(table.values()) for name, table in want.items()}


# ------------------------------------------- batches across group boundaries

def _sweep_tables(lat):
    """Every residual table of the split and pair sweeps, keyed by name."""
    q, h, z = _families(lat)
    rebuilt = reconstruct_qqsp(q, h, lat.omega(0), lat.process_type, strict=False)
    axioms = verify_marginal_axioms(q, h, rebuilt)
    tables = {"kc": kc_consistency(lat), "markov-Q": check_markov(q),
              "markov-h": check_markov(h), "markov-z": check_markov(z),
              "plain-h": check_markov(h, law="plain"), "state": state_consistency_residual(q),
              "flip": axioms.flip, "exchange": axioms.exchange}
    return {name: table.entries for name, table in tables.items()} | {
        "slices": slice_residuals(lat, q, h, z)}


@pytest.mark.parametrize("n, horizon, ptype", [(2, 12, "A"), (2, 12, "B"), (4, 6, "A"),
                                               (4, 6, "B")])
def test_batched_tables_equal_the_per_group_tables(monkeypatch, n, horizon, ptype):
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
    monkeypatch.setattr(qqsp.process, "RESIDUAL_BATCH_BYTES", 0)   # one batch per group
    per_group = _sweep_tables(lat)
    assert batched == per_group
    assert batches < len(lengths)   # some batch holds more than one group
    # and the kc table is still the per-gap loop
    assert batched["kc"] == _split_loop(lat, _fundamental(lat))


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
    q, h, _ = _families(lat)
    rebuilt = reconstruct_qqsp(q, h, lat.omega(0), ptype, strict=False)
    want = pair_residuals(lat, lambda s, ts: np.stack(row(rebuilt.map, s, ts)),
                          lambda s, ts: row(lat.map, s, ts), "map-deviation").max_residual
    assert report.stages["reconstruct"]["max_map_deviation"] == want


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

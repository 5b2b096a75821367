"""The lattice's own pair (Q, H or h): closed forms against the sweeps they replace.

For a derived pair the rebuilt lattice is c_t P^{s,t}, so its kc, its conclusion b and
the exchange axiom are bounded from P's kc table and the map norms instead of swept.
The sweeps stay for every other pair and are the oracle here: on every scenario of
``scripts/byteid.py`` each bound is at least the swept value, entry by entry, and the
reported value less its rounding allowance is at most 1e-15 above the sweep.
"""

import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import byteid_scenarios, swept_q
from qqsp.algebra import MapStack, ScaledMapStack, State
from qqsp.cli import main
from qqsp.linalg import CHUNK_BYTES
from qqsp.marginal import (
    ROUNDING,
    build_H,
    build_Q,
    build_Z,
    build_h,
    build_z,
    check_markov,
    composition_from_q,
    conclusion_b_residuals,
    derived_pair,
    rebuilt_kc,
    reconstruct_qqsp,
    verify_marginal_axioms,
)
from qqsp.process import Family, QQSPSeed, kc_consistency, propagate, triples
from qqsp.scenarios import builtin_scenarios, parse_scenario, run_scenario
from qqsp.seeds import make_constant_seed, mixed_step_map

SCENARIOS = byteid_scenarios()


def _pair(lat):
    q = build_Q(lat)
    h = (build_H if lat.process_type == "A" else build_h)(lat)
    (build_Z if lat.process_type == "A" else build_z)(h, q)
    return q, h, reconstruct_qqsp(q, h, lat.omega(0), lat.process_type, strict=False)


def _scales(q, h, rebuilt):
    """The operand scale of each bound's rounding allowance, by key."""
    c = np.abs(h.slot_scales)
    cores, qs, at = h.map_norms, q.map_norms, h.maps.index
    rho = h.trailing_norms
    return {"kc": lambda s, tau, t: c[t] * cores[at[(s, t)]],
            "conclusion-b": lambda s, t: qs[at[(s, t)]],
            "exchange": lambda s, t: qs[at[(s, t)]] * rho[t]}


def _embedded(lat, q):
    """The Z or z of a lattice, on the maps of its Q."""
    h = (build_H if lat.process_type == "A" else build_h)(lat)
    return (build_Z if lat.process_type == "A" else build_z)(h, q)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_each_closed_form_bounds_its_sweep(name):
    sc = SCENARIOS[name]
    lat = propagate(sc.resolved[0], strict=False)
    q, h, rebuilt = _pair(lat)
    z = _embedded(lat, q)
    assert derived_pair(q, h, rebuilt)
    other = swept_q(q)   # the same maps, not the lattice's Q by identity: swept
    assert not derived_pair(other, h, rebuilt)
    kc = kc_consistency(lat)
    bounds = {"kc": rebuilt_kc(q, h, rebuilt, kc),
              "conclusion-b": conclusion_b_residuals(q, h, rebuilt),
              "exchange": verify_marginal_axioms(q, h, rebuilt).exchange,
              "composition": composition_from_q(z, q, check_markov(q))}
    sweeps = {"kc": kc_consistency(rebuilt),
              "conclusion-b": conclusion_b_residuals(other, h, rebuilt),
              "exchange": verify_marginal_axioms(other, h, rebuilt).exchange,
              "composition": check_markov(z)}
    scales = _scales(q, h, rebuilt)
    for kind, bound in bounds.items():
        swept = sweeps[kind]
        assert bound.label == swept.label and bound.entries.keys() == swept.entries.keys()
        assert all(bound.entries[key] >= value for key, value in swept.entries.items()), kind
        if kind == "composition":
            # the triangle inequality on c_tau is not tight. Without its ROUNDING the bound
            # falls short of the sweep by at most 0.74 eps of sqrt(n) ||rho_t||_F ||Q^{s,t}||
            # (mixed-n2-T12-B at (7, 9, 12)), inside the 1.5 eps allowance
            continue
        # what the report shows: the kc and conclusion-b maxima, every exchange entry
        shown = bound.entries if kind == "exchange" else dict([bound.worst()])
        for key, value in shown.items():
            want = swept.entries[key] if kind == "exchange" else swept.max_residual
            assert value - ROUNDING * scales[kind](*key) - want <= 1e-15, (kind, key)


def test_a_foreign_or_hand_built_pair_is_swept():
    lat = propagate(QQSPSeed.from_single_map(mixed_step_map(2), State.from_weights([0.7, 0.3]),
                                             4, "B"))
    q, h, rebuilt = _pair(lat)
    foreign = build_Q(propagate(make_constant_seed(2, 4)))
    hand_built = Family("h", 2, dict(h.maps), h.omegas)
    rescaled = Family("P", 2, ScaledMapStack(h.maps, 2 * rebuilt.maps.factors),
                      rebuilt.omegas, "B")
    kc = kc_consistency(lat)
    for pair in ((foreign, h, rebuilt), (q, hand_built, rebuilt), (q, h, rescaled),
                 (swept_q(q), h, rebuilt)):
        assert not derived_pair(*pair)
        pair_q, pair_h, pair_rebuilt = pair
        assert rebuilt_kc(*pair, kc).entries == kc_consistency(pair_rebuilt).entries
        assert (conclusion_b_residuals(*pair).entries
                == conclusion_b_residuals(swept_q(pair_q), pair_h, pair_rebuilt).entries)
    assert verify_marginal_axioms(foreign, h, rebuilt).exchange.max_residual > 0.01
    # without the lattice's kc table the rebuilt lattice is swept too
    assert rebuilt_kc(q, h, rebuilt).entries == kc_consistency(rebuilt).entries
    with pytest.raises(ValueError, match="kc table"):
        rebuilt_kc(q, h, rebuilt, kc_consistency(propagate(make_constant_seed(2, 4))))


def test_a_z_not_on_its_q_array_is_swept():
    lat = propagate(QQSPSeed.from_single_map(mixed_step_map(2), State.from_weights([0.7, 0.3]),
                                             4, "A"))
    q = build_Q(lat)
    z, table = _embedded(lat, q), check_markov(q)
    copied = Family("Z", 2, MapStack(q.maps.array, q.maps.order), z.omegas)
    assert composition_from_q(copied, q, table).entries == check_markov(copied).entries
    assert composition_from_q(z, q, table).entries != check_markov(z).entries
    with pytest.raises(ValueError, match="Markov table"):
        composition_from_q(z, q, kc_consistency(lat))


@pytest.mark.parametrize("law", "AB")
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_the_constructing_split_reads_zero_unswept(name, law):
    # propagate stores each P^{s,t} as the product kc forms at tau = t-1: swept (on the same
    # arrays in a family propagate did not return), that gap is +0.0, and kc writes it
    # unswept, every other entry bit for bit the sweep's
    lat = propagate(replace(SCENARIOS[name].resolved[0], process_type=law), strict=False)
    assert lat.propagated
    copy = Family("P", lat.n, lat.maps, lat.omegas, law, conditioned_maps=lat.conditioned_maps)
    swept = kc_consistency(copy)
    kc = kc_consistency(lat)
    assert kc.label == swept.label and list(kc.entries) == list(swept.entries)
    assert [v.hex() for v in kc.entries.values()] == [v.hex() for v in swept.entries.values()]
    constructed = [value for (_, tau, t), value in swept.entries.items() if tau == t - 1]
    assert constructed and all(math.copysign(1.0, v) == 1.0 and v == 0 for v in constructed)


def test_a_rebuilt_or_hand_built_lattice_is_swept_at_every_split(monkeypatch):
    import qqsp.process

    swept = []
    table = qqsp.process._table

    def recorded(keys, shape, gaps, scales, label, at=None):
        swept.append([keys[i] for i in (range(len(keys)) if at is None else at)])
        return table(keys, shape, gaps, scales, label, at)

    monkeypatch.setattr(qqsp.process, "_table", recorded)
    lat = propagate(QQSPSeed.from_single_map(mixed_step_map(2), State.from_weights([0.7, 0.3]),
                                             5, "B"))
    q, h, rebuilt = _pair(lat)
    hand_built = Family("P", 2, dict(lat.maps), lat.omegas, "B")
    every = list(triples(5))
    for lattice, want in ((lat, [key for key in every if key[1] < key[2] - 1]),
                          (hand_built, every), (rebuilt, every)):
        swept.clear()
        kc_consistency(lattice)
        assert swept == [want]
        assert not lattice.propagated or lattice is lat


def test_a_one_step_lattice_bounds_an_empty_kc_table():
    lat = propagate(QQSPSeed.from_single_map(mixed_step_map(2), State.maximally_mixed(2), 1,
                                             "A"))
    q, h, rebuilt = _pair(lat)
    assert derived_pair(q, h, rebuilt)
    assert rebuilt_kc(q, h, rebuilt, kc_consistency(lat)).entries == {}


def test_a_run_reports_the_bounds_of_its_own_pair(monkeypatch):
    # the reconstruct stage reads P's kc table, also when no kc stage ran, and sweeps
    # neither the rebuilt lattice's kc nor its conclusion b
    import qqsp.marginal

    swept = []
    kc_sweep, pair_sweep = qqsp.marginal.kc_consistency, qqsp.marginal.pair_residuals

    def kc_recorded(lattice):
        swept.append("kc")
        return kc_sweep(lattice)

    def pair_recorded(family, shape, lhs, rhs, label, scales=None):
        swept.append(label)
        return pair_sweep(family, shape, lhs, rhs, label, scales)

    monkeypatch.setattr(qqsp.marginal, "kc_consistency", kc_recorded)
    monkeypatch.setattr(qqsp.marginal, "pair_residuals", pair_recorded)
    doc = {"name": "mixed-n2-T5-A", "algebra": {"kind": "full", "dim": 2},
           "process_type": "A", "horizon": 5, "seed": {"builtin": "mixed"},
           "initial_state": {"diag": [0.7, 0.3]}}
    reports = [run_scenario(parse_scenario({**doc, "pipeline": pipeline}))
               for pipeline in (["propagate", "kc", "marginals", "axioms", "reconstruct"],
                                ["propagate", "marginals", "reconstruct"])]
    assert swept == ["axiom-flip", "axiom-flip"]   # the strict rebuild's axiom suite
    assert reports[0].stages["reconstruct"] == reports[1].stages["reconstruct"]


@pytest.mark.parametrize("horizon", [6, 12])
def test_rebuilding_grows_the_heap_by_a_few_chunks_whatever_the_horizon(horizon):
    # at n=4 one lattice map is 64 KiB, one chunk, so P's T rows (0, t) span T chunks; the
    # rebuilt rows and their preduals are made one chunk at a time
    n = 4
    lat = propagate(QQSPSeed.from_single_map(mixed_step_map(n), State.maximally_mixed(n),
                                             horizon, "A"))
    assert lat.maps.array[0].nbytes == CHUNK_BYTES
    q, h, _ = _pair(lat)
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        reconstruct_qqsp(q, h, lat.omega(0), "A", strict=False)   # as the axioms stage does
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - start < 4 * CHUNK_BYTES


def test_a_nul_byte_in_the_name_exits_2_before_any_stage(tmp_path, capsys):
    data = builtin_scenarios()["constant-n2"].to_dict()
    data["name"] = "bad\u0000name"
    path = tmp_path / "nul.json"
    path.write_text(json.dumps(data))
    assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "scenario.name" in err and "NUL" in err
    assert not (tmp_path / "out").exists()


def test_a_map_stack_keeps_its_norms_for_every_family_on_it():
    lat = propagate(QQSPSeed.from_single_map(mixed_step_map(2), State.maximally_mixed(2), 3,
                                             "A"))
    q, h, _ = _pair(lat)
    assert h.map_norms is lat.map_norms is lat.maps.norms
    z = build_Z(h, q)
    assert z.map_norms is q.map_norms
    assert MapStack(lat.maps.array, lat.maps.order).norms is None

"""Residual tables as value arrays over one key index per horizon.

A table holds its values in the order of the :class:`qqsp.process.Keys` that every table of
its shape over one horizon shares (:class:`qqsp.process.KeyIndex`); ``entries`` is a view
derived for readers that want a dict. Every family holds all pairs of its horizon in sorted
order, and one in another order is refused at construction. The bounds read a kc or Markov
table by its keys: they refuse a table with a missing, extra or mislabelled key, or with the
same keys in another order.
"""

import json
import math

import numpy as np
import pytest

from conftest import byteid_scenarios
from qqsp.algebra import MapStack, State
from qqsp.cli import main
from qqsp.marginal import (
    build_H,
    build_Q,
    build_Z,
    build_h,
    build_z,
    check_markov,
    composition_from_kc,
    composition_from_q,
    conclusion_b_residuals,
    rebuilt_kc,
    reconstruct_qqsp,
    state_consistency_residual,
    verify_marginal_axioms,
)
from qqsp.process import (
    Family,
    Keys,
    QQSPSeed,
    ResidualTable,
    kc_consistency,
    propagate,
    triples,
)
from qqsp.seeds import mixed_step_map

SCENARIOS = byteid_scenarios()


def _families(lat):
    """Q, H or h, Z or z and the rebuilt lattice of a lattice."""
    q = build_Q(lat)
    h = (build_H if lat.process_type == "A" else build_h)(lat)
    z = (build_Z if lat.process_type == "A" else build_z)(h, q)
    return q, h, z, reconstruct_qqsp(q, h, lat.omega(0), lat.process_type, strict=False)


def _lattice(ptype: str, horizon: int = 5):
    return propagate(QQSPSeed.from_single_map(mixed_step_map(2), State.from_weights([0.7, 0.3]),
                                              horizon, ptype))


def _hand_built(entries: dict, label: str) -> ResidualTable:
    """A split table over the keys of ``entries``, in their order, as a caller may build one."""
    return ResidualTable(Keys(entries), np.array(list(entries.values()), dtype=float), label)


def test_every_table_of_a_horizon_shares_one_key_index():
    lat = _lattice("B")
    q, h, z, rebuilt = _families(lat)
    index = lat.key_index
    assert all(family.key_index is index for family in (q, h, z, rebuilt))
    assert _lattice("A").key_index is index   # one per horizon
    pairs = index.pairs
    assert index.splits == tuple(triples(5)) and index.splits.texts[:2] == ("0,1,2", "0,1,3")
    assert pairs.texts == tuple(f"{s},{t}" for s, t in pairs)
    for k, (s, tau, t) in enumerate(index.splits):
        assert (pairs[index.whole[k]], pairs[index.left[k]], pairs[index.right[k]]) == (
            (s, t), (s, tau), (tau, t))
    assert [pairs[i] for i in index.firsts] == [(0, t) for t in range(1, 6)]
    kc, axioms = kc_consistency(lat), verify_marginal_axioms(q, h, rebuilt)
    for table in (kc, check_markov(q), composition_from_kc(kc, h), rebuilt_kc(q, h, rebuilt, kc),
                  composition_from_q(z, q, check_markov(q)), check_markov(h, law="plain")):
        assert table.keys is index.splits
    for table in (axioms.flip, axioms.exchange, axioms.absorption, state_consistency_residual(q),
                  conclusion_b_residuals(q, h, rebuilt)):
        assert table.keys is index.pairs
    # a family in another pair order is refused at construction; one in sorted order shares
    # its horizon's index, and its tables are swept over that index's keys
    with pytest.raises(ValueError, match="it holds another order or other pairs"):
        Family("P", 2, MapStack(lat.maps.array[::-1], pairs[::-1]), lat.omegas, "B")
    copy = Family("P", 2, lat.maps, lat.omegas, "B")
    assert copy.key_index is index and kc_consistency(copy).keys is index.splits


def test_entries_is_a_read_only_view_of_the_values():
    table = kc_consistency(_lattice("A"))
    assert list(table.entries) == list(table.keys)
    assert list(table.entries.values()) == table.values.tolist()
    with pytest.raises(TypeError):
        table.entries[(0, 1, 2)] = 1.0
    empty = kc_consistency(_lattice("A", 1))
    assert empty.entries == {} and empty.max_residual == 0.0 and empty.worst() is None


def _spoiled(table: ResidualTable, spoil: str) -> ResidualTable:
    entries = dict(table.entries)
    if spoil == "missing":
        del entries[next(iter(entries))]
    elif spoil == "extra":
        entries[(0, 5, 6)] = 0.0
    else:   # a key (s, t) no split has in place of a split
        entries[(0, 1)] = entries.pop(next(iter(entries)))
    return _hand_built(entries, table.label)


@pytest.mark.parametrize("ptype", "AB")
@pytest.mark.parametrize("spoil", ["missing", "extra", "mislabelled", "relabelled"])
def test_a_table_with_a_missing_extra_or_mislabelled_key_is_refused(ptype, spoil):
    lat = _lattice(ptype)
    q, h, z, rebuilt = _families(lat)
    kc, markov = kc_consistency(lat), check_markov(q)
    if spoil == "relabelled":   # the right keys under another table's label
        kc, markov = (_hand_built(dict(table.entries), other.label)
                      for table, other in ((kc, markov), (markov, kc)))
    else:
        kc, markov = _spoiled(kc, spoil), _spoiled(markov, spoil)
    with pytest.raises(ValueError, match=f"is not the kc table of a lattice an {h.kind} family"):
        composition_from_kc(kc, h)
    with pytest.raises(ValueError, match=f"is not the kc table of a type-{ptype} lattice"):
        rebuilt_kc(q, h, rebuilt, kc)
    with pytest.raises(ValueError, match=f"is not the Markov table of the Q whose maps {z.kind}"):
        composition_from_q(z, q, markov)


@pytest.mark.parametrize("ptype", "AB")
def test_a_table_in_another_key_order_is_refused(ptype):
    lat = _lattice(ptype, 6)
    q, h, z, rebuilt = _families(lat)
    kc, markov = kc_consistency(lat), check_markov(q)
    order = np.random.default_rng(3).permutation(len(kc.keys))

    def shuffled(table):
        keys = [table.keys[i] for i in order]
        return _hand_built({key: table.entries[key] for key in keys}, table.label)

    for bound, table, what in (
            (lambda t: composition_from_kc(t, h), kc, f"the kc table of a lattice an {h.kind}"),
            (lambda t: rebuilt_kc(q, h, rebuilt, t), kc, f"the kc table of a type-{ptype}"),
            (lambda t: composition_from_q(z, q, t), markov,
             f"the Markov table of the Q whose maps {z.kind}")):
        ordered = bound(table)
        assert max(ordered.values) > 0 and ordered.keys is table.keys
        with pytest.raises(ValueError, match=f"is not {what}"):
            bound(shuffled(table))


def _every_table(sc):
    lat = propagate(sc.resolved[0], strict=False)
    q, h, z, rebuilt = _families(lat)
    kc, markov, axioms = kc_consistency(lat), check_markov(q), verify_marginal_axioms(q, h, rebuilt)
    tables = [kc, markov, composition_from_kc(kc, h), composition_from_q(z, q, markov),
              axioms.flip, axioms.exchange, axioms.absorption, rebuilt_kc(q, h, rebuilt, kc),
              conclusion_b_residuals(q, h, rebuilt), state_consistency_residual(q)]
    return tables + ([check_markov(h, law="plain")] if h.kind == "h" else [])


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_max_and_worst_are_pythons_max_over_the_entries(name):
    # the bits of max over the dict the tables were before, the sign of a zero included
    for table in _every_table(SCENARIOS[name]):
        old = dict(zip(table.keys, table.values.tolist()))
        assert table.max_residual.hex() == max(old.values()).hex(), table.label
        assert math.copysign(1.0, table.max_residual) == math.copysign(1.0, max(old.values()))
        assert table.worst() == max(old.items(), key=lambda kv: kv[1])


def test_a_run_reads_no_entries_dict(tmp_path, monkeypatch):
    # every byteid scenario writes the same bytes when a run may not read ResidualTable.entries
    paths = []
    for name, sc in sorted(SCENARIOS.items()):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(sc.to_dict()))

    def run_all(out_dir):
        for path in paths:
            assert main(["run", str(path), "--seed", "1", "--format", "csv-bundle",
                         "--out-dir", str(out_dir)]) == 0, path.name
        return {p.name: p.read_bytes() for p in out_dir.iterdir()
                if not p.name.endswith(".timings.txt")}

    want = run_all(tmp_path / "want")

    def refuse(table):
        raise AssertionError(f"a run read the entries of {table.label!r}")

    monkeypatch.setattr(ResidualTable, "entries", property(refuse))
    got = run_all(tmp_path / "got")
    assert len(got) == len(want) > len(paths) and got == want

"""One layout and one read path for every family, a rebuilt lattice's included.

Every family holds all pairs of its horizon in sorted order, and every reader outside
:mod:`qqsp.algebra` takes its maps through ``rows_at``. A rebuilt lattice, whose maps are a
:class:`qqsp.algebra.ScaledMapStack` with no array, therefore supports every operation a
propagated one does: its own marginals can be rebuilt again, which closes the uniqueness
loop of the marginal pair (Q, H).
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from qqsp.algebra import MapStack, ScaledMapStack
from qqsp.ergodic import ergodic_verdict
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
    verify_marginal_axioms,
)
from qqsp.process import Family, kc_consistency, propagate
from qqsp.seeds import make_entangling_seed, make_mixed_seed

SRC = Path(__file__).resolve().parents[1] / "src" / "qqsp"


def _marginals(lat):
    """Q, H or h, and Z or z of a lattice of either type."""
    q = build_Q(lat)
    h = (build_H if lat.process_type == "A" else build_h)(lat)
    return q, h, (build_Z if lat.process_type == "A" else build_z)(h, q)


def _all_rows(family):
    return family.maps.rows_at(slice(None))


@pytest.mark.parametrize("horizon", [4, 6])
@pytest.mark.parametrize("make, ptype", [(make_mixed_seed, "A"), (make_entangling_seed, "B")],
                         ids=["mixed-A", "entangling-B"])
def test_the_rebuilt_lattice_closes_the_uniqueness_loop(make, ptype, horizon):
    lat = propagate(make(horizon, ptype))
    q, h, _ = _marginals(lat)
    rebuilt = reconstruct_qqsp(q, h, lat.omega(0), ptype)
    assert isinstance(rebuilt.maps, ScaledMapStack)
    assert rebuilt.map_norms.shape == (len(lat.pairs()),)
    q2, h2, z2 = _marginals(rebuilt)
    again = reconstruct_qqsp(q2, h2, rebuilt.omega(0), ptype)
    assert verify_marginal_axioms(q2, h2, again).ok(1e-12)
    assert np.abs(_all_rows(again) - _all_rows(lat)).max() <= 1e-12
    assert np.abs(_all_rows(q2) - _all_rows(q)).max() <= 1e-12
    slices = slice_residuals(rebuilt, q2, h2, z2)
    assert set(slices) == {"reconstruction_slot", "averaged_slot", "z_reconstruction_slot",
                           "z_averaged_slot"}
    assert max(slices.values()) <= 1e-12
    composition = composition_from_kc(kc_consistency(rebuilt), h2)
    assert composition.keys is lat.key_index.splits and composition.max_residual <= 1e-12


def _bits(x):
    return np.asarray(x).tobytes()


@pytest.mark.parametrize("make, ptype", [(make_mixed_seed, "A"), (make_entangling_seed, "B")],
                         ids=["mixed-A", "entangling-B"])
def test_a_scaled_stack_reads_as_its_materialized_copy(make, ptype):
    # each row of either stack is the same elementwise product c_k F_k, so every reader that
    # takes its rows through rows_at gets the same bits from both
    lat = propagate(make(4, ptype))
    base = lat.maps
    factors = np.linspace(0.75, 1.25, len(base))
    factors[lat.key_index.firsts] = 1 + 2.0 ** -42   # psi_t is still a state within 1e-12
    dense = MapStack(base.array * factors[:, None, None], base.order)
    scaled, copied = (Family("P", lat.n, maps, lat.omegas, ptype)
                      for maps in (ScaledMapStack(base, factors), dense))
    assert _bits(scaled.map_norms) == _bits(copied.map_norms)
    assert _bits(kc_consistency(scaled).values) == _bits(kc_consistency(copied).values)
    (q_s, h_s, z_s), (q_c, h_c, z_c) = _marginals(scaled), _marginals(copied)
    assert _bits(_all_rows(q_s)) == _bits(_all_rows(q_c))
    for a, b in ((q_s, q_c), (h_s, h_c), (z_s, z_c)):
        assert _bits(check_markov(a).values) == _bits(check_markov(b).values)
    psis = [reconstruct_qqsp(q, h, lat.omega(0), ptype, strict=False).rhos
            for q, h in ((q_s, h_s), (q_c, h_c))]
    assert _bits(psis[0]) == _bits(psis[1])
    slices = [slice_residuals(*families) for families in ((scaled, q_s, h_s, z_s),
                                                          (copied, q_c, h_c, z_c))]
    assert {k: v.hex() for k, v in slices[0].items()} == {k: v.hex() for k, v in
                                                          slices[1].items()}
    verdicts = [ergodic_verdict(p, {"Q": q, h.kind: h, z.kind: z})
                for p, q, h, z in ((scaled, q_s, h_s, z_s), (copied, q_c, h_c, z_c))]
    assert repr(verdicts[0].traces) == repr(verdicts[1].traces)
    assert repr(verdicts[0].contraction) == repr(verdicts[1].contraction)


def _array_reads(path: Path):
    """The lines of ``path`` that read an ``.array`` attribute of anything but numpy."""
    return [node.lineno for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and node.attr == "array"
            and not (isinstance(node.value, ast.Name) and node.value.id == "np")]


def test_only_algebra_reads_a_stacks_array():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 5 and _array_reads(SRC / "algebra.py")   # the walk sees the reads
    assert {path.name: _array_reads(path) for path in modules
            if path.name != "algebra.py" and _array_reads(path)} == {}

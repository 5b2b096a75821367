"""Marginal families, their composition laws, axioms, and reconstruction."""

import numpy as np
import pytest

from qqsp.algebra import (
    MapStack,
    State,
    SuperMap,
    expectation_supermap,
    predual,
    supermap_tensor,
    trace_norm_distance,
)
from qqsp.linalg import matrix_unit, operator_norm, ptrace_first
from qqsp.marginal import (
    build_H,
    build_Q,
    build_Z,
    build_h,
    build_z,
    check_markov,
    reconstruct_qqsp,
    slice_residuals,
    state_consistency_residual,
    verify_marginal_axioms,
)
from qqsp.process import Family, QQSPSeed, ValidationFailure, kc_consistency, propagate, triples
from qqsp.scenarios import parse_scenario, run_scenario
from qqsp.seeds import (
    make_constant_seed,
    make_entangling_seed,
    make_mixed_seed,
    mixed_step_map,
    symmetrized_embedding,
)

from conftest import (dense, embed_averaged_supermap, embed_supermap, flip_supermap,
                      random_density)

BASIS2 = [matrix_unit(2, i, j) for i in range(2) for j in range(2)]


@pytest.fixture(scope="module")
def mixed_lattice():
    return propagate(make_mixed_seed(5, "A"))


@pytest.fixture(scope="module")
def entangling_lattice():
    return propagate(make_entangling_seed(5, "B"))


@pytest.fixture(scope="module")
def constant_lattice():
    return propagate(make_constant_seed(2, 5))


# ---------------------------------------------------------------------- Q

def test_q_constant_lattice(constant_lattice):
    q = build_Q(constant_lattice)
    omega = State.maximally_mixed(2)
    for (s, t) in q.pairs():
        for x in BASIS2:
            want = omega.expect(x) * np.eye(2)
            assert np.abs(q.map(s, t)(x) - want).max() <= 1e-12


def test_q_is_unital(mixed_lattice):
    q = build_Q(mixed_lattice)
    for (s, t) in q.pairs():
        assert np.abs(q.map(s, t)(np.eye(2, dtype=complex)) - np.eye(2)).max() <= 1e-12


def test_q_matches_composition_oracle(mixed_lattice):
    # independent composition: raw matrix product with a freshly built E matrix
    q = build_Q(mixed_lattice)
    e0 = expectation_supermap(mixed_lattice.omega(0))
    oracle = e0.matrix @ mixed_lattice.map(0, 2).matrix
    assert operator_norm(q.map(0, 2).matrix - oracle) <= 1e-12


# ------------------------------------------------------------------ H / h

def test_h_reconstruction_slot_identity(mixed_lattice):
    # the embedding the expectation leaves alone recovers the lattice map
    h = dense(build_H(mixed_lattice))
    for (s, t), hm in h.items():
        for x in BASIS2:
            got = hm(np.kron(np.eye(2), x))
            assert np.abs(got - mixed_lattice.map(s, t)(x)).max() <= 1e-12


def test_h_averaged_slot_identity(mixed_lattice):
    h = dense(build_H(mixed_lattice))
    for (s, t), hm in h.items():
        for x in BASIS2:
            got = hm(np.kron(x, np.eye(2)))
            want = mixed_lattice.omega(t).expect(x) * np.eye(4)
            assert np.abs(got - want).max() <= 1e-12


def test_h_constant_lattice_products(constant_lattice, rng):
    h = dense(build_H(constant_lattice))
    omega = State.maximally_mixed(2)
    for _ in range(5):
        a, b = random_density(rng, 2), random_density(rng, 2)
        got = h[(0, 2)](np.kron(a, b))
        want = omega.expect(a) * omega.expect(b) * np.eye(4)
        assert np.abs(got - want).max() <= 1e-12


def test_h_typeB_reconstruction_slot(entangling_lattice):
    h = dense(build_h(entangling_lattice))
    for (s, t), hm in h.items():
        for x in BASIS2:
            got = hm(np.kron(np.eye(2), x))
            assert np.abs(got - entangling_lattice.map(s, t)(x)).max() <= 1e-12


def test_build_kind_guards(mixed_lattice, entangling_lattice):
    with pytest.raises(ValueError):
        build_H(entangling_lattice)
    with pytest.raises(ValueError):
        build_h(mixed_lattice)
    with pytest.raises(ValueError):
        build_Z(build_Q(mixed_lattice), build_Q(mixed_lattice))


# ---------------------------------------------------------------------- Z

def test_z_slice_identities(mixed_lattice):
    h = build_H(mixed_lattice)
    q = build_Q(mixed_lattice)
    z = dense(build_Z(h, q))
    for (s, t), zm in z.items():
        for x in BASIS2:
            got = zm(np.kron(np.eye(2), x))
            want = np.kron(np.eye(2), q.map(s, t)(x))
            assert np.abs(got - want).max() <= 1e-12
            got2 = zm(np.kron(x, np.eye(2)))
            want2 = mixed_lattice.omega(t).expect(x) * np.eye(4)
            assert np.abs(got2 - want2).max() <= 1e-12


def test_slice_residual_summary(mixed_lattice):
    q, h = build_Q(mixed_lattice), build_H(mixed_lattice)
    res = slice_residuals(mixed_lattice, q, h, build_Z(h, q))
    assert max(res.values()) <= 1e-10


# ------------------------------------------------------------ composition

def test_constant_all_kinds_compose(constant_lattice):
    q = build_Q(constant_lattice)
    h = build_H(constant_lattice)
    z = build_Z(h, q)
    for fam in (q, h, z):
        assert check_markov(fam).max_residual <= 1e-13


def test_h_and_z_markov_when_kc_holds(mixed_lattice):
    assert kc_consistency(mixed_lattice).max_residual <= 1e-10
    h = build_H(mixed_lattice)
    assert check_markov(h).max_residual <= 1e-9
    assert check_markov(build_Z(h, build_Q(mixed_lattice))).max_residual <= 1e-9
    assert check_markov(build_Q(mixed_lattice)).max_residual <= 1e-9


def test_type_b_contrast(entangling_lattice):
    # h satisfies the doubled law but is not plainly Markov
    h = build_h(entangling_lattice)
    native = check_markov(h)
    construction = {key: r for key, r in native.entries.items() if key[1] == key[2] - 1}
    assert max(construction.values()) <= 1e-11
    plain = check_markov(h, law="plain")
    assert plain.max_residual > 0.01
    z = build_z(h, build_Q(entangling_lattice))
    assert check_markov(z).max_residual <= 1e-9


# ----------------------------------------------------------------- axioms

def test_axioms_hold_for_built_pair(mixed_lattice):
    q, h = build_Q(mixed_lattice), build_H(mixed_lattice)
    rep = verify_marginal_axioms(
        q, h, reconstruct_qqsp(q, h, mixed_lattice.omega(0), "A", strict=False))
    assert rep.flip.max_residual <= 1e-10
    assert rep.exchange.max_residual <= 1e-10
    assert rep.absorption.max_residual <= 1e-10
    assert rep.trajectory_gap <= 1e-10


def test_axioms_hold_for_type_b_pair(entangling_lattice):
    q, h = build_Q(entangling_lattice), build_h(entangling_lattice)
    rep = verify_marginal_axioms(
        q, h, reconstruct_qqsp(q, h, entangling_lattice.omega(0), "B", strict=False))
    assert rep.max_residual <= 1e-10


def test_mismatched_pair_fails_exchange(constant_lattice, mixed_lattice):
    # deliberate mismatch: Q from the constant lattice, H from the mixed one
    q_const = build_Q(constant_lattice)
    h_mixed = build_H(mixed_lattice)
    rep = verify_marginal_axioms(
        q_const, h_mixed,
        reconstruct_qqsp(q_const, h_mixed, mixed_lattice.omega(0), "A", strict=False))
    assert rep.exchange.max_residual > 0.01


def test_a_pair_rebuilt_from_a_foreign_initial_state_fails_absorption():
    # psi_t then leaves the trajectory omega_t of H: the slot c_t E_{psi_t} no longer
    # cancels H's E_{omega_t}, and the strict rebuild refuses the pair
    lat = propagate(make_mixed_seed(3, "A"))
    q, h = build_Q(lat), build_H(lat)
    omega0 = State.from_weights([0.1, 0.9])
    rep = verify_marginal_axioms(q, h, reconstruct_qqsp(q, h, omega0, "A", strict=False))
    assert abs(rep.absorption.max_residual - 0.6) <= 1e-12
    with pytest.raises(ValidationFailure, match="axiom suite"):
        reconstruct_qqsp(q, h, omega0, "A", strict=True, tol=1e-8)


# --------------------------------------------------------- reconstruction

def test_permissive_reconstruction_skips_the_axiom_suite(monkeypatch, mixed_lattice):
    def refuse(*args, **kwargs):
        raise AssertionError("the axiom suite ran in permissive mode")

    monkeypatch.setattr("qqsp.marginal.verify_marginal_axioms", refuse)
    q, h = build_Q(mixed_lattice), build_H(mixed_lattice)
    rec = reconstruct_qqsp(q, h, mixed_lattice.omega(0), "A", strict=False)
    assert rec.pairs() == mixed_lattice.pairs()


def test_round_trip_type_a(mixed_lattice):
    q, h = build_Q(mixed_lattice), build_H(mixed_lattice)
    rec = reconstruct_qqsp(q, h, mixed_lattice.omega(0), "A")
    dev = max(operator_norm(rec.map(*k).matrix - mixed_lattice.map(*k).matrix)
              for k in mixed_lattice.pairs())
    assert dev <= 1e-10
    for t in range(rec.horizon + 1):
        assert trace_norm_distance(rec.omega(t), mixed_lattice.omega(t)) <= 1e-10
    # conclusion (b): Q = E_{omega_s} P
    for (s, t) in rec.pairs():
        got = (expectation_supermap(rec.omega(s)) @ rec.map(s, t)).matrix
        assert operator_norm(got - q.map(s, t).matrix) <= 1e-12
    # the reconstructed lattice satisfies the fundamental equation at every split
    assert kc_consistency(rec).max_residual <= 1e-10


def test_round_trip_type_b(entangling_lattice):
    q, h = build_Q(entangling_lattice), build_h(entangling_lattice)
    rec = reconstruct_qqsp(q, h, entangling_lattice.omega(0), "B")
    dev = max(operator_norm(rec.map(*k).matrix - entangling_lattice.map(*k).matrix)
              for k in entangling_lattice.pairs())
    assert dev <= 1e-10
    assert kc_consistency(rec).max_residual <= 1e-10
    # trajectory consistency along the way
    assert state_consistency_residual(q).max_residual <= 1e-10


def test_round_trip_constant_exact(constant_lattice):
    q, h = build_Q(constant_lattice), build_H(constant_lattice)
    rec = reconstruct_qqsp(q, h, constant_lattice.omega(0), "A")
    dev = max(operator_norm(rec.map(*k).matrix - constant_lattice.map(*k).matrix)
              for k in constant_lattice.pairs())
    assert dev <= 1e-13


def test_state_consistency_also_type_a(mixed_lattice):
    assert state_consistency_residual(build_Q(mixed_lattice)).max_residual <= 1e-10


# -------------------------------------------------- predual factorization

def _relation_lattices():
    # n in {2, 3}, both types, and the n=2 type-B lattice whose h is not Markov
    return [_mixed_lattice(2, "A"), _mixed_lattice(2, "B"), _mixed_lattice(3, "A"),
            _mixed_lattice(3, "B"), propagate(make_entangling_seed(4, "B"))]


def test_predual_factorization_h(rng):
    # H_*(rho) = h_*(rho) = rho_{omega_t} (x) P_*(rho) for states on the doubled algebra
    for lat in _relation_lattices():
        n = lat.n
        h = dense(build_H(lat) if lat.process_type == "A" else build_h(lat))
        for (s, t), hm in h.items():
            rho = random_density(rng, n * n)
            rhs = np.kron(lat.omega(t).rho, predual(lat.map(s, t))(rho))
            assert np.abs(predual(hm)(rho) - rhs).max() <= 1e-12


def test_predual_factorization_z(rng):
    # Z_*(rho) = z_*(rho) = rho_{omega_t} (x) Q_*(Tr_1 rho), and
    # Q_*(sigma) = P_*(rho_{omega_s} (x) sigma)
    for lat in _relation_lattices():
        n = lat.n
        q = build_Q(lat)
        z = dense((build_Z(build_H(lat), q) if lat.process_type == "A"
                   else build_z(build_h(lat), q)))
        for (s, t), zm in z.items():
            rho, sigma = random_density(rng, n * n), random_density(rng, n)
            q_dual = predual(q.map(s, t))
            rhs = np.kron(lat.omega(t).rho, q_dual(ptrace_first(rho, n, n)))
            assert np.abs(predual(zm)(rho) - rhs).max() <= 1e-12
            p_dual = predual(lat.map(s, t))(np.kron(lat.omega(s).rho, sigma))
            assert np.abs(q_dual(sigma) - p_dual).max() <= 1e-12


def test_family_dimension_guard():
    with pytest.raises(ValueError):
        Family("Q", 2, {(0, 1): SuperMap.identity(4)})
    with pytest.raises(ValueError):
        Family("H", 2, {(0, 1): SuperMap.identity(2)})
    with pytest.raises(ValueError, match="expected \\(2, 4\\)"):
        Family("P", 2, {(0, 1): SuperMap.identity(4)}, process_type="A")
    with pytest.raises(ValueError, match="unknown family kind"):
        Family("X", 2, {(0, 1): SuperMap.identity(2)})
    with pytest.raises(ValueError, match="type"):
        Family("P", 2, {(0, 1): symmetrized_embedding(2)})
    assert Family("P", 2, {(0, 1): symmetrized_embedding(2)}, process_type="B").side == 4


def test_a_family_without_every_pair_or_one_state_per_time_is_refused():
    s_map, omega = symmetrized_embedding(2), State.maximally_mixed(2)
    with pytest.raises(ValueError, match=r"horizon 2 in sorted order; pair \(0, 2\) is missing"):
        Family("P", 2, {(0, 1): s_map, (1, 2): s_map}, (omega,) * 3, "A")
    inner = {(s, t): s_map for s in range(3) for t in range(s + 1, 4) if (s, t) != (1, 2)}
    with pytest.raises(ValueError, match=r"pair \(1, 2\) is missing"):
        Family("P", 2, inner, (omega,) * 4, "A")
    extra = {(s, t): s_map for s in range(2) for t in range(s + 1, 3)}
    with pytest.raises(ValueError, match="another order or other pairs"):
        Family("P", 2, {**extra, (2, 1): s_map}, (omega,) * 3, "A")
    with pytest.raises(ValueError, match="horizon 2 needs 3 states omega_0 .. omega_T, got 2"):
        Family("P", 2, extra, (omega,) * 2, "A")
    assert Family("P", 2, extra, (omega,) * 3, "A").key_index.pairs == tuple(sorted(extra))
    # an empty family is refused before its maps are stacked or its horizon taken
    with pytest.raises(ValueError, match=r"holds no pair \(s, t\)"):
        Family("Q", 2, {})
    with pytest.raises(ValueError, match=r"holds no pair \(s, t\)"):
        Family("Q", 2, MapStack(np.empty((0, 4, 4)), []))


@pytest.mark.parametrize("kind", ["H", "h", "Z", "z"])
def test_a_doubled_marginal_is_never_stored_on_the_doubled_algebra(kind):
    # H/h store their cores M -> M (x) M and Z/z Q's maps on M; a dense map on M (x) M is
    # refused, and so is a doubled marginal without the trajectory of its lattice
    omegas = (State.maximally_mixed(2),) * 2
    with pytest.raises(ValueError, match="expected"):
        Family(kind, 2, {(0, 1): SuperMap.identity(4)}, omegas)
    with pytest.raises(ValueError, match="trajectory"):
        Family(kind, 2, {(0, 1): SuperMap.identity(2) if kind in "Zz"
                         else symmetrized_embedding(2)})


# ------------------------------------------- factored doubled marginals

def _assert_table(table, want):
    assert set(table.entries) == set(want)
    for key, value in want.items():
        assert abs(table.entries[key] - value) <= 1e-14, (table.label, key)


def _mixed_lattice(n, ptype):
    weights = np.arange(n, 0, -1) / (n * (n + 1) / 2)
    return propagate(QQSPSeed.from_single_map(mixed_step_map(n), State.from_weights(weights),
                                              4, ptype))


def _fixed_lattice():
    # not Kolmogorov-Chapman consistent, so the Markov residuals are of order one
    omega = State.from_weights([0.7, 0.3])
    return Family("P", 2, {(s, t): symmetrized_embedding(2)
                           for s in range(4) for t in range(s + 1, 5)},
                  omegas=(omega,) * 5, process_type="A")


@pytest.mark.parametrize("make_lattice, foreign_q", [
    (lambda: _mixed_lattice(2, "A"), False),
    (lambda: _mixed_lattice(2, "B"), False),
    (lambda: _mixed_lattice(3, "A"), False),
    (lambda: _mixed_lattice(3, "B"), False),
    (lambda: propagate(make_entangling_seed(4, "B")), False),   # plain law of h fails
    (_fixed_lattice, True),     # with the Q of another lattice, the exchange fails
], ids=["mixed-n2-A", "mixed-n2-B", "mixed-n3-A", "mixed-n3-B", "entangling-n2-B",
        "fixed-n2-A-foreign-Q"])
def test_factored_residuals_match_dense_reference(make_lattice, foreign_q):
    lat = make_lattice()
    n, ptype = lat.n, lat.process_type
    q = build_Q(propagate(make_constant_seed(n, lat.horizon)) if foreign_q else lat)
    h = build_H(lat) if ptype == "A" else build_h(lat)
    own_q = build_Q(lat)
    z = (build_Z if ptype == "A" else build_z)(h, own_q)
    dense_h = {k: m.matrix for k, m in dense(h).items()}
    dense_z = {k: m.matrix for k, m in dense(z).items()}
    for fam in (h, z):
        assert fam.factored
        with pytest.raises(ValueError, match="core"):
            fam.map(0, 1)
    assert h.maps.array is lat.maps.array   # the lattice's one array, not a copy

    def markov(dense):
        return {(s, tau, t): operator_norm(dense[(s, t)] - dense[(s, tau)] @ dense[(tau, t)])
                for s, tau, t in triples(lat.horizon)}

    _assert_table(check_markov(z), markov(dense_z))
    if ptype == "A":
        _assert_table(check_markov(h), markov(dense_h))
    else:
        _assert_table(check_markov(h, law="plain"), markov(dense_h))
        doubled = {}
        for s, tau, t in triples(lat.horizon):
            qq = supermap_tensor(q.map(s, tau), q.map(s, tau)).matrix
            doubled[(s, tau, t)] = operator_norm(dense_h[(s, t)] - qq @ dense_h[(tau, t)])
        _assert_table(check_markov(h), doubled)

    rebuilt = reconstruct_qqsp(q, h, lat.omega(0), ptype, strict=False)
    rep = verify_marginal_axioms(q, h, rebuilt)
    e_psi = [expectation_supermap(psi) for psi in rebuilt.omegas]
    e_phi = [expectation_supermap(State(predual(q.map(0, t))(lat.omega(0).rho)))
             for t in range(1, lat.horizon + 1)]
    flip, emb = flip_supermap(n).matrix, embed_supermap(n).matrix
    _assert_table(rep.flip, {k: operator_norm(flip @ f - f) for k, f in dense_h.items()})
    _assert_table(rep.exchange, {
        (s, t): operator_norm(e_psi[s].matrix @ f - q.map(s, t).matrix @ e_phi[t - 1].matrix)
        for (s, t), f in dense_h.items()})
    assert (rep.exchange.max_residual > 0.01) == foreign_q
    _assert_table(rep.absorption, {(s, t): operator_norm(f - f @ emb @ e_psi[t].matrix)
                                   for (s, t), f in dense_h.items()})

    emb_avg = embed_averaged_supermap(n).matrix
    consts = [SuperMap.constant(w, n * n).matrix for w in lat.omegas]
    want = {
        "reconstruction_slot": [operator_norm(f @ emb - lat.map(*k).matrix)
                                for k, f in dense_h.items()],
        "averaged_slot": [operator_norm(f @ emb_avg - consts[k[1]]) for k, f in dense_h.items()],
        "z_reconstruction_slot": [operator_norm(f @ emb - emb @ own_q.map(*k).matrix)
                                  for k, f in dense_z.items()],
        "z_averaged_slot": [operator_norm(f @ emb_avg - consts[k[1]])
                            for k, f in dense_z.items()],
    }
    # Z's reconstruction slot compares Z with the Q whose maps it stores; another Q is refused
    if foreign_q:
        with pytest.raises(ValueError, match="of this Q family"):
            slice_residuals(lat, q, h, z)
    got = slice_residuals(lat, own_q, h, z)
    assert set(got) == set(want)
    for name, values in want.items():
        assert abs(got[name] - max(values)) <= 1e-14, name


def _strict_n3_t4(ptype):
    return parse_scenario({
        "name": f"mixed-n3-T4-{ptype}", "algebra": {"kind": "full", "dim": 3},
        "process_type": ptype, "horizon": 4, "mode": "strict",
        "seed": {"builtin": "mixed"}, "initial_state": {"diag": [0.5, 0.3, 0.2]},
        "ensemble": {"random": 2}, "sample_count": 4,
    })


def test_no_residual_norm_sees_a_dense_doubled_map(monkeypatch):
    # a strict n=3 type-A run takes every operator norm below n^4 x n^4, one by one
    # or stacked
    import qqsp.algebra
    import qqsp.linalg
    import qqsp.marginal
    import qqsp.process

    shapes, stacked = [], []
    original, original_stacked = qqsp.linalg.operator_norm, qqsp.linalg.operator_norms

    def recording(a):
        shapes.append(np.shape(a))
        return original(a)

    def recording_stacked(stack):
        stacked.extend(np.shape(a) for a in stack)
        return original_stacked(stack)

    for module in (qqsp.linalg, qqsp.algebra, qqsp.process, qqsp.marginal):
        for name, wrapper in (("operator_norm", recording),
                              ("operator_norms", recording_stacked)):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)
    report = run_scenario(_strict_n3_t4("A"))
    assert all(report.verdicts[k] for k in ("kc_ok", "composition_ok", "axioms_ok",
                                            "roundtrip_ok"))
    assert shapes and (81, 81) not in shapes
    assert stacked and (81, 81) not in stacked


@pytest.mark.parametrize("ptype", ["A", "B"])
def test_no_stage_forms_a_quartic_matrix(monkeypatch, ptype):
    # after validate, no SuperMap is n^4 x n^4, no slice of a stacked product or of a
    # stack of residual gaps is either, and no Q (x) Q is built densely: kc, the doubled
    # law and propagate go through reassociation and mode products
    import sys

    import qqsp.algebra
    import qqsp.linalg
    import qqsp.process
    import qqsp.scenarios

    stage, shapes, tensors, stacked = ["validate"], [], [], []
    original_init, original_tensor = SuperMap.__post_init__, qqsp.algebra.supermap_tensor

    def recording_init(self):
        original_init(self)
        if stage[0] != "validate":
            shapes.append(self.matrix.shape)

    def recording_tensor(m1, m2):
        if stage[0] != "validate":
            tensors.append((m1.matrix.shape, m2.matrix.shape))
        return original_tensor(m1, m2)

    def recording_stack(original, result_of):
        def run(*args):
            out = original(*args)
            if stage[0] != "validate":
                stacked.append(np.shape(result_of(args, out))[1:])
            return out
        return run

    def entering(name, runner):
        def run(*args):
            stage[0] = name
            return runner(*args)
        return run

    monkeypatch.setattr(SuperMap, "__post_init__", recording_init)
    stack_kernels = {  # the stacked products, and the gap stacks every sweep norms
        qqsp.algebra.doubled_after: lambda args, out: out,
        qqsp.process.conditioned_products: lambda args, out: out,
        qqsp.linalg.scaled_grams: lambda args, out: args[0],
    }
    for module in [m for name, m in sys.modules.items() if name.startswith("qqsp")]:
        if getattr(module, "supermap_tensor", None) is original_tensor:
            monkeypatch.setattr(module, "supermap_tensor", recording_tensor)
        for kernel, result_of in stack_kernels.items():
            if getattr(module, kernel.__name__, None) is kernel:
                monkeypatch.setattr(module, kernel.__name__, recording_stack(kernel, result_of))
    for name, runner in qqsp.scenarios._STAGE_RUNNERS.items():
        monkeypatch.setitem(qqsp.scenarios._STAGE_RUNNERS, name, entering(name, runner))
    report = run_scenario(_strict_n3_t4(ptype))
    assert all(report.verdicts[k] for k in ("kc_ok", "composition_ok", "axioms_ok",
                                            "roundtrip_ok"))
    assert shapes and (81, 81) not in shapes
    assert (81, 9) in stacked and (81, 81) not in stacked
    assert tensors == []

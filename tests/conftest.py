import importlib.util
import sys
from functools import cache
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from qqsp.algebra import AlgebraElement, SuperMap, as_matrix, expectation_supermap  # noqa: E402
from qqsp.linalg import matrix_unit, swap_matrix, unit_tensor_matrix  # noqa: E402


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


def random_density(rng, n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def random_hermitian(rng, n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (g + g.conj().T) / 2


def symmetric_stochastic_tensor(rng, N):
    """A valid classical step tensor: symmetric in (i, j), stochastic over k."""
    p = np.zeros((N, N, N))
    for i in range(N):
        for j in range(i, N):
            row = rng.random(N) + 0.2
            row /= row.sum()
            p[i, j] = row
            p[j, i] = row
    return p


@cache
def embed_supermap(n: int) -> SuperMap:
    """The unital embedding x -> 1 (x) x left fixed by every E_phi, built once per n.

    This is the reconstruction slot: a doubled marginal after it gives back the
    lattice map. Its matrix is a 0/1 row selection with embed^dagger embed = n 1,
    so ||embed X|| = sqrt(n) ||X||. The library never forms it, since
    E_{omega_t} embed = tr(rho_t) 1; tests use it as the reference route.
    """
    t = np.einsum("ac,bi,dj->abcdij", np.eye(n), np.eye(n), np.eye(n))
    return SuperMap(n, n * n, unit_tensor_matrix(t.reshape(n * n, n * n, n, n)))


@cache
def embed_averaged_supermap(n: int) -> SuperMap:
    """The complementary embedding x -> x (x) 1 (the slot E_phi averages)."""
    t = np.einsum("ai,bd,cj->abcdij", np.eye(n), np.eye(n), np.eye(n))
    return SuperMap(n, n * n, unit_tensor_matrix(t.reshape(n * n, n * n, n, n)))


def expectations(family):
    """E_{omega_t} of every state of a family's trajectory, as SuperMaps indexed by t.

    The library keeps no such trajectory; tests use it as the reference route.
    """
    return tuple(map(expectation_supermap, family.omegas))


def core(family, s, t):
    """C^{s,t}: the stored map, or embed Y^{s,t} for a factored Z/z, which stores Q's maps Y.

    The library never forms embed Y^{s,t}; tests use it as the reference route.
    """
    m = family.maps[(s, t)]
    return embed_supermap(family.n) @ m if family.stores_q else m


def dense(family):
    """F^{s,t} = C^{s,t} E_{omega_t} of a factored family multiplied out, per (s, t).

    The library never forms these n^4 x n^4 maps; tests use them as an
    independent reference.
    """
    es, side = expectations(family), family.side
    return {(s, t): SuperMap(side, side, core(family, s, t).matrix @ es[t].matrix)
            for (s, t) in family.pairs()}


def swept_q(q):
    """The Q family ``q`` on a MapStack of its own over the same array.

    Its maps are Q's bit for bit, but it is not the lattice's Q by identity, so the
    pair it makes with the lattice's H/h is not a derived pair: the axioms and the
    rebuilt lattice's tables are swept for it, the oracle of the closed forms.
    """
    from qqsp.algebra import MapStack
    from qqsp.process import Family

    return Family("Q", q.n, MapStack(q.maps.array, q.maps.order), q.omegas,
                  algebra_kind=q.algebra_kind)


# Reference constructions the library no longer forms: the flip as an element map and as
# a dense superoperator (the library permutes rows, algebra.flip_after), and the matrix units.

def flip_conjugate(z) -> AlgebraElement:
    """Exchange tensor factors: the involution with U(x (x) y) = y (x) x."""
    m = as_matrix(z)
    d = m.shape[0]
    n = int(round(np.sqrt(d)))
    if n * n != d:
        raise ValueError(f"flip needs a matrix on M_n (x) M_n, got side {d}")
    # W m W with W the swap: exchange the factors of the row and the column index
    flipped = m.reshape(n, n, n, n).transpose(1, 0, 3, 2).reshape(d, d)
    kind = z.algebra_kind if isinstance(z, AlgebraElement) else "full"
    return AlgebraElement(flipped, kind)


def flip_supermap(n: int) -> SuperMap:
    """The flip as a superoperator on M_{n^2}; :func:`flip_after` applies it."""
    w = swap_matrix(n)
    return SuperMap(n * n, n * n, np.kron(w, w))


def basis_elements(n: int):
    """The matrix units E_ij of M_n, a spanning set for identity checks."""
    return [matrix_unit(n, i, j) for i in range(n) for j in range(n)]


def _byteid():
    """scripts/byteid.py as a module, loaded without leaving its path entries behind."""
    saved = list(sys.path)
    try:
        spec = importlib.util.spec_from_file_location("byteid", ROOT / "scripts" / "byteid.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module


@cache
def byteid_scenarios() -> dict:
    """Every scenario ``scripts/byteid.py`` runs, its full-A probe and scale rows included,
    parsed and keyed by name."""
    from qqsp.scenarios import builtin_scenarios, parse_scenario

    byteid = _byteid()
    out = dict(builtin_scenarios())
    workloads = sys.modules["workloads"]
    for workload in ("full-A", "full-B"):
        docs, probe, _ = workloads.scenario_documents(workload, int(byteid.SEED))
        out.update((doc["name"], parse_scenario(doc)) for doc in docs + [probe] * bool(probe))
    for row in byteid.SCALE_ROWS:
        doc = byteid.scenario(row)
        out[doc["name"]] = parse_scenario(doc)
    return out


def probed_symmetrized_embedding(n: int) -> SuperMap:
    """S(x) = (x (x) 1 + 1 (x) x) / 2 from its n^2 basis probes, the reference for the
    closed form :func:`qqsp.seeds.symmetrized_embedding`."""
    one = np.eye(n, dtype=complex)
    return SuperMap.from_function(lambda x: 0.5 * (np.kron(x, one) + np.kron(one, x)),
                                  n, n * n)

from random import Random

import pytest

from graphperiod import catalog
from graphperiod.autgroup import automorphism_generators
from graphperiod.homology import (
    boundary,
    chain_action,
    coinvariant_primitive,
    fundamental_cycle_basis,
    invariant_functional_gcd,
    norm,
    orbit_sum_coefficients,
    tree_path,
    verify_basis,
)
from graphperiod.intlinalg import axpy, det_bareiss, diagonal
from graphperiod.multigraph import genus

from util import (
    identity_automorphism,
    relabel,
    transfer_automorphism,
    unvalidated_graph,
    vertex_cycle_automorphism,
)


@pytest.mark.parametrize(
    "name,rank", [("k5", 6), ("doubled-cycle-g5", 5), ("soccer-doubled", 61)]
)
def test_rank(name, rank):
    L = fundamental_cycle_basis(catalog.builtin(name))
    assert L.rank == rank
    assert verify_basis(L)


def test_tree_plus_one_edge_rank_one():
    # internal data below the degree floor, bypassing validation
    g = unvalidated_graph(
        "theta",
        ["a", "b", "c"],
        [("e1", "a", "b"), ("e2", "b", "c"), ("e3", "a", "c")],
    )
    L = fundamental_cycle_basis(g)
    assert L.rank == 1
    assert verify_basis(L)


def _parent_table_root_path(lattice, vertex_idx):
    """CycleLattice.root_path as it was: the tree path from the root, read
    off a table of (parent vertex, edge, sign) per vertex."""
    g = lattice.graph
    parent = [None] * len(g.vertices)
    for w, k in enumerate(g.bfs_tree(lattice.root)):
        if k >= 0:
            v = g.other_end(k, w)
            parent[w] = (v, k, 1 if g.edge_ends_idx[k][0] == v else -1)
    path = {}
    v = vertex_idx
    while v != lattice.root:
        pv, edge, sign = parent[v]
        path[edge] = sign
        v = pv
    return path


@pytest.mark.parametrize("name", catalog.BUILTIN_NAMES)
def test_tree_path_from_the_root_matches_the_parent_table(name):
    g = catalog.builtin(name)
    lattice = fundamental_cycle_basis(g)
    for v in range(len(g.vertices)):
        path = tree_path(g, lattice.root, v)
        expected = _parent_table_root_path(lattice, v)
        assert list(path.items()) == list(expected.items())
        assert boundary(g, path) == ({} if v == lattice.root else {v: 1, lattice.root: -1})


def test_augmentation_kills_boundary():
    # the augmentation Z^V -> Z sums coefficients, so it kills the
    # boundary head - tail of every edge
    g = catalog.builtin("k5")
    for k in range(len(g.edges)):
        d = boundary(g, {k: 1})
        assert len(d) == 2
        assert sum(d.values()) == 0


def test_basis_cycles_are_closed():
    for name in ("k5", "hybrid", "doubled-k4"):
        g = catalog.builtin(name)
        L = fundamental_cycle_basis(g)
        assert L.rank == genus(g)
        for z in L.basis:
            assert boundary(g, z) == {}


def test_action_matrix_identity():
    g = catalog.builtin("k5")
    L = fundamental_cycle_basis(g)
    ident = identity_automorphism(g)
    n = L.rank
    assert L.action_matrix(ident) == [
        [1 if i == j else 0 for j in range(n)] for i in range(n)
    ]


def test_action_matrix_determinant_unimodular():
    for name in ("k5", "doubled-k4"):
        g = catalog.builtin(name)
        L = fundamental_cycle_basis(g)
        for a in automorphism_generators(g)[:12]:
            assert abs(det_bareiss(L.action_matrix(a))) == 1


def test_action_is_homomorphism_on_words():
    rng = Random(2)
    for name in ("k5", "doubled-k4", "hybrid"):
        g = catalog.builtin(name)
        L = fundamental_cycle_basis(g)
        gens = automorphism_generators(g)
        for _ in range(15):
            word = [rng.choice(gens) for _ in range(rng.randint(2, 6))]
            composed = word[0]
            for w in word[1:]:
                composed = composed.compose(w)
            prod = L.action_matrix(word[0])
            for w in word[1:]:
                b = L.action_matrix(w)
                prod = [
                    [sum(prod[i][k] * b[k][j] for k in range(L.rank)) for j in range(L.rank)]
                    for i in range(L.rank)
                ]
            assert prod == L.action_matrix(composed)


def test_boundary_equivariance():
    # boundary(sigma . z) = sigma_V(boundary z) for arbitrary chains
    rng = Random(4)
    g = catalog.builtin("doubled-k4")
    gens = automorphism_generators(g)
    for _ in range(40):
        sigma = rng.choice(gens)
        chain = {rng.randrange(len(g.edges)): rng.choice([-2, -1, 1, 2]) for _ in range(4)}
        lhs = boundary(g, chain_action(sigma, chain))
        rhs = {sigma.vperm[v]: x for v, x in boundary(g, chain).items()}
        assert lhs == rhs


def test_rotation_permutes_doubled_cycle_classes():
    # the classes f1 f2 f3 f4 and e_i f_i of the doubled 4-cycle are
    # permuted (up to orientation) by the rotation
    g = catalog.builtin("doubled-cycle-g5")
    L = fundamental_cycle_basis(g)
    ei = g.edge_index
    rot = vertex_cycle_automorphism(g, ["v1", "v2", "v3", "v4"])
    full_loop = {ei[f"f{i}"]: 1 for i in range(1, 5)}
    assert chain_action(rot, full_loop) == full_loop
    two_gons = [{ei[f"e{i}"]: 1, ei[f"f{i}"]: -1} for i in range(1, 5)]
    for i in range(4):
        assert chain_action(rot, two_gons[i]) == two_gons[(i + 1) % 4]
    classes = [full_loop] + two_gons
    coords = [L.coordinates(z) for z in classes]
    # and these five classes are an alternative basis (determinant +-1)
    assert abs(det_bareiss(coords)) == 1


def test_coinvariant_identity_primitivity():
    g = catalog.builtin("k5")
    L = fundamental_cycle_basis(g)
    ident = identity_automorphism(g)
    assert coinvariant_primitive(L, ident, [1, 0, 0, 0, 0, 0])
    assert not coinvariant_primitive(L, ident, [2, 0, 0, 0, 0, 0])
    assert not coinvariant_primitive(L, ident, [0, 0, 0, 0, 0, 0])


def test_k5_pentagon_primitive_triangle_not():
    from graphperiod.bounds import chain_from_vertex_cycle

    g = catalog.builtin("k5")
    L = fundamental_cycle_basis(g)
    pentagon = L.coordinates(chain_from_vertex_cycle(g, ["v1", "v2", "v3", "v4", "v5"]))
    triangle = L.coordinates(chain_from_vertex_cycle(g, ["v1", "v2", "v3"]))
    rot5 = vertex_cycle_automorphism(g, ["v1", "v2", "v3", "v4", "v5"])
    rot3 = vertex_cycle_automorphism(g, ["v1", "v2", "v3"])
    assert coinvariant_primitive(L, rot5, pentagon)
    assert not coinvariant_primitive(L, rot3, triangle)
    assert invariant_functional_gcd(L, rot5, pentagon) == 1
    assert invariant_functional_gcd(L, rot3, triangle) != 1


def test_primitivity_verdict_independent_of_spanning_tree():
    from graphperiod.bounds import chain_from_vertex_cycle

    g = catalog.builtin("k5")
    mapping = {f"v{i}": f"w{6 - i}" for i in range(1, 6)}  # reverses id order
    h = relabel(g, mapping)
    L1 = fundamental_cycle_basis(g)
    L2 = fundamental_cycle_basis(h)
    assert L1.root != L2.root  # the tree really changed
    rot5 = vertex_cycle_automorphism(g, ["v1", "v2", "v3", "v4", "v5"])
    rot5h = transfer_automorphism(rot5, h)
    pent1 = chain_from_vertex_cycle(g, ["v1", "v2", "v3", "v4", "v5"])
    # same chain in the relabeled graph: edge ids/positions are unchanged
    assert coinvariant_primitive(L1, rot5, L1.coordinates(pent1)) == coinvariant_primitive(
        L2, rot5h, L2.coordinates(pent1)
    )


def test_norm_of_order_one_is_the_chain():
    g = catalog.builtin("k5")
    chain = {0: 2, 3: -1}
    assert norm(identity_automorphism(g), 1, chain) == chain


def test_norm_is_invariant_and_sums_translates():
    rng = Random(5)
    for name in ("k5", "doubled-k4", "hybrid"):
        g = catalog.builtin(name)
        for sigma in automorphism_generators(g)[:6]:
            m = sigma.order()
            chain = {rng.randrange(len(g.edges)): rng.choice([-2, -1, 1, 3]) for _ in range(5)}
            total = norm(sigma, m, chain)
            assert chain_action(sigma, total) == total
            explicit: dict[int, int] = {}
            power = identity_automorphism(g)
            for _ in range(m):
                explicit = axpy(explicit, chain_action(power, chain))
                power = sigma.compose(power)
            assert total == explicit


def test_coordinates_rejects_non_cycles():
    g = catalog.builtin("k5")
    L = fundamental_cycle_basis(g)
    with pytest.raises(ValueError):
        L.coordinates({0: 1})


def test_coinvariant_primitive_one_elimination_per_automorphism(monkeypatch):
    """One LatticeSolver elimination per automorphism, reused for every
    element, and no Smith form on the way."""
    from graphperiod import homology
    from graphperiod.bounds import chain_from_vertex_cycle

    g = catalog.builtin("k5")
    L = fundamental_cycle_basis(g)
    rot5 = vertex_cycle_automorphism(g, ["v1", "v2", "v3", "v4", "v5"])
    rot3 = vertex_cycle_automorphism(g, ["v1", "v2", "v3"])
    pentagon = L.coordinates(chain_from_vertex_cycle(g, ["v1", "v2", "v3", "v4", "v5"]))
    rng = Random(11)
    vectors = [pentagon, [2 * x for x in pentagon]]
    vectors += [[int(i == j) for j in range(L.rank)] for i in range(L.rank)]
    vectors += [[rng.randint(-2, 2) for _ in range(L.rank)] for _ in range(8)]
    solvers, snf_calls = [], []
    solver = homology.LatticeSolver
    snf = homology.smith_normal_form
    monkeypatch.setattr(homology, "LatticeSolver", lambda n: solvers.append(n) or solver(n))
    monkeypatch.setattr(homology, "smith_normal_form", lambda a: snf_calls.append(1) or snf(a))
    verdicts = [
        (sigma, coords, coinvariant_primitive(L, sigma, coords))
        for _ in range(2)
        for coords in vectors
        for sigma in (rot5, rot3)
    ]
    assert len(solvers) == 2
    assert snf_calls == []
    for sigma, coords, verdict in verdicts:
        assert verdict == (invariant_functional_gcd(L, sigma, coords) == 1)
    assert any(v for _, _, v in verdicts) and not all(v for _, _, v in verdicts)


def _sampled_automorphisms(name, count=20):
    """The graph and the generators of the first count cyclic subgroups
    of its sampled scan, the identity first."""
    from graphperiod.autgroup import automorphism_group, from_combined
    from graphperiod.config import Config
    from graphperiod.permgroup import cyclic_subgroups

    g = catalog.builtin(name)
    config = Config(max_enum=1, max_subgroups=count)
    pairs, complete = cyclic_subgroups(automorphism_group(g), config)
    assert not complete
    return g, [from_combined(g, p) for p, _ in pairs[:count]]


@pytest.mark.parametrize("name", catalog.BUILTIN_NAMES)
def test_invariant_functionals_from_the_echelon_match_the_smith_route(name, monkeypatch):
    """On the first 20 sampled cyclic subgroups of every builtin, soccer at
    rank 61 included: each echelon row phi satisfies phi (A - I) = 0, their
    number is the Smith form's zero count, and the summand verdict equals
    invariant_functional_gcd == 1 on unit vectors, on the orbit sums of
    the basis cycles and on random coordinates.  The Smith form of each
    matrix is computed once and reused across the elements."""
    from graphperiod import homology

    smith = {}
    snf = homology.smith_normal_form

    def cached_snf(a):
        key = tuple(map(tuple, a))
        if key not in smith:
            smith[key] = snf(a)
        return smith[key]

    monkeypatch.setattr(homology, "smith_normal_form", cached_snf)
    g, sigmas = _sampled_automorphisms(name)
    L = fundamental_cycle_basis(g)
    n = L.rank
    rng = Random(name)
    units = [[int(i == j) for j in range(n)] for i in range(n)]
    for sigma in sigmas:
        m = sigma.order()
        vectors = units + [L.coordinates(norm(sigma, m, z)) for z in L.basis]
        vectors += [[rng.randint(-3, 3) for _ in range(n)] for _ in range(5)]
        for coords in vectors:
            verdict = coinvariant_primitive(L, sigma, coords)
            assert verdict == (invariant_functional_gcd(L, sigma, coords) == 1)
        a = L.action_matrix(sigma)
        free_rows = L._coinvariant_cache[sigma.combined]
        for phi in free_rows:
            assert all(
                sum(x * (a[i][j] - (i == j)) for i, x in phi.items()) == 0 for j in range(n)
            )
        at = [[a[j][i] - (i == j) for j in range(n)] for i in range(n)]
        _, s, _ = cached_snf(at)
        assert len(free_rows) == diagonal(s).count(0)


@pytest.mark.parametrize("name", ["k5", "doubled-k4", "doubled-cycle-g5", "hybrid"])
def test_analyze_and_verify_compute_no_smith_form(name, monkeypatch):
    from graphperiod import homology, intlinalg
    from graphperiod.bounds import analyze, verify_certificate

    calls, solvers = [], []
    for module in (homology, intlinalg):
        monkeypatch.setattr(module, "smith_normal_form", lambda a: calls.append(1))
    solver = homology.LatticeSolver
    monkeypatch.setattr(homology, "LatticeSolver", lambda n: solvers.append(n) or solver(n))
    g = catalog.builtin(name)
    report = analyze(g)
    assert all(verify_certificate(g, c) for c in report.certificates)
    assert calls == []
    assert solvers, "the loop-summand test never ran"


@pytest.mark.parametrize(
    "name,bar_cap",
    [
        ("soccer-doubled", 32),
        ("hybrid", 32),
        ("doubled-cycle-g6", 64),
        ("k5", 32),
        ("doubled-k4", 256),
    ],
)
def test_analyze_and_verify_compute_each_action_matrix_once(name, bar_cap, monkeypatch):
    """No sigma's action matrix is computed twice on one lattice during
    analyze and the re-verification of every certificate, so a cache of
    them on the lattice would never be hit."""
    from graphperiod.bounds import analyze, verify_certificate
    from graphperiod.config import Config
    from graphperiod.homology import CycleLattice

    # each lattice is kept alive, so no later lattice can reuse its id
    seen: dict[int, tuple[CycleLattice, set]] = {}
    repeats = []
    original = CycleLattice.action_matrix

    def recording(self, sigma):
        keys = seen.setdefault(id(self), (self, set()))[1]
        if sigma.combined in keys:
            repeats.append(sigma.to_json_dict())
        keys.add(sigma.combined)
        return original(self, sigma)

    monkeypatch.setattr(CycleLattice, "action_matrix", recording)
    g = catalog.builtin(name)
    config = Config(bar_cap=bar_cap)
    report = analyze(g, config)
    assert all(verify_certificate(g, c, config) for c in report.certificates)
    assert seen, "no action matrix was computed"
    assert repeats == []


def test_coordinates_rejects_an_extra_tree_edge():
    g = catalog.builtin("k5")
    L = fundamental_cycle_basis(g)
    z = L.basis[0]
    tree_edge = min(set(range(len(g.edges))) - set(L.nontree) - set(z))
    chain = axpy(z, {tree_edge: 1})
    assert [chain.get(e, 0) for e in L.nontree] == L.coordinates(z)
    with pytest.raises(ValueError):
        L.coordinates(chain)


def _explicit_norm(sigma, m, chain):
    """N . chain as the sum of the m translates sigma^i . chain."""
    total: dict[int, int] = {}
    for _ in range(m):
        total = axpy(total, chain)
        chain = chain_action(sigma, chain)
    return total


def _reverses_an_edge_cycle(sigma) -> bool:
    """Whether some edge comes back with sign -1 after its cycle, read
    through chain_action alone."""
    for k in range(len(sigma.eperm)):
        chain = chain_action(sigma, {k: 1})
        while k not in chain:
            chain = chain_action(sigma, chain)
        if chain[k] == -1:
            return True
    return False


def test_closed_form_norm_matches_explicit_translates():
    """norm equals the sum of the m translates through chain_action on
    every unit chain and on a random chain, for every generator of four
    builtins and 20 sampled soccer-doubled elements; sign-reversed edge
    cycles, whose orbit sums vanish, are among them (30 of soccer's 149
    generators have one)."""
    from graphperiod.autgroup import automorphism_group, from_combined

    rng = Random(8)
    reversing = 0
    for name in ("k5", "doubled-k4", "hybrid", "soccer-doubled"):
        g = catalog.builtin(name)
        sigmas = automorphism_generators(g)
        if name == "soccer-doubled":
            group = automorphism_group(g)
            sigmas += [from_combined(g, group.random_element(rng, 12)) for _ in range(20)]
            reversing = sum(_reverses_an_edge_cycle(s) for s in sigmas)
        for sigma in sigmas:
            m = sigma.order()
            chains = [{k: 1} for k in range(len(g.edges))]
            chains.append({k: rng.choice([-2, -1, 1, 3]) for k in range(len(g.edges))})
            for chain in chains:
                assert norm(sigma, m, chain) == _explicit_norm(sigma, m, chain)
    assert reversing > 0


def test_orbit_sum_rejects_an_edge_cycle_longer_than_m():
    g = catalog.builtin("k5")
    sigma = vertex_cycle_automorphism(g, ["v1", "v2", "v3", "v4", "v5"])
    assert sigma.order() == 5
    assert orbit_sum_coefficients(sigma, 5, {0: 1})
    with pytest.raises(AssertionError, match="edge cycle length must divide m"):
        orbit_sum_coefficients(sigma, 4, {0: 1})


def test_orbit_sum_coefficients_expand_to_norm():
    """norm is orbit_sum_coefficients expanded over each cycle's S_C: one
    key per sign-preserving cycle, no zeros, and each coefficient read back
    at the cycle's least edge."""
    g = catalog.builtin("doubled-k4")
    rng = Random(3)
    for sigma in automorphism_generators(g):
        m = sigma.order()
        cycles = sigma.signed_edge_cycles
        chain = {k: rng.choice([-1, 1, 2]) for k in range(len(g.edges))}
        coefficients = orbit_sum_coefficients(sigma, m, chain)
        total = norm(sigma, m, chain)
        assert all(x and cycles[k0][0] == k0 and cycles[k0][3] for k0, x in coefficients.items())
        assert {k0: total.get(k0) for k0 in coefficients} == coefficients
        assert set(total) == {k for k0 in coefficients for k, _ in cycles[k0][3]}

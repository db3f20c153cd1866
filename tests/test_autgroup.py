import hashlib
from random import Random

import pytest

from graphperiod import catalog
from graphperiod.autgroup import (
    GraphAutomorphism,
    _multiplicity_table,
    _refine,
    automorphism_generators,
    automorphism_group,
    count_automorphisms_bruteforce,
    from_combined,
    from_json_dict,
    identity_automorphism,
    quotient_vertex_automorphisms,
)
from graphperiod.multigraph import Edge, Multigraph, parse_graph


@pytest.mark.parametrize(
    "name,order",
    [
        ("k5", 120),
        ("k34", 144),
        ("doubled-cycle-g5", 128),
        ("doubled-k4", 128),
        ("doubled-cycle-g3", 48),
    ],
)
def test_generated_group_orders(name, order):
    assert automorphism_group(catalog.builtin(name)).order() == order


def test_generators_satisfy_incidence():
    for name in ("k5", "doubled-k4", "hybrid"):
        g = catalog.builtin(name)
        for a in automorphism_generators(g):
            for k, (t, h) in enumerate(g.edge_ends_idx):
                it, ih = g.edge_ends_idx[a.eperm[k]]
                assert {a.vperm[t], a.vperm[h]} == {it, ih}


def test_incidence_invariant_enforced():
    g = catalog.builtin("k5")
    ident = identity_automorphism(g)
    bad_eperm = list(ident.eperm)
    bad_eperm[0], bad_eperm[1] = bad_eperm[1], bad_eperm[0]
    with pytest.raises(ValueError):
        GraphAutomorphism(g, ident.vperm, tuple(bad_eperm))


def test_compose_closure():
    g = catalog.builtin("doubled-k4")
    gens = automorphism_generators(g)
    rng = Random(0)
    for _ in range(30):
        a, b = rng.choice(gens), rng.choice(gens)
        c = a.compose(b)  # constructor re-checks the incidence invariant
        assert c.combined == tuple(a.combined[x] for x in b.combined)


def test_order():
    g = catalog.builtin("k5")
    gens = automorphism_generators(g)
    for a in gens[:10]:
        power = a
        for _ in range(a.order() - 1):
            assert not power.is_identity()
            power = power.compose(a)
        assert power.is_identity()


def test_bruteforce_matches_group_order_small_corpus():
    rng = Random(3)
    graphs = [catalog.builtin(n) for n in catalog.BUILTIN_NAMES]
    for g in graphs:
        if len(g.vertices) > 7 or len(g.edges) > 14:
            continue
        assert automorphism_group(g).order() == count_automorphisms_bruteforce(g)


def test_json_roundtrip():
    g = catalog.builtin("doubled-k4")
    for a in automorphism_generators(g):
        assert from_json_dict(g, a.to_json_dict()) == a


def test_from_combined_roundtrip():
    g = catalog.builtin("k5")
    for a in automorphism_generators(g)[:8]:
        assert from_combined(g, a.combined) == a


def _edge_sign(a, edge_idx):
    """+1 if a preserves the reference orientation of the edge (tail maps
    to tail), else -1: the rule signed_eperm applies to every edge."""
    t, _ = a.graph.edge_ends_idx[edge_idx]
    it, _ = a.graph.edge_ends_idx[a.eperm[edge_idx]]
    return 1 if a.vperm[t] == it else -1


def test_signed_eperm_matches_edge_sign():
    for name in ("k5", "hybrid"):
        g = catalog.builtin(name)
        for a in automorphism_generators(g):
            assert len(a.signed_eperm) == len(g.edges)
            for k, pair in enumerate(a.signed_eperm):
                assert pair == (a.eperm[k], _edge_sign(a, k))


def test_group_built_once_per_graph_object():
    g = catalog.builtin("k5")
    assert automorphism_group(g) is automorphism_group(g)


def test_fresh_parse_builds_its_own_group():
    text = catalog.builtin("k5").to_json()
    first, second = parse_graph(text), parse_graph(text)
    assert first == second
    assert automorphism_group(first) is not automorphism_group(second)
    assert automorphism_group(first).order() == automorphism_group(second).order()


def test_from_json_dict_rejects_collapsing_map():
    # each side of the bipartition onto one end of edge 0, every edge onto
    # edge 0: incidence holds edge by edge, but neither map is a bijection
    g = catalog.builtin("k34")
    tail, head = g.edges[0].tail, g.edges[0].head
    tail_side = {e.tail if e.head == head else e.head for e in g.edges if head in (e.tail, e.head)}
    d = {
        "vertex_map": {v: tail if v in tail_side else head for v in g.vertices},
        "edge_map": {e.id: g.edges[0].id for e in g.edges},
    }
    assert all(
        {d["vertex_map"][e.tail], d["vertex_map"][e.head]} == {tail, head} for e in g.edges
    )
    with pytest.raises(ValueError):
        from_json_dict(g, d)


@pytest.mark.parametrize("what", ["vertex_map", "edge_map"])
def test_from_json_dict_rejects_partial_map(what):
    g = catalog.builtin("k34")
    d = identity_automorphism(g).to_json_dict()
    d[what].pop(next(iter(d[what])))
    with pytest.raises(ValueError):
        from_json_dict(g, d)


@pytest.mark.parametrize("where", ["key", "value"])
def test_from_json_dict_rejects_unknown_id(where):
    g = catalog.builtin("k5")
    d = identity_automorphism(g).to_json_dict()
    v = g.vertices[0]
    if where == "key":
        d["vertex_map"]["nowhere"] = d["vertex_map"].pop(v)
    else:
        d["vertex_map"][v] = "nowhere"
    with pytest.raises(ValueError):
        from_json_dict(g, d)


# --- the pruned quotient search against the exhaustive one ----------------


def _exhaustive_quotient_search(g):
    """Every leaf of the individualization-refinement tree, unpruned: the
    search quotient_vertex_automorphisms ran before it pruned by orbits."""
    n = len(g.vertices)
    mult = _multiplicity_table(g)
    base = _refine(mult, [0] * n, n)
    found = []

    def rec(cd, ci, tag):
        cells = {}
        for v in range(n):
            cells.setdefault(cd[v], []).append(v)
        target = next((c for c in sorted(cells) if len(cells[c]) > 1), None)
        if target is None:
            by_color = {ci[v]: v for v in range(n)}
            image = [by_color[cd[v]] for v in range(n)]
            if all(
                mult[image[v]].get(image[w], 0) == m
                for v in range(n)
                for w, m in mult[v].items()
            ):
                found.append(tuple(image))
            return
        a = cells[target][0]
        for b in [v for v in range(n) if ci[v] == target]:
            nd, ni = list(cd), list(ci)
            nd[a] = tag
            ni[b] = tag
            nd = _refine(mult, nd, n)
            ni = _refine(mult, ni, n)
            if sorted(nd) == sorted(ni):
                rec(nd, ni, tag + 1)

    rec(list(base), list(base), n + 1)
    return sorted(found)


def _reordered(g, seed):
    """g with its stored vertex order shuffled and every vertex renamed, so
    the search meets the vertices in another order."""
    order = list(g.vertices)
    Random(seed).shuffle(order)
    name = {v: f"x{i}" for i, v in enumerate(order)}
    return Multigraph(
        name=g.name + "-reordered",
        vertices=tuple(name[v] for v in order),
        edges=tuple(Edge(e.id, name[e.tail], name[e.head]) for e in g.edges),
    )


_SEARCH_CASES = [(name, None) for name in catalog.BUILTIN_NAMES] + [
    ("soccer-doubled", 1),
    ("k5", 2),
    ("k34", 3),
]


@pytest.mark.parametrize("name,shuffle_seed", _SEARCH_CASES)
def test_pruned_search_equals_exhaustive_search(name, shuffle_seed):
    g = catalog.builtin(name)
    if shuffle_seed is not None:
        g = _reordered(g, shuffle_seed)
    assert quotient_vertex_automorphisms(g) == _exhaustive_quotient_search(g)


# sha256 of repr([a.combined for a in automorphism_generators(g)]), taken
# from the exhaustive search: the generators every group build starts from
_GENERATOR_HASHES = {
    "doubled-cycle-g3": "0128f9c82648a9f5c2a1ff9548d0ecac07e415c6df015c6a1dc37fea98629fba",
    "doubled-cycle-g4": "a10b12ab1c51b8a53954c1316558377af778ae87a5d40aa9938e95ab32939cda",
    "doubled-cycle-g5": "079622298ea04f314d6c9a96433270f99e6f76c3c9aac4af5164562f3075bc79",
    "doubled-cycle-g6": "0f7a742f2e18fb4c26a7294ec6f64918ed9cfe32dd2f8fe0fd7d9cd5e2cb4bdb",
    "doubled-cycle-g7": "3ab72a229d7dcf3ad3115273eaa0334185b4bc3109f74f47a2f7cede397fef6f",
    "doubled-cycle-g8": "44f08e2ee2294035e2808a174863b46144388593096760ce01383c1335cb80b5",
    "doubled-k4": "057925e9d8a17301cb59b1d163a0c12e1f43721516377744015b4b8284514698",
    "hybrid": "aaf43b8381eb0151c7ba2b1b04dcf3050409288a85906fba4607abcb3a4ac412",
    "k34": "f05ae4f3cfdc5401f647d89db09d5cc65534d9968799756da23b5f62df8d8a7e",
    "k5": "4e1cb920d131b4a3a24907bd5bf7e8cac99ac6d67005f5ef718c57bf065a11cb",
    "soccer-doubled": "f0dba3d0a0a03a6689367359e11e865d9bd7f9aa144eaadca8f884a915707348",
}


@pytest.mark.parametrize("name", catalog.BUILTIN_NAMES)
def test_automorphism_generators_unchanged(name):
    gens = automorphism_generators(catalog.builtin(name))
    digest = hashlib.sha256(repr([a.combined for a in gens]).encode()).hexdigest()
    assert digest == _GENERATOR_HASHES[name]

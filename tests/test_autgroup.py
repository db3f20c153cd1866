from random import Random

import pytest

from graphperiod import catalog
from graphperiod.autgroup import (
    GraphAutomorphism,
    automorphism_generators,
    automorphism_group,
    count_automorphisms_bruteforce,
    from_combined,
    from_json_dict,
    identity_automorphism,
)
from graphperiod.multigraph import parse_graph


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


def test_inverse_and_order():
    g = catalog.builtin("k5")
    gens = automorphism_generators(g)
    for a in gens[:10]:
        assert a.compose(a.inverse()).is_identity()
        assert a.order() >= 1


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


def test_signed_eperm_matches_edge_sign():
    for name in ("k5", "hybrid"):
        g = catalog.builtin(name)
        for a in automorphism_generators(g):
            assert len(a.signed_eperm) == len(g.edges)
            for k, pair in enumerate(a.signed_eperm):
                assert pair == (a.eperm[k], a.edge_sign(k))


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

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphperiod import catalog
from graphperiod.multigraph import (
    DegreeTooLow,
    Disconnected,
    DuplicateId,
    MalformedInput,
    SelfLoop,
    genus,
    parse_graph,
    serialize,
)

from util import relabel

K5_JSON = json.dumps(catalog.builtin("k5").to_json_dict())


def test_parse_k5():
    g = parse_graph(K5_JSON)
    assert len(g.vertices) == 5
    assert len(g.edges) == 10
    assert genus(g) == 6


def test_self_loop_rejected():
    doc = {
        "name": "loop",
        "vertices": ["a", "b"],
        "edges": [{"id": f"e{i}", "ends": ["a", "a"]} for i in range(4)],
    }
    with pytest.raises(SelfLoop):
        parse_graph(json.dumps(doc))


def test_path_graph_degree_too_low():
    doc = {
        "name": "path",
        "vertices": ["a", "b", "c"],
        "edges": [
            {"id": "e1", "ends": ["a", "b"]},
            {"id": "e2", "ends": ["b", "c"]},
        ],
    }
    with pytest.raises(DegreeTooLow) as exc:
        parse_graph(json.dumps(doc))
    assert exc.value.vertex == "a"


def test_disconnected_rejected():
    half = [{"id": f"e{i}", "ends": ["a", "b"]} for i in range(3)]
    other = [{"id": f"f{i}", "ends": ["c", "d"]} for i in range(3)]
    doc = {"name": "x", "vertices": ["a", "b", "c", "d"], "edges": half + other}
    with pytest.raises(Disconnected):
        parse_graph(json.dumps(doc))


def test_disconnected_error_names_the_least_unreachable_vertex():
    # vertex 0 is "c"; of the unreachable "b" and "a", the error names "a"
    half = [{"id": f"e{i}", "ends": ["c", "d"]} for i in range(3)]
    other = [{"id": f"f{i}", "ends": ["b", "a"]} for i in range(3)]
    doc = {"name": "x", "vertices": ["c", "d", "b", "a"], "edges": half + other}
    with pytest.raises(Disconnected, match="vertex 'a' is not reachable"):
        parse_graph(json.dumps(doc))


def test_duplicate_ids_rejected():
    doc = {
        "name": "x",
        "vertices": ["a", "b"],
        "edges": [{"id": "e", "ends": ["a", "b"]}] * 3,
    }
    with pytest.raises(DuplicateId):
        parse_graph(json.dumps(doc))
    doc = {"name": "x", "vertices": ["a", "a"], "edges": []}
    with pytest.raises(DuplicateId):
        parse_graph(json.dumps(doc))


@pytest.mark.parametrize(
    "text",
    [
        "not json",
        '["list"]',
        '{"name": "x", "vertices": ["a"]}',
        '{"name": "x", "vertices": ["a"], "edges": [], "extra": 1}',
        '{"name": "x", "vertices": ["a"], "edges": [{"id": "e", "ends": ["a"]}]}',
        '{"name": 3, "vertices": [], "edges": []}',
    ],
)
def test_malformed_inputs(text):
    with pytest.raises(MalformedInput):
        parse_graph(text)


def test_deeply_nested_json_is_malformed():
    # json.loads raises RecursionError, not JSONDecodeError, on deep nesting
    with pytest.raises(MalformedInput, match="nested too deeply"):
        parse_graph("[" * 100000)


@pytest.mark.parametrize(
    "name,expected_genus",
    [
        ("k5", 6),
        ("k34", 6),
        ("doubled-k4", 7),
        ("hybrid", 17),
        ("soccer-doubled", 61),
    ]
    + [(f"doubled-cycle-g{n}", n) for n in range(3, 9)],
)
def test_builtin_genus(name, expected_genus):
    assert genus(catalog.builtin(name)) == expected_genus


def test_unknown_builtin():
    with pytest.raises(catalog.UnknownName):
        catalog.builtin("unknown")


def test_soccer_shape():
    g = catalog.builtin("soccer-doubled")
    assert len(g.vertices) == 60
    assert len(g.edges) == 120
    assert all(g.degree(v) == 4 for v in g.vertices)


def test_roundtrip_all_builtins():
    for name in catalog.BUILTIN_NAMES:
        g = catalog.builtin(name)
        again = parse_graph(serialize(g))
        assert again == g


@settings(max_examples=25, deadline=None)
@given(st.permutations(list("abcde")), st.randoms(use_true_random=False))
def test_genus_invariant_under_relabeling(perm, rng):
    name = rng.choice(["k5", "doubled-k4", "doubled-cycle-g5"])
    g = catalog.builtin(name)
    mapping = dict(zip(g.vertices, [f"x-{p}-{i}" for i, p in enumerate(perm)]))
    for extra in g.vertices[len(perm):]:
        mapping[extra] = f"y-{extra}"
    assert genus(relabel(g, mapping)) == genus(g)


def test_bfs_trees_are_stored_per_graph_object():
    a, b = parse_graph(K5_JSON), parse_graph(K5_JSON)
    tree = a.bfs_tree(2)
    assert a.bfs_tree(2) is tree
    assert b.bfs_tree(2) == tree and b.bfs_tree(2) is not tree
    assert tree[2] == -1 and all(k >= 0 for v, k in enumerate(tree) if v != 2)

"""Shared test helpers."""

from __future__ import annotations

from graphperiod.autgroup import GraphAutomorphism, _lift_edge_map, from_combined
from graphperiod.multigraph import Edge, Multigraph
from graphperiod.permgroup import PermutationGroup


def relabel(g: Multigraph, mapping: dict[str, str]) -> Multigraph:
    """Rename vertices; changes the canonical BFS root/tree when the
    lexicographic order of ids changes."""
    return Multigraph(
        name=g.name + "-relabeled",
        vertices=tuple(mapping[v] for v in g.vertices),
        edges=tuple(Edge(e.id, mapping[e.tail], mapping[e.head]) for e in g.edges),
    )


def transfer_automorphism(
    a: GraphAutomorphism, target: Multigraph
) -> GraphAutomorphism:
    """The same automorphism on a graph with identical vertex/edge list
    positions (relabeled ids)."""
    return GraphAutomorphism(target, a.vperm, a.eperm)


def identity_automorphism(g: Multigraph) -> GraphAutomorphism:
    return GraphAutomorphism(g, tuple(range(len(g.vertices))), tuple(range(len(g.edges))))


def vertex_cycle_automorphism(g: Multigraph, cycle_ids: list[str]) -> GraphAutomorphism:
    """The automorphism rotating the given vertices one step (other
    vertices fixed), with the canonical edge lift."""
    vi = g.vertex_index
    vperm = list(range(len(g.vertices)))
    for a, b in zip(cycle_ids, cycle_ids[1:] + cycle_ids[:1]):
        vperm[vi[a]] = vi[b]
    return GraphAutomorphism(g, tuple(vperm), _lift_edge_map(g, tuple(vperm)))


def cyclic_elements(sigma: GraphAutomorphism) -> list[GraphAutomorphism]:
    """<sigma> in the order identity, sigma, sigma^2, ..., for restrict."""
    group = PermutationGroup(len(sigma.combined), [sigma.combined])
    return [from_combined(sigma.graph, p) for p in group.enumerate_elements()]


def unvalidated_graph(name, vertices, edges) -> Multigraph:
    """Construct a Multigraph without running validation (for internal
    sub-checks on data that does not meet the degree floor)."""
    g = object.__new__(Multigraph)
    object.__setattr__(g, "name", name)
    object.__setattr__(g, "vertices", tuple(vertices))
    object.__setattr__(g, "edges", tuple(Edge(i, t, h) for i, t, h in edges))
    return g

"""Finite multigraph data model: parsing, validation, genus.

A graph is stored with an ordered vertex list and an ordered edge list; the
stored (tail, head) pair of every edge fixes its reference orientation, and
all chain-level computations elsewhere in the package use that orientation
consistently.

Validation enforces the shape needed for the dual graph of a totally
degenerate stable curve: no self-loops, connected, and minimum degree 3
(every rational component of a stable curve carries at least three nodes).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from operator import add, mul

MIN_DEGREE = 3


class GraphError(ValueError):
    """Base class for input-validation failures."""


class MalformedInput(GraphError):
    """The document is not valid graph JSON of the documented shape."""


class DuplicateId(GraphError):
    pass


class SelfLoop(GraphError):
    pass


class Disconnected(GraphError):
    pass


class DegreeTooLow(GraphError):
    def __init__(self, vertex: str, degree: int):
        super().__init__(
            f"vertex {vertex!r} has degree {degree}, need at least {MIN_DEGREE}"
        )
        self.vertex = vertex
        self.degree = degree


@dataclass(frozen=True)
class Edge:
    id: str
    tail: str
    head: str


@dataclass(frozen=True)
class Multigraph:
    """Immutable multigraph; safe for concurrent reads after construction."""

    name: str
    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self):
        if len(set(self.vertices)) != len(self.vertices):
            raise DuplicateId(f"duplicate vertex id in {self.name!r}")
        if len({e.id for e in self.edges}) != len(self.edges):
            raise DuplicateId(f"duplicate edge id in {self.name!r}")
        vs = set(self.vertices)
        for e in self.edges:
            if e.tail == e.head:
                raise SelfLoop(f"edge {e.id!r} is a self-loop at {e.tail!r}")
            if e.tail not in vs or e.head not in vs:
                raise MalformedInput(f"edge {e.id!r} has an unknown endpoint")
        for v, incident in zip(self.vertices, self.incidence):
            if len(incident) < MIN_DEGREE:
                raise DegreeTooLow(v, len(incident))
        self._check_connected()

    def _check_connected(self):
        if not self.vertices:
            raise MalformedInput("graph has no vertices")
        tree = self.bfs_tree(0)
        unreached = [v for i, v in enumerate(self.vertices) if i and tree[i] < 0]
        if unreached:
            raise Disconnected(f"vertex {min(unreached)!r} is not reachable")

    # --- indexed views -------------------------------------------------

    @cached_property
    def vertex_index(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def edge_index(self) -> dict[str, int]:
        return {e.id: i for i, e in enumerate(self.edges)}

    @cached_property
    def edges_by_id(self) -> tuple[int, ...]:
        """Edge indices in edge-id order."""
        return tuple(sorted(range(len(self.edges)), key=lambda k: self.edges[k].id))

    @cached_property
    def incidence(self) -> tuple[tuple[int, ...], ...]:
        """For each vertex index, the indices of its incident edges in
        edge-id order."""
        inc: list[list[int]] = [[] for _ in self.vertices]
        for k in self.edges_by_id:
            t, h = self.edge_ends_idx[k]
            inc[t].append(k)
            inc[h].append(k)
        return tuple(tuple(x) for x in inc)

    @cached_property
    def edge_ends_idx(self) -> tuple[tuple[int, int], ...]:
        vi = self.vertex_index
        return tuple((vi[e.tail], vi[e.head]) for e in self.edges)

    @cached_property
    def edge_end_tables(self) -> tuple[tuple[int, ...], ...]:
        """(tails, heads, sums, products) of edge_ends_idx, each in
        edge-index order.  Over the integers a + b and a * b fix the
        unordered pair {a, b}: a and b are the roots of x^2 - (a + b) x + a b."""
        tails, heads = zip(*self.edge_ends_idx)
        return tails, heads, tuple(map(add, tails, heads)), tuple(map(mul, tails, heads))

    @cached_property
    def parallel_classes(self) -> dict[tuple[int, int], tuple[int, ...]]:
        """Edge indices grouped by unordered endpoint pair, id-sorted."""
        classes: dict[tuple[int, int], list[int]] = {}
        for k, (t, h) in enumerate(self.edge_ends_idx):
            classes.setdefault((min(t, h), max(t, h)), []).append(k)
        return {
            pair: tuple(sorted(ks, key=lambda k: self.edges[k].id))
            for pair, ks in classes.items()
        }

    @cached_property
    def parallel_classes_two_way(self) -> dict[tuple[int, int], tuple[int, ...]]:
        """parallel_classes keyed by both orders of each endpoint pair."""
        classes = self.parallel_classes
        return {**classes, **{(b, a): ks for (a, b), ks in classes.items()}}

    def bfs_tree(self, start: int) -> tuple[int, ...]:
        """For every vertex index, the edge by which breadth-first search
        from start first reaches it (-1 at start), each vertex scanning its
        incident edges in edge-id order.  Built once per start vertex and
        stored on this object, as cached_property stores incidence."""
        trees = self.__dict__.setdefault("_bfs_trees", {})
        tree = trees.get(start)
        if tree is None:
            reached = [-1] * len(self.vertices)
            seen = {start}
            frontier = [start]
            while frontier:
                nxt = []
                for v in frontier:
                    for k in self.incidence[v]:
                        w = self.other_end(k, v)
                        if w not in seen:
                            seen.add(w)
                            reached[w] = k
                            nxt.append(w)
                frontier = nxt
            tree = trees[start] = tuple(reached)
        return tree

    def degree(self, v: str) -> int:
        return len(self.incidence[self.vertex_index[v]])

    def other_end(self, edge_idx: int, vertex_idx: int) -> int:
        t, h = self.edge_ends_idx[edge_idx]
        return h if vertex_idx == t else t

    # --- serialization -------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "vertices": list(self.vertices),
            "edges": [{"id": e.id, "ends": [e.tail, e.head]} for e in self.edges],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


def genus(g: Multigraph) -> int:
    """First Betti number |E| - |V| + 1 of a connected graph.

    Equals the arithmetic genus of the stable curve the graph encodes.
    """
    return len(g.edges) - len(g.vertices) + 1


def from_data(name: str, vertices: list[str], edges: list[tuple[str, str, str]]) -> Multigraph:
    """Build and validate a graph from (edge id, tail, head) triples."""
    return Multigraph(
        name=name,
        vertices=tuple(vertices),
        edges=tuple(Edge(i, t, h) for i, t, h in edges),
    )


def parse_graph(text: str) -> Multigraph:
    """Parse the documented graph-JSON format.

    {"name": str, "vertices": [str, ...],
     "edges": [{"id": str, "ends": [tail, head]}, ...]}

    Unknown fields are rejected.  Raises a GraphError subclass on any
    malformed or invalid input.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedInput(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise MalformedInput("invalid JSON: nested too deeply") from exc
    if not isinstance(doc, dict):
        raise MalformedInput("top level must be an object")
    extra = set(doc) - {"name", "vertices", "edges"}
    if extra:
        raise MalformedInput(f"unknown fields: {sorted(extra)}")
    for key in ("name", "vertices", "edges"):
        if key not in doc:
            raise MalformedInput(f"missing field {key!r}")
    name = doc["name"]
    if not isinstance(name, str):
        raise MalformedInput("name must be a string")
    if not isinstance(doc["vertices"], list) or not all(
        isinstance(v, str) for v in doc["vertices"]
    ):
        raise MalformedInput("vertices must be a list of strings")
    edges = []
    if not isinstance(doc["edges"], list):
        raise MalformedInput("edges must be a list")
    for rec in doc["edges"]:
        if not isinstance(rec, dict):
            raise MalformedInput("each edge must be an object")
        if set(rec) != {"id", "ends"}:
            raise MalformedInput(f"edge record must have exactly id/ends: {rec}")
        if not isinstance(rec["id"], str):
            raise MalformedInput("edge id must be a string")
        ends = rec["ends"]
        if (
            not isinstance(ends, list)
            or len(ends) != 2
            or not all(isinstance(x, str) for x in ends)
        ):
            raise MalformedInput(f"edge {rec['id']!r}: ends must be [tail, head]")
        edges.append((rec["id"], ends[0], ends[1]))
    return from_data(name, doc["vertices"], edges)


def serialize(g: Multigraph) -> str:
    return g.to_json()

"""Automorphisms of a multigraph: compatible vertex+edge permutation pairs.

Generators come from two sources: vertex automorphisms of the
multiplicity-labeled simple quotient graph, lifted to one edge map each,
plus one transposition per adjacent pair of parallel edges.  Every
multigraph automorphism factors as (lifted quotient automorphism) *
(permutation inside parallel classes), so this generating set is complete.

The quotient automorphisms come from a backtracking search with iterated
partition refinement and orbit pruning (McKay, Practical graph
isomorphism, 1981).  On the identity path it skips a branch whose vertex
is already in the orbit of the node's first vertex under the automorphisms
found below that node; off the path it stops at the first automorphism.
What it finds generates the quotient's automorphism group, and the full
sorted list is the closure of those generators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from . import permgroup
from .multigraph import Multigraph
from .permgroup import Perm, PermutationGroup


@dataclass(frozen=True)
class GraphAutomorphism:
    """A pair of vertex and edge permutations preserving incidence.

    vperm and eperm are image tuples over vertex / edge indices of the
    graph's stored orderings.
    """

    graph: Multigraph
    vperm: tuple[int, ...]
    eperm: tuple[int, ...]

    def __post_init__(self):
        g = self.graph
        ends, vperm, eperm = g.edge_ends_idx, self.vperm, self.eperm
        for k, (t, h) in enumerate(ends):
            it, ih = ends[eperm[k]]
            vt, vh = vperm[t], vperm[h]
            if not (vt == it and vh == ih or vt == ih and vh == it):
                raise ValueError(
                    f"edge {g.edges[k].id!r} image does not match vertex images"
                )

    @cached_property
    def combined(self) -> Perm:
        """Permutation of the point set: vertices first, then edges."""
        nv = len(self.graph.vertices)
        return tuple(self.vperm) + tuple(nv + x for x in self.eperm)

    @cached_property
    def signed_eperm(self) -> tuple[tuple[int, int], ...]:
        """(image edge, sign) for every edge, in edge-index order; the sign
        is +1 if the reference orientation is preserved (tail maps to
        tail), else -1."""
        ends, vperm = self.graph.edge_ends_idx, self.vperm
        return tuple(
            (x, 1 if vperm[ends[k][0]] == ends[x][0] else -1) for k, x in enumerate(self.eperm)
        )

    @cached_property
    def signed_edge_cycles(self) -> tuple[tuple[int, int, int, tuple[tuple[int, int], ...]], ...]:
        """For every edge k, (k0, c, L, S) describing the cycle of
        signed_eperm through k.  k0 is the cycle's least edge and L its
        length; S lists (k_i, c_i) for i = 0 .. L-1, where sigma^i e_k0 =
        c_i e_k_i, and c is c_i at k, so that c S = e_k + sigma e_k + ... +
        sigma^(L-1) e_k.  S is () when the cycle reverses signs (sigma^L
        e_k0 = -e_k0).  Every edge of a cycle shares the cycle's S."""
        signed = self.signed_eperm
        table: list = [None] * len(signed)
        for k0 in range(len(signed)):
            if table[k0] is not None:
                continue
            orbit = []
            k, c = k0, 1
            while True:
                orbit.append((k, c))
                k, sign = signed[k]
                c *= sign
                if k == k0:
                    break
            length = len(orbit)
            cycle = tuple(orbit) if c == 1 else ()
            for k, c in orbit:
                table[k] = (k0, c, length, cycle)
        return tuple(table)

    def compose(self, other: "GraphAutomorphism") -> "GraphAutomorphism":
        """self after other (left action)."""
        return GraphAutomorphism(
            self.graph,
            tuple(self.vperm[x] for x in other.vperm),
            tuple(self.eperm[x] for x in other.eperm),
        )

    def order(self) -> int:
        return self._order

    @cached_property
    def _order(self) -> int:
        return permgroup.element_order(self.combined)

    def is_identity(self) -> bool:
        return all(i == x for i, x in enumerate(self.combined))

    def to_json_dict(self) -> dict:
        g = self.graph
        return {
            "vertex_map": {v: g.vertices[self.vperm[i]] for i, v in enumerate(g.vertices)},
            "edge_map": {e.id: g.edges[self.eperm[i]].id for i, e in enumerate(g.edges)},
        }


def identity_automorphism(g: Multigraph) -> GraphAutomorphism:
    return GraphAutomorphism(
        g, tuple(range(len(g.vertices))), tuple(range(len(g.edges)))
    )


def from_combined(g: Multigraph, p: Perm) -> GraphAutomorphism:
    nv = len(g.vertices)
    return GraphAutomorphism(
        g, tuple(p[:nv]), tuple(x - nv for x in p[nv:])
    )


def _perm_from_map(index: dict[str, int], id_map, what: str) -> tuple[int, ...]:
    """The index permutation of an id -> id map whose keys and values are
    each exactly the ids of index; ValueError otherwise."""
    if (
        not isinstance(id_map, dict)
        or id_map.keys() != index.keys()
        or not all(isinstance(x, str) for x in id_map.values())
        or set(id_map.values()) != index.keys()
    ):
        raise ValueError(f"{what} is not a permutation of the graph's ids")
    perm = [0] * len(index)
    for a, b in id_map.items():
        perm[index[a]] = index[b]
    return tuple(perm)


def from_json_dict(g: Multigraph, d: dict) -> GraphAutomorphism:
    """Inverse of GraphAutomorphism.to_json_dict.  Raises ValueError unless
    both maps permute exactly the graph's vertex ids and edge ids and the
    pair preserves incidence."""
    if not isinstance(d, dict) or d.keys() != {"vertex_map", "edge_map"}:
        raise ValueError("automorphism must have exactly vertex_map and edge_map")
    return GraphAutomorphism(
        g,
        _perm_from_map(g.vertex_index, d["vertex_map"], "vertex_map"),
        _perm_from_map(g.edge_index, d["edge_map"], "edge_map"),
    )


# --- quotient vertex automorphisms by individualization-refinement --------


def _multiplicity_table(g: Multigraph) -> list[dict[int, int]]:
    n = len(g.vertices)
    mult: list[dict[int, int]] = [{} for _ in range(n)]
    for t, h in g.edge_ends_idx:
        mult[t][h] = mult[t].get(h, 0) + 1
        mult[h][t] = mult[h].get(t, 0) + 1
    return mult


def _refine(mult, colors: list, n: int) -> list[int]:
    """Iterate neighborhood refinement to a fixed point; colors are
    canonicalized to small ints ordered by signature each round."""
    while True:
        sigs = [
            (colors[v], tuple(sorted((colors[w], m) for w, m in mult[v].items())))
            for v in range(n)
        ]
        table = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [table[s] for s in sigs]
        if new == colors:
            return colors
        colors = new


def quotient_vertex_automorphisms(g: Multigraph) -> list[tuple[int, ...]]:
    """All vertex permutations preserving adjacency with multiplicities,
    sorted: the closure of the generators the pruned search finds."""
    n = len(g.vertices)
    mult = _multiplicity_table(g)
    base = _refine(mult, [0] * n, n)
    found: list[tuple[int, ...]] = []

    def consistent(cd: list[int], ci: list[int]) -> bool:
        return sorted(cd) == sorted(ci)

    def rec(cd: list[int], ci: list[int], tag: int) -> bool:
        """Search below the node (cd, ci); True once a leaf below it is an
        automorphism.  Off the identity path (cd != ci) it stops there."""
        cells: dict[int, list[int]] = {}
        for v in range(n):
            cells.setdefault(cd[v], []).append(v)
        target = None
        for c in sorted(cells):
            if len(cells[c]) > 1:
                target = c
                break
        if target is None:
            image = [0] * n
            by_color = {}
            for v in range(n):
                by_color[ci[v]] = v
            for v in range(n):
                image[v] = by_color[cd[v]]
            for v in range(n):
                for w, m in mult[v].items():
                    if mult[image[v]].get(image[w], 0) != m:
                        return False
            found.append(tuple(image))
            return True
        a = cells[target][0]
        on_path = cd == ci
        start = len(found)
        candidates = [v for v in range(n) if ci[v] == target]
        for b in candidates:
            # b = a comes first; a later b in a's orbit under what was found
            # below this node would only yield products of those automorphisms
            if on_path and b != a and b in permgroup.orbits(n, found[start:], [a])[0]:
                continue
            nd, ni = list(cd), list(ci)
            nd[a] = tag
            ni[b] = tag
            nd = _refine(mult, nd, n)
            ni = _refine(mult, ni, n)
            if consistent(nd, ni) and rec(nd, ni, tag + 1) and not on_path:
                return True
        return on_path

    rec(list(base), list(base), n + 1)
    closure = PermutationGroup(n, found)
    return sorted(closure.enumerate_elements())


def _lift_edge_map(g: Multigraph, vperm: tuple[int, ...]) -> tuple[int, ...]:
    """The canonical edge map over a vertex map: parallel classes are
    matched in edge-id order."""
    eperm = [0] * len(g.edges)
    classes = g.parallel_classes
    for (a, b), ks in classes.items():
        ia, ib = vperm[a], vperm[b]
        image = classes[(min(ia, ib), max(ia, ib))]
        for k, ik in zip(ks, image):
            eperm[k] = ik
    return tuple(eperm)


def automorphism_generators(g: Multigraph) -> list[GraphAutomorphism]:
    """A generating set for Aut(g): lifted quotient automorphisms plus one
    swap per adjacent pair inside each parallel class.  Deterministic."""
    out = []
    for vperm in quotient_vertex_automorphisms(g):
        auto = GraphAutomorphism(g, vperm, _lift_edge_map(g, vperm))
        if not auto.is_identity():
            out.append(auto)
    ident_v = tuple(range(len(g.vertices)))
    for ks in g.parallel_classes.values():
        for i in range(len(ks) - 1):
            eperm = list(range(len(g.edges)))
            eperm[ks[i]], eperm[ks[i + 1]] = ks[i + 1], ks[i]
            out.append(GraphAutomorphism(g, ident_v, tuple(eperm)))
    return out


def automorphism_group(g: Multigraph) -> PermutationGroup:
    """Aut(g) on the points of GraphAutomorphism.combined, built once per
    graph object: the first call stores the group on g, as cached_property
    stores Multigraph.incidence, and later calls return that same group.
    This is sound because g and PermutationGroup are both immutable and the
    group is a deterministic function of g.  Another object for the same
    graph, such as a fresh parse, builds its own group."""
    group = g.__dict__.get("_automorphism_group")
    if group is None:
        gens = automorphism_generators(g)
        degree = len(g.vertices) + len(g.edges)
        group = PermutationGroup(degree, [a.combined for a in gens])
        g.__dict__["_automorphism_group"] = group
    return group


def count_automorphisms_bruteforce(g: Multigraph) -> int:
    """|Aut(g)| by exhausting vertex bijections; the edge maps over a fixed
    compatible vertex map are exactly the products of within-class
    bijections, so each contributes prod(mult!) to the count."""
    import itertools

    n = len(g.vertices)
    mult = _multiplicity_table(g)
    class_factor = 1
    for ks in g.parallel_classes.values():
        class_factor *= math.factorial(len(ks))
    count = 0
    for perm in itertools.permutations(range(n)):
        ok = True
        for v in range(n):
            for w, m in mult[v].items():
                if mult[perm[v]].get(perm[w], 0) != m:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            count += class_factor
    return count

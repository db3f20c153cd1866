"""The obstruction 2-cocycle of a graph and the order of its class in
second group cohomology.

For the base vertex v0 (the lattice's tree root) and any automorphism s,
let P_s (path_chain) be the tree path from v0 to s(v0), so its boundary
is s(v0) - v0.  The combination (cocycle_chain)

    c(s, t) = P_s + s . P_t - P_{st}

is closed, hence lands in the cycle lattice M, and is a normalized
2-cocycle for the coboundary convention (d f)(s, t) = s.f(t) - f(st) + f(s).
The order of its class in H^2 restricted to a subgroup H is the least n
with n*c a coboundary.

For cyclic H = <s> it is the gcd of the cycle lengths of s.combined, the
action on vertices and edges (class_order_cyclic).  Proof: H^2(<s>, M) =
M^s / N M with N the sum of the powers of s, and the class is N . P for
P = P_s.  Let pi send a chain to its signed sums over s's sign-preserving
edge cycles.  N kills the edges of sign-reversing cycles and scales pi(z)
injectively onto the disjoint orbit sums of the others, so n is the least
n with n pi(P) in pi(M).
  1. As M = ker d, n pi(P) is in pi(M) iff n dP is in d(ker pi), where
     dP = s(v0) - v0.
  2. ker pi = (1 - s) Z^E + Z^{E-}, E- the edges in sign-reversing cycles,
     so d(ker pi) = (1 - s) B + d Z^{E-}, B = d Z^E the degree-0 vectors
     (the graph is connected).
  3. With d_V the gcd of the vertex-orbit sizes, phi((1 - s) y) = sum(y)
     mod d_V is well defined (an invariant y sums to a multiple of d_V),
     its kernel is (1 - s) B, and phi(v0 - s(v0)) = 1.
  4. s^L swaps the ends of an edge e in a sign-reversing cycle of length
     L, so de = (1 - s^L) h for its head h, and phi(de) = L.
  5. So n = gcd(d_V, those L).  A sign-preserving cycle's length is a
     multiple of its tail's orbit size, so n is the gcd of all cycle
     lengths of s.combined.
The vertex orbits alone do not suffice: on a banana graph, an s that swaps
the two vertices and fixes an edge reverses it, so n = 1, not 2.

For any other finite H = <X> (a Sylow subgroup, in class_order_exact) the
order comes from a presentation of H, after Fox's free differential
calculus.  A breadth-first spanning tree of the Cayley graph of H under
left multiplication by X names each h by a word w_h; every non-tree edge
(x, h) gives the relator x w_h = w_{xh}, and these |H|(|X| - 1) + 1
relators present H.  In the extension of H by M that c defines, lift x to
(m_x, x).  One walk down the tree carries W_h = [A_{h,y} ... | V_h], the
Fox matrices and the tail, by W_{xh} = x W_h + E(x, h), where E(x, h) is
the identity in block x and c(x, h) last.  Relator (x, h) then evaluates
to its defect x W_h + E(x, h) - W_{xh}: the Fox Jacobian
sum_y (x A_{h,y} + [x = y] - A_{xh,y}) m_y plus its tail tau.  The class
is trivial exactly when some choice of the m_y kills every relator, so its
order is the least n with n*tau in the span of the Jacobian columns:
|X| * rank columns over one row per relator and coordinate, built from
|X| * |H| cocycle values.

The inhomogeneous bar complex (restrict, then class_order_bar) computes the
same order from all |H|^2 cocycle values; it is kept only as the oracle's
independent second route.  Its coboundary columns are assembled sparse,
straight into the lattice solver.  The full complex is used rather than
the normalized one: normalizing would drop only 2/n of the rows and
columns, and it would need c(1, 1) = 0 from a hand-built CocycleTable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .autgroup import GraphAutomorphism, automorphism_group, from_combined
from .config import Config
from .homology import Chain, CycleLattice, chain_action, tree_path
from .intlinalg import LatticeSolver, Matrix, NoneUpTo, axpy, matmul, zeros
from .permgroup import (
    Perm, PermutationGroup, SylowGrowthStalled, _factor, cycle_lengths, mul, sylow_subgroup
)


def path_chain(lattice: CycleLattice, sigma: GraphAutomorphism) -> Chain:
    """P_sigma, the tree path from the root v0 to sigma(v0)."""
    v0 = lattice.root
    return tree_path(lattice.graph, v0, sigma.vperm[v0])


def cocycle_chain(lattice: CycleLattice, s: GraphAutomorphism, w: int) -> Chain:
    """c(s, t) = P_s + s . P_t - P_st for any t with t(v0) = w, a cycle of
    the lattice's graph.  It depends on t only through w, so it needs no
    group bookkeeping and no automorphism t."""
    g, v0 = lattice.graph, lattice.root
    middle = chain_action(s, tree_path(g, v0, w))
    last = tree_path(g, v0, s.vperm[w])
    return axpy(axpy(path_chain(lattice, s), middle), last, -1)


@dataclass
class CocycleTable:
    """Values of a 2-cocycle on a finite (sub)group, together with the
    action matrices needed to assemble coboundaries over it.

    elements[0] must be the identity; prod[(i, j)] gives the index of
    elements[i] * elements[j].
    """

    rank: int
    size: int
    prod: dict[tuple[int, int], int]
    values: dict[tuple[int, int], tuple[int, ...]]
    actions: list[Matrix]


def restrict(lattice: CycleLattice, elements: list[GraphAutomorphism]) -> CocycleTable:
    """Tabulate the cocycle on a subgroup given by its full element list."""
    index = {a.combined: i for i, a in enumerate(elements)}
    if not elements or not elements[0].is_identity():
        raise ValueError("subgroup element list must start with the identity")
    prod: dict[tuple[int, int], int] = {}
    for i, a in enumerate(elements):
        for j, b in enumerate(elements):
            key = a.compose(b).combined
            if key not in index:
                raise ValueError("element list is not closed under composition")
            prod[(i, j)] = index[key]
    values = {
        (i, j): tuple(lattice.coordinates(cocycle_chain(lattice, a, b.vperm[lattice.root])))
        for i, a in enumerate(elements)
        for j, b in enumerate(elements)
    }
    actions = [lattice.action_matrix(a) for a in elements]
    return CocycleTable(
        rank=lattice.rank,
        size=len(elements),
        prod=prod,
        values=values,
        actions=actions,
    )


def class_order_bar(table: CocycleTable) -> int:
    """Order of the class of the tabulated cocycle in H^2, computed against
    the inhomogeneous bar complex: least n with n*c in the image of
    d^1: C^1(H, M) -> C^2(H, M), (d f)(s, t) = s.f(t) - f(st) + f(s).
    |H| annihilates H^2, so |H| is a valid search bound.

    Row (s*n + t)*g + r is coordinate r of the value at the pair (s, t);
    column h*g + b is basis vector b of f(h).
    """
    n, g = table.size, table.rank
    preimages: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for (s, t), h in table.prod.items():
        preimages[h].append((s, t))
    solver = LatticeSolver(n * n * g)
    for h in range(n):
        for b in range(g):
            col: dict[int, int] = {}
            for s in range(n):
                # s . f(t) at t = h
                base = (s * n + h) * g
                for r, row in enumerate(table.actions[s]):
                    if row[b]:
                        col[base + r] = col.get(base + r, 0) + row[b]
                # + f(s) at s = h
                key = (h * n + s) * g + b
                col[key] = col.get(key, 0) + 1
            for s, t in preimages[h]:
                # - f(st) whenever s * t = h
                key = (s * n + t) * g + b
                col[key] = col.get(key, 0) - 1
            solver.add_generator(col)
    target = {
        (i * n + j) * g + r: x
        for (i, j), val in table.values.items()
        for r, x in enumerate(val)
        if x
    }
    order = solver.least_multiple(target, n)
    if isinstance(order, NoneUpTo):  # pragma: no cover - annihilation bound
        raise AssertionError("cocycle order exceeded |H|; not a cocycle?")
    return order


def class_order_cyclic(combined: Perm | bytes) -> int:
    """Order of the class restricted to <sigma>: the gcd of sigma's cycle
    lengths on vertices and edges (the module docstring proves it), read off
    its combined permutation, a Perm or a permgroup byte key."""
    return math.gcd(*cycle_lengths(combined))


Edge = tuple[int, int, int]


def cayley_presentation(group: PermutationGroup) -> tuple[list[Perm], list[Edge], list[Edge]]:
    """The Cayley graph of H = <X> (X = group.generators) under left
    multiplication by X, read off H's breadth-first enumeration.

    Returns (elements, tree, relators).  elements is
    group.enumerate_elements(): H in breadth-first order, identity first.
    Every edge is a triple (x, h, xh) of indices into X and elements, with
    elements[xh] = X[x] * elements[h].  Scanned in (h, x) order, the order
    of the enumeration's own search, an edge discovers the next element
    exactly when xh = len(tree) + 1.  tree holds those |H| - 1 edges, in
    discovery order; relators holds the |H|(|X| - 1) + 1 others, each the
    relator x w_h = w_{xh}.
    """
    elements = group.enumerate_elements()
    index = {p: i for i, p in enumerate(elements)}
    tree: list[Edge] = []
    relators: list[Edge] = []
    for h, p in enumerate(elements):
        for x, q in enumerate(group.generators):
            xh = index[mul(q, p)]
            (tree if xh == len(tree) + 1 else relators).append((x, h, xh))
    return elements, tree, relators


def _cayley_step(
    action: Matrix, x: int, w_h: Matrix, value: list[int], w_xh: Matrix | None = None
) -> Matrix:
    """x . W_h + E(x, h) - W_{xh}, value = c(x, h): along a tree edge (w_xh
    None) it defines W_{xh}; on a relator it is the defect, Jacobian rows
    then tail."""
    g = len(action)
    out = matmul(action, w_h)
    for r, row in enumerate(out):
        row[x * g + r] += 1
        row[-1] += value[r]
        if w_xh is not None:
            for j, v in enumerate(w_xh[r]):
                row[j] -= v
    return out


def class_order_presented(lattice: CycleLattice, group: PermutationGroup) -> int:
    """Order of the class restricted to the finite subgroup H = group of
    Aut(graph), from the Cayley-graph presentation of H: the least n in
    [1, |H|] with n * (tails) in the span of the Fox Jacobian columns.
    |H| annihilates H^2, so |H| is a valid search bound.

    W_h holds A_{h,y} e_b in column y*g + b and V_h last, with W_1 = 0.
    Row i*g + r is coordinate r of relator i; column y*g + b is basis
    vector b of the unknown m_y.  Both the columns and the target are
    scattered from one defect per relator.
    """
    g = lattice.rank
    elements, tree, relators = cayley_presentation(group)
    gens = [from_combined(lattice.graph, q) for q in group.generators]
    actions = [lattice.action_matrix(x) for x in gens]

    def value(x: int, h: int) -> list[int]:  # c(x, h) reads h only at v0
        return lattice.coordinates(cocycle_chain(lattice, gens[x], elements[h][lattice.root]))

    width = len(gens) * g
    walk: list[Matrix] = [zeros(g, width + 1)]  # W_h; tree discovers h in order
    for x, h, _ in tree:
        walk.append(_cayley_step(actions[x], x, walk[h], value(x, h)))
    columns: list[dict[int, int]] = [{} for _ in range(width + 1)]  # then the tails
    for i, (x, h, xh) in enumerate(relators):
        defect = _cayley_step(actions[x], x, walk[h], value(x, h), walk[xh])
        for r, row in enumerate(defect):
            for j, v in enumerate(row):
                if v:
                    columns[j][i * g + r] = v
    target = columns.pop()
    solver = LatticeSolver(len(relators) * g)
    for col in columns:
        solver.add_generator(col)
    order = solver.least_multiple(target, len(elements))
    if isinstance(order, NoneUpTo):  # pragma: no cover - annihilation bound
        raise AssertionError("class order exceeded |H|; not a presentation?")
    return order


@dataclass(frozen=True)
class SylowOrder:
    prime: int
    subgroup_order: int
    class_order: int


def class_order_exact(
    lattice: CycleLattice, config: Config = Config()
) -> tuple[int, list[SylowOrder]] | str:
    """Exact order of the class in H^2(G, M), G = Aut of the lattice's
    graph, as the lcm of its restrictions to one Sylow subgroup per prime
    (restriction is injective on p-primary parts since corestriction .
    restriction = index).

    Each restriction comes from the Cayley-graph presentation
    (class_order_presented) of the Sylow subgroup that sylow_subgroup grows
    under config.  G itself is never enumerated, since sylow_subgroup grows
    its subgroup from random elements, so the only cap is config.bar_cap on
    every Sylow p-part.  Returns (order, parts), or the reason it was not
    computed: that cap, or the text of SylowGrowthStalled.  The cap text
    names config.max_enum, which gates nothing here, because the pinned
    reports of soccer-doubled and six other builtins carry it; rewording
    it belongs with a change that moves those reports anyway, such as a
    higher default bar_cap.
    """
    group = automorphism_group(lattice.graph)
    order = group.order()
    primes = [(p, p**e) for p, e in _factor(order).items()]
    if any(pk > config.bar_cap for _, pk in primes):
        return (
            f"|Aut| = {order} against enumeration cap {config.max_enum} "
            f"or a Sylow subgroup above bar cap {config.bar_cap}"
        )
    total = 1
    parts = []
    try:
        for p, pk in primes:
            n = class_order_presented(lattice, sylow_subgroup(group, p, config))
            parts.append(SylowOrder(prime=p, subgroup_order=pk, class_order=n))
            total = math.lcm(total, n)
    except SylowGrowthStalled as stalled:
        return str(stalled)
    return total, parts

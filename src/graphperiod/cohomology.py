"""The obstruction 2-cocycle of a graph and the order of its class in
second group cohomology.

For the base vertex v0 (the lattice's tree root) and any automorphism s,
let P_s (path_chain) be the tree path from v0 to s(v0), so its boundary
is s(v0) - v0.  The combination (cocycle_chain)

    c(s, t) = P_s + s . P_t - P_{st}

is closed, hence lands in the cycle lattice M, and is a normalized
2-cocycle for the coboundary convention (d f)(s, t) = s.f(t) - f(st) + f(s).
The order of its class in H^2 restricted to a subgroup H is the least n
with n*c a coboundary; for cyclic H = <s> of order m there is a closed
form: H^2(<s>, M) = M^s / N M with N = 1 + s + ... + s^(m-1), and the
class corresponds to the invariant cycle N . P_s.  class_order_cyclic
solves it in s's edge-cycle coordinates, one coefficient per orbit sum of
a sign-preserving edge cycle, since those orbit sums have disjoint
supports and span every N . z.

For any other finite H = <X> (a Sylow subgroup, in class_order_exact) the
order comes from a presentation of H, after Fox's free differential
calculus.  A breadth-first spanning tree of the Cayley graph of H under
left multiplication by X names each h by a word w_h; every non-tree edge
(x, h) gives the relator x w_h = w_{xh}, and these |H|(|X| - 1) + 1
relators present H.  In the extension of H by M that c defines, lift x to
(m_x, x).  Relator (x, h) then evaluates to its tail
tau = x.V_h + c(x, h) - V_{xh}, with V_{xh} = x.V_h + c(x, h) along the
tree, plus the Fox Jacobian sum_y (x A_{h,y} + [x = y] - A_{xh,y}) m_y.
The class is trivial exactly when some choice of the m_y kills every
relator, so its order is the least n with n*tau in the span of the
Jacobian columns: |X| * rank columns over one row per relator and
coordinate, built from |X| * |H| cocycle values.

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

from .autgroup import GraphAutomorphism, automorphism_group, from_combined, identity_automorphism
from .config import Config
from .homology import (
    Chain,
    CycleLattice,
    chain_action,
    norm,
    orbit_sum_coefficients,
    tree_path,
)
from .intlinalg import LatticeSolver, Matrix, NoneUpTo, axpy, matmul, matvec
from .permgroup import Perm, PermutationGroup, _factor, mul, sylow_subgroup


@dataclass(frozen=True)
class Unknown:
    """Exact class order not reachable under the caps; carries |G|, which
    the order divides."""

    upper: int


def path_chain(lattice: CycleLattice, sigma: GraphAutomorphism) -> Chain:
    """P_sigma, the tree path from the root v0 to sigma(v0)."""
    v0 = lattice.root
    return tree_path(lattice.graph, v0, sigma.vperm[v0])


def cocycle_chain(lattice: CycleLattice, s: GraphAutomorphism, t: GraphAutomorphism) -> Chain:
    """c(s, t) = P_s + s . P_t - P_st, a cycle of the lattice's graph.  It
    depends on s and t only through their action and their images of v0,
    so it needs no group bookkeeping."""
    g, v0 = lattice.graph, lattice.root
    middle = chain_action(s, path_chain(lattice, t))
    last = tree_path(g, v0, s.vperm[t.vperm[v0]])
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


def cyclic_group_elements(sigma: GraphAutomorphism) -> list[GraphAutomorphism]:
    out = [identity_automorphism(sigma.graph)]
    cur = sigma
    while not cur.is_identity():
        out.append(cur)
        cur = sigma.compose(cur)
    return out


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
        (i, j): tuple(lattice.coordinates(cocycle_chain(lattice, a, b)))
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


def class_order_cyclic(lattice: CycleLattice, sigma: GraphAutomorphism) -> int:
    """Order of the class restricted to <sigma>, by the closed form
    H^2(<sigma>, M) = M^sigma / N M: the least n with n * (N . P_sigma) in
    N M, where N = sum of the powers of the action.

    The solve runs in sigma's edge-cycle coordinates.  Every orbit sum is
    a combination of the orbit sums S_C of sigma's sign-preserving edge
    cycles (orbit_sum_coefficients), and the S_C have disjoint supports, so
    n * (N . P_sigma) lies in N M = span{N . z : z in the basis} exactly
    when its coefficient vector lies in the span of theirs.  N . P_sigma
    goes through lattice.coordinates once, which checks that it is a cycle
    and tests it for zero.  The N . z need no such check: every basis
    cycle z was checked closed when the basis was built, sigma preserves
    incidence (GraphAutomorphism checks it on construction), so
    boundary(N . z) = N . boundary(z) = 0."""
    m = sigma.order()
    if m == 1:
        return 1
    path = path_chain(lattice, sigma)
    target = lattice.coordinates(norm(sigma, m, path))
    if all(x == 0 for x in target):
        return 1
    solver = LatticeSolver(len(lattice.graph.edges))
    for z in lattice.basis:
        solver.add_generator(orbit_sum_coefficients(sigma, m, z))
    n = solver.least_multiple(orbit_sum_coefficients(sigma, m, path), m)
    if isinstance(n, NoneUpTo):  # pragma: no cover - annihilation bound
        raise AssertionError("restricted class order exceeded |<sigma>|")
    return n


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


def _fox_step(action: Matrix, a_h: Matrix, same: bool) -> Matrix:
    """x . A_{h,y} + [x = y] I: the Fox derivative of x w_h by y."""
    out = matmul(action, a_h)
    if same:
        for i, row in enumerate(out):
            row[i] += 1
    return out


def _fox_block(action: Matrix, a_h: Matrix, a_xh: Matrix, same: bool) -> Matrix:
    """The Jacobian block of relator x w_h = w_{xh} for the unknown m_y."""
    out = _fox_step(action, a_h, same)
    for row, sub in zip(out, a_xh):
        for j, v in enumerate(sub):
            row[j] -= v
    return out


def class_order_presented(lattice: CycleLattice, group: PermutationGroup) -> int:
    """Order of the class restricted to the finite subgroup H = group of
    Aut(graph), from the Cayley-graph presentation of H: the least n in
    [1, |H|] with n * (tails) in the span of the Fox Jacobian columns.
    |H| annihilates H^2, so |H| is a valid search bound.

    Row i*g + r is coordinate r of relator i; column y*g + b is basis
    vector b of the unknown m_y.
    """
    g = lattice.rank
    elements, tree, relators = cayley_presentation(group)
    autos = [from_combined(lattice.graph, p) for p in elements]
    gens = [from_combined(lattice.graph, q) for q in group.generators]
    actions = [lattice.action_matrix(x) for x in gens]
    ys = range(len(gens))
    tails: list[list[int]] = [[0] * g for _ in elements]  # V_h
    fox: list[list[Matrix]] = [[] for _ in elements]  # A_{h,y}
    fox[0] = [[[0] * g for _ in range(g)] for _ in ys]

    def lift(x: int, h: int) -> list[int]:
        """x . V_h + c(x, h)"""
        value = lattice.coordinates(cocycle_chain(lattice, gens[x], autos[h]))
        return [a + b for a, b in zip(matvec(actions[x], tails[h]), value)]

    for x, h, xh in tree:
        tails[xh] = lift(x, h)
        fox[xh] = [_fox_step(actions[x], fox[h][y], x == y) for y in ys]
    target: dict[int, int] = {}
    columns: list[dict[int, int]] = [{} for _ in range(len(gens) * g)]
    for i, (x, h, xh) in enumerate(relators):
        for r, (lifted, known) in enumerate(zip(lift(x, h), tails[xh])):
            if lifted != known:
                target[i * g + r] = lifted - known
        for y in ys:
            block = _fox_block(actions[x], fox[h][y], fox[xh][y], x == y)
            for r, row in enumerate(block):
                for b, v in enumerate(row):
                    if v:
                        columns[y * g + b][i * g + r] = v
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
) -> tuple[int, list[SylowOrder]] | Unknown:
    """Exact order of the class in H^2(G, M), G = Aut of the lattice's
    graph, as the lcm of its restrictions to one Sylow subgroup per prime
    (restriction is injective on p-primary parts since corestriction .
    restriction = index).

    Each restriction comes from the Cayley-graph presentation
    (class_order_presented) of the Sylow subgroup that sylow_subgroup grows
    under config; its SylowGrowthStalled propagates.  Needs |G| within
    config.max_enum and every Sylow subgroup of order at most
    config.bar_cap; otherwise returns Unknown(|G|).  G itself is never enumerated, since sylow_subgroup grows
    its subgroup from random elements.  The max_enum gate stays because
    the analysis status line for Unknown names it, and that line is part
    of pinned reports (soccer-doubled's); dropping the gate belongs with a
    change that alters reports anyway, such as a higher bar_cap.
    """
    group = automorphism_group(lattice.graph)
    order = group.order()
    if order == 1:
        return 1, []
    primes = None if order > config.max_enum else _small_prime_parts(order, config.bar_cap)
    if primes is None:
        return Unknown(order)
    total = 1
    parts = []
    for p, pk in primes:
        n = class_order_presented(lattice, sylow_subgroup(group, p, config))
        parts.append(SylowOrder(prime=p, subgroup_order=pk, class_order=n))
        total = math.lcm(total, n)
    return total, parts


def _small_prime_parts(order: int, bar_cap: int) -> list[tuple[int, int]] | None:
    """(p, p-part) for every prime divisor, or None if some p-part exceeds
    the bar cap."""
    parts = [(p, p**e) for p, e in _factor(order).items()]
    return None if any(pk > bar_cap for _, pk in parts) else parts

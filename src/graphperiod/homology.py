"""The chain complex Z^E -> Z^V -> Z of a multigraph, its cycle lattice
H_1(Gamma, Z), and the automorphism action on it.

Chains in Z^E are sparse dicts {edge index: coefficient} using the stored
reference orientation of each edge.  The boundary of edge e is head - tail.
The cycle basis comes from a canonical spanning tree (breadth-first from the
lexicographically smallest vertex id, ties broken by edge id), one
fundamental cycle per non-tree edge, oriented along that edge.  Because
every fundamental cycle meets exactly one non-tree edge with coefficient 1,
the basis coordinates of any cycle are just its values on non-tree edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .autgroup import GraphAutomorphism
from .intlinalg import LatticeSolver, Matrix, axpy, diagonal, smith_normal_form
from .multigraph import Multigraph

Chain = dict[int, int]


def chain_action(sigma: GraphAutomorphism, chain: Chain) -> Chain:
    """Push a chain forward along an automorphism, with sign -1 on every
    edge whose reference orientation is reversed (tail not mapped to tail).
    This is the unique sign convention making the boundary equivariant."""
    signed = sigma.signed_eperm
    out: Chain = {}
    for k, x in chain.items():
        image, sign = signed[k]
        out[image] = sign * x
    return out


def orbit_sum_coefficients(sigma: GraphAutomorphism, m: int, chain: Chain) -> dict[int, int]:
    """The orbit sum N . chain with N = 1 + sigma + ... + sigma^(m-1),
    where m is the order of sigma, in sigma's edge-cycle coordinates: for
    every sign-preserving edge cycle C (keyed by its least edge k0), the
    coefficient of S_C in N . chain.  Zero coefficients are dropped.

    Follow sigma's signed edge permutation around the cycle of e_k, of
    length L and sign product eps (sigma^L e_k = eps e_k).  With S_k =
    e_k + sigma e_k + ... + sigma^(L-1) e_k, N . e_k = (m/L) S_k when eps
    = +1, and 0 when eps = -1 (then m/L is even and the m/L copies of S_k
    cancel in pairs).  The edges of one cycle have S_k = +-S_k0, so the
    coefficient of S_C is (m/L) times the chain's coefficients summed over
    C with those signs (see GraphAutomorphism.signed_edge_cycles)."""
    cycles = sigma.signed_edge_cycles
    per_cycle: dict[int, int] = {}
    for k, x in chain.items():
        k0, c, _, _ = cycles[k]
        per_cycle[k0] = per_cycle.get(k0, 0) + c * x
    out: dict[int, int] = {}
    for k0, x in per_cycle.items():
        _, _, length, cycle = cycles[k0]
        if m % length:
            raise AssertionError("the edge cycle length must divide m")
        if x and cycle:
            out[k0] = m // length * x
    return out


def norm(sigma: GraphAutomorphism, m: int, chain: Chain) -> Chain:
    """The orbit sum N . chain as a chain: orbit_sum_coefficients expanded
    over the edges of each S_C."""
    cycles = sigma.signed_edge_cycles
    total: Chain = {}
    for k0, x in orbit_sum_coefficients(sigma, m, chain).items():
        for k, c in cycles[k0][3]:
            total[k] = x * c
    return total


def boundary(g: Multigraph, chain: Chain) -> dict[int, int]:
    """Boundary in Z^V: each edge contributes head - tail."""
    out: dict[int, int] = {}
    for k, x in chain.items():
        t, h = g.edge_ends_idx[k]
        out[h] = out.get(h, 0) + x
        out[t] = out.get(t, 0) - x
    return {v: x for v, x in out.items() if x}


def tree_path(g: Multigraph, start: int, goal: int) -> Chain:
    """The path from start to goal in g.bfs_tree(start), as a chain with
    boundary (goal) - (start); {} when start == goal.  It is a shortest
    path, and the smallest edge id wins ties."""
    tree = g.bfs_tree(start)
    chain: Chain = {}
    v = goal
    while v != start:
        k = tree[v]
        pv = g.other_end(k, v)
        chain[k] = 1 if g.edge_ends_idx[k][0] == pv else -1
        v = pv
    return chain


@dataclass
class CycleLattice:
    """H_1(Gamma, Z) with a fundamental cycle basis.  Immutable after
    construction apart from its caches: per automorphism (keyed by
    sigma.combined) the action matrix and the sparse invariant-functional
    basis used by coinvariant_primitive."""

    graph: Multigraph
    root: int
    nontree: tuple[int, ...]
    basis: tuple[Chain, ...]
    _action_cache: dict = field(default_factory=dict, repr=False)
    _coinvariant_cache: dict = field(default_factory=dict, repr=False)

    @property
    def rank(self) -> int:
        return len(self.nontree)

    def coordinates(self, chain: Chain) -> list[int]:
        """Basis coordinates of a cycle: its non-tree edge values.  Raises
        if the chain is not in the lattice (i.e. not a cycle).

        Checking the boundary suffices: a cycle minus the basis combination
        with the same non-tree values is a cycle on tree edges only, and a
        forest carries no nonzero cycle."""
        if boundary(self.graph, chain):
            raise ValueError("chain is not a cycle of the graph")
        return [chain.get(e, 0) for e in self.nontree]

    def from_coordinates(self, coords: list[int]) -> Chain:
        out: Chain = {}
        for c, z in zip(coords, self.basis):
            if c:
                out = axpy(out, z, c)
        return out

    def action_matrix(self, sigma: GraphAutomorphism) -> Matrix:
        """g x g matrix expressing the signed pushforward of every basis
        cycle in the basis again; det is always +-1."""
        key = sigma.combined
        cached = self._action_cache.get(key)
        if cached is not None:
            return cached
        cols = [self.coordinates(chain_action(sigma, z)) for z in self.basis]
        matrix = [[cols[j][i] for j in range(self.rank)] for i in range(self.rank)]
        self._action_cache[key] = matrix
        return matrix


def fundamental_cycle_basis(g: Multigraph) -> CycleLattice:
    """Cycle basis from the canonical spanning tree.

    The tree is g.bfs_tree from the lexicographically smallest vertex id,
    which scans the incident edges of each vertex in edge-id order, so the
    tree, the basis, and everything derived from them are deterministic.
    """
    root = g.vertex_index[min(g.vertices)]
    tree_edges = set(g.bfs_tree(root))
    nontree = tuple(k for k in g.edges_by_id if k not in tree_edges)
    basis = []
    for k in nontree:
        t, h = g.edge_ends_idx[k]
        cycle = axpy({k: 1}, tree_path(g, root, t))
        cycle = axpy(cycle, tree_path(g, root, h), -1)
        if boundary(g, cycle):
            raise AssertionError("fundamental cycle must be closed")
        basis.append(cycle)
    return CycleLattice(graph=g, root=root, nontree=nontree, basis=tuple(basis))


def verify_basis(lattice: CycleLattice) -> bool:
    """The basis columns span a saturated sublattice of full rank: the
    Smith form of the basis matrix is an identity block."""
    g = lattice.graph
    if lattice.rank != len(g.edges) - len(g.vertices) + 1:
        return False
    if lattice.rank == 0:
        return True
    rows = [[z.get(k, 0) for z in lattice.basis] for k in range(len(g.edges))]
    _, s, _ = smith_normal_form(rows)
    diag = diagonal(s)
    return diag[: lattice.rank] == [1] * lattice.rank and all(
        x == 0 for x in diag[lattice.rank :]
    )


def invariant_functionals(a: Matrix) -> list[dict[int, int]]:
    """A Z-basis of the invariant functionals {phi : phi A = phi} of a
    square integer matrix A, as sparse rows {index: coefficient}.

    The row lattice of [A - I | I] is {(phi (A - I), phi)}.  In its
    LatticeSolver echelon form the rows with pivot >= n span exactly the
    lattice vectors that vanish on the first n columns (a one-sided
    Hermite elimination with transform; Cohen, A Course in Computational
    Algebraic Number Theory, 2.4), so their right halves are the basis."""
    n = len(a)
    solver = LatticeSolver(2 * n)
    for i, row in enumerate(a):
        vec = {j: x for j, x in enumerate(row) if x}
        vec[i] = vec.get(i, 0) - 1
        vec[n + i] = 1
        solver.add_generator(vec)
    return [
        {j - n: x for j, x in row.items()} for pivot, row in solver.rows.items() if pivot >= n
    ]


def coinvariant_primitive(
    lattice: CycleLattice, sigma: GraphAutomorphism, coords: list[int]
) -> bool:
    """Whether the image of the element in the coinvariants M/(A - 1)M is
    nonzero and primitive modulo torsion, i.e. extends to a basis of the
    free part.  For sigma = identity this is primitivity in M itself.

    This is exactly the condition for Z*(element) to be a direct summand
    of M as a module over the cyclic group generated by sigma, because an
    equivariant projection onto the element is an invariant functional
    sending it to 1, and invariant functionals factor through the
    coinvariants.  So the test is gcd(phi(element)) == 1 over a basis of
    the invariant functionals, a gcd no choice of basis changes."""
    key = sigma.combined
    functionals = lattice._coinvariant_cache.get(key)
    if functionals is None:
        functionals = invariant_functionals(lattice.action_matrix(sigma))
        lattice._coinvariant_cache[key] = functionals
    values = [sum(x * coords[j] for j, x in phi.items()) for phi in functionals]
    return math.gcd(*values) == 1 if values else False


def invariant_functional_gcd(
    lattice: CycleLattice, sigma: GraphAutomorphism, coords: list[int]
) -> int:
    """Independent route to the same verdict: the gcd of phi(element) over
    a lattice basis of the invariant functionals {phi : phi A = phi}.  The
    element spans a summand iff this gcd is 1."""
    a = lattice.action_matrix(sigma)
    n = lattice.rank
    # kernel of (A^T - 1) over Z via Smith form: U D V = A^T - I, kernel
    # basis = columns of V past the rank.
    at = [[a[j][i] - (1 if i == j else 0) for j in range(n)] for i in range(n)]
    _, s, v = smith_normal_form(at)
    diag = diagonal(s)
    kernel_cols = [j for j in range(n) if j >= len(diag) or diag[j] == 0]
    values = []
    for j in kernel_cols:
        phi = [v[i][j] for i in range(n)]
        values.append(sum(p * c for p, c in zip(phi, coords)))
    return math.gcd(*values) if values else 0

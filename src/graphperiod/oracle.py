"""Cross-check suites: every core computation is validated against an
independent route on randomly generated instances.

The suites are deterministic per seed.  Each returns a list of failure
descriptions (empty = pass); the CLI prints a summary and exits nonzero on
any mismatch.
"""

from __future__ import annotations

from random import Random

from . import autgroup, catalog, cohomology, homology, intlinalg
from .autgroup import GraphAutomorphism
from .multigraph import GraphError, Multigraph, from_data
from .permgroup import PermutationGroup


# --- random instances --------------------------------------------------------


def random_multigraph(rng: Random, max_genus: int = 8) -> Multigraph:
    """A connected multigraph with minimum degree >= 3 and genus <= max_genus,
    drawn from doubled cycles, small complete / bipartite graphs, and random
    doublings of a spanning tree."""
    kind = rng.randrange(4)
    if kind == 0:
        return catalog.doubled_cycle(rng.randint(3, min(8, max_genus)))
    if kind == 1:
        return catalog.builtin(rng.choice(["k5", "k34", "doubled-k4"]))
    n = rng.randint(2, 5)
    vertices = [f"v{i}" for i in range(1, n + 1)]
    edges: list[tuple[str, str, str]] = []
    counter = 0

    def add_edge(a: str, b: str):
        nonlocal counter
        counter += 1
        edges.append((f"e{counter:03d}", a, b))

    for i in range(1, n):
        add_edge(vertices[rng.randrange(i)], vertices[i])
    for _ in range(200):
        degrees = {v: 0 for v in vertices}
        for _, a, b in edges:
            degrees[a] += 1
            degrees[b] += 1
        genus_now = len(edges) - n + 1
        if min(degrees.values()) >= 3 and genus_now >= 1:
            if genus_now >= max_genus or rng.random() < 0.4:
                break
        low = min(degrees, key=lambda v: (degrees[v], v))
        others = [v for v in vertices if v != low] or vertices
        add_edge(low, rng.choice(others))
    try:
        return from_data("random", vertices, edges)
    except GraphError:
        return catalog.doubled_cycle(4)


def random_automorphism(
    g: Multigraph, rng: Random, max_order: int | None = None, tries: int = 60
) -> GraphAutomorphism | None:
    gens = autgroup.automorphism_generators(g)
    if not gens:
        return None
    best = None
    for _ in range(tries):
        a = rng.choice(gens)
        for _ in range(rng.randrange(4)):
            a = a.compose(rng.choice(gens))
        if max_order is None or a.order() <= max_order:
            if not a.is_identity():
                return a
            best = best or a
    return best


# --- suites -------------------------------------------------------------------


def suite_cyclic_vs_bar(seed: int, instances: int = 50) -> list[str]:
    """class_order_cyclic must equal class_order_bar on <sigma>."""
    rng = Random(seed)
    failures = []
    done = 0
    while done < instances:
        g = random_multigraph(rng)
        lattice = homology.fundamental_cycle_basis(g)
        sigma = random_automorphism(g, rng, max_order=12)
        if sigma is None:
            continue
        done += 1
        fast = cohomology.class_order_cyclic(lattice, sigma)
        table = cohomology.restrict(lattice, cohomology.cyclic_group_elements(sigma))
        slow = cohomology.class_order_bar(table)
        if fast != slow:
            failures.append(
                f"graph {g.name!r} sigma {sigma.to_json_dict()['vertex_map']}: "
                f"cyclic={fast} bar={slow}"
            )
    return failures


def suite_presentation_vs_bar(
    seed: int, instances: int = 30, max_order: int = 64
) -> list[str]:
    """class_order_presented must equal class_order_bar on a nontrivial
    subgroup of order <= max_order generated by 1-3 random automorphisms."""
    rng = Random(seed)
    failures = []
    done = 0
    attempts = 0
    while done < instances and attempts < instances * 20:
        attempts += 1
        g = random_multigraph(rng)
        gens = [random_automorphism(g, rng, max_order=12) for _ in range(rng.randint(1, 3))]
        if None in gens:
            continue
        sub = PermutationGroup(len(g.vertices) + len(g.edges), [a.combined for a in gens])
        if not 1 < sub.order() <= max_order:
            continue
        done += 1
        elements = sub.enumerate_elements()
        lattice = homology.fundamental_cycle_basis(g)
        try:
            fast: int | str = cohomology.class_order_presented(lattice, sub)
        except AssertionError as exc:  # a wrong presentation misses every n <= |H|
            fast = f"AssertionError({exc})"
        autos = [autgroup.from_combined(g, p) for p in elements]
        slow = cohomology.class_order_bar(cohomology.restrict(lattice, autos))
        if fast != slow:
            failures.append(
                f"graph {g.name!r} generators "
                f"{[a.to_json_dict()['vertex_map'] for a in gens]}: "
                f"presented={fast} bar={slow}"
            )
    if done < instances:
        failures.append(f"only {done} of {instances} instances generated")
    return failures


def suite_automorphism_counts(seed: int) -> list[str]:
    """Generated-group order must match the brute-force automorphism count
    on every small graph."""
    rng = Random(seed)
    failures = []
    graphs = [catalog.doubled_cycle(n) for n in range(3, 7)]
    graphs += [catalog.builtin("k5"), catalog.builtin("doubled-k4"), catalog.builtin("k34")]
    graphs += [random_multigraph(rng) for _ in range(6)]
    for g in graphs:
        if len(g.vertices) > 7 or len(g.edges) > 14:
            continue
        fast = autgroup.automorphism_group(g).order()
        slow = autgroup.count_automorphisms_bruteforce(g)
        if fast != slow:
            failures.append(f"graph {g.name!r}: group order {fast}, brute force {slow}")
    return failures


def suite_snf_contract(seed: int, instances: int = 60) -> list[str]:
    """U*A*V = S exactly, U and V unimodular, diagonal divisibility chain;
    also the Hermite-form LatticeSolver over the columns of A must give the
    same least multiple as the Smith route, whose witness must satisfy
    A x = n c."""
    rng = Random(seed)
    failures = []
    for k in range(instances):
        rows = rng.randint(1, 8)
        cols = rng.randint(1, 8)
        a = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        u, s, v = intlinalg.smith_normal_form(a)
        if intlinalg.matmul(intlinalg.matmul(u, a), v) != s:
            failures.append(f"instance {k}: U*A*V != S for {a}")
            continue
        if abs(intlinalg.det_bareiss(u)) != 1 or abs(intlinalg.det_bareiss(v)) != 1:
            failures.append(f"instance {k}: transform not unimodular for {a}")
            continue
        diag = intlinalg.diagonal(s)
        for x, y in zip(diag, diag[1:]):
            if x == 0 and y != 0 or x != 0 and y % x:
                failures.append(f"instance {k}: divisibility chain broken: {diag}")
                break
        if any(s[i][j] for i in range(rows) for j in range(cols) if i != j):
            failures.append(f"instance {k}: S not diagonal")
        c = [rng.randint(-4, 4) for _ in range(rows)]
        solver = intlinalg.LatticeSolver(rows)
        for j in range(cols):
            solver.add_generator([row[j] for row in a])
        n1 = solver.least_multiple(c, 12)
        r2 = intlinalg.minimal_multiple_snf(a, c, bound=12)
        n2 = r2[0] if isinstance(r2, tuple) else r2
        if n1 != n2:
            failures.append(f"instance {k}: hnf={n1} snf={n2} for {a}, {c}")
        if isinstance(r2, tuple):
            n, x = r2
            if intlinalg.matvec(a, x) != [n * y for y in c]:
                failures.append(f"instance {k}: witness does not satisfy D x = n c")
    return failures


# builtins whose generators summand-criterion checks at full rank, four
# elements each
SUMMAND_BUILTINS = ("k5", "doubled-k4", "hybrid", "soccer-doubled")


def suite_summand_criterion(seed: int, instances: int = 25) -> list[str]:
    """The coinvariant-primitivity verdict must agree with the existence of
    an invariant functional sending the element to 1 (both express the same
    projection), checked through the integer kernel of the transposed
    action and by bounded brute force on small ranks; the kernel's rank
    must also equal the number of invariant functionals, once per sigma.
    Norm elements (orbit sums) are mixed in so genuinely invariant classes
    are covered.
    Besides the random graphs of genus <= 6, a random generator of each of
    SUMMAND_BUILTINS is checked on its full cycle lattice (rank 61 for
    soccer-doubled)."""
    rng = Random(seed)
    failures = []
    done = 0
    attempts = 0
    while done < instances and attempts < instances * 20:
        attempts += 1
        g = random_multigraph(rng, max_genus=6)
        lattice = homology.fundamental_cycle_basis(g)
        if lattice.rank == 0:
            continue
        sigma = random_automorphism(g, rng, max_order=8)
        if sigma is None:
            continue
        coords = _summand_coords(rng, lattice, sigma)
        if all(x == 0 for x in coords):
            continue
        done += 1
        failures += _summand_mismatches(lattice, sigma, [coords])
    if done < instances:
        failures.append(f"only {done} of {instances} instances generated")
    for name in SUMMAND_BUILTINS:
        g = catalog.builtin(name)
        lattice = homology.fundamental_cycle_basis(g)
        sigma = rng.choice(autgroup.automorphism_generators(g))
        coords_list = [_summand_coords(rng, lattice, sigma) for _ in range(4)]
        failures += _summand_mismatches(lattice, sigma, coords_list)
    return failures


def _summand_coords(rng: Random, lattice, sigma) -> list[int]:
    """Random coordinates, replaced half the time by their orbit sum, a
    sigma-fixed element."""
    coords = [rng.randint(-2, 2) for _ in range(lattice.rank)]
    if rng.random() < 0.5:
        chain = lattice.from_coordinates(coords)
        coords = lattice.coordinates(homology.norm(sigma, sigma.order(), chain))
    return coords


def _summand_mismatches(lattice, sigma, coords_list) -> list[str]:
    """Check the verdict on each coordinate vector, and once for sigma that
    the echelon basis of the invariant functionals is as large as the Smith
    kernel of A^T - I: at full rank random elements almost always have
    functional gcd 1, so a dropped basis row shows only in the count."""
    name = lattice.graph.name
    a = lattice.action_matrix(sigma)
    n = lattice.rank
    at = [[a[j][i] - (1 if i == j else 0) for j in range(n)] for i in range(n)]
    kernel_rank = intlinalg.diagonal(intlinalg.smith_normal_form(at)[1]).count(0)
    basis_size = len(homology.invariant_functionals(a))
    failures = []
    if basis_size != kernel_rank:
        failures.append(
            f"graph {name!r}: {basis_size} invariant functionals from the echelon, "
            f"{kernel_rank} from the Smith form"
        )
    for coords in coords_list:
        verdict = homology.coinvariant_primitive(lattice, sigma, coords)
        gcd_value = homology.invariant_functional_gcd(lattice, sigma, coords)
        if verdict != (gcd_value == 1):
            failures.append(
                f"graph {name!r}: coinvariant verdict {verdict}, "
                f"functional gcd {gcd_value}, coords {coords}"
            )
        if n <= 4:
            brute = _functional_bruteforce(lattice, sigma, coords, bound=3)
            if brute is not None and brute != verdict:
                failures.append(
                    f"graph {name!r}: brute-force functional search {brute}, "
                    f"criterion {verdict}, coords {coords}"
                )
    return failures


def _functional_bruteforce(lattice, sigma, coords, bound: int) -> bool | None:
    """Search all functionals with |coefficients| <= bound; returns None
    when the search is inconclusive (criterion true but witness may need
    larger coefficients)."""
    import itertools

    a = lattice.action_matrix(sigma)
    n = lattice.rank
    found = False
    for phi in itertools.product(range(-bound, bound + 1), repeat=n):
        if sum(p * c for p, c in zip(phi, coords)) != 1:
            continue
        # invariance: phi(A x) = phi(x) for all x <=> phi A = phi
        if all(
            sum(phi[i] * a[i][j] for i in range(n)) == phi[j] for j in range(n)
        ):
            found = True
            break
    if found:
        return True
    verdict = homology.coinvariant_primitive(lattice, sigma, coords)
    return None if verdict else False


SUITES = {
    "cyclic-vs-bar": suite_cyclic_vs_bar,
    "presentation-vs-bar": suite_presentation_vs_bar,
    "automorphism-counts": suite_automorphism_counts,
    "snf-contract": suite_snf_contract,
    "summand-criterion": suite_summand_criterion,
}

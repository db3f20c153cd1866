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
        cocycle = cohomology.PathCocycle(homology.fundamental_cycle_basis(g))
        sigma = random_automorphism(g, rng, max_order=12)
        if sigma is None:
            continue
        done += 1
        fast = cohomology.class_order_cyclic(cocycle, sigma)
        table = cohomology.restrict(cocycle, cohomology.cyclic_group_elements(sigma))
        slow = cohomology.class_order_bar(table, cap=64)
        if fast != slow:
            failures.append(
                f"graph {g.name!r} sigma {sigma.to_json_dict()['vertex_map']}: "
                f"cyclic={fast} bar={slow}"
            )
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
    also both minimal-multiple routes must agree."""
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
        r1 = intlinalg.minimal_multiple_in_image(a, c, bound=12, method="hnf")
        r2 = intlinalg.minimal_multiple_in_image(a, c, bound=12, method="snf")
        n1 = r1[0] if isinstance(r1, tuple) else None
        n2 = r2[0] if isinstance(r2, tuple) else None
        if n1 != n2:
            failures.append(f"instance {k}: hnf={n1} snf={n2} for {a}, {c}")
        if isinstance(r1, tuple):
            n, x = r1
            if intlinalg.matvec(a, x) != [n * y for y in c]:
                failures.append(f"instance {k}: witness does not satisfy D x = n c")
    return failures


def suite_summand_criterion(seed: int, instances: int = 25) -> list[str]:
    """The coinvariant-primitivity verdict must agree with the existence of
    an invariant functional sending the element to 1 (both express the same
    projection), checked through the integer kernel of the transposed
    action and by bounded brute force on small ranks.  Norm elements
    (orbit sums) are mixed in so genuinely invariant classes are covered."""
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
        coords = [rng.randint(-2, 2) for _ in range(lattice.rank)]
        if rng.random() < 0.5:
            # replace by the orbit sum, a sigma-fixed element
            chain = lattice.from_coordinates(coords)
            coords = lattice.coordinates(homology.norm(sigma, sigma.order(), chain))
        if all(x == 0 for x in coords):
            continue
        done += 1
        verdict = homology.coinvariant_primitive(lattice, sigma, coords)
        gcd_value = homology.invariant_functional_gcd(lattice, sigma, coords)
        if verdict != (gcd_value == 1):
            failures.append(
                f"graph {g.name!r}: coinvariant verdict {verdict}, "
                f"functional gcd {gcd_value}, coords {coords}"
            )
        if lattice.rank <= 4:
            brute = _functional_bruteforce(lattice, sigma, coords, bound=3)
            if brute is not None and brute != verdict:
                failures.append(
                    f"graph {g.name!r}: brute-force functional search {brute}, "
                    f"criterion {verdict}, coords {coords}"
                )
    if done < instances:
        failures.append(f"only {done} of {instances} instances generated")
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
    "automorphism-counts": lambda seed: suite_automorphism_counts(seed),
    "snf-contract": suite_snf_contract,
    "summand-criterion": suite_summand_criterion,
}


def run_all(seed: int = 0) -> dict[str, list[str]]:
    return {name: fn(seed) for name, fn in SUITES.items()}

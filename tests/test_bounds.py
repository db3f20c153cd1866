import json
import math
from functools import lru_cache
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphperiod import catalog, homology, oracle
from graphperiod.autgroup import (
    automorphism_generators,
    automorphism_group,
    from_combined,
    identity_automorphism,
)
from graphperiod.bounds import (
    RULES,
    Certificate,
    NotAClosedChain,
    NotApplicable,
    SoundnessError,
    _edge_orbits,
    _loop_steps,
    _scan_loops_for_sigma,
    analyze,
    chain_from_vertex_cycle,
    index_upper_divisors,
    intervals_from_certificates,
    invariant_subgraphs,
    period_lower_loop_summand,
    verify_certificate,
)
from graphperiod.cohomology import class_order_cyclic, path_chain
from graphperiod.config import Config
from graphperiod.homology import (
    boundary,
    chain_action,
    fundamental_cycle_basis,
    norm,
    tree_path,
)
from graphperiod.intlinalg import LatticeSolver, axpy
from graphperiod.multigraph import Edge, Multigraph
from graphperiod.permgroup import cyclic_subgroups, orbits

from util import vertex_cycle_automorphism


def k5_setup():
    g = catalog.builtin("k5")
    return g, fundamental_cycle_basis(g)


def doubled_k4_involution(g):
    """v_i -> v_{5-i}, additionally switching the parallel copies between
    v1 v4 and between v2 v3."""
    from graphperiod.autgroup import GraphAutomorphism, _lift_edge_map

    vi = g.vertex_index
    vperm = tuple(vi[f"v{5 - i}"] for i in (1, 2, 3, 4))
    eperm = list(_lift_edge_map(g, vperm))
    ei = g.edge_index
    for pair in (("e2a", "e2b"), ("e4a", "e4b")):  # v2v3 and v4v1 doubled pairs
        a, b = ei[pair[0]], ei[pair[1]]
        eperm[a], eperm[b] = eperm[b], eperm[a]
    return GraphAutomorphism(g, vperm, tuple(eperm))


class TestLoopSummand:
    def test_k5_pentagon_gives_five(self):
        g, lattice = k5_setup()
        sigma = vertex_cycle_automorphism(g, ["v1", "v2", "v3", "v4", "v5"])
        loop = chain_from_vertex_cycle(g, ["v1", "v2", "v3", "v4", "v5"])
        assert period_lower_loop_summand(lattice, sigma, loop) == 5

    def test_k5_triangle_not_a_summand(self):
        g, lattice = k5_setup()
        sigma = vertex_cycle_automorphism(g, ["v1", "v2", "v3"])
        loop = chain_from_vertex_cycle(g, ["v1", "v2", "v3"])
        result = period_lower_loop_summand(lattice, sigma, loop)
        assert isinstance(result, NotApplicable)
        assert "summand" in result.reason

    def test_doubled_cycle_full_loop(self):
        for gg in (4, 5, 6):
            g = catalog.builtin(f"doubled-cycle-g{gg}")
            lattice = fundamental_cycle_basis(g)
            rot = vertex_cycle_automorphism(g, [f"v{i}" for i in range(1, gg)])
            loop = {g.edge_index[f"f{i}"]: 1 for i in range(1, gg)}
            assert period_lower_loop_summand(lattice, rot, loop) == gg - 1

    def test_doubled_k4_two_gon(self):
        g = catalog.builtin("doubled-k4")
        lattice = fundamental_cycle_basis(g)
        sigma = doubled_k4_involution(g)
        assert sigma.order() == 2
        ei = g.edge_index
        loop = {ei["e2a"]: 1, ei["e2b"]: -1}
        assert period_lower_loop_summand(lattice, sigma, loop) == 2

    def test_not_a_closed_chain(self):
        g, lattice = k5_setup()
        sigma = identity_automorphism(g)
        with pytest.raises(NotAClosedChain):
            period_lower_loop_summand(lattice, sigma, {0: 1})

    def test_non_simple_loop_rejected(self):
        g, lattice = k5_setup()
        sigma = identity_automorphism(g)
        double = {k: 2 * x for k, x in chain_from_vertex_cycle(g, ["v1", "v2", "v3"]).items()}
        result = period_lower_loop_summand(lattice, sigma, double)
        assert isinstance(result, NotApplicable)
        assert "simple" in result.reason

    @pytest.mark.parametrize(
        "name,edge_ids",
        [("doubled-k4", ("e1a", "e1b", "e3a", "e3b")), ("hybrid", ("e2", "f2", "e4", "f4"))],
    )
    def test_disjoint_two_gons_are_not_a_simple_cycle(self, name, edge_ids):
        """Two vertex-disjoint 2-gons form a closed chain with one outgoing
        edge per vertex, but not one cycle: the walk from the least vertex
        closes after two steps."""
        g = catalog.builtin(name)
        lattice = fundamental_cycle_basis(g)
        edges = [g.edge_index[e] for e in edge_ids]
        assert len({v for k in edges for v in g.edge_ends_idx[k]}) == 4
        loop = {edges[0]: 1, edges[1]: -1, edges[2]: 1, edges[3]: -1}
        for sigma in [identity_automorphism(g)] + automorphism_generators(g):
            result = period_lower_loop_summand(lattice, sigma, loop)
            assert result == NotApplicable("loop is not a simple cycle")
        with pytest.raises(NotAClosedChain):
            period_lower_loop_summand(lattice, identity_automorphism(g), {edges[0]: 1, edges[2]: 1})

    def test_unfixed_loop_rejected(self):
        g, lattice = k5_setup()
        sigma = vertex_cycle_automorphism(g, ["v1", "v2", "v3", "v4", "v5"])
        loop = chain_from_vertex_cycle(g, ["v1", "v2", "v3"])
        result = period_lower_loop_summand(lattice, sigma, loop)
        assert isinstance(result, NotApplicable)

    def test_firing_rule_divides_cyclic_order(self):
        g, lattice = k5_setup()
        sigma = vertex_cycle_automorphism(g, ["v1", "v2", "v3", "v4", "v5"])
        loop = chain_from_vertex_cycle(g, ["v1", "v2", "v3", "v4", "v5"])
        m = period_lower_loop_summand(lattice, sigma, loop)
        assert class_order_cyclic(lattice, sigma) % m == 0


class TestIndexDivisors:
    def test_k5(self):
        g = catalog.builtin("k5")
        certs, status = index_upper_divisors(g)
        divisors = {c.divisor for c in certs}
        assert 5 in divisors  # g - 1
        assert 10 in divisors  # the single edge orbit, also 2|V|
        assert math.gcd(*divisors) == 5
        assert not status

    def test_doubled_k4(self):
        g = catalog.builtin("doubled-k4")
        certs, _ = index_upper_divisors(g)
        divisors = {c.divisor for c in certs}
        assert {6, 10, 2} <= divisors  # genus-1, whole graph, diagonal orbit
        assert math.gcd(*divisors) == 2

    def test_soccer(self):
        g = catalog.builtin("soccer-doubled")
        certs, _ = index_upper_divisors(g)
        divisors = {c.divisor for c in certs}
        assert 60 in divisors and 120 in divisors
        assert math.gcd(*divisors) == 60


class TestInvariantSubgraphs:
    def test_k5_has_none(self):
        g = catalog.builtin("k5")
        assert invariant_subgraphs(g) == []

    def test_doubled_cycle_has_none(self):
        g = catalog.builtin("doubled-cycle-g5")
        assert invariant_subgraphs(g) == []

    def test_union_cap_shared_with_index_divisors(self):
        # one cap check gates both enumerations: at 2^#orbits the unions
        # are enumerated, one below they are skipped by both, and the
        # orbit rule notes the skip exactly when no subgraph is returned
        g = catalog.builtin("hybrid")
        n = len(_edge_orbits(g))
        for cap, enumerated in ((2**n, True), (2**n - 1, False)):
            certs, status = index_upper_divisors(g, Config(union_cap=cap))
            subs = invariant_subgraphs(g, Config(union_cap=cap))
            kinds = {c.witness.get("kind") for c in certs}
            assert ("orbit-union-edges" in kinds) == enumerated
            assert bool(subs) == enumerated
            assert status == ([] if enumerated else [
                f"orbit unions not enumerated (2^{n} exceeds cap {cap})"
            ])

    def test_hybrid_contains_doubled_cycle(self):
        g = catalog.builtin("hybrid")
        subs = invariant_subgraphs(g)
        shapes = {(len(s.vertices), len(s.edges)) for s in subs}
        assert (4, 8) in shapes  # the doubled 4-cycle on v1..v4


class TestAnalyze:
    @pytest.mark.parametrize(
        "name,per,ind",
        [
            ("doubled-cycle-g5", 4, 4),
            ("k5", 5, 5),
            ("k34", 1, 1),
            ("doubled-k4", 2, 2),
        ],
    )
    def test_resolved_examples(self, name, per, ind):
        report = analyze(catalog.builtin(name), Config())
        assert (report.period.lower, report.period.upper) == (per, per)
        assert (report.index.lower, report.index.upper) == (ind, ind)
        assert report.period.resolved and report.index.resolved

    def test_hybrid_resolved_via_propagation(self):
        report = analyze(catalog.builtin("hybrid"), Config())
        assert report.period.resolved and report.period.lower == 4
        assert report.index.resolved and report.index.lower == 4
        assert any(c.rule == "SubgraphPropagation" for c in report.certificates)

    def test_interval_invariants(self):
        for name in ("k5", "doubled-k4", "hybrid"):
            r = analyze(catalog.builtin(name), Config())
            assert r.period.upper % r.period.lower == 0
            assert r.index.upper % r.period.lower == 0

    def test_monotone_in_budget(self):
        small = Config(scan_quota=2, word_budget=50, max_subgroups=20)
        big = Config()
        g = catalog.builtin("doubled-k4")
        r1 = analyze(g, small)
        r2 = analyze(g, big)
        assert r2.period.lower % r1.period.lower == 0
        assert r1.period.upper % r2.period.upper == 0

    def test_json_report_schema(self):
        report = analyze(catalog.builtin("k5"), Config())
        doc = json.loads(json.dumps(report.to_json_dict()))
        assert doc["graph"] == "k5"
        assert doc["genus"] == 6
        assert doc["aut_order"] == "120"
        for key in ("period", "index"):
            assert set(doc[key]) == {"lower", "upper", "resolved"}
        for cert in doc["certificates"]:
            assert set(cert) == {"rule", "target", "direction", "divisor", "witness"}
            assert cert["target"] in ("period", "index")
            assert cert["direction"] in ("lower", "upper")
        rules = [ (c["rule"], c["divisor"]) for c in doc["certificates"] ]
        assert rules == sorted(rules)

    @pytest.mark.parametrize("seed,word_length", [(1, 3), (3, 3), (0, 1)])
    def test_stalled_sylow_growth_only_widens(self, seed, word_length):
        # short words do not reach the order-16 Sylow 2-subgroup at these
        # seeds; the report omits SylowExact and names the budget instead
        g = catalog.builtin("doubled-cycle-g3")
        config = Config(max_word_length=word_length, seed=seed)
        report = analyze(g, config)
        assert (report.period.lower, report.period.upper) == (2, 2)
        assert all(c.rule != "SylowExact" for c in report.certificates)
        assert report.status == [
            "exact class order not computed: Sylow 2-subgroup growth stalled at "
            f"order 8 of 16 (10000 words of length <= max_word_length {word_length})"
        ]
        assert all(verify_certificate(g, c, config) for c in report.certificates)


class TestCertificates:
    def test_all_certificates_reverify(self):
        for name in ("k5", "doubled-k4", "doubled-cycle-g4"):
            g = catalog.builtin(name)
            report = analyze(g, Config())
            for cert in report.certificates:
                assert verify_certificate(g, cert), (name, cert.rule, cert.divisor)

    def test_tampered_certificate_fails(self):
        g = catalog.builtin("k5")
        report = analyze(g, Config())
        cert = next(c for c in report.certificates if c.rule == "GenusIndex")
        bad = Certificate(cert.rule, cert.target, cert.direction, cert.divisor + 1, cert.witness)
        assert not verify_certificate(g, bad)


def _cert(rule, divisor):
    (target, *_), direction = RULES[rule]
    return Certificate(rule, target, direction, divisor, {})


def _bounds(intervals):
    return [(i.lower, i.upper) for i in intervals]


def test_intervals_sylow_exact_bounds_the_period_from_above():
    certs = [_cert("AutOrder", 120), _cert("SylowExact", 5)]
    assert _bounds(intervals_from_certificates(certs)) == [(5, 5), (5, 0)]
    # a cyclic restriction is a lower bound only
    certs = [_cert("AutOrder", 120), _cert("CyclicRestriction", 5)]
    assert _bounds(intervals_from_certificates(certs)) == [(5, 120), (5, 0)]


def test_intervals_index_upper_bound_bounds_the_period():
    certs = [_cert("AutOrder", 120), _cert("GenusIndex", 9), _cert("OrbitSubgraph", 12)]
    assert _bounds(intervals_from_certificates(certs)) == [(1, 3), (1, 3)]


def test_intervals_period_lower_bound_bounds_the_index():
    certs = [_cert("LoopSummand", 4), _cert("CyclicRestriction", 6)]
    assert _bounds(intervals_from_certificates(certs)) == [(12, 0), (12, 0)]
    assert _bounds(intervals_from_certificates([])) == [(1, 0), (1, 0)]


def _proved_by_printed_certificates(printed: dict) -> dict:
    """The period and index intervals that the certificates of a printed
    report prove, derived here from the JSON alone: each certificate is a
    lower bound (lcm) or an upper bound (gcd) of its target, SylowExact is
    also an upper bound of the period, then the period takes the index's
    upper bound and the index the period's lower bound.  An upper bound of
    0 means none; resolved means lower == upper != 0."""
    bounds = {target: {"lower": 1, "upper": 0} for target in ("period", "index")}
    for cert in printed["certificates"]:
        divisor = int(cert["divisor"])
        slot = bounds[cert["target"]]
        if cert["direction"] == "lower":
            slot["lower"] = slot["lower"] * divisor // math.gcd(slot["lower"], divisor)
        else:
            slot["upper"] = math.gcd(slot["upper"], divisor)
        if cert["rule"] == "SylowExact":
            bounds["period"]["upper"] = math.gcd(bounds["period"]["upper"], divisor)
    period, index = bounds["period"], bounds["index"]
    period["upper"] = math.gcd(period["upper"], index["upper"])
    index["lower"] = index["lower"] * period["lower"] // math.gcd(index["lower"], period["lower"])
    for slot in bounds.values():
        assert slot["upper"] % slot["lower"] == 0
        slot["resolved"] = slot["upper"] != 0 and slot["lower"] == slot["upper"]
    return bounds


@pytest.mark.parametrize("name", catalog.BUILTIN_NAMES)
def test_printed_intervals_are_what_the_certificates_prove(name):
    g = catalog.builtin(name)
    for seed in range(2):
        printed = analyze(g, Config(seed=seed)).to_json_dict()
        proved = _proved_by_printed_certificates(printed)
        for target in ("period", "index"):
            shown = printed[target]
            assert {
                "lower": int(shown["lower"]),
                "upper": int(shown["upper"]),
                "resolved": shown["resolved"],
            } == proved[target], (seed, target)


def test_divisor_interval_soundness_error():
    # an unsound certificate list for each target: 4 does not divide 6
    for target, lower_rule, upper_rule in (
        ("period", "CyclicRestriction", "AutOrder"),
        ("index", "PeriodDividesIndex", "GenusIndex"),
    ):
        certs = [
            Certificate(lower_rule, target, "lower", 4, {}),
            Certificate(upper_rule, target, "upper", 6, {}),
        ]
        message = f"{target}: lower bound 4 does not divide upper 6"
        with pytest.raises(SoundnessError, match=message):
            intervals_from_certificates(certs)


def test_asymmetric_graph_trivial_class():
    # multiplicity pattern kills every symmetry, so the class is trivial
    from graphperiod.multigraph import from_data

    g = from_data(
        "asym",
        ["a", "b", "c", "d"],
        [("e1", "a", "b"), ("e2", "a", "b"), ("e3", "a", "b"),
         ("e4", "b", "c"), ("e5", "b", "c"),
         ("e6", "c", "d"), ("e7", "c", "d"), ("e8", "c", "d"), ("e9", "c", "d"),
         ("e10", "d", "a"), ("e11", "a", "c")],
    )
    from graphperiod.autgroup import automorphism_group

    assert automorphism_group(g).order() == 2 * 6 * 24  # swaps only
    report = analyze(g, Config())
    assert report.period.resolved
    assert report.period.lower == 1  # parallel swaps fix all vertices
    assert report.index.upper % report.period.lower == 0


# --- the cyclic scan ----------------------------------------------------------


def _replay_scan(g, monkeypatch):
    """Analyze g at Config() and return the report, every sigma the scan
    processed on g itself (not on its invariant subgraphs), in order, and
    the restriction it computed for each, keyed by sigma.combined."""
    from graphperiod import bounds, cohomology

    processed, computed = [], {}
    real_from_combined = bounds.from_combined
    real_class_order = cohomology.class_order_cyclic

    def recording_from_combined(graph, perm):
        sigma = real_from_combined(graph, perm)
        if graph is g:
            processed.append(sigma)
        return sigma

    def recording_class_order(lattice, sigma):
        n = real_class_order(lattice, sigma)
        if sigma.graph is g:
            computed[sigma.combined] = n
        return n

    monkeypatch.setattr(bounds, "from_combined", recording_from_combined)
    monkeypatch.setattr(cohomology, "class_order_cyclic", recording_class_order)
    report = analyze(g, Config())
    monkeypatch.undo()
    return report, processed, computed


# hybrid certifies 4 but never 2, so none of its restrictions is skipped
@pytest.mark.parametrize("name,min_skipped", [("soccer-doubled", 1), ("hybrid", 0)])
def test_skipped_cyclic_restrictions_repeat_a_held_divisor(name, min_skipped, monkeypatch):
    """Replay the scan's processed elements in order: every sigma whose
    restriction the scan skipped has class order 1 or a divisor that an
    earlier computed restriction already certified."""
    g = catalog.builtin(name)
    report, processed, computed = _replay_scan(g, monkeypatch)
    lattice = fundamental_cycle_basis(g)
    held: set[int] = set()
    skipped = 0
    for sigma in processed:
        n = computed.get(sigma.combined)
        if n is None:
            skipped += 1
            n = class_order_cyclic(lattice, sigma)
            assert n == 1 or n in held, (sigma.order(), n, held)
        elif n > 1:
            held.add(n)
    assert skipped >= min_skipped
    assert held == {c.divisor for c in report.certificates if c.rule == "CyclicRestriction"}


@pytest.mark.parametrize("name", ["soccer-doubled", "hybrid"])
def test_skipped_loop_searches_could_not_certify(name, monkeypatch):
    """Replay the scan's processed elements: for every sigma whose
    restriction the scan computed as n != |sigma|, so that it ran no loop
    search, no candidate loop certifies."""
    g = catalog.builtin(name)
    _, processed, computed = _replay_scan(g, monkeypatch)
    lattice = fundamental_cycle_basis(g)
    skipped = 0
    for sigma in processed:
        m = sigma.order()
        if computed.get(sigma.combined, m) == m:
            continue
        skipped += 1
        for loop in _scan_loops_for_sigma(lattice, sigma, m):
            verdict = period_lower_loop_summand(lattice, sigma, loop)
            assert isinstance(verdict, NotApplicable), (sigma.to_json_dict(), loop)
    assert skipped > 0


def _per_edge_norm(sigma, m, chain):
    """norm as it was before orbit_sum_coefficients: the per-cycle sums
    expanded edge by edge in the same pass."""
    cycles = sigma.signed_edge_cycles
    per_cycle = {}
    for k, x in chain.items():
        k0, c, length, _ = cycles[k]
        assert m % length == 0
        per_cycle[k0] = per_cycle.get(k0, 0) + c * x
    total = {}
    for k0, x in per_cycle.items():
        if x:
            _, _, length, cycle = cycles[k0]
            for k, c in cycle:
                total[k] = m // length * x * c
    return total


def _chain_class_order_cyclic(lattice, sigma):
    """class_order_cyclic as it was before the solve moved to sigma's
    edge-cycle coordinates: every orbit sum N . z built as a chain, checked
    through lattice.coordinates, and eliminated in basis coordinates."""
    m = sigma.order()
    if m == 1:
        return 1
    target = lattice.coordinates(_per_edge_norm(sigma, m, path_chain(lattice, sigma)))
    if all(x == 0 for x in target):
        return 1
    solver = LatticeSolver(lattice.rank)
    for z in lattice.basis:
        solver.add_generator(lattice.coordinates(_per_edge_norm(sigma, m, z)))
    return solver.least_multiple(target, m)


def _check_against_the_chain_route(lattice, sigmas):
    """class_order_cyclic equals the chain route on every sigma, and norm
    equals the per-edge norm on every basis cycle and on every tree path
    the loop scan sums over translates; returns how many sigma reverse the
    sign of some edge cycle."""
    g = lattice.graph
    nv = len(g.vertices)
    reversing = 0
    for sigma in sigmas:
        assert class_order_cyclic(lattice, sigma) == _chain_class_order_cyclic(lattice, sigma), (
            sigma.to_json_dict()
        )
        m = sigma.order()
        moved = [v for v in range(nv) if sigma.vperm[v] != v]
        paths = [tree_path(g, o[0], sigma.vperm[o[0]]) for o in orbits(nv, [sigma.vperm], moved)]
        for chain in [*lattice.basis, *paths, path_chain(lattice, sigma)]:
            assert norm(sigma, m, chain) == _per_edge_norm(sigma, m, chain)
        reversing += any(not cycle for _, _, _, cycle in sigma.signed_edge_cycles)
    return reversing


@pytest.mark.parametrize("name", catalog.BUILTIN_NAMES)
def test_cyclic_restriction_matches_the_chain_route_on_the_scan(name, monkeypatch):
    """Every restriction the scan computes at Config() (hybrid's first
    SCAN_LIMIT) is the one the chain route computes; soccer-doubled's
    include sigma with a sign-reversed edge cycle, whose orbit sum is 0."""
    g = catalog.builtin(name)
    _, processed, computed = _replay_scan(g, monkeypatch)
    sigmas = [sigma for sigma in processed if sigma.combined in computed]
    assert len(sigmas) == len(computed)
    if name == "soccer-doubled":
        assert len(sigmas) == 181
    reversing = _check_against_the_chain_route(fundamental_cycle_basis(g), sigmas[:_limit(g)])
    if name == "soccer-doubled":
        assert reversing > 0


@pytest.mark.parametrize("seed", range(4))
def test_cyclic_restriction_matches_the_chain_route_on_random_graphs(seed):
    """The same comparison on 20 random automorphisms of each of 5 random
    multigraphs."""
    rng = Random(seed)
    compared = 0
    for _ in range(5):
        g = oracle.random_multigraph(rng)
        sigmas = [oracle.random_automorphism(g, rng) for _ in range(20)]
        sigmas = [sigma for sigma in sigmas if sigma is not None]
        _check_against_the_chain_route(fundamental_cycle_basis(g), sigmas)
        compared += len(sigmas)
    assert compared > 0


def _early_stopping_path(g, start, goal):
    """Level-by-level BFS from start that stops after the level reaching
    goal; the path as a chain, {} if start == goal."""
    prev, frontier, seen = {}, [start], {start}
    while frontier and goal not in seen:
        nxt = []
        for v in frontier:
            for k in g.incidence[v]:
                w = g.other_end(k, v)
                if w not in seen:
                    seen.add(w)
                    t, _ = g.edge_ends_idx[k]
                    prev[w] = (v, k, 1 if t == v else -1)
                    nxt.append(w)
        frontier = nxt
    chain, v = {}, goal
    while v != start:
        v, k, sign = prev[v]
        chain[k] = sign
    return chain


@pytest.mark.parametrize("name", ["soccer-doubled", "hybrid"])
def test_shortest_path_chain_matches_an_early_stopping_bfs(name):
    g = catalog.builtin(name)
    n = len(g.vertices)
    for start in range(n):
        for goal in range(n):
            path = tree_path(g, start, goal)
            expected = _early_stopping_path(g, start, goal)
            assert path == expected
            assert list(path.items()) == list(expected.items())


def _per_vertex_loop_summand(lattice, sigma, loop):
    """period_lower_loop_summand as it was before the tiling test was read
    off the walk: the boundary first, then a segment from v to sigma(v) and
    its orbit sum built at every loop vertex v until one tiles the loop."""
    g = lattice.graph
    if boundary(g, loop):
        raise NotAClosedChain("the chain has nonzero boundary")
    steps = _loop_steps(g, loop)
    if steps is None:
        return NotApplicable("loop is not a simple cycle")
    m = sigma.order()
    if chain_action(sigma, loop) != loop:
        return NotApplicable("loop class is not fixed by the automorphism")
    if m == 1:
        return 1
    positions = {v: i for i, (v, _) in enumerate(steps)}
    length = len(steps)
    tiled = False
    for v, start in positions.items():
        w = sigma.vperm[v]
        if w not in positions:
            return NotApplicable("automorphism does not preserve the loop")
        span = (positions[w] - start) % length
        if span == 0 or (span * m) != length:
            continue
        segment = {}
        for i in range(span):
            vv, k = steps[(start + i) % length]
            t, _ = g.edge_ends_idx[k]
            segment = axpy(segment, {k: 1 if t == vv else -1})
        if norm(sigma, m, segment) == loop:
            tiled = True
            break
    if not tiled:
        return NotApplicable("loop is not tiled by translates of a v -> sigma(v) segment")
    coords = lattice.coordinates(loop)
    if not homology.coinvariant_primitive(lattice, sigma, coords):
        return NotApplicable("loop class does not generate a direct summand")
    return m


# hybrid has 16 864 cyclic subgroups and 346 670 candidate loops (178 494
# once repeats and negated repeats are dropped); its tests take the first
# 400 subgroups in scan order, as many as soccer-doubled's sampled scan
# finds at the default seed
SCAN_LIMIT = 400


def _unfiltered_loops(lattice, sigma, m):
    """_scan_loops_for_sigma as it was before it screened orbit sums by
    their edge-cycle coefficients: every orbit sum built with norm."""
    g = lattice.graph
    nv = len(g.vertices)
    moved = [v for v in range(nv) if sigma.vperm[v] != v]
    for orbit in orbits(nv, [sigma.vperm], moved):
        yield norm(sigma, m, tree_path(g, orbit[0], sigma.vperm[orbit[0]]))
    for z in lattice.basis:
        yield norm(sigma, m, z)
        if chain_action(sigma, z) == z:
            yield z


def _candidate_loops(g, limit=None, stream=_scan_loops_for_sigma):
    """(lattice, sigma, candidate loops from stream) for every cyclic
    subgroup <sigma> != 1 of Aut(g) that the scan at Config() visits, in its
    order (largest order first), the first `limit` of them."""
    lattice = fundamental_cycle_basis(g)
    pairs, _ = cyclic_subgroups(automorphism_group(g), Config())
    pairs = [(p, order) for p, order in sorted(pairs, key=lambda t: (-t[1], t[0])) if order > 1]
    for perm, order in pairs[:limit]:
        sigma = from_combined(g, perm)
        yield lattice, sigma, stream(lattice, sigma, order)


def _random_graphs(seeds, per_seed):
    graphs = []
    for seed in seeds:
        rng = Random(seed)
        graphs += [oracle.random_multigraph(rng) for _ in range(per_seed)]
    return graphs


def _limit(g):
    return SCAN_LIMIT if g.name in ("hybrid", "soccer-doubled") else None


@pytest.mark.parametrize(
    "g",
    [catalog.builtin(name) for name in catalog.BUILTIN_NAMES] + _random_graphs(range(4), 5),
    ids=lambda g: g.name,
)
def test_tiling_from_the_walk_matches_the_per_vertex_search(g):
    """The loop-summand rule returns what the per-vertex segment search
    returned, reason strings included, on every candidate the scan made
    before it screened orbit sums."""
    tested = 0
    for lattice, sigma, loops in _candidate_loops(g, _limit(g), _unfiltered_loops):
        for loop in loops:
            assert period_lower_loop_summand(lattice, sigma, loop) == (
                _per_vertex_loop_summand(lattice, sigma, loop)
            ), (sigma.to_json_dict(), loop)
            tested += 1
    assert tested > 0


@pytest.mark.parametrize(
    "g",
    [catalog.builtin(name) for name in catalog.BUILTIN_NAMES] + _random_graphs(range(4), 5),
    ids=lambda g: g.name,
)
def test_screened_orbit_sums_are_not_simple_cycles(g):
    """The scan's stream is the unfiltered stream less some orbit sums, in
    the same order, and each one it drops has an entry other than +-1 and
    gets "loop is not a simple cycle", while every one it keeps has only
    entries +-1; so the first certifying loop of every sigma is the
    unfiltered stream's."""
    dropped = 0
    for lattice, sigma, loops in _candidate_loops(g, _limit(g), _unfiltered_loops):
        kept = list(_scan_loops_for_sigma(lattice, sigma, sigma.order()))
        assert all(abs(x) == 1 for loop in kept for x in loop.values())
        i = 0
        for loop in loops:
            if i < len(kept) and loop == kept[i]:
                i += 1
                continue
            dropped += 1
            assert any(abs(x) != 1 for x in loop.values()), (sigma.to_json_dict(), loop)
            assert period_lower_loop_summand(lattice, sigma, loop) == (
                NotApplicable("loop is not a simple cycle")
            )
        assert i == len(kept), sigma.to_json_dict()
        assert _first_certifying(lattice, sigma, kept) == _first_certifying(
            lattice, sigma, _unfiltered_loops(lattice, sigma, sigma.order())
        )
    if g.name == "soccer-doubled":
        assert dropped > 0


@pytest.mark.parametrize(
    "g",
    [catalog.builtin(name) for name in catalog.BUILTIN_NAMES] + _random_graphs([0], 60),
    ids=lambda g: g.name,
)
def test_a_firing_loop_summand_divides_the_cyclic_restriction(g):
    """When the rule certifies m = |sigma|, the class restricted to <sigma>
    has order exactly m, computed by the independent closed form: the
    equality the scan relies on to search loops only where it holds."""
    fired = 0
    for lattice, sigma, loops in _candidate_loops(g, _limit(g)):
        if any(type(period_lower_loop_summand(lattice, sigma, loop)) is int for loop in loops):
            fired += 1
            assert class_order_cyclic(lattice, sigma) == sigma.order(), (
                sigma.to_json_dict()
            )
    if g.name == "soccer-doubled":
        assert fired > 0


def _first_certifying(lattice, sigma, loops):
    return next(
        (loop for loop in loops if type(period_lower_loop_summand(lattice, sigma, loop)) is int),
        None,
    )


def _deduplicated(loops):
    """The candidates without the empty chain and without any chain that
    repeats an earlier one or its negation, in first-occurrence order."""
    seen = set()
    for loop in loops:
        key = tuple(sorted(loop.items()))
        neg = tuple(sorted((k, -x) for k, x in loop.items()))
        if loop and key not in seen and neg not in seen:
            seen.add(key)
            yield loop


@pytest.mark.parametrize(
    "g",
    [catalog.builtin(name) for name in catalog.BUILTIN_NAMES] + _random_graphs(range(4), 5),
    ids=lambda g: g.name,
)
def test_repeated_candidates_leave_the_first_certifying_loop_unchanged(g):
    """The scan tests the streamed candidates, repeats included, until one
    certifies; with repeats and negated repeats dropped it stops at the
    same loop.  A negated repeat can get another verdict (for |sigma| > 2
    the tiling test reads the direction sigma rotates the loop), so this is
    checked, not implied: on these graphs every such repeat comes after its
    first occurrence certified and ended the search."""
    for lattice, sigma, loops in _candidate_loops(g, _limit(g)):
        loops = list(loops)
        assert _first_certifying(lattice, sigma, loops) == _first_certifying(
            lattice, sigma, _deduplicated(loops)
        ), sigma.to_json_dict()


def _intervals(g: Multigraph):
    report = analyze(g, Config())
    return tuple((iv.lower, iv.upper) for iv in (report.period, report.index))


@lru_cache(maxsize=None)
def _builtin_intervals(name: str):
    return _intervals(catalog.builtin(name))


@st.composite
def _relabelings(draw, g):
    """g with new vertex and edge ids, both lists shuffled, and some edges
    reversed."""
    nv, ne = len(g.vertices), len(g.edges)
    vnames = draw(st.permutations([f"u{i:02d}" for i in range(nv)]))
    enames = draw(st.permutations([f"x{i:03d}" for i in range(ne)]))
    vorder = draw(st.permutations(range(nv)))
    eorder = draw(st.permutations(range(ne)))
    flips = draw(st.lists(st.booleans(), min_size=ne, max_size=ne))
    rename = dict(zip(g.vertices, vnames))
    edges = []
    for k in eorder:
        e = g.edges[k]
        tail, head = (e.head, e.tail) if flips[k] else (e.tail, e.head)
        edges.append(Edge(enames[k], rename[tail], rename[head]))
    return Multigraph(
        name=g.name,
        vertices=tuple(vnames[i] for i in vorder),
        edges=tuple(edges),
    )


@pytest.mark.parametrize(
    "name",
    [
        "k5",
        "k34",
        "doubled-k4",
        "doubled-cycle-g3",
        "doubled-cycle-g4",
        "doubled-cycle-g5",
        "doubled-cycle-g6",
        "hybrid",
    ],
)
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_intervals_are_invariant_under_relabeling(name, data):
    g = catalog.builtin(name)
    h = data.draw(_relabelings(g))
    assert _intervals(h) == _builtin_intervals(name)

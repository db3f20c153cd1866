"""Acceptance suite: one test per criterion, each printing a pass line
with its timing (run with -s to see them)."""

import math
import time
from random import Random

from graphperiod import catalog, oracle
from graphperiod.autgroup import (
    automorphism_generators,
    automorphism_group,
    count_automorphisms_bruteforce,
)
from graphperiod.bounds import (
    NotApplicable,
    analyze,
    chain_from_vertex_cycle,
    period_lower_loop_summand,
)
from graphperiod.cohomology import (
    class_order_bar,
    class_order_cyclic,
    cocycle_chain,
    restrict,
)
from graphperiod.config import Config
from graphperiod.homology import chain_action, fundamental_cycle_basis
from graphperiod.intlinalg import axpy
from graphperiod.multigraph import genus

from util import cyclic_elements, relabel, transfer_automorphism, vertex_cycle_automorphism


def report_line(number, text, elapsed=None):
    suffix = f" ({elapsed:.1f}s)" if elapsed is not None else ""
    print(f"PASS criterion {number}: {text}{suffix}")


def timed_analyze(name, limit):
    g = catalog.builtin(name)
    start = time.monotonic()
    report = analyze(g, Config())
    elapsed = time.monotonic() - start
    assert elapsed < limit, f"{name} took {elapsed:.1f}s, limit {limit}s"
    return report, elapsed


def test_criterion_1_doubled_cycles():
    total = 0.0
    for gg in range(3, 9):
        report, elapsed = timed_analyze(f"doubled-cycle-g{gg}", 60)
        total += elapsed
        assert report.period.lower == report.period.upper == gg - 1
        assert report.index.lower == report.index.upper == gg - 1
        assert report.period.resolved and report.index.resolved
    report_line(1, "doubled cycles g=3..8 all give period = index = g-1", total)


def test_criterion_2_k5():
    report, elapsed = timed_analyze("k5", 120)
    assert report.period.lower == report.period.upper == 5
    assert report.index.lower == report.index.upper == 5
    loop_certs = [c for c in report.certificates if c.rule == "LoopSummand"]
    assert loop_certs, "a loop-summand certificate is required"
    from graphperiod.autgroup import from_json_dict

    g = report.graph
    assert any(
        from_json_dict(g, c.witness["automorphism"]).order() == 5 and c.divisor == 5
        for c in loop_certs
    ), "need a certificate for a 5-cycle automorphism"
    # and the triangle with (123) is explicitly rejected
    lattice = fundamental_cycle_basis(g)
    sigma = vertex_cycle_automorphism(g, ["v1", "v2", "v3"])
    triangle = chain_from_vertex_cycle(g, ["v1", "v2", "v3"])
    verdict = period_lower_loop_summand(lattice, sigma, triangle)
    assert isinstance(verdict, NotApplicable)
    report_line(2, "K5 resolves to 5 with a 5-cycle loop certificate and "
                   "a NotApplicable verdict for ((123), triangle)", elapsed)


def test_criterion_3_doubled_k4():
    report, elapsed = timed_analyze("doubled-k4", 60)
    assert report.period.lower == report.period.upper == 2
    assert report.index.lower == report.index.upper == 2
    index_divisors = {
        c.divisor for c in report.certificates
        if c.target == "index" and c.direction == "upper"
    }
    assert 6 in index_divisors  # genus - 1
    assert math.gcd(*index_divisors) <= 2
    report_line(3, "doubled K4 resolves to 2; certified divisors include 6 "
                   "and an orbit divisor forcing gcd <= 2", elapsed)


def test_criterion_4_hybrid():
    report, elapsed = timed_analyze("hybrid", 300)
    assert report.period.lower == report.period.upper == 4
    assert report.index.lower == report.index.upper == 4
    assert any(c.rule == "SubgraphPropagation" for c in report.certificates)
    report_line(4, "hybrid resolves to 4 using subgraph propagation", elapsed)


def test_criterion_5_k34():
    report, elapsed = timed_analyze("k34", 60)
    assert report.period.lower == report.period.upper == 1
    assert report.index.lower == report.index.upper == 1
    report_line(5, "K34 has trivial class: period = index = 1", elapsed)


def test_criterion_6_soccer_interval():
    report, elapsed = timed_analyze("soccer-doubled", 600)
    assert report.period.lower == 30
    assert report.period.upper == 60
    assert report.index.upper == 60
    assert report.index.lower == 30
    assert not report.period.resolved and not report.index.resolved
    report_line(6, "soccer-doubled reports the open interval: period in "
                   "{30, 60}, index upper 60", elapsed)


def test_criterion_7_oracle_equivalence():
    start = time.monotonic()
    rng = Random(0)
    done = 0
    while done < 50:
        g = oracle.random_multigraph(rng, max_genus=8)
        if genus(g) > 8:
            continue
        sigma = oracle.random_automorphism(g, rng, max_order=12)
        if sigma is None:
            continue
        done += 1
        lattice = fundamental_cycle_basis(g)
        fast = class_order_cyclic(sigma.combined)
        table = restrict(lattice, cyclic_elements(sigma))
        slow = class_order_bar(table)
        assert fast == slow, (g.name, sigma.to_json_dict(), fast, slow)
    report_line(7, f"cyclic closed form equals bar resolution on {done} "
                   "random instances", time.monotonic() - start)


def test_criterion_8_property_suites():
    start = time.monotonic()
    rng = Random(0)
    # Smith normal form contract on 200 random matrices up to 20x20
    from test_intlinalg import check_snf_contract

    for _ in range(200):
        rows, cols = rng.randint(1, 20), rng.randint(1, 20)
        check_snf_contract(
            [[rng.randint(-40, 40) for _ in range(cols)] for _ in range(rows)]
        )
    # cocycle identity on 1000 random triples per builtin
    for name in catalog.BUILTIN_NAMES:
        g = catalog.builtin(name)
        lattice = fundamental_cycle_basis(g)
        v0 = lattice.root
        gens = automorphism_generators(g)
        for _ in range(1000):
            s, t, u = (rng.choice(gens) for _ in range(3))
            total = chain_action(s, cocycle_chain(lattice, t, u.vperm[v0]))
            total = axpy(total, cocycle_chain(lattice, s.compose(t), u.vperm[v0]), -1)
            total = axpy(total, cocycle_chain(lattice, s, t.compose(u).vperm[v0]))
            total = axpy(total, cocycle_chain(lattice, s, t.vperm[v0]), -1)
            assert total == {}, name
    # action-matrix homomorphism on generator words of length <= 6
    for name in catalog.BUILTIN_NAMES:
        g = catalog.builtin(name)
        lattice = fundamental_cycle_basis(g)
        gens = automorphism_generators(g)
        for _ in range(8):
            w1 = rng.choice(gens)
            for _ in range(rng.randrange(3)):
                w1 = w1.compose(rng.choice(gens))
            w2 = rng.choice(gens)
            for _ in range(rng.randrange(3)):
                w2 = w2.compose(rng.choice(gens))
            a1, a2 = lattice.action_matrix(w1), lattice.action_matrix(w2)
            n = lattice.rank
            prod = [
                [sum(a1[i][k] * a2[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)
            ]
            assert prod == lattice.action_matrix(w1.compose(w2)), name
    # choice independence of class orders under a spanning-tree change
    checked = 0
    for name in ("k5", "doubled-k4", "doubled-cycle-g5", "k34", "hybrid"):
        g = catalog.builtin(name)
        mapping = {v: f"zz{len(g.vertices) - i:02d}" for i, v in enumerate(g.vertices)}
        h = relabel(g, mapping)
        l1, l2 = fundamental_cycle_basis(g), fundamental_cycle_basis(h)
        gens = automorphism_generators(g)
        for _ in range(4):
            a = rng.choice(gens)
            b = transfer_automorphism(a, h)
            assert class_order_cyclic(a.combined) == class_order_cyclic(b.combined), name
            checked += 1
    assert checked >= 20
    report_line(8, "SNF contract (200), cocycle identity (1000/builtin), "
                   "action homomorphism, tree-choice independence (20)",
                time.monotonic() - start)


def test_criterion_9_bruteforce_automorphism_counts():
    start = time.monotonic()
    rng = Random(1)
    corpus = [catalog.builtin(n) for n in catalog.BUILTIN_NAMES]
    corpus += [oracle.random_multigraph(rng) for _ in range(10)]
    checked = 0
    for g in corpus:
        if len(g.vertices) > 7 or len(g.edges) > 14:
            continue
        checked += 1
        assert automorphism_group(g).order() == count_automorphisms_bruteforce(g), g.name
    assert checked >= 9
    report_line(9, f"brute-force automorphism counts match on {checked} "
                   "small corpus graphs", time.monotonic() - start)

"""Certificate re-verification: one Aut(g) per graph object, malformed
witnesses, and single-field tampering."""

import pytest

from graphperiod import autgroup, bounds, catalog
from graphperiod.bounds import (
    RULES,
    Certificate,
    SoundnessError,
    analyze,
    verify_certificate,
)
from graphperiod.config import Config
from graphperiod.multigraph import parse_graph

from util import identity_automorphism

TAMPER_GRAPHS = ("k5", "k34", "hybrid")


@pytest.fixture(scope="module")
def reports():
    out = {}
    for name in TAMPER_GRAPHS:
        g = catalog.builtin(name)
        out[name] = (g, analyze(g, Config()))
    return out


def with_witness(cert: Certificate, witness: dict) -> Certificate:
    return Certificate(cert.rule, cert.target, cert.direction, cert.divisor, witness)


def perturb(g, value):
    """A value of the same JSON shape that differs from the given one."""
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        return str(int(value) + 1) if value.isdigit() else value + "x"
    if isinstance(value, list):
        return value[:-1] if value else [0]
    if isinstance(value, dict):  # an automorphism: replace it by the identity
        assert value != identity_automorphism(g).to_json_dict()
        return identity_automorphism(g).to_json_dict()
    raise AssertionError(f"unexpected witness value {value!r}")


def test_tamper_graphs_carry_every_rule(reports):
    # the tamper tests below reach a rule only through these reports
    rules = {c.rule for _, report in reports.values() for c in report.certificates}
    assert rules == set(RULES)


def cert_of(report, rule, predicate=lambda c: True) -> Certificate:
    return next(c for c in report.certificates if c.rule == rule and predicate(c))


def test_analyze_and_verify_search_automorphisms_once(monkeypatch):
    calls = []
    original = autgroup.automorphism_generators

    def counting(g):
        calls.append(g)
        return original(g)

    monkeypatch.setattr(autgroup, "automorphism_generators", counting)
    g = catalog.builtin("k5")
    report = analyze(g, Config())
    assert all(verify_certificate(g, c) for c in report.certificates)
    assert len(calls) == 1 and calls[0] is g


def test_analyze_and_verify_compute_orbits_once_per_graph_object(monkeypatch):
    """Aut(g)'s orbits on all of g's points are computed once for one
    analyze plus a full verify of hybrid, and once more for a fresh parse;
    the loop search's orbits of one sigma on vertices are not counted."""
    g = catalog.builtin("hybrid")
    degree = len(g.vertices) + len(g.edges)
    calls = []
    original = bounds.orbits

    def counting(generators, points):
        if len(points) == degree:
            calls.append(points)
        return original(generators, points)

    monkeypatch.setattr(bounds, "orbits", counting)
    report = analyze(g, Config())
    assert any(c.rule == "OrbitSubgraph" for c in report.certificates)
    assert all(verify_certificate(g, c) for c in report.certificates)
    assert len(calls) == 1
    fresh = parse_graph(g.to_json())
    assert all(verify_certificate(fresh, c) for c in report.certificates)
    assert len(calls) == 2


@pytest.mark.parametrize("name", ["k5", "hybrid"])
def test_certificates_verify_against_fresh_parse(reports, name):
    g, report = reports[name]
    fresh = parse_graph(g.to_json())
    assert fresh is not g
    for cert in report.certificates:
        assert verify_certificate(fresh, cert), (cert.rule, cert.divisor)


@pytest.mark.parametrize("name", TAMPER_GRAPHS)
def test_every_witness_field_is_checked(reports, name):
    g, report = reports[name]
    for cert in report.certificates:
        assert verify_certificate(g, cert)
        for key, value in cert.witness.items():
            bad = with_witness(cert, {**cert.witness, key: perturb(g, value)})
            assert not verify_certificate(g, bad), (cert.rule, cert.witness, key)
        extra = with_witness(cert, {**cert.witness, "extra": 1})
        assert not verify_certificate(g, extra), cert.rule


@pytest.mark.parametrize("name", TAMPER_GRAPHS)
def test_every_certificate_field_is_checked(reports, name):
    g, report = reports[name]
    for cert in report.certificates:
        targets, direction = RULES[cert.rule]
        flipped = {"lower": "upper", "upper": "lower"}[direction]
        tampered = [
            Certificate(cert.rule, cert.target, cert.direction, cert.divisor + 1, cert.witness),
            Certificate(cert.rule, cert.target, flipped, cert.divisor, cert.witness),
        ]
        if len(targets) == 1:
            other = {"period": "index", "index": "period"}[cert.target]
            tampered.append(
                Certificate(cert.rule, other, cert.direction, cert.divisor, cert.witness)
            )
        for bad in tampered:
            assert not verify_certificate(g, bad), (bad.rule, bad.target, bad.direction)


def test_orbit_union_indices_must_be_in_range(reports):
    # k5 has one edge orbit, so index -1 would reach it
    g, report = reports["k5"]
    cert = cert_of(report, "OrbitSubgraph", lambda c: c.witness["kind"] == "orbit-union-edges")
    assert cert.witness["orbits"] == [0]
    for orbits in ([-1], [1], [], [True], [0.0], "0"):
        assert not verify_certificate(g, with_witness(cert, {**cert.witness, "orbits": orbits}))


def test_orbit_union_indices_must_be_sorted_and_distinct(reports):
    g, report = reports["hybrid"]
    for cert in report.certificates:
        if not cert.witness.get("kind", "").startswith("orbit-union"):
            continue
        orbits = cert.witness["orbits"]
        if len(orbits) > 1:
            for bad in (orbits[::-1], orbits[:1] + orbits, orbits + orbits[-1:]):
                tampered = with_witness(cert, {**cert.witness, "orbits": bad})
                assert not verify_certificate(g, tampered), bad
            break
    else:
        pytest.fail("hybrid has no union of two edge orbits")


def test_malformed_loop_witness_is_rejected(reports):
    g, report = reports["k5"]
    cert = cert_of(report, "LoopSummand")
    loop = cert.witness["loop"]
    for bad in (
        [{**loop[0], "edge": "nowhere"}] + loop[1:],  # unknown edge id
        loop[1:],  # one step dropped: not a closed chain
        loop + loop[:1],  # a step repeated
        [{**loop[0], "sign": 2}] + loop[1:],
        [{"edge": loop[0]["edge"]}] + loop[1:],  # a step without its sign
    ):
        assert not verify_certificate(g, with_witness(cert, {**cert.witness, "loop": bad}))


@pytest.mark.parametrize("rule", ["LoopSummand", "CyclicRestriction"])
def test_partial_automorphism_is_rejected(reports, rule):
    g, report = reports["k5"]
    cert = cert_of(report, rule)
    auto = cert.witness["automorphism"]
    for what in ("vertex_map", "edge_map"):
        partial = dict(auto[what])
        partial.pop(next(iter(partial)))
        bad = {**cert.witness, "automorphism": {**auto, what: partial}}
        assert not verify_certificate(g, with_witness(cert, bad))


def test_witness_of_the_wrong_shape_is_rejected(reports):
    g, report = reports["k5"]
    for cert in report.certificates:
        for witness in ({}, [], "x"):
            assert not verify_certificate(g, with_witness(cert, witness)), cert.rule


def test_soundness_error_propagates(reports, monkeypatch):
    # a fresh parse: the fixture's object may already hold this
    # certificate's re-analysis from an earlier test
    g, report = reports["hybrid"]
    fresh = parse_graph(g.to_json())
    cert = cert_of(report, "SubgraphPropagation")

    def unsound(*args, **kwargs):
        raise SoundnessError("lower bound does not divide upper bound")

    monkeypatch.setattr(bounds, "analyze", unsound)
    with pytest.raises(SoundnessError):
        verify_certificate(fresh, cert)
    # the failed re-analysis stored nothing: the real one runs and verifies
    monkeypatch.undo()
    assert verify_certificate(fresh, cert)


def test_verify_analyzes_each_subgraph_once_per_graph_object(monkeypatch):
    g = catalog.builtin("hybrid")
    report = analyze(g, Config())
    named = {c.witness["subgraph"] for c in report.certificates if c.rule == "SubgraphPropagation"}
    assert len(named) == 2
    calls = []
    original = bounds.analyze

    def counting(sub, config=Config()):
        calls.append(sub.name)
        return original(sub, config)

    monkeypatch.setattr(bounds, "analyze", counting)
    # analyze's own subgraph reports are not reused: the analyzed object
    # re-analyzes each named subgraph once, and a fresh parse does it again
    for target in (g, parse_graph(g.to_json())):
        calls.clear()
        assert all(verify_certificate(target, c) for c in report.certificates)
        assert sorted(calls) == sorted(named)


def test_subgraph_reanalysis_is_kept_per_config(reports):
    # ROADMAP item 3's pair: union_cap=2 finds no such invariant subgraph
    g, report = reports["hybrid"]
    certs = [c for c in report.certificates if c.rule == "SubgraphPropagation"]
    assert certs
    for config, expected in ((Config(), True), (Config(union_cap=2), False), (Config(), True)):
        assert all(verify_certificate(g, c, config) is expected for c in certs), config


def test_subgraph_name_that_is_not_a_str_is_rejected(reports):
    g, report = reports["hybrid"]
    cert = cert_of(report, "SubgraphPropagation")
    for name in ([cert.witness["subgraph"]], {cert.witness["subgraph"]: 1}, 0):
        assert not verify_certificate(g, with_witness(cert, {**cert.witness, "subgraph": name}))


def test_certificates_verify_at_deeper_subgraph_recursion():
    # (graph, analyze config, verify config); the last verifies hybrid's
    # depth-1 propagation under depth 0, where the subgraph's analysis
    # runs at depth 0 too, since the depth never drops below 0
    depth = [Config(subgraph_depth=d) for d in range(3)]
    inputs = [("doubled-k4", depth[2], depth[2]), ("hybrid", depth[1], depth[0])]
    for name, analyze_config, verify_config in inputs:
        g = catalog.builtin(name)
        report = analyze(g, analyze_config)
        assert any(c.rule == "SubgraphPropagation" for c in report.certificates), name
        assert all(verify_certificate(g, c, verify_config) for c in report.certificates), name


def int_paths(value, path=()):
    """(path, value) of every int (bools excluded) inside a JSON value."""
    if type(value) is int:
        yield path, value
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from int_paths(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from int_paths(item, path + (i,))


def replace_at(value, path, new):
    if not path:
        return new
    head, rest = path[0], path[1:]
    if isinstance(value, dict):
        return {**value, head: replace_at(value[head], rest, new)}
    return [replace_at(item, rest, new) if i == head else item for i, item in enumerate(value)]


@pytest.mark.parametrize("name", TAMPER_GRAPHS)
def test_ints_written_as_floats_or_bools_are_rejected(reports, name):
    g, report = reports[name]
    tried = 0
    for cert in report.certificates:
        for like in (float(cert.divisor), bool(cert.divisor)):
            with pytest.raises(ValueError):
                Certificate(cert.rule, cert.target, cert.direction, like, cert.witness)
        for path, x in int_paths(cert.witness):
            for like in (float(x), bool(x)):
                bad = with_witness(cert, replace_at(cert.witness, path, like))
                assert not verify_certificate(g, bad), (cert.rule, path, like)
                tried += 1
    assert tried > 0


def test_loop_sign_must_be_the_int_one(reports):
    g, report = reports["k5"]
    cert = cert_of(report, "LoopSummand")
    loop = cert.witness["loop"]
    i = next(i for i, step in enumerate(loop) if step["sign"] == 1)
    for like in (1.0, True):
        bad = loop[:i] + [{**loop[i], "sign": like}] + loop[i + 1:]
        assert not verify_certificate(g, with_witness(cert, {**cert.witness, "loop": bad}))

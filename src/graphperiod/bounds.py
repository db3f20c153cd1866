"""Divisor intervals for the period and index of a graph's Brauer class,
assembled from certified divisibility rules.

Every bound carries a certificate that can be re-verified from its witness
alone.  Lower bounds on the period come from cyclic restrictions of the
obstruction cocycle and from the loop-summand rule; upper bounds come from
the genus, invariant-subgraph orbit counts, the group order, exact Sylow
computation when feasible, and propagation from invariant subgraphs.  The
report's intervals are derived from its certificate list alone
(intervals_from_certificates), so they are exactly what it proves.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field, replace

from . import cohomology, homology
from .autgroup import (
    GraphAutomorphism,
    automorphism_group,
    from_combined,
    from_json_dict,
)
from .cohomology import Unknown
from .config import Config
from .homology import (
    Chain,
    CycleLattice,
    boundary,
    chain_action,
    expand_orbit_sum,
    orbit_sum_coefficients,
    tree_path,
)
from .intlinalg import axpy
from .multigraph import GraphError, Multigraph, genus
from .permgroup import SylowGrowthStalled, cyclic_subgroups, orbits

# Every certificate rule, with the targets it bounds and its direction.
RULES = {
    "GenusIndex": (("index",), "upper"),
    "OrbitSubgraph": (("index",), "upper"),
    "AutOrder": (("period",), "upper"),
    "LoopSummand": (("period",), "lower"),
    "CyclicRestriction": (("period",), "lower"),
    "SylowExact": (("period",), "lower"),
    "SubgraphPropagation": (("period", "index"), "upper"),
    "PeriodDividesIndex": (("index",), "lower"),
}


class SoundnessError(AssertionError):
    """A produced bound violated lower | upper; this is a bug, never a result."""


class NotAClosedChain(ValueError):
    pass


@dataclass(frozen=True)
class NotApplicable:
    """A rule's hypotheses failed; carries the failed hypothesis."""

    reason: str


@dataclass
class DivisorInterval:
    """lower: an lcm of proven divisors of the quantity; upper: a gcd of
    proven (quantity divides ...) constraints."""

    lower: int = 1
    upper: int = 0  # 0 = no constraint yet (gcd identity)

    @property
    def resolved(self) -> bool:
        return self.upper != 0 and self.lower == self.upper

    def add_lower(self, d: int):
        self.lower = math.lcm(self.lower, d)

    def add_upper(self, d: int):
        self.upper = math.gcd(self.upper, d)

    def to_json_dict(self) -> dict:
        return {
            "lower": _json_int(self.lower),
            "upper": _json_int(self.upper),
            "resolved": self.resolved,
        }


@dataclass(frozen=True)
class Certificate:
    rule: str
    target: str      # "period" | "index"
    direction: str   # "lower" | "upper"
    divisor: int
    witness: dict

    def __post_init__(self):
        if self.rule not in RULES:
            raise ValueError(f"unknown certificate rule {self.rule!r}")
        if self.target not in ("period", "index") or self.direction not in ("lower", "upper"):
            raise ValueError("bad certificate target/direction")
        if type(self.divisor) is not int or self.divisor < 1:
            raise ValueError("certificate divisor must be a positive int")

    def to_json_dict(self) -> dict:
        return {
            "rule": self.rule,
            "target": self.target,
            "direction": self.direction,
            "divisor": _json_int(self.divisor),
            "witness": self.witness,
        }


@dataclass
class BoundsReport:
    """One graph's analysis; its intervals are derived from its certificates."""

    graph: Multigraph
    genus: int
    aut_order: int
    certificates: list[Certificate]
    status: list[str] = field(default_factory=list)

    @property
    def period(self) -> DivisorInterval:
        return intervals_from_certificates(self.certificates)[0]

    @property
    def index(self) -> DivisorInterval:
        return intervals_from_certificates(self.certificates)[1]

    def to_json_dict(self) -> dict:
        certs = sorted(self.certificates, key=lambda c: (c.rule, c.divisor))
        return {
            "graph": self.graph.name,
            "genus": self.genus,
            "aut_order": str(self.aut_order),
            "period": self.period.to_json_dict(),
            "index": self.index.to_json_dict(),
            "certificates": [c.to_json_dict() for c in certs],
            "status": list(self.status),
        }


def _certificate(
    rule: str, divisor: int, witness: dict, target: str | None = None
) -> Certificate:
    """The rule's certificate, with the direction RULES gives it and its
    target: the only one, or the one given for SubgraphPropagation.  Every
    certificate is made here, through one builder per rule, which both
    analyze and verify_certificate call."""
    targets, direction = RULES[rule]
    return Certificate(rule, target or targets[0], direction, divisor, witness)


def _json_int(x: int):
    # JSON numbers round-trip exactly only inside the double mantissa;
    # larger values are emitted as decimal strings.
    return x if abs(x) <= 2**53 else str(x)


# --- loops -----------------------------------------------------------------


def chain_from_vertex_cycle(g: Multigraph, vertex_ids: list[str]) -> Chain:
    """The loop through the given vertices in order, taking the smallest-id
    edge between consecutive ones."""
    vi = g.vertex_index
    chain: Chain = {}
    for a, b in zip(vertex_ids, vertex_ids[1:] + vertex_ids[:1]):
        ia, ib = vi[a], vi[b]
        ks = g.parallel_classes.get((min(ia, ib), max(ia, ib)))
        if not ks:
            raise ValueError(f"no edge between {a!r} and {b!r}")
        k = ks[0]
        t, _ = g.edge_ends_idx[k]
        chain = axpy(chain, {k: 1 if t == ia else -1})
    return chain


def _loop_steps(g: Multigraph, chain: Chain) -> list[tuple[int, int]] | None:
    """If the chain is a simple closed cycle, its traversal as a list of
    (vertex, outgoing edge) steps following the chain's orientation;
    otherwise None."""
    if any(abs(x) != 1 for x in chain.values()):
        return None
    out_edge: dict[int, int] = {}
    for k, sign in chain.items():
        t, h = g.edge_ends_idx[k]
        start = t if sign == 1 else h
        if start in out_edge:
            return None
        out_edge[start] = k
    if not out_edge:
        return None
    # the walk stops where it first comes back to its start, so a disjoint
    # union of cycles leaves edges unvisited and fails the length check
    first = min(out_edge)
    steps = []
    v = first
    for _ in range(len(out_edge)):
        k = out_edge.get(v)
        if k is None:
            return None
        steps.append((v, k))
        v = g.other_end(k, v)
        if v == first:
            break
    if v != first or len(steps) != len(chain):
        return None
    return steps


def period_lower_loop_summand(
    lattice: CycleLattice, sigma: GraphAutomorphism, loop: Chain
) -> int | NotApplicable:
    """order(sigma) divides the period when all hypotheses hold: the loop is
    a simple cycle, its class is fixed by sigma, it is tiled by the sigma
    translates of a segment from some vertex v to sigma(v), and its class
    generates a direct summand of the lattice as a module over <sigma>.

    Every step is read off the walk _loop_steps makes.  A walk that closes
    after using every edge once has zero boundary, so the walk needs no
    boundary; it is computed when the walk fails, to tell a chain that is
    not closed (NotAClosedChain) from a cycle that is not simple, and again
    by lattice.coordinates for a loop that reaches the summand test.  Once
    sigma fixes the loop, it maps each step v -> w to the step sigma(v) ->
    sigma(w) of the same walk, so it shifts every step by one constant
    span, the position of sigma(v) for the walk's first vertex v.  The
    m = |sigma| translates of the segment from v to sigma(v) then cover the
    loop exactly once, that is N . segment == loop, iff span * m is the
    loop's length; any other vertex as v gives the same span."""
    g = lattice.graph
    steps = _loop_steps(g, loop)
    if steps is None:
        if boundary(g, loop):
            raise NotAClosedChain("the chain has nonzero boundary")
        return NotApplicable("loop is not a simple cycle")
    m = sigma.order()
    if chain_action(sigma, loop) != loop:
        return NotApplicable("loop class is not fixed by the automorphism")
    if m == 1:
        return 1
    positions = {v: i for i, (v, _) in enumerate(steps)}
    if positions[sigma.vperm[steps[0][0]]] * m != len(steps):
        return NotApplicable("loop is not tiled by translates of a v -> sigma(v) segment")
    coords = lattice.coordinates(loop)
    if not homology.coinvariant_primitive(lattice, sigma, coords):
        return NotApplicable("loop class does not generate a direct summand")
    return m


# --- orbit-based index divisors --------------------------------------------


def _edge_orbits(g: Multigraph) -> list[list[int]]:
    group = automorphism_group(g)
    nv = len(g.vertices)
    raw = orbits(group.degree, list(group.generators), list(range(nv, group.degree)))
    return [[k - nv for k in orbit] for orbit in raw]


def _vertex_orbits(g: Multigraph) -> list[list[int]]:
    group = automorphism_group(g)
    return orbits(group.degree, list(group.generators), list(range(len(g.vertices))))


def _incident_vertices(g: Multigraph, edge_set: list[int]) -> set[int]:
    out = set()
    for k in edge_set:
        t, h = g.edge_ends_idx[k]
        out.add(t)
        out.add(h)
    return out


def _union_edges(eorbits: list[list[int]], combo) -> list[int]:
    return [k for i in combo for k in eorbits[i]]


def _orbit_unions(
    eorbits: list[list[int]], union_cap: int
) -> list[tuple[tuple[int, ...], list[int]]] | None:
    """Every nonempty union of edge orbits as (orbit indices, edge
    indices), smallest first; None when the 2^#orbits unions exceed the
    cap."""
    if 2 ** len(eorbits) > union_cap:
        return None
    return [
        (combo, _union_edges(eorbits, combo))
        for r in range(1, len(eorbits) + 1)
        for combo in itertools.combinations(range(len(eorbits)), r)
    ]


def _genus_cert(g: Multigraph) -> Certificate:
    gen = genus(g)
    return _certificate("GenusIndex", gen - 1, {"genus": gen})


def _orbit_certs(
    g: Multigraph, eorbits: list[list[int]], vorbits: list[list[int]]
) -> list[Certificate]:
    """The OrbitSubgraph certificate of every edge orbit (its size) and
    every vertex orbit (twice its size)."""
    return [
        _certificate(
            "OrbitSubgraph",
            len(orbit),
            {"kind": "edge-orbit", "edges": [g.edges[k].id for k in orbit]},
        )
        for orbit in eorbits
    ] + [
        _certificate(
            "OrbitSubgraph",
            2 * len(orbit),
            {"kind": "vertex-orbit-doubled", "vertices": [g.vertices[v] for v in orbit]},
        )
        for orbit in vorbits
    ]


def _orbit_union_certs(g: Multigraph, combo, edges: list[int]) -> list[Certificate]:
    """The two OrbitSubgraph certificates of one nonempty union of edge
    orbits: its edge count and twice its vertex count."""
    counts = {
        "orbits": list(combo),
        "edge_count": len(edges),
        "vertex_count": len(_incident_vertices(g, edges)),
    }
    return [
        _certificate("OrbitSubgraph", divisor, {"kind": kind, **counts})
        for kind, divisor in (
            ("orbit-union-edges", counts["edge_count"]),
            ("orbit-union-vertices", 2 * counts["vertex_count"]),
        )
    ]


def index_upper_divisors(
    g: Multigraph, config: Config = Config()
) -> tuple[list[Certificate], list[str]]:
    """Certified divisors of the index: g-1, each edge-orbit size, twice
    each vertex-orbit size, and edge count / twice vertex count of every
    union of edge orbits (an invariant subgraph), enumerated while
    2^#orbits stays within config.union_cap.  Orbit certificates are kept
    once per (kind, divisor)."""
    eorbits = _edge_orbits(g)
    candidates = _orbit_certs(g, eorbits, _vertex_orbits(g))
    status = []
    unions = _orbit_unions(eorbits, config.union_cap)
    if unions is None:
        status.append(
            f"orbit unions not enumerated (2^{len(eorbits)} exceeds cap {config.union_cap})"
        )
    for combo, edges in unions or []:
        candidates += _orbit_union_certs(g, combo, edges)
    kept: dict[tuple[str, int], Certificate] = {}
    for cert in candidates:
        kept.setdefault((cert.witness["kind"], cert.divisor), cert)
    return [_genus_cert(g), *kept.values()], status


# --- invariant subgraphs -----------------------------------------------------


def invariant_subgraphs(g: Multigraph, config: Config = Config()) -> list[Multigraph]:
    """Proper invariant subgraphs (unions of edge orbits with their incident
    vertices) that are connected and keep every vertex at degree >= 4, the
    shape required for propagating bounds from a subgraph; none when the
    orbit unions exceed config.union_cap."""
    out = []
    for combo, edges in _orbit_unions(_edge_orbits(g), config.union_cap) or []:
        if len(edges) == len(g.edges):
            continue
        edges = sorted(edges)
        vset = _incident_vertices(g, edges)
        degree = {v: 0 for v in vset}
        for k in edges:
            t, h = g.edge_ends_idx[k]
            degree[t] += 1
            degree[h] += 1
        if any(d < 4 for d in degree.values()):
            continue
        try:
            sub = Multigraph(
                name=f"{g.name}/sub-{'-'.join(str(i) for i in combo)}",
                vertices=tuple(v for i, v in enumerate(g.vertices) if i in vset),
                edges=tuple(g.edges[k] for k in edges),
            )
        except GraphError:
            continue
        out.append(sub)
    return out


def _subgraph_config(config: Config) -> Config:
    """The config an invariant subgraph is analyzed under: one level less
    recursion, never below 0."""
    return replace(config, subgraph_depth=max(config.subgraph_depth - 1, 0))


def propagate_subgraph(g: Multigraph, config: Config) -> tuple[list[Certificate], list[str]]:
    """Analyze every admissible invariant subgraph standalone; the ambient
    class is the image of the subgraph's class, so the ambient period and
    index divide the subgraph's established upper bounds."""
    certs = []
    status = []
    sub_config = _subgraph_config(config)
    for sub in invariant_subgraphs(g, config):
        report = analyze(sub, sub_config)
        for target, interval in (("period", report.period), ("index", report.index)):
            if interval.upper:
                certs.append(_propagation_cert(sub, target, interval.upper))
        if report.status:
            status.extend(f"{sub.name}: {s}" for s in report.status)
    return certs, status


def _propagation_cert(sub: Multigraph, target: str, upper: int) -> Certificate:
    witness = {
        "subgraph": sub.name,
        "edges": [e.id for e in sub.edges],
        "subgraph_bound": _json_int(upper),
    }
    return _certificate("SubgraphPropagation", upper, witness, target)


# --- scanning ----------------------------------------------------------------


def _scan_loops_for_sigma(lattice: CycleLattice, sigma: GraphAutomorphism, m: int):
    """Candidate loops for the loop-summand rule, sigma of order m > 1,
    yielded one at a time: the tree path (a shortest path) from the least
    vertex v of each moved vertex orbit to sigma(v) summed over translates,
    then the orbit sum of each fundamental cycle, followed by the cycle
    itself when sigma fixes it.  Nothing is deduplicated: a chain that
    repeats, or repeats negated, is yielded again, and so is an empty one.

    An orbit sum is expanded to a chain only when each of its edge-cycle
    coefficients is +-1: the edge cycles are disjoint, so any other
    coefficient is the entry of an edge, and the rule answers "loop is not
    a simple cycle" for a closed chain with such an entry."""
    g = lattice.graph
    nv = len(g.vertices)

    def orbit_sums(chain: Chain):
        coefficients = orbit_sum_coefficients(sigma, m, chain)
        if all(x == 1 or x == -1 for x in coefficients.values()):
            yield expand_orbit_sum(sigma, coefficients)

    moved = [v for v in range(nv) if sigma.vperm[v] != v]
    for orbit in orbits(nv, [sigma.vperm], moved):
        yield from orbit_sums(tree_path(g, orbit[0], sigma.vperm[orbit[0]]))
    for z in lattice.basis:
        yield from orbit_sums(z)
        if chain_action(sigma, z) == z:
            yield z


def _cyclic_scan(
    lattice: CycleLattice, config: Config, certs: list[Certificate], status: list[str]
):
    """Walk cyclic subgroups (largest order first), collecting cyclic
    restriction orders and loop-summand certificates.  After scan_quota
    subgroups the scan stops early once both intervals that certs prove
    are resolved.  Certificates are kept once per (rule, divisor), so a
    test that could only yield a held divisor is skipped; a skipped sigma
    still counts as processed.

    The cyclic restriction of sigma is skipped when a CyclicRestriction
    certificate is held for every divisor d > 1 of its order: the
    restricted class order divides |<sigma>|, so it is 1 or one of those d.

    The loop rule certifies exactly m = |sigma|.  Its search for sigma is
    skipped when a LoopSummand certificate for m is held, and when the
    restriction was computed and is not m; it stops at the first loop that
    certifies.  A loop certifies only where the restriction is m: say the
    rule fires on L = N.s, where N = 1 + sigma + ... + sigma^(m-1), s is a
    path from v to sigma(v), and phi is an invariant functional with
    phi(L) = 1.  Let P be the tree path from the base point to its image
    and q one from the base point to v.  Then N.P - L is N of the cycle
    P - s - q + sigma(q), so it lies in N.M, and the restricted order n,
    the least n with n.(N.P) in N.M, has n.L = N.y for some y in M.  So
    n = phi(N.y) = m.phi(y), m | n, and n | m."""
    g = lattice.graph
    pairs, complete = cyclic_subgroups(automorphism_group(g), config)
    if not complete:
        status.append(
            "cyclic-subgroup scan incomplete: |Aut| exceeds the enumeration cap; "
            f"sampled {len(pairs)} subgroups from seeded generator words"
        )
    pairs = sorted(pairs, key=lambda t: (-t[1], t[0]))
    seen: set[tuple[str, int]] = set()

    def push(cert: Certificate):
        key = (cert.rule, cert.divisor)
        if key not in seen:
            seen.add(key)
            certs.append(cert)

    processed = 0
    for perm, order in pairs:
        if order == 1:
            continue
        if processed >= config.scan_quota and all(
            interval.resolved for interval in intervals_from_certificates(certs)
        ):
            break
        processed += 1
        sigma = from_combined(g, perm)
        held = all(
            ("CyclicRestriction", d) in seen for d in range(2, order + 1) if order % d == 0
        )
        if not held:
            n = cohomology.class_order_cyclic(lattice, sigma)
            if n > 1:
                push(_cyclic_cert(sigma, order, n))
            if n != order:
                continue
        if ("LoopSummand", order) in seen:
            continue
        for loop in _scan_loops_for_sigma(lattice, sigma, order):
            result = period_lower_loop_summand(lattice, sigma, loop)
            if isinstance(result, NotApplicable):
                continue
            push(_loop_cert(g, sigma, loop, result))
            break


def _cyclic_cert(sigma: GraphAutomorphism, order: int, n: int) -> Certificate:
    witness = {
        "automorphism": sigma.to_json_dict(),
        "element_order": order,
        "restricted_class_order": n,
    }
    return _certificate("CyclicRestriction", n, witness)


def _loop_cert(g: Multigraph, sigma: GraphAutomorphism, loop: Chain, m: int) -> Certificate:
    steps = sorted(loop.items(), key=lambda t: g.edges[t[0]].id)
    witness = {
        "automorphism": sigma.to_json_dict(),
        "loop": [{"edge": g.edges[k].id, "sign": sign} for k, sign in steps],
    }
    return _certificate("LoopSummand", m, witness)


# --- the pipeline -------------------------------------------------------------


def analyze(g: Multigraph, config: Config = Config()) -> BoundsReport:
    """Full analysis of one graph: structural divisors, subgraph
    propagation, exact Sylow order when feasible, then the cyclic /
    loop-summand scan.  Always returns a report; caps only widen the
    interval and leave a status note.  Both intervals are the ones the
    certificates prove (intervals_from_certificates)."""
    aut_order = automorphism_group(g).order()
    lattice = homology.fundamental_cycle_basis(g)

    certs = [_aut_order_cert(aut_order)]
    status: list[str] = []

    orbit_certs, orbit_status = index_upper_divisors(g, config)
    certs.extend(orbit_certs)
    status.extend(orbit_status)

    if config.subgraph_depth > 0:
        sub_certs, sub_status = propagate_subgraph(g, config)
        certs.extend(sub_certs)
        status.extend(sub_status)

    try:
        exact = cohomology.class_order_exact(lattice, config)
    except SylowGrowthStalled as stalled:
        status.append(f"exact class order not computed: {stalled}")
    else:
        if isinstance(exact, Unknown):
            status.append(
                "exact class order not computed: "
                f"|Aut| = {exact.upper} against enumeration cap {config.max_enum} "
                f"or a Sylow subgroup above bar cap {config.bar_cap}"
            )
        else:
            certs.append(_sylow_cert(*exact))

    _cyclic_scan(lattice, config, certs, status)

    certs.append(_period_lower_cert(intervals_from_certificates(certs)[0].lower))
    return BoundsReport(
        graph=g, genus=genus(g), aut_order=aut_order, certificates=certs, status=status
    )


def intervals_from_certificates(
    certs: list[Certificate],
) -> tuple[DivisorInterval, DivisorInterval]:
    """The (period, index) intervals that certs prove.

    Each certificate bounds its target in its direction.  SylowExact is the
    exact class order, so it also bounds the period from above.  Then the
    period divides the index: the period takes the index's upper bound and
    the index takes the period's lower bound.  A lower bound that does not
    divide its upper bound raises SoundnessError; as period.lower divides
    index.lower, that covers period.lower | index.upper too."""
    period, index = DivisorInterval(), DivisorInterval()
    for cert in certs:
        interval = period if cert.target == "period" else index
        if cert.direction == "lower":
            interval.add_lower(cert.divisor)
        else:
            interval.add_upper(cert.divisor)
        if cert.rule == "SylowExact":
            period.add_upper(cert.divisor)
    period.add_upper(index.upper)
    index.add_lower(period.lower)
    for what, interval in (("period", period), ("index", index)):
        if interval.upper % interval.lower:
            raise SoundnessError(
                f"{what}: lower bound {interval.lower} does not divide upper {interval.upper}"
            )
    return period, index


def _aut_order_cert(aut_order: int) -> Certificate:
    return _certificate("AutOrder", aut_order, {"aut_order": str(aut_order)})


def _sylow_cert(n: int, parts: list[cohomology.SylowOrder]) -> Certificate:
    witness = {
        "class_order": n,
        "sylow_parts": [
            {
                "prime": p.prime,
                "subgroup_order": p.subgroup_order,
                "class_order": p.class_order,
            }
            for p in parts
        ],
    }
    return _certificate("SylowExact", n, witness)


def _period_lower_cert(lower: int) -> Certificate:
    return _certificate("PeriodDividesIndex", lower, {"period_lower": _json_int(lower)})


# --- certificate re-verification ----------------------------------------------


def verify_certificate(g: Multigraph, cert: Certificate, config: Config = Config()) -> bool:
    """Re-check a certificate against g from its witness alone.

    The witness names what the rule starts from (an automorphism, a loop, a
    union of edge orbits, a subgraph); the rule is recomputed on it and its
    certificate rebuilt with the builder analyze uses.  The certificate
    verifies only if it equals that rebuilt one in every field (rule,
    target, direction, divisor, witness), the witness compared as JSON,
    types included (5.0 or true is not the int 5 or 1; see _same_json).
    The rules that need Aut(g) get it from automorphism_group, which builds
    it once per graph object, so all certificates of a report checked
    against the same g share one group, and a fresh parse of the graph
    builds it anew.  A witness that does not decode against g (an unknown
    id, a map that is not an automorphism, a chain that is not closed, a
    missing or mistyped field) verifies False.  SoundnessError propagates.
    """
    if not isinstance(cert.witness, dict):
        return False
    try:
        rebuilt = _rebuild(g, cert, config)
    except NotAClosedChain:
        return False
    return any(cert == other and _same_json(cert.witness, other.witness) for other in rebuilt)


def _rebuild(g: Multigraph, cert: Certificate, config: Config) -> list[Certificate]:
    """The certificates of cert's rule that g gives for the inputs its
    witness names: one, or every orbit certificate of g, or none when the
    witness does not decode or the rule does not apply."""
    rule, w = cert.rule, cert.witness
    if rule == "GenusIndex":
        return [_genus_cert(g)]
    if rule == "AutOrder":
        return [_aut_order_cert(automorphism_group(g).order())]
    if rule == "PeriodDividesIndex":
        return [_period_lower_cert(cert.divisor)]
    if rule == "OrbitSubgraph":
        eorbits = _edge_orbits(g)
        if w.get("kind") not in ("orbit-union-edges", "orbit-union-vertices"):
            return _orbit_certs(g, eorbits, _vertex_orbits(g))
        combo = w.get("orbits")
        if not (
            isinstance(combo, list)
            and combo
            and all(type(i) is int and 0 <= i < len(eorbits) for i in combo)
            and combo == sorted(set(combo))
        ):
            return []
        return _orbit_union_certs(g, combo, _union_edges(eorbits, combo))
    if rule == "SylowExact":
        try:
            exact = cohomology.class_order_exact(homology.fundamental_cycle_basis(g), config)
        except SylowGrowthStalled:
            return []
        return [] if isinstance(exact, Unknown) else [_sylow_cert(*exact)]
    if rule == "SubgraphPropagation":
        for sub in invariant_subgraphs(g, config):
            if sub.name == w.get("subgraph"):
                report = analyze(sub, _subgraph_config(config))
                upper = (report.period if cert.target == "period" else report.index).upper
                return [_propagation_cert(sub, cert.target, upper)] if upper else []
        return []
    try:
        sigma = from_json_dict(g, w.get("automorphism"))
    except ValueError:
        return []
    if rule == "CyclicRestriction":
        lattice = homology.fundamental_cycle_basis(g)
        return [_cyclic_cert(sigma, sigma.order(), cohomology.class_order_cyclic(lattice, sigma))]
    try:  # LoopSummand
        loop: Chain = {g.edge_index[item["edge"]]: item["sign"] for item in w["loop"]}
    except (KeyError, TypeError):
        return []
    if any(type(sign) is not int or sign not in (1, -1) for sign in loop.values()):
        return []
    m = period_lower_loop_summand(homology.fundamental_cycle_basis(g), sigma, loop)
    return [] if isinstance(m, NotApplicable) else [_loop_cert(g, sigma, loop, m)]


def _same_json(a, b) -> bool:
    """Equal as JSON, types included: 1, 1.0 and true are three values."""
    return a == b and json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

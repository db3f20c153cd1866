"""Spans around graphperiod's pipeline stages, installed from outside the
library.

Each wrapped call records one span: name, phase ("analyze" or "verify", set
by the caller), start, end, parent span and an optional value taken from the
call's arguments or result.  A function that another module bound with
``from X import f`` is replaced in every graphperiod module holding it, so
calls through either name are traced; install() returns what it replaced and
uninstall() puts every original back.  chain_action is deliberately not
wrapped: it runs about two million times per soccer-doubled analysis.
"""

from __future__ import annotations

import sys
import time

PACKAGE = "graphperiod"

# Certificate rules at the time the benchmark was defined; each gets a
# bounds.verify_s.<Rule> metric, 0 where the workload has none.
RULES = (
    "GenusIndex",
    "OrbitSubgraph",
    "AutOrder",
    "LoopSummand",
    "CyclicRestriction",
    "SylowExact",
    "SubgraphPropagation",
    "PeriodDividesIndex",
)


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _entries(matrix) -> int:
    return len(matrix) * (len(matrix[0]) if matrix else 0)


# (module, attribute, span name or name(args, kwargs), value(args, kwargs, result) or None)
WRAPS = (
    ("autgroup", "automorphism_generators", "autgroup.search", None),
    ("autgroup", "automorphism_group", "autgroup.group_build", None),
    ("permgroup", "PermutationGroup.enumerate_elements", "permgroup.enumerate",
     lambda a, k, r: len(r) if isinstance(r, list) else 0),
    ("permgroup", "cyclic_subgroups", "permgroup.cyclic_subgroups",
     lambda a, k, r: len(r[0])),
    ("permgroup", "sylow_subgroup", "permgroup.sylow", None),
    ("homology", "fundamental_cycle_basis", "homology.cycle_basis", None),
    ("homology", "coinvariant_primitive", "homology.coinvariant_primitive", None),
    ("intlinalg", "smith_normal_form", "intlinalg.snf",
     lambda a, k, r: _entries(_arg(a, k, 0, "a"))),
    ("intlinalg", "minimal_multiple_in_image", "intlinalg.image_solve",
     lambda a, k, r: _entries(_arg(a, k, 0, "d"))),
    ("intlinalg", "LatticeSolver.contains", "intlinalg.lattice_contains", None),
    ("cohomology", "class_order_cyclic", "cohomology.cyclic_order",
     lambda a, k, r: int(r > 1)),
    ("cohomology", "restrict", "cohomology.restrict", None),
    ("cohomology", "class_order_bar", "cohomology.bar",
     lambda a, k, r: _arg(a, k, 0, "table").size if isinstance(r, int) else 0),
    ("cohomology", "class_order_exact", "cohomology.exact", None),
    ("bounds", "period_lower_loop_summand", "bounds.loop_summand",
     lambda a, k, r: int(type(r) is int and r > 1)),
    ("bounds", "index_upper_divisors", "bounds.orbit_divisors", None),
    ("bounds", "propagate_subgraph", "bounds.propagate", None),
    ("bounds", "analyze", "bounds.analyze", None),
    ("bounds", "verify_certificate",
     lambda a, k: "bounds.verify." + _arg(a, k, 1, "cert").rule, None),
)


class Span:
    __slots__ = ("name", "phase", "start", "end", "parent", "outermost", "value")

    def __init__(self, name, phase, parent, outermost):
        self.name = name
        self.phase = phase
        self.parent = parent
        self.outermost = outermost
        self.value = None
        self.end = 0.0
        self.start = time.perf_counter()


class Tracer:
    """Spans kept in memory; the caller sets .phase before each stage."""

    def __init__(self):
        self.phase = "analyze"
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._open: dict[str, int] = {}

    def call(self, name, fn, value, args, kwargs):
        if callable(name):
            name = name(args, kwargs)
        parent = self._stack[-1] if self._stack else None
        outermost = not self._open.get(name)
        self._open[name] = self._open.get(name, 0) + 1
        span = Span(name, self.phase, parent, outermost)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            self._open[name] -= 1
        if value is not None:
            span.value = value(args, kwargs, result)
        return result


def _wrapper(tracer: Tracer, name, fn, value):
    def traced(*args, **kwargs):
        return tracer.call(name, fn, value, args, kwargs)

    return traced


def install(tracer: Tracer):
    """Wrap every WRAPS target; returns (replacements, missing targets)."""
    modules = [
        m for n, m in list(sys.modules.items())
        if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
    ]
    replaced, missing = [], []
    for module_name, attr, name, value in WRAPS:
        owner = sys.modules.get(f"{PACKAGE}.{module_name}")
        cls_name, _, leaf = attr.rpartition(".")
        if owner is not None and cls_name:
            owner = getattr(owner, cls_name, None)
        original = vars(owner).get(leaf) if owner is not None else None
        if original is None:
            missing.append(f"{module_name}.{attr}")
            continue
        wrapper = _wrapper(tracer, name, original, value)
        for target in [owner] if cls_name else modules:
            for key, obj in list(vars(target).items()):
                if obj is original:
                    setattr(target, key, wrapper)
                    replaced.append((target, key, original))
    return replaced, missing


def uninstall(replaced) -> list[str]:
    """Put every original back; returns the names that are still wrapped."""
    for target, key, original in reversed(replaced):
        setattr(target, key, original)
    return [
        f"{getattr(target, '__name__', target)}.{key}"
        for target, key, original in replaced
        if vars(target).get(key) is not original
    ]


class Row:
    __slots__ = ("calls", "total_s", "self_s", "value_sum", "value_max")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0  # outermost spans only, so recursion is not double counted
        self.self_s = 0.0
        self.value_sum = 0
        self.value_max = 0


def table(spans: list[Span]) -> dict[tuple[str, str], Row]:
    """(phase, span name) -> calls, inclusive and self time, value sum and max."""
    child_s = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_s[s.parent] += s.end - s.start
    rows: dict[tuple[str, str], Row] = {}
    for i, s in enumerate(spans):
        row = rows.setdefault((s.phase, s.name), Row())
        duration = s.end - s.start
        row.calls += 1
        if s.outermost:
            row.total_s += duration
        row.self_s += duration - child_s[i]
        if s.value is not None:
            row.value_sum += s.value
            row.value_max = max(row.value_max, s.value)
    return rows


def layer_metrics(spans: list[Span]) -> dict[str, int | float]:
    """Per-layer metrics over both phases; "_s" values are inclusive
    seconds except permgroup.schreier_sims_s, the self time of the group
    build around the automorphism search."""
    rows = table(spans)

    def total(name: str, field: str):
        values = [getattr(r, field) for (_, n), r in rows.items() if n == name]
        if field == "value_max":
            return max(values, default=0)
        return sum(values, 0.0 if field.endswith("_s") else 0)

    cyclic_calls = total("cohomology.cyclic_order", "calls")
    loop_tests = total("bounds.loop_summand", "calls")
    loop_certified = total("bounds.loop_summand", "value_sum")
    metrics = {
        "autgroup.search_s": total("autgroup.search", "total_s"),
        "autgroup.search_calls": total("autgroup.search", "calls"),
        "autgroup.group_builds": total("autgroup.group_build", "calls"),
        "permgroup.schreier_sims_s": total("autgroup.group_build", "self_s"),
        "permgroup.enumerate_s": total("permgroup.enumerate", "total_s"),
        "permgroup.elements_enumerated": total("permgroup.enumerate", "value_sum"),
        "permgroup.cyclic_subgroups_s": total("permgroup.cyclic_subgroups", "total_s"),
        "permgroup.cyclic_subgroups_found": total("permgroup.cyclic_subgroups", "value_sum"),
        "permgroup.sylow_s": total("permgroup.sylow", "total_s"),
        "homology.cycle_basis_calls": total("homology.cycle_basis", "calls"),
        "homology.cycle_basis_s": total("homology.cycle_basis", "total_s"),
        "homology.coinvariant_primitive_calls": total("homology.coinvariant_primitive", "calls"),
        "homology.coinvariant_primitive_s": total("homology.coinvariant_primitive", "total_s"),
        "intlinalg.snf_calls": total("intlinalg.snf", "calls"),
        "intlinalg.snf_s": total("intlinalg.snf", "total_s"),
        "intlinalg.snf_entries": total("intlinalg.snf", "value_sum"),
        "intlinalg.image_solve_s": total("intlinalg.image_solve", "total_s"),
        "intlinalg.image_solve_entries": total("intlinalg.image_solve", "value_sum"),
        "intlinalg.lattice_contains_calls": total("intlinalg.lattice_contains", "calls"),
        "cohomology.cyclic_order_calls": cyclic_calls,
        "cohomology.cyclic_order_s": total("cohomology.cyclic_order", "total_s"),
        "cohomology.cyclic_nontrivial_ratio":
            total("cohomology.cyclic_order", "value_sum") / cyclic_calls if cyclic_calls else 0.0,
        "cohomology.restrict_s": total("cohomology.restrict", "total_s"),
        "cohomology.bar_s": total("cohomology.bar", "total_s"),
        "cohomology.bar_max_group": total("cohomology.bar", "value_max"),
        "cohomology.exact_s": total("cohomology.exact", "total_s"),
        "bounds.loop_tests": loop_tests,
        "bounds.loop_certified": loop_certified,
        "bounds.loop_yield": loop_certified / loop_tests if loop_tests else 0.0,
        "bounds.orbit_divisors_s": total("bounds.orbit_divisors", "total_s"),
        "bounds.propagate_s": total("bounds.propagate", "total_s"),
        "bounds.subgraphs_analyzed": sum(
            1 for s in spans if s.name == "bounds.analyze" and s.parent is not None
        ),
    }
    for rule in RULES:
        metrics[f"bounds.verify_s.{rule}"] = total(f"bounds.verify.{rule}", "total_s")
    return metrics


def unit(metric: str) -> str:
    if metric.endswith("_s") or ".verify_s." in metric:
        return "s"
    if metric.endswith(("_ratio", "_yield")):
        return "ratio"
    return "count"


def counts(spans: list[Span]) -> dict:
    """Everything in a trace that must repeat exactly on a second run:
    per-phase calls and values of every span name, and the count metrics."""
    rows = table(spans)
    out = {f"{phase}:{name}": (r.calls, r.value_sum, r.value_max) for (phase, name), r in rows.items()}
    out.update(
        (name, value) for name, value in layer_metrics(spans).items() if unit(name) == "count"
    )
    return out

import math

from graphperiod import cohomology, homology, oracle
from graphperiod.permgroup import cycle_lengths


def test_suites_pass_default_seed():
    for name, fn in oracle.SUITES.items():
        assert fn(0) == [], name


def test_seed_changes_instances_not_verdict():
    assert oracle.suite_cyclic_vs_bar(7, instances=12) == []


def test_random_multigraph_valid():
    from random import Random

    from graphperiod.multigraph import genus

    rng = Random(13)
    for _ in range(30):
        g = oracle.random_multigraph(rng)
        assert genus(g) >= 1
        assert all(g.degree(v) >= 3 for v in g.vertices)


def test_injected_sign_fault_is_caught(monkeypatch):
    """Flipping the orientation sign in the chain action must break the
    cyclic-vs-bar equivalence on some instance."""
    original = homology.chain_action

    def faulty(sigma, chain):
        out = {}
        for k, x in chain.items():
            out[sigma.eperm[k]] = x  # drops the orientation sign
        return out

    monkeypatch.setattr(homology, "chain_action", faulty)
    failures = []
    try:
        failures = oracle.suite_cyclic_vs_bar(0, instances=8)
    except Exception:
        failures = ["crashed, which also counts as detection"]
    finally:
        monkeypatch.setattr(homology, "chain_action", original)
    assert failures, "the oracle suite must detect a sign fault"


def test_injected_vertex_only_cyclic_order_is_caught(monkeypatch):
    """The gcd of sigma's vertex cycle lengths alone, without its edge
    cycles, must break the cyclic-vs-bar equivalence on some instance.
    The vertex points of sigma's combined permutation come first, as many
    as the suite's current graph has vertices."""
    graphs = []
    real_random_multigraph = oracle.random_multigraph

    def recording_random_multigraph(rng):
        graphs.append(real_random_multigraph(rng))
        return graphs[-1]

    def vertex_only(combined):
        return math.gcd(*cycle_lengths(combined[: len(graphs[-1].vertices)]))

    monkeypatch.setattr(oracle, "random_multigraph", recording_random_multigraph)
    monkeypatch.setattr(cohomology, "class_order_cyclic", vertex_only)
    assert oracle.suite_cyclic_vs_bar(0, instances=20)


def _presentation_fault_failures(monkeypatch, name, faulty) -> list[str]:
    monkeypatch.setattr(cohomology, name, faulty)
    return oracle.suite_presentation_vs_bar(0, instances=30, max_order=16)


def test_injected_fox_sign_fault_is_caught(monkeypatch):
    """Adding A_{xh,y} instead of subtracting it in a relator's Jacobian
    rows, with its tail left alone, must break the presentation-vs-bar
    equivalence on some instance."""
    original = cohomology._cayley_step

    def faulty(action, x, w_h, value, w_xh=None):
        if w_xh is not None:
            w_xh = [[-v for v in row[:-1]] + row[-1:] for row in w_xh]
        return original(action, x, w_h, value, w_xh)

    assert _presentation_fault_failures(monkeypatch, "_cayley_step", faulty)


def test_injected_dropped_relator_is_caught(monkeypatch):
    """A presentation missing its first relator must break the
    presentation-vs-bar equivalence on some instance: on a cyclic subgroup
    it loses its only relator, x^m = 1."""
    original = cohomology.cayley_presentation

    def faulty(group):
        elements, tree, relators = original(group)
        return elements, tree, relators[1:]

    assert _presentation_fault_failures(monkeypatch, "cayley_presentation", faulty)


def _summand_fault_failures(monkeypatch, faulty) -> list[str]:
    monkeypatch.setattr(homology, "invariant_functionals", faulty)
    return oracle.suite_summand_criterion(0)


def test_injected_dropped_pivot_n_row_is_caught(monkeypatch):
    """Keeping only the echelon rows with pivot > n, which drops the
    functional whose leading entry sits in column n, must break the
    summand criterion, also at the full rank of a builtin, where the
    functional count gives it away."""
    from graphperiod.intlinalg import LatticeSolver

    def faulty(a):
        n = len(a)
        solver = LatticeSolver(2 * n)
        for i, row in enumerate(a):
            vec = {j: x for j, x in enumerate(row) if x}
            vec[i] = vec.get(i, 0) - 1
            vec[n + i] = 1
            solver.add_generator(vec)
        return [
            {j - n: x for j, x in row.items()} for pivot, row in solver.rows.items() if pivot > n
        ]

    failures = _summand_fault_failures(monkeypatch, faulty)
    assert any("soccer" in f and "invariant functionals" in f for f in failures)


def test_injected_transposed_action_is_caught(monkeypatch):
    """Taking the invariant functionals of the transposed action, i.e. the
    invariant vectors of A, must break the summand criterion, also at the
    full rank of a builtin."""
    original = homology.invariant_functionals

    def faulty(a):
        return original([list(col) for col in zip(*a)])

    failures = _summand_fault_failures(monkeypatch, faulty)
    assert any("soccer" in f for f in failures)

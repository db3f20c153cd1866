from random import Random

import pytest

from graphperiod import catalog
from graphperiod.autgroup import (
    automorphism_generators,
    automorphism_group,
    from_combined,
    identity_automorphism,
)
from graphperiod.cohomology import (
    CocycleTable,
    Unknown,
    cayley_presentation,
    class_order_bar,
    class_order_cyclic,
    class_order_exact,
    class_order_presented,
    cocycle_chain,
    cyclic_group_elements,
    restrict,
)
from graphperiod.homology import boundary, chain_action, fundamental_cycle_basis
from graphperiod.intlinalg import axpy
from graphperiod.config import Config
from graphperiod.permgroup import (
    PermutationGroup,
    is_prime,
    mul,
    p_part,
    sylow_subgroup,
)

from util import relabel, transfer_automorphism, vertex_cycle_automorphism


def make_lattice(name):
    g = catalog.builtin(name)
    return g, fundamental_cycle_basis(g)


def test_normalization():
    g, lattice = make_lattice("k5")
    ident = identity_automorphism(g)
    some = automorphism_generators(g)[3]
    for s, t in ((ident, ident), (ident, some), (some, ident)):
        assert lattice.coordinates(cocycle_chain(lattice, s, t)) == [0] * lattice.rank


def test_values_are_cycles():
    g, lattice = make_lattice("doubled-k4")
    rng = Random(0)
    gens = automorphism_generators(g)
    for _ in range(50):
        s, t = rng.choice(gens), rng.choice(gens)
        chain = cocycle_chain(lattice, s, t)
        assert boundary(g, chain) == {}


def test_cocycle_identity_random_triples():
    rng = Random(1)
    for name in ("k5", "doubled-k4"):
        g, lattice = make_lattice(name)
        gens = automorphism_generators(g)
        for _ in range(200):
            s, t, u = (rng.choice(gens) for _ in range(3))
            tu = t.compose(u)
            st = s.compose(t)
            lhs = chain_action(s, cocycle_chain(lattice, t, u))
            lhs = axpy(lhs, cocycle_chain(lattice, st, u), -1)
            lhs = axpy(lhs, cocycle_chain(lattice, s, tu))
            lhs = axpy(lhs, cocycle_chain(lattice, s, t), -1)
            assert lhs == {}


def test_restrict_to_trivial_subgroup_is_zero():
    g, lattice = make_lattice("k5")
    table = restrict(lattice, [identity_automorphism(g)])
    assert table.size == 1
    assert set(table.values.values()) == {(0,) * lattice.rank}
    assert class_order_bar(table) == 1


def test_restrict_5_cycle_table_shape():
    g, lattice = make_lattice("k5")
    sigma = vertex_cycle_automorphism(g, ["v1", "v2", "v3", "v4", "v5"])
    table = restrict(lattice, cyclic_group_elements(sigma))
    assert table.size == 5
    assert table.rank == 6
    assert len(table.values) == 25


def test_doubled_cycle_rotation_restriction_has_full_order():
    # the restricted class on the one-step rotation subgroup generates
    # H^2 of a cyclic group of order g-1
    for gg in (4, 5, 6):
        g, lattice = make_lattice(f"doubled-cycle-g{gg}")
        rot = vertex_cycle_automorphism(g, [f"v{i}" for i in range(1, gg)])
        assert rot.order() == gg - 1
        assert class_order_cyclic(lattice, rot) == gg - 1
        table = restrict(lattice, cyclic_group_elements(rot))
        assert class_order_bar(table) == gg - 1


def test_k5_five_cycle_restriction():
    g, lattice = make_lattice("k5")
    sigma = vertex_cycle_automorphism(g, ["v1", "v2", "v3", "v4", "v5"])
    assert class_order_cyclic(lattice, sigma) == 5


def test_identity_restriction_trivial():
    g, lattice = make_lattice("k5")
    assert class_order_cyclic(lattice, identity_automorphism(g)) == 1


def test_synthetic_mod2_cocycle_order_two():
    # Z/2 with trivial action on Z, c(s,s) = 1, zero elsewhere: every
    # coboundary has (d f)(s,s) = 2 f(s) - f(1) with f(1) forced to 0,
    # so the class has order exactly 2.
    table = CocycleTable(
        rank=1,
        size=2,
        prod={(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0},
        values={(0, 0): (0,), (0, 1): (0,), (1, 0): (0,), (1, 1): (1,)},
        actions=[[[1]], [[1]]],
    )
    assert class_order_bar(table) == 2


@pytest.mark.parametrize(
    "name,order,expected",
    [("doubled-cycle-g3", 16, 2), ("k5", 8, 1), ("k34", 16, 1)],
)
def test_bar_order_on_shuffled_nonabelian_sylow(name, order, expected):
    # st != ts in these Sylow-2 subgroups, so a bar complex that swaps s
    # and t, or drops the action term, gives a different answer; the
    # shuffles move every element but the identity to a new index
    g, lattice = make_lattice(name)
    sub = sylow_subgroup(automorphism_group(g), 2)
    elements = [from_combined(g, p) for p in sub.enumerate_elements()]
    assert len(elements) == order
    assert any(
        a.compose(b).combined != b.compose(a).combined
        for a in elements
        for b in elements
    )
    rng = Random(5)
    for _ in range(3):
        rest = elements[1:]
        rng.shuffle(rest)
        assert class_order_bar(restrict(lattice, elements[:1] + rest)) == expected


@pytest.mark.parametrize(
    "name,expected",
    [("k5", 5), ("k34", 1), ("doubled-cycle-g3", 2), ("doubled-cycle-g4", 3)],
)
def test_class_order_exact(name, expected):
    g, lattice = make_lattice(name)
    group = automorphism_group(g)
    result = class_order_exact(lattice)
    assert isinstance(result, tuple)
    assert result[0] == expected
    assert group.order() % result[0] == 0
    for part in result[1]:
        assert part.subgroup_order % part.class_order == 0


def test_class_order_exact_enumerates_nothing(monkeypatch):
    # only the Sylow subgroups are listed, by their Cayley-graph walks
    g, lattice = make_lattice("k5")
    group = automorphism_group(g)
    original = PermutationGroup.enumerate_elements
    listed = []

    def refuse_g(self):
        if self is group:
            raise AssertionError("the exact class order enumerated G")
        listed.append(self.order())
        return original(self)

    monkeypatch.setattr(PermutationGroup, "enumerate_elements", refuse_g)
    result = class_order_exact(lattice)
    assert isinstance(result, tuple) and result[0] == 5
    assert [part.subgroup_order for part in result[1]] == [8, 3, 5]
    assert listed == [8, 3, 5]


def test_class_order_exact_unknown_for_large_groups():
    g, lattice = make_lattice("doubled-cycle-g5")
    result = class_order_exact(lattice)
    assert result == Unknown(128)  # Sylow-2 part 2^7 exceeds the bar cap


def test_cyclic_divides_exact():
    g, lattice = make_lattice("k5")
    exact = class_order_exact(lattice)[0]
    rng = Random(3)
    gens = automorphism_generators(g)
    for _ in range(25):
        a = rng.choice(gens)
        for _ in range(rng.randrange(3)):
            a = a.compose(rng.choice(gens))
        assert exact % class_order_cyclic(lattice, a) == 0


def test_class_order_independent_of_spanning_tree():
    rng = Random(9)
    checked = 0
    for name in ("k5", "doubled-k4", "doubled-cycle-g5", "k34"):
        g, lattice = make_lattice(name)
        mapping = {v: f"z{len(g.vertices) - i:02d}" for i, v in enumerate(g.vertices)}
        h = relabel(g, mapping)
        lattice2 = fundamental_cycle_basis(h)
        assert lattice2.root != lattice.root or name == "k34"
        gens = automorphism_generators(g)
        for _ in range(5):
            a = rng.choice(gens)
            b = transfer_automorphism(a, h)
            assert class_order_cyclic(lattice, a) == class_order_cyclic(lattice2, b)
            checked += 1
    assert checked >= 20


def test_cayley_presentation_shape():
    g, lattice = make_lattice("doubled-cycle-g3")
    sub = sylow_subgroup(automorphism_group(g), 2)
    elements, tree, relators = cayley_presentation(sub)
    n, k = sub.order(), len(sub.generators)
    assert k >= 2 and len(set(elements)) == len(elements) == n
    assert elements[0] == tuple(range(sub.degree))
    assert len(tree) == n - 1 and len(relators) == n * (k - 1) + 1
    assert [xh for _, _, xh in tree] == list(range(1, n))
    for x, h, xh in tree + relators:
        assert elements[xh] == mul(sub.generators[x], elements[h])
    for x, h, xh in tree:
        assert h < xh  # a parent is discovered before its child


def _queue_cayley_search(group):
    """The Cayley-graph search with a queue of its own: the list of found
    elements grows while it is scanned."""
    ident = tuple(range(group.degree))
    index, elements, tree, relators = {ident: 0}, [ident], [], []
    for h, p in enumerate(elements):
        for x, q in enumerate(group.generators):
            image = mul(q, p)
            xh = index.get(image)
            if xh is None:
                xh = index[image] = len(elements)
                elements.append(image)
                tree.append((x, h, xh))
            else:
                relators.append((x, h, xh))
    return elements, tree, relators


def test_cayley_presentation_equals_a_queue_search():
    # the presentation is read off the enumeration; the tree and relators
    # must be the ones a search with its own queue finds, in the same order
    checked = 0
    for name in catalog.BUILTIN_NAMES:
        group = automorphism_group(catalog.builtin(name))
        if group.order() > Config.max_enum:
            continue
        for p in (2, 3, 5, 7):
            if not 1 < p_part(group.order(), p) <= 64:
                continue
            for seed in range(2):
                sub = sylow_subgroup(group, p, Config(seed=seed))
                assert cayley_presentation(sub) == _queue_cayley_search(sub), (name, p, seed)
                checked += 1
    assert cayley_presentation(PermutationGroup(4, [])) == ([(0, 1, 2, 3)], [], [])
    assert checked >= 20


def test_presented_order_equals_bar_on_small_sylow_subgroups():
    # every Sylow subgroup of order <= 32 of the builtins, at Sylow seeds
    # 0-2; soccer's are left out, as the bar complex of its rank-61
    # lattice does not finish in minutes even on the order-5 subgroup
    checked = 0
    for name in catalog.BUILTIN_NAMES:
        g, lattice = make_lattice(name)
        group = automorphism_group(g)
        if group.order() > Config.max_enum:
            continue
        for p in range(2, 33):
            if not is_prime(p) or not 1 < p_part(group.order(), p) <= 32:
                continue
            for seed in range(3):
                sub = sylow_subgroup(group, p, Config(seed=seed))
                elements = [from_combined(g, q) for q in sub.enumerate_elements()]
                bar = class_order_bar(restrict(lattice, elements))
                assert class_order_presented(lattice, sub) == bar, (name, p, seed)
                checked += 1
    assert checked == 36


def test_presented_order_on_k5_sylow_5():
    # one generator, one relator x^5 = 1: dropping it would give 1
    g, lattice = make_lattice("k5")
    sub = sylow_subgroup(automorphism_group(g), 5)
    assert sub.order() == 5 and len(sub.generators) == 1
    assert len(cayley_presentation(sub)[2]) == 1
    assert class_order_presented(lattice, sub) == 5


def test_presented_order_on_trivial_group():
    g, lattice = make_lattice("k5")
    trivial = PermutationGroup(len(g.vertices) + len(g.edges), [])
    assert class_order_presented(lattice, trivial) == 1


@pytest.mark.parametrize(
    "name,period",
    [("doubled-cycle-g5", 4), ("doubled-cycle-g7", 6), ("doubled-cycle-g8", 7), ("doubled-k4", 2)],
)
def test_class_order_exact_at_bar_cap_256(name, period):
    # Sylow-2 subgroups of order 128 and 256: seconds through the
    # presentation, minutes and gigabytes through the bar complex
    g, lattice = make_lattice(name)
    result = class_order_exact(lattice, Config(bar_cap=256))
    assert isinstance(result, tuple)
    assert result[0] == period == catalog.EXPECTED[name][1][0]
    assert max(part.subgroup_order for part in result[1]) in (128, 256)

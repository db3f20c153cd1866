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
    PathCocycle,
    Unknown,
    class_order_bar,
    class_order_cyclic,
    class_order_exact,
    cyclic_group_elements,
    restrict,
)
from graphperiod.homology import boundary, chain_action, chain_add, fundamental_cycle_basis
from graphperiod.config import Config
from graphperiod.permgroup import Infeasible, sylow_subgroup

from util import relabel, transfer_automorphism, vertex_cycle_automorphism


def make_cocycle(name):
    g = catalog.builtin(name)
    lattice = fundamental_cycle_basis(g)
    return g, lattice, PathCocycle(lattice)


def test_normalization():
    g, lattice, c = make_cocycle("k5")
    ident = identity_automorphism(g)
    some = automorphism_generators(g)[3]
    assert c.value(ident, ident) == [0] * lattice.rank
    assert c.value(ident, some) == [0] * lattice.rank
    assert c.value(some, ident) == [0] * lattice.rank


def test_values_are_cycles():
    g, lattice, c = make_cocycle("doubled-k4")
    rng = Random(0)
    gens = automorphism_generators(g)
    for _ in range(50):
        s, t = rng.choice(gens), rng.choice(gens)
        chain = c.value_chain(s, t)
        assert boundary(g, chain) == {}


def test_cocycle_identity_random_triples():
    rng = Random(1)
    for name in ("k5", "doubled-k4"):
        g, lattice, c = make_cocycle(name)
        gens = automorphism_generators(g)
        for _ in range(200):
            s, t, u = (rng.choice(gens) for _ in range(3))
            tu = t.compose(u)
            st = s.compose(t)
            lhs = chain_action(s, c.value_chain(t, u))
            lhs = chain_add(lhs, c.value_chain(st, u), -1)
            lhs = chain_add(lhs, c.value_chain(s, tu))
            lhs = chain_add(lhs, c.value_chain(s, t), -1)
            assert lhs == {}


def test_restrict_to_trivial_subgroup_is_zero():
    g, lattice, c = make_cocycle("k5")
    table = restrict(c, [identity_automorphism(g)])
    assert table.size == 1
    assert set(table.values.values()) == {(0,) * lattice.rank}
    assert class_order_bar(table) == 1


def test_restrict_5_cycle_table_shape():
    g, lattice, c = make_cocycle("k5")
    sigma = vertex_cycle_automorphism(g, ["v1", "v2", "v3", "v4", "v5"])
    table = restrict(c, cyclic_group_elements(sigma))
    assert table.size == 5
    assert table.rank == 6
    assert len(table.values) == 25


def test_doubled_cycle_rotation_restriction_has_full_order():
    # the restricted class on the one-step rotation subgroup generates
    # H^2 of a cyclic group of order g-1
    for gg in (4, 5, 6):
        g, lattice, c = make_cocycle(f"doubled-cycle-g{gg}")
        rot = vertex_cycle_automorphism(g, [f"v{i}" for i in range(1, gg)])
        assert rot.order() == gg - 1
        assert class_order_cyclic(c, rot) == gg - 1
        table = restrict(c, cyclic_group_elements(rot))
        assert class_order_bar(table, cap=32) == gg - 1


def test_k5_five_cycle_restriction():
    g, lattice, c = make_cocycle("k5")
    sigma = vertex_cycle_automorphism(g, ["v1", "v2", "v3", "v4", "v5"])
    assert class_order_cyclic(c, sigma) == 5


def test_identity_restriction_trivial():
    g, lattice, c = make_cocycle("k5")
    assert class_order_cyclic(c, identity_automorphism(g)) == 1


def test_bar_cap_infeasible():
    g, lattice, c = make_cocycle("k34")
    group = automorphism_group(g)
    elements = group.enumerate_elements(200)
    autos = [from_combined(g, p) for p in elements]
    table = restrict(c, autos)
    assert isinstance(class_order_bar(table, cap=32), Infeasible)


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
    assert class_order_bar(table, cap=8) == 2


@pytest.mark.parametrize(
    "name,order,expected",
    [("doubled-cycle-g3", 16, 2), ("k5", 8, 1), ("k34", 16, 1)],
)
def test_bar_order_on_shuffled_nonabelian_sylow(name, order, expected):
    # st != ts in these Sylow-2 subgroups, so a bar complex that swaps s
    # and t, or drops the action term, gives a different answer; the
    # shuffles move every element but the identity to a new index
    g, lattice, c = make_cocycle(name)
    sub = sylow_subgroup(automorphism_group(g), 2, cap=Config.max_enum)
    elements = [from_combined(g, p) for p in sub.enumerate_elements(order)]
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
        assert class_order_bar(restrict(c, elements[:1] + rest), cap=order) == expected


@pytest.mark.parametrize(
    "name,expected",
    [("k5", 5), ("k34", 1), ("doubled-cycle-g3", 2), ("doubled-cycle-g4", 3)],
)
def test_class_order_exact(name, expected):
    g, lattice, c = make_cocycle(name)
    group = automorphism_group(g)
    result = class_order_exact(c, group)
    assert isinstance(result, tuple)
    assert result[0] == expected
    assert group.order() % result[0] == 0
    for part in result[1]:
        assert part.subgroup_order % part.class_order == 0


def test_class_order_exact_unknown_for_large_groups():
    g, lattice, c = make_cocycle("doubled-cycle-g5")
    group = automorphism_group(g)
    result = class_order_exact(c, group)
    assert result == Unknown(128)  # Sylow-2 part 2^7 exceeds the bar cap


def test_cyclic_divides_exact():
    g, lattice, c = make_cocycle("k5")
    group = automorphism_group(g)
    exact = class_order_exact(c, group)[0]
    rng = Random(3)
    gens = automorphism_generators(g)
    for _ in range(25):
        a = rng.choice(gens)
        for _ in range(rng.randrange(3)):
            a = a.compose(rng.choice(gens))
        assert exact % class_order_cyclic(c, a) == 0


def test_class_order_independent_of_spanning_tree():
    rng = Random(9)
    checked = 0
    for name in ("k5", "doubled-k4", "doubled-cycle-g5", "k34"):
        g, lattice, c = make_cocycle(name)
        mapping = {v: f"z{len(g.vertices) - i:02d}" for i, v in enumerate(g.vertices)}
        h = relabel(g, mapping)
        lattice2 = fundamental_cycle_basis(h)
        assert lattice2.root != lattice.root or name == "k34"
        c2 = PathCocycle(lattice2)
        gens = automorphism_generators(g)
        for _ in range(5):
            a = rng.choice(gens)
            b = transfer_automorphism(a, h)
            assert class_order_cyclic(c, a) == class_order_cyclic(c2, b)
            checked += 1
    assert checked >= 20

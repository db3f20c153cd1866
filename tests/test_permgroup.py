import pytest

from graphperiod import catalog
from graphperiod.autgroup import automorphism_group
from graphperiod.permgroup import (
    Infeasible,
    NotPrime,
    Overflow,
    PermutationGroup,
    _prime_power_parts,
    cyclic_subgroups,
    element_order,
    identity,
    inverse,
    mul,
    orbits,
    sylow_subgroup,
)


@pytest.fixture(scope="module")
def aut_k5():
    return automorphism_group(catalog.builtin("k5"))


def test_trivial_group_from_empty_generators():
    G = PermutationGroup(5, [])
    assert G.order() == 1
    assert G.enumerate_elements(10) == [identity(5)]


def test_s5_on_k5_order(aut_k5):
    assert aut_k5.order() == 120


def test_doubled_4cycle_aut_order():
    G = automorphism_group(catalog.builtin("doubled-cycle-g5"))
    assert G.order() == 2 * 4 * 2**4  # dihedral times parallel swaps


def test_enumerate_matches_order(aut_k5):
    elems = aut_k5.enumerate_elements(200)
    assert len(elems) == 120
    assert len(set(elems)) == 120


def test_enumerate_overflow_carries_order():
    G = automorphism_group(catalog.builtin("soccer-doubled"))
    result = G.enumerate_elements(10**6)
    assert isinstance(result, Overflow)
    # icosahedral symmetries with reflections times one swap per doubled pair
    assert result.order == 120 * 2**30


def test_element_orders(aut_k5):
    assert element_order(identity(7)) == 1
    orders = {element_order(p) for p in aut_k5.enumerate_elements(200)}
    assert orders == {1, 2, 3, 4, 5, 6}


def test_membership(aut_k5):
    for p in aut_k5.enumerate_elements(200)[:20]:
        assert aut_k5.contains(p)
    swapped = list(identity(aut_k5.degree))
    swapped[0], swapped[1] = swapped[1], swapped[0]
    assert not aut_k5.contains(tuple(swapped))


def test_cyclic_subgroups_trivial():
    G = PermutationGroup(3, [])
    pairs, complete = cyclic_subgroups(G, cap=10)
    assert complete
    assert pairs == [(identity(3), 1)]


def test_cyclic_subgroups_order_two_group():
    swap = (1, 0, 2)
    G = PermutationGroup(3, [swap])
    pairs, complete = cyclic_subgroups(G, cap=10)
    assert complete
    assert [m for _, m in pairs] == [1, 2]


def test_cyclic_subgroups_k5_orders(aut_k5):
    pairs, complete = cyclic_subgroups(aut_k5, cap=1000)
    assert complete
    orders = {m for _, m in pairs}
    assert 5 in orders and 6 in orders
    # each representative generates a subgroup of the stated order
    for p, m in pairs[:12]:
        assert element_order(p) == m
        assert aut_k5.contains(p)


def test_sylow_k5(aut_k5):
    s5 = sylow_subgroup(aut_k5, 5, cap=1000)
    assert s5.order() == 5
    s2 = sylow_subgroup(aut_k5, 2, cap=1000)
    assert s2.order() == 8
    s7 = sylow_subgroup(aut_k5, 7, cap=1000)
    assert s7.order() == 1


def test_sylow_closure_property(aut_k5):
    sub = sylow_subgroup(aut_k5, 2, cap=1000)
    elems = sub.enumerate_elements(16)
    for a in elems:
        assert aut_k5.contains(a)
        for b in elems:
            assert mul(a, b) in elems
        assert inverse(a) in elems


def test_sylow_not_prime(aut_k5):
    with pytest.raises(NotPrime):
        sylow_subgroup(aut_k5, 6, cap=1000)


def test_sylow_infeasible_over_cap():
    G = automorphism_group(catalog.builtin("soccer-doubled"))
    assert isinstance(sylow_subgroup(G, 2, cap=10**6), Infeasible)


def test_element_order_divides_group_order(aut_k5):
    n = aut_k5.order()
    for p in aut_k5.enumerate_elements(200):
        assert n % element_order(p) == 0


def test_orbits():
    rot = (1, 2, 0, 4, 3)
    out = orbits(5, [rot], list(range(5)))
    assert out == [[0, 1, 2], [3, 4]]


def _generated(q):
    powers = {identity(len(q))}
    cur = q
    while cur not in powers:
        powers.add(cur)
        cur = mul(q, cur)
    return frozenset(powers)


@pytest.mark.parametrize("name", ["doubled-k4", "hybrid"])
def test_cyclic_subgroups_match_bruteforce(name):
    """Deduplicating <q> by the frozenset of its powers, over every
    element and its prime-power parts in enumeration order, gives the same
    representatives; and every cyclic subgroup of the group is found."""
    group = automorphism_group(catalog.builtin(name))
    elements = group.enumerate_elements(10**6)
    subgroup = {p: _generated(p) for p in elements}
    first_seen = {}
    for p in elements:
        for q, m in _prime_power_parts(p):
            first_seen.setdefault(subgroup[q], (q, m))
    pairs, complete = cyclic_subgroups(group, cap=10**6)
    assert complete
    assert pairs == sorted(first_seen.values(), key=lambda t: (t[1], t[0]))
    assert set(first_seen) == set(subgroup.values())
    assert all(element_order(q) == m == len(subgroup[q]) for q, m in pairs)

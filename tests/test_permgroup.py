import math
from random import Random

import pytest

from graphperiod import catalog
from graphperiod.autgroup import automorphism_group
from graphperiod.config import Config
from graphperiod.permgroup import (
    Infeasible,
    NotPrime,
    Overflow,
    PermutationGroup,
    _factor,
    _prime_power_parts,
    cyclic_subgroups,
    element_order,
    identity,
    inverse,
    mul,
    orbits,
    perm_power,
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


# --- the order every report depends on --------------------------------------


@pytest.fixture(scope="module")
def aut_hybrid():
    return automorphism_group(catalog.builtin("hybrid"))


def _plain_bfs(group):
    """Breadth-first from the identity, left-multiplying each frontier
    element by every generator in order with mul(g, p)."""
    ident = identity(group.degree)
    seen, out, frontier = {ident}, [ident], [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in group.generators:
                q = mul(g, p)
                if q not in seen:
                    seen.add(q)
                    out.append(q)
                    nxt.append(q)
        frontier = nxt
    return out


@pytest.mark.parametrize("name", ["k5", "doubled-k4", "hybrid"])
def test_enumerate_elements_is_the_plain_left_bfs(name, aut_hybrid):
    group = aut_hybrid if name == "hybrid" else automorphism_group(catalog.builtin(name))
    assert group.enumerate_elements(10**6) == _plain_bfs(group)


def _scan_without_skip(group, cap, seed, max_subgroups):
    """cyclic_subgroups' loop with no early skip: every element is visited
    together with all of its prime-power parts, itself a second time when
    its order is a prime power."""
    enum = group.enumerate_elements(cap)
    complete = not isinstance(enum, Overflow)
    if complete:
        elements = enum
    else:
        rng = Random(seed)
        elements = list(group.generators) + [
            group.random_element(rng, Config.max_word_length) for _ in range(Config.word_budget)
        ]
    ident = identity(group.degree)
    found = [(ident, 1)]
    generators = {ident}
    for p in elements:
        m = element_order(p)
        parts = [(p, m)] + [(perm_power(p, m // r**e), r**e) for r, e in _factor(m).items()]
        for q, k in parts:
            if not complete and len(found) >= max_subgroups:
                return sorted(found, key=lambda t: (t[1], t[0])), False
            if q in generators:
                continue
            found.append((q, k))
            cur = q
            for j in range(1, k):
                if math.gcd(j, k) == 1:
                    generators.add(cur)
                cur = mul(q, cur)
    return sorted(found, key=lambda t: (t[1], t[0])), complete


@pytest.mark.parametrize("max_subgroups", [10, 50, 400])
def test_sampled_scan_truncates_where_the_unskipped_loop_does(aut_hybrid, max_subgroups):
    for seed in range(3):
        expected = _scan_without_skip(aut_hybrid, 1000, seed, max_subgroups)
        got = cyclic_subgroups(aut_hybrid, cap=1000, seed=seed, max_subgroups=max_subgroups)
        assert got == expected
        assert got[1] is False
        assert len(got[0]) == max_subgroups


@pytest.mark.parametrize(
    "degree, gens, elements, pairs",
    [
        (0, [], [()], [((), 1)]),
        (1, [], [(0,)], [((0,), 1)]),
        (2, [(1, 0)], [(0, 1), (1, 0)], [((0, 1), 1), ((1, 0), 2)]),
    ],
)
def test_tiny_groups_enumerate_and_scan(degree, gens, elements, pairs):
    group = PermutationGroup(degree, gens)
    assert group.enumerate_elements(10) == elements
    assert cyclic_subgroups(group, cap=10) == (pairs, True)


def test_prime_power_parts_returns_a_prime_power_element_once():
    four_cycle = (1, 2, 3, 0)
    assert _prime_power_parts(four_cycle) == [(four_cycle, 4)]
    assert _prime_power_parts(identity(4)) == [(identity(4), 1)]
    six = (1, 2, 0, 4, 3)
    assert _prime_power_parts(six) == [(six, 6), ((0, 1, 2, 4, 3), 2), ((2, 0, 1, 3, 4), 3)]

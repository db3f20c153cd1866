import math
from random import Random

import pytest

from graphperiod import catalog
from graphperiod.autgroup import automorphism_group
from graphperiod.config import Config
from graphperiod.permgroup import (
    NotPrime,
    PermutationGroup,
    SylowGrowthStalled,
    _Codec,
    _factor,
    cyclic_subgroups,
    element_order,
    identity,
    inverse,
    mul,
    orbits,
    p_part,
    perm_power,
    sylow_subgroup,
)


@pytest.fixture(scope="module")
def aut_k5():
    return automorphism_group(catalog.builtin("k5"))


@pytest.fixture(scope="module")
def aut_soccer():
    return automorphism_group(catalog.builtin("soccer-doubled"))


def test_trivial_group_from_empty_generators():
    G = PermutationGroup(5, [])
    assert G.order() == 1
    assert G.enumerate_elements() == [identity(5)]


def test_s5_on_k5_order(aut_k5):
    assert aut_k5.order() == 120


def test_doubled_4cycle_aut_order():
    G = automorphism_group(catalog.builtin("doubled-cycle-g5"))
    assert G.order() == 2 * 4 * 2**4  # dihedral times parallel swaps


def test_enumerate_matches_order(aut_k5):
    elems = aut_k5.enumerate_elements()
    assert len(elems) == 120
    assert len(set(elems)) == 120


def test_enumerate_overflow_carries_order(aut_soccer):
    # icosahedral symmetries with reflections times one swap per doubled pair
    assert aut_soccer.order() == 120 * 2**30
    # above max_enum the cyclic scan samples instead of enumerating
    pairs, complete = cyclic_subgroups(aut_soccer, Config())
    assert complete is False


def test_element_orders(aut_k5):
    assert element_order(identity(7)) == 1
    orders = {element_order(p) for p in aut_k5.enumerate_elements()}
    assert orders == {1, 2, 3, 4, 5, 6}


def test_membership(aut_k5):
    for p in aut_k5.enumerate_elements()[:20]:
        assert aut_k5.contains(p)
    swapped = list(identity(aut_k5.degree))
    swapped[0], swapped[1] = swapped[1], swapped[0]
    assert not aut_k5.contains(tuple(swapped))


def test_cyclic_subgroups_trivial():
    G = PermutationGroup(3, [])
    pairs, complete = cyclic_subgroups(G, Config(max_enum=10))
    assert complete
    assert pairs == [(identity(3), 1)]


def test_cyclic_subgroups_order_two_group():
    swap = (1, 0, 2)
    G = PermutationGroup(3, [swap])
    pairs, complete = cyclic_subgroups(G, Config(max_enum=10))
    assert complete
    assert [m for _, m in pairs] == [1, 2]


def test_cyclic_subgroups_k5_orders(aut_k5):
    pairs, complete = cyclic_subgroups(aut_k5, Config(max_enum=1000))
    assert complete
    orders = {m for _, m in pairs}
    assert 5 in orders and 6 in orders
    # each representative generates a subgroup of the stated order
    for p, m in pairs[:12]:
        assert element_order(p) == m
        assert aut_k5.contains(p)


def test_sylow_k5(aut_k5):
    s5 = sylow_subgroup(aut_k5, 5)
    assert s5.order() == 5
    s2 = sylow_subgroup(aut_k5, 2)
    assert s2.order() == 8
    s7 = sylow_subgroup(aut_k5, 7)
    assert s7.order() == 1


def test_sylow_closure_property(aut_k5):
    sub = sylow_subgroup(aut_k5, 2)
    elems = sub.enumerate_elements()
    for a in elems:
        assert aut_k5.contains(a)
        for b in elems:
            assert mul(a, b) in elems
        assert inverse(a) in elems


def test_sylow_growth_draws_words_of_the_configured_length(aut_k5, monkeypatch):
    lengths = []
    original = PermutationGroup.random_element

    def spy(self, rng, word_length):
        lengths.append(word_length)
        return original(self, rng, word_length)

    monkeypatch.setattr(PermutationGroup, "random_element", spy)
    config = Config(max_word_length=5)
    for p in (2, 3, 5):
        assert sylow_subgroup(aut_k5, p, config).order() == p_part(120, p)
    assert lengths and set(lengths) == {5}


def test_sylow_not_prime(aut_k5):
    with pytest.raises(NotPrime):
        sylow_subgroup(aut_k5, 6)


def test_stalled_sylow_growth_raises_a_named_exception():
    group = automorphism_group(catalog.builtin("doubled-cycle-g3"))
    with pytest.raises(SylowGrowthStalled, match="max_word_length 3"):
        sylow_subgroup(group, 2, Config(max_word_length=3, seed=1))
    assert sylow_subgroup(group, 2, Config(max_word_length=3, seed=0)).order() == 16


def test_sylow_above_the_enumeration_cap(aut_soccer):
    # |G| = 2^33 * 3 * 5 is far above max_enum; growth never enumerates G
    assert aut_soccer.order() > Config.max_enum
    for p in (3, 5):
        sub = sylow_subgroup(aut_soccer, p)
        assert sub.order() == p
        assert all(aut_soccer.contains(g) for g in sub.generators)


def test_element_order_divides_group_order(aut_k5):
    n = aut_k5.order()
    for p in aut_k5.enumerate_elements():
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


def _prime_power_parts(p):
    """The element itself plus one generator per prime-power part of it;
    an element of prime-power order (or the identity) is its own only
    part, so it is returned once."""
    m = element_order(p)
    factors = _factor(m)
    if len(factors) <= 1:
        return [(p, m)]
    return [(p, m)] + [(perm_power(p, m // r**e), r**e) for r, e in factors.items()]


def _first_seen_reference(group):
    """Deduplicate <q> by the frozenset of its powers, over every element
    and its prime-power parts in enumeration order; checks that every
    cyclic subgroup is seen and returns the first-seen representatives,
    sorted as cyclic_subgroups sorts them."""
    elements = group.enumerate_elements()
    subgroup = {p: _generated(p) for p in elements}
    first_seen = {}
    for p in elements:
        for q, m in _prime_power_parts(p):
            first_seen.setdefault(subgroup[q], (q, m))
    assert set(first_seen) == set(subgroup.values())
    return sorted(first_seen.values(), key=lambda t: (t[1], t[0]))


# every builtin with |Aut| <= 10^6; test_bruteforce_covers_every_enumerable_builtin
# keeps this list in step with the catalog
ENUMERABLE_BUILTINS = [name for name in catalog.BUILTIN_NAMES if name != "soccer-doubled"]


def test_bruteforce_covers_every_enumerable_builtin(aut_soccer):
    assert aut_soccer.order() > 10**6
    for name in ENUMERABLE_BUILTINS:
        assert automorphism_group(catalog.builtin(name)).order() <= 10**6


@pytest.mark.parametrize("name", ENUMERABLE_BUILTINS)
def test_cyclic_subgroups_match_bruteforce(name):
    """The first-seen reference gives the same representatives, and every
    cyclic subgroup of the group is found."""
    group = automorphism_group(catalog.builtin(name))
    pairs, complete = cyclic_subgroups(group, Config(max_enum=10**6))
    assert complete
    assert pairs == _first_seen_reference(group)
    assert all(element_order(q) == m == len(_generated(q)) for q, m in pairs)


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
    assert group.enumerate_elements() == _plain_bfs(group)


def _scan_without_skip(group, cap, seed, max_subgroups):
    """cyclic_subgroups' loop with no early skip: every element is visited
    together with all of its prime-power parts, itself a second time when
    its order is a prime power."""
    complete = group.order() <= cap
    if complete:
        elements = group.enumerate_elements()
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
        config = Config(max_enum=1000, seed=seed, max_subgroups=max_subgroups)
        got = cyclic_subgroups(aut_hybrid, config)
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
    assert group.enumerate_elements() == elements
    assert cyclic_subgroups(group, Config(max_enum=10)) == (pairs, True)


def test_prime_power_parts_returns_a_prime_power_element_once():
    four_cycle = (1, 2, 3, 0)
    assert _prime_power_parts(four_cycle) == [(four_cycle, 4)]
    assert _prime_power_parts(identity(4)) == [(identity(4), 1)]
    six = (1, 2, 0, 4, 3)
    assert _prime_power_parts(six) == [(six, 6), ((0, 1, 2, 4, 3), 2), ((2, 0, 1, 3, 4), 3)]


def _top_point_group(degree):
    """S4 x C7 of order 168: a 3-cycle through the top point degree - 1
    and a transposition times a disjoint 7-cycle."""
    a = list(range(degree))
    a[degree - 1], a[0], a[1] = 0, 1, degree - 1
    b = list(range(degree))
    b[1], b[2] = 2, 1
    for i in range(7):
        b[3 + i] = 3 + (i + 1) % 7
    return PermutationGroup(degree, [tuple(a), tuple(b)])


@pytest.mark.parametrize("degree", [255, 256, 257])
def test_byte_key_boundary(degree):
    """Degree 256 is the last whose points fit in a byte; 257 takes the
    tuple path.  Both give the plain BFS and the reference scans."""
    group = _top_point_group(degree)
    assert group.order() == 168
    elements = group.enumerate_elements()
    assert elements == _plain_bfs(group)
    assert all(type(p) is tuple for p in elements)
    pairs, complete = cyclic_subgroups(group, Config(max_enum=168))
    assert complete and pairs == _first_seen_reference(group)
    assert all(type(q) is tuple for q, _ in pairs)
    for seed, max_subgroups in ((0, 400), (1, 10)):
        config = Config(max_enum=100, seed=seed, max_subgroups=max_subgroups)
        got = cyclic_subgroups(group, config)
        assert got == _scan_without_skip(group, 100, seed, max_subgroups)
        assert all(type(q) is tuple for q, _ in got[0])


def test_soccer_sampled_scan_matches_the_unskipped_loop(aut_soccer):
    # degree 180, above max_enum: the benchmark's sampled input
    got = cyclic_subgroups(aut_soccer, Config())
    assert got == _scan_without_skip(aut_soccer, Config.max_enum, 0, Config.max_subgroups)
    assert got[1] is False and len(got[0]) == Config.max_subgroups


# --- the stabilizer chain against the constructor it replaced ---------------


class _UnsiftedLevel:
    __slots__ = ("base", "gens", "transversal", "inverses", "processed")

    def __init__(self, base, ident):
        self.base = base
        self.gens = []
        self.transversal = {base: ident}
        self.inverses = {base: ident}
        self.processed = set()


class _UnsiftedChain:
    """The Schreier-Sims constructor before residues went to the level where
    their sift stopped, and before the chain ran on keys: every input
    generator is stored at level 0 and every Schreier residue of level i at
    level i + 1, and every permutation is a tuple multiplied with mul."""

    def __init__(self, degree, generators):
        self.degree = degree
        self._identity = identity(degree)
        gens = []
        for g in map(tuple, generators):
            if g != self._identity and g not in gens:
                gens.append(g)
        self.generators = tuple(gens)
        self._levels = []
        for g in self.generators:
            self._store(g, 0)
        self._complete(0)

    def _gens_from(self, i):
        return [g for level in self._levels[i:] for g in level.gens]

    def _store(self, p, slot):
        if slot == len(self._levels):
            base = next(i for i, x in enumerate(p) if x != i)
            self._levels.append(_UnsiftedLevel(base, self._identity))
        self._levels[slot].gens.append(p)

    def _extend_transversal(self, i):
        level = self._levels[i]
        gens = self._gens_from(i)
        frontier = sorted(level.transversal)
        while frontier:
            nxt = []
            for pt in frontier:
                rep = level.transversal[pt]
                for g in gens:
                    img = g[pt]
                    if img not in level.transversal:
                        level.transversal[img] = new = mul(g, rep)
                        level.inverses[img] = inverse(new)
                        nxt.append(img)
            frontier = nxt

    def _sift_from(self, p, start):
        for i in range(start, len(self._levels)):
            level = self._levels[i]
            img = p[level.base]
            if img == level.base:
                continue
            rep_inv = level.inverses.get(img)
            if rep_inv is None:
                return p, i
            p = mul(rep_inv, p)
        return p, len(self._levels)

    def _complete(self, i):
        if i >= len(self._levels):
            return
        level = self._levels[i]
        while True:
            self._extend_transversal(i)
            added = False
            for pt in sorted(level.transversal):
                rep = level.transversal[pt]
                for g in self._gens_from(i):
                    key = (pt, g)
                    if key in level.processed:
                        continue
                    level.processed.add(key)
                    schreier = mul(inverse(level.transversal[g[pt]]), mul(g, rep))
                    if schreier == self._identity:
                        continue
                    residue, _ = self._sift_from(schreier, i + 1)
                    if residue != self._identity:
                        self._store(residue, i + 1)
                        self._complete(i + 1)
                        added = True
                        break
                if added:
                    break
            if not added:
                return

    def order(self):
        return math.prod(len(level.transversal) for level in self._levels)

    def contains(self, p):
        return len(p) == self.degree and self._sift_from(p, 0)[0] == self._identity


def _strong_generators(group):
    """(base, strong generators) of every level, the generators decoded from
    their keys; each stored table is the table of its key."""
    codec = _Codec(group.degree)
    out = []
    for level in group._levels:
        for key, table in level.gens:
            assert table == codec.table(key)
        out.append((level.base, [tuple(key) for key, _ in level.gens]))
    return out


def _assert_same_group_as_unsifted(group, rng, samples=30):
    """group and the unsifted chain on its generators agree on the order and
    on membership of sampled members and non-members."""
    old = _UnsiftedChain(group.degree, list(group.generators))
    assert group.order() == old.order()
    for _ in range(samples):
        member = group.random_element(rng, 12)
        shuffled = list(range(group.degree))
        rng.shuffle(shuffled)
        swapped = list(member)
        i, j = rng.sample(range(group.degree), 2)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        for p in (member, tuple(shuffled), tuple(swapped)):
            assert group.contains(p) == old.contains(p)
        assert group.contains(member)


@pytest.mark.parametrize("name", catalog.BUILTIN_NAMES)
def test_chain_agrees_with_unsifted_constructor(name):
    group = automorphism_group(catalog.builtin(name))
    rng = Random(name)
    _assert_same_group_as_unsifted(group, rng)
    order = group.order()
    for p in _factor(order):
        if p_part(order, p) > 256:
            continue
        for seed in range(4):
            sylow = sylow_subgroup(group, p, Config(seed=seed))
            assert sylow.order() == p_part(order, p)
            assert all(group.contains(g) for g in sylow.generators)
            gens = list(sylow.generators)
            for i in range(len(gens)):
                rest = gens[:i] + gens[i + 1:]
                assert PermutationGroup(group.degree, rest).order() < sylow.order()
            _assert_same_group_as_unsifted(sylow, rng)


def test_chain_on_tuple_keys_past_degree_256():
    """Degree 300 is past the byte codec, so the chain runs on tuple keys,
    which no builtin reaches (soccer-doubled has degree 180): two disjoint
    150-cycles generate Z/150 x Z/150."""
    a = tuple((i + 1) % 150 if i < 150 else i for i in range(300))
    b = tuple(i if i < 150 else 150 + (i - 149) % 150 for i in range(300))
    group = PermutationGroup(300, [a, b])
    assert group.order() == 22_500
    assert all(type(key) is tuple for level in group._levels for key in level.transversal.values())
    assert group.contains(mul(perm_power(a, 7), perm_power(b, 131)))
    # every member a^i b^j that fixes point 2 has i = 0 and fixes 0 too
    swapped = list(range(300))
    swapped[0], swapped[1] = 1, 0
    assert not group.contains(tuple(swapped))
    _assert_same_group_as_unsifted(group, Random(300), samples=5)


@pytest.mark.parametrize("name", ["doubled-k4", "hybrid", "soccer-doubled"])
def test_redundant_generator_leaves_the_strong_generators_alone(name, aut_soccer):
    group = aut_soccer if name == "soccer-doubled" else automorphism_group(catalog.builtin(name))
    gens = list(group.generators)
    extra = mul(gens[-1], gens[-2])
    assert extra not in gens and extra != identity(group.degree)
    widened = PermutationGroup(group.degree, gens + [extra])
    assert widened.generators == group.generators + (extra,)
    assert _strong_generators(widened) == _strong_generators(group)


def test_soccer_strong_generating_set_stays_small(aut_soccer):
    # 149 generators; the unsifted constructor stored 632 strong generators
    assert sum(len(level.gens) for level in aut_soccer._levels) <= 40


def test_soccer_build_inverts_each_representative_once(aut_soccer, monkeypatch):
    """Transversal representatives never change once stored, so the chain
    stores the table of each one's inverse with it and inverts nothing
    else: the build makes at most one inverse table per transversal entry.
    Every inversion goes through the codec's inverse_table, which is
    counted here.  The keys and tables are decoded to check every stored
    pair."""
    from graphperiod import permgroup

    calls = []

    class CountingCodec(permgroup._Codec):
        def __init__(self, degree):
            super().__init__(degree)
            invert = self.inverse_table
            self.inverse_table = lambda p: calls.append(1) or invert(p)

    monkeypatch.setattr(permgroup, "_Codec", CountingCodec)
    group = PermutationGroup(aut_soccer.degree, list(aut_soccer.generators))
    monkeypatch.undo()
    entries = sum(len(level.transversal) - 1 for level in group._levels)
    assert 0 < len(calls) <= entries
    ident = identity(group.degree)
    for level in group._levels:
        assert level.inverses.keys() == level.transversal.keys()
        for pt, rep in level.transversal.items():
            # the key decodes to the representative, the first degree bytes
            # of its inverse's table to the inverse
            rep = tuple(rep)
            assert rep[level.base] == pt
            assert mul(tuple(level.inverses[pt][: group.degree]), rep) == ident
    assert group.order() == aut_soccer.order()
    _assert_same_group_as_unsifted(group, Random(3))


def _unsifted_random_element(group, rng, word_length):
    """random_element as it was before generator inverses were cached."""
    p = identity(group.degree)
    for _ in range(rng.randint(1, word_length)):
        g = rng.choice(group.generators)
        if rng.random() < 0.5:
            g = inverse(g)
        p = mul(g, p)
    return p


@pytest.mark.parametrize("seed", range(3))
def test_random_words_unchanged_by_the_inverse_cache(aut_soccer, seed):
    new_rng, old_rng = Random(seed), Random(seed)
    for _ in range(Config.word_budget):
        assert aut_soccer.random_element(new_rng, Config.max_word_length) == (
            _unsifted_random_element(aut_soccer, old_rng, Config.max_word_length)
        )


def _tuple_random_element(group, rng, word_length):
    """random_element as it was before words were multiplied on keys."""
    if not group.generators:
        return identity(group.degree)
    return _unsifted_random_element(group, rng, word_length)


# degree 300 is past the byte codec: a dihedral group of order 600, and the
# trivial group given no generators
_ROTATION = tuple((i + 1) % 300 for i in range(300))
_REFLECTION = tuple(-i % 300 for i in range(300))


@pytest.mark.parametrize(
    "generators", [[_ROTATION, _REFLECTION], []], ids=["dihedral-300", "no-generators"]
)
def test_random_words_unchanged_on_the_tuple_codec(generators):
    group = PermutationGroup(300, generators)
    assert group.order() == (600 if generators else 1)
    for seed in range(3):
        new_rng, old_rng = Random(seed), Random(seed)
        for _ in range(100):
            assert group.random_element(new_rng, Config.max_word_length) == (
                _tuple_random_element(group, old_rng, Config.max_word_length)
            )
        assert new_rng.getstate() == old_rng.getstate()


@pytest.mark.parametrize("degree", [180, 300], ids=["soccer", "dihedral-300"])
def test_sampled_keys_are_the_encoded_random_words(aut_soccer, degree):
    """cyclic_subgroups draws keys with _random_key: with equal seeds its
    word_budget keys are the encoded random_element words, from the same
    RNG calls, on the byte codec (soccer) and the tuple codec."""
    group = aut_soccer if degree == 180 else PermutationGroup(300, [_ROTATION, _REFLECTION])
    assert group.degree == degree
    codec = _Codec(degree)
    key_rng, word_rng = Random(0), Random(0)
    for _ in range(Config.word_budget):
        assert group._random_key(key_rng, Config.max_word_length) == codec.encode(
            group.random_element(word_rng, Config.max_word_length)
        )
    assert key_rng.getstate() == word_rng.getstate()


def test_element_enumeration_checks_its_count(aut_k5, monkeypatch):
    group = PermutationGroup(aut_k5.degree, list(aut_k5.generators))
    monkeypatch.setattr(group, "order", lambda: 119)
    with pytest.raises(AssertionError, match="enumeration disagrees with stabilizer chain"):
        group.enumerate_elements()

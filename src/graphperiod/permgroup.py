"""Finite permutation groups on a fixed point set.

Permutations are image tuples: p[i] is where point i goes.  Products are
left actions, mul(p, q)[i] = p[q[i]], so (p*q) acts by q first.  Group
order and membership come from a deterministic Schreier-Sims stabilizer
chain; orders are plain Python ints, hence arbitrary precision.

Every permutation that enters or leaves this module is a tuple (Perm).
Inside, every product runs on keys: the stabilizer chain, the element
enumeration, the random words and the cyclic-subgroup scan.  For degree
<= 256 the key of p is bytes(p), and p.translate(table(g)), with table(g)
= bytes(g) padded to 256 bytes, is mul(g, p) computed in C.  Bytes compare
like tuples of ints below 256 and cache their hash.  For a larger degree a
point does not fit in a byte, so the key is the tuple and the product is
itemgetter(*p)(g); _Codec hides which of the two is used.
"""

from __future__ import annotations

import math
from functools import cached_property
from operator import attrgetter, itemgetter
from random import Random

from .config import Config

Perm = tuple[int, ...]


class _Codec:
    """Keys of one degree: encode(p) is the key of a Perm or key p,
    table(p) is what apply(key) takes, and apply(key)(table(g)) is the key
    of mul(g, key); inverse_table(p) is table(inverse(p)) as apply reads
    it.  tuple(key) decodes a key of either kind."""

    __slots__ = ("encode", "table", "apply", "inverse_table")

    def __init__(self, degree: int):
        if degree <= 256:
            pad = bytes(256 - degree)
            points = bytes(range(degree))
            self.encode = bytes
            self.table = lambda p: bytes(p) + pad
            self.apply = attrgetter("translate")
            # maketrans sends p[i] to i and every byte >= degree to itself,
            # which no key holds
            self.inverse_table = lambda p: bytes.maketrans(bytes(p), points)
        else:
            self.encode = tuple
            self.table = tuple
            self.apply = lambda p: itemgetter(*p)
            self.inverse_table = inverse


class NotPrime(ValueError):
    pass


class SylowGrowthStalled(Exception):
    """sylow_subgroup's random words did not reach a full Sylow subgroup
    within its draw budget; a longer config.max_word_length may."""


def identity(n: int) -> Perm:
    return tuple(range(n))


def mul(p: Perm, q: Perm) -> Perm:
    return tuple([p[x] for x in q])


def inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def element_order(p: Perm) -> int:
    """Least m >= 1 with p^m = identity (lcm of cycle lengths)."""
    n = len(p)
    seen = [False] * n
    lengths = set()
    for i in range(n):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        lengths.add(length)
    return math.lcm(*lengths)


def perm_power(p: Perm, k: int) -> Perm:
    if k < 0:
        return perm_power(inverse(p), -k)
    result = identity(len(p))
    base = p
    while k:
        if k & 1:
            result = mul(base, result)
        base = mul(base, base)
        k >>= 1
    return result


class _ChainLevel:
    """One level of the stabilizer chain, on keys (see the module
    docstring): the strong generators stored here as (key, table) pairs,
    and for every point pt of the base's orbit its coset representative's
    key, transversal[pt], and the table of that representative's inverse,
    inverses[pt], stored with it since a representative never changes."""

    __slots__ = ("base", "gens", "transversal", "inverses", "processed")

    def __init__(self, base: int, ident, ident_table):
        self.base = base
        self.gens: list[tuple] = []
        self.transversal: dict = {base: ident}
        self.inverses: dict = {base: ident_table}
        self.processed: set = set()


class PermutationGroup:
    """Group generated by permutations of {0, ..., degree-1}.

    The stabilizer chain (base and strong generating set) is built eagerly
    at construction, so instances are immutable afterwards and safe for
    concurrent reads.  Generators stored at level i fix the base points of
    all earlier levels; the generating set of the i-th stabilizer is the
    union of the generators at levels i and deeper.

    Each input generator and each Schreier generator is sifted through the
    chain built so far and skipped if it is a member.  A non-trivial residue
    is stored at the level where its sift stopped, and the levels from there
    up to the one being completed are completed again (Seress, Permutation
    Group Algorithms, 4.2).  self.generators keeps the input generators.
    The chain holds keys and tables, so every product in it is one apply.
    """

    def __init__(self, degree: int, generators: list[Perm]):
        self.degree = degree
        self._identity = identity(degree)
        gens = []
        for g in generators:
            if len(g) != degree:
                raise ValueError("generator degree mismatch")
            if sorted(g) != list(range(degree)):
                raise ValueError("generator is not a permutation")
            g = tuple(g)
            if g != self._identity and g not in gens:
                gens.append(g)
        self.generators: tuple[Perm, ...] = tuple(gens)
        self._codec = codec = _Codec(degree)
        self._ident_key = codec.encode(self._identity)
        self._levels: list[_ChainLevel] = []
        for g in self.generators:
            residue, stop = self._sift_from(codec.encode(g), 0)
            if residue != self._ident_key:
                self._insert(residue, stop, 0)

    # --- Schreier-Sims, on keys --------------------------------------------

    def _gens_from(self, i: int) -> list[tuple]:
        """The (key, table) pairs of the i-th stabilizer's generators."""
        return [g for level in self._levels[i:] for g in level.gens]

    def _insert(self, residue, stop: int, top: int):
        """Store a non-trivial sift residue at level stop, where its sift
        stopped (a new last level if it passed every level), then complete
        levels stop down to top again."""
        codec = self._codec
        if stop == len(self._levels):
            base = next(i for i, x in enumerate(residue) if x != i)
            self._levels.append(_ChainLevel(base, self._ident_key, codec.table(self._ident_key)))
        self._levels[stop].gens.append((residue, codec.table(residue)))
        for j in range(stop, top - 1, -1):
            self._complete(j)

    def _extend_transversal(self, i: int):
        """Grow the orbit of base_i under the i-th stabilizer generators,
        keeping existing coset representatives stable."""
        level = self._levels[i]
        transversal, inverses = level.transversal, level.inverses
        apply, inverse_table = self._codec.apply, self._codec.inverse_table
        gens = self._gens_from(i)
        frontier = sorted(transversal)
        while frontier:
            nxt = []
            for pt in frontier:
                times_rep = apply(transversal[pt])
                for g, table in gens:
                    img = g[pt]
                    if img not in transversal:
                        transversal[img] = new = times_rep(table)
                        inverses[img] = inverse_table(new)
                        nxt.append(img)
            frontier = nxt

    def _sift_from(self, p, start: int) -> tuple:
        """Reduce the key p through levels start.. ; returns (residue key,
        stop level)."""
        apply = self._codec.apply
        levels = self._levels
        for i in range(start, len(levels)):
            level = levels[i]
            img = p[level.base]
            if img == level.base:
                continue
            rep_inv = level.inverses.get(img)
            if rep_inv is None:
                return p, i
            p = apply(p)(rep_inv)
        return p, len(levels)

    def _complete(self, i: int):
        """Establish the Schreier condition at level i and below: every
        Schreier generator of level i sifts to the identity."""
        if i >= len(self._levels):
            return
        level = self._levels[i]
        apply, ident = self._codec.apply, self._ident_key
        while True:
            self._extend_transversal(i)
            added = False
            for pt in sorted(level.transversal):
                times_rep = apply(level.transversal[pt])
                for g, table in self._gens_from(i):
                    key = (pt, g)
                    if key in level.processed:
                        continue
                    level.processed.add(key)
                    schreier = apply(times_rep(table))(level.inverses[g[pt]])
                    if schreier == ident:
                        continue
                    residue, stop = self._sift_from(schreier, i + 1)
                    if residue != ident:
                        self._insert(residue, stop, i + 1)
                        added = True
                        break
                if added:
                    break
            if not added:
                return

    # --- queries ---------------------------------------------------------

    def order(self) -> int:
        n = 1
        for level in self._levels:
            n *= len(level.transversal)
        return n

    def contains(self, p: Perm) -> bool:
        if len(p) != self.degree:
            return False
        residue, _ = self._sift_from(self._codec.encode(p), 0)
        return residue == self._ident_key

    def enumerate_elements(self) -> list[Perm]:
        """All elements in deterministic BFS order; callers compare order()
        with their cap first.

        Breadth-first from the identity: each frontier element p is
        multiplied on the left by every generator in turn, mul(g, p), and
        new products join the next frontier in that order.  The walk runs
        on keys (see the module docstring) and decodes them at the end.
        """
        return [tuple(key) for key in self._element_keys()]

    def _element_keys(self) -> list:
        """The keys of enumerate_elements(), in the same order."""
        codec, ident = self._codec, self._ident_key
        tables = [codec.table(g) for g in self.generators]
        seen = {ident}
        out = [ident]
        frontier = out[:]
        while frontier:
            nxt = []
            for p in frontier:
                times_p = codec.apply(p)
                for t in tables:
                    q = times_p(t)
                    if q not in seen:
                        seen.add(q)
                        out.append(q)
                        nxt.append(q)
            frontier = nxt
        if len(out) != self.order():
            raise AssertionError("enumeration disagrees with stabilizer chain")
        return out

    @cached_property
    def _generators_and_inverses(self) -> tuple[tuple, ...]:
        """The (table(g), table(g^-1)) pair of every generator g, for
        _random_key."""
        codec = self._codec
        return tuple((codec.table(g), codec.inverse_table(g)) for g in self.generators)

    def random_element(self, rng: Random, word_length: int) -> Perm:
        """A word of 1 to word_length generators or inverses, multiplied
        on the left in drawing order."""
        return tuple(self._random_key(rng, word_length))

    def _random_key(self, rng: Random, word_length: int):
        """The key (see the module docstring) of random_element's word; the
        identity's, drawing nothing, when there are no generators."""
        codec, tables = self._codec, self._generators_and_inverses
        p = self._ident_key
        if not tables:
            return p
        for _ in range(rng.randint(1, word_length)):
            g, g_inv = rng.choice(tables)
            if rng.random() < 0.5:
                g = g_inv
            p = codec.apply(p)(g)
        return p


def cyclic_subgroups(
    group: PermutationGroup, config: Config = Config()
) -> tuple[list[tuple[Perm, int]], bool]:
    """One representative generator per distinct cyclic subgroup.

    If |G| <= config.max_enum the list is complete (deduplicated over all
    elements, in the order of enumerate_elements()).  Otherwise
    representatives come from seeded random words in the generators,
    bounded by the config's word_budget / max_word_length /
    max_subgroups, and the second return value is False to flag the scan
    as incomplete.  Every prime-power power of a found element is
    included, so a single order-10 element also contributes its order-2
    and order-5 subgroups.  The representatives are sorted by (order,
    Perm).

    The scan runs on keys (see the module docstring): it walks the powers
    of each new element once, by repeated products with its table, and
    decodes only the representatives it records.
    """
    codec = group._codec
    complete = group.order() <= config.max_enum
    if complete:
        elements = group._element_keys()
    else:
        rng = Random(config.seed)
        elements = [codec.encode(g) for g in group.generators]
        for _ in range(config.word_budget):
            elements.append(group._random_key(rng, config.max_word_length))

    # <q> is already recorded exactly when q generates a recorded subgroup,
    # i.e. is some power r^k, gcd(k, |r|) = 1, of a recorded generator r.
    ident = group._ident_key
    found: list[tuple[bytes | Perm, int]] = [(ident, 1)]
    generators: set = {ident}
    # part_orders[m]: m, then its prime-power parts r^e unless m is one
    part_orders: dict[int, list[int]] = {}
    for p in elements:
        if p in generators:
            # Exact skip: <p> = <r> for a recorded r, and r's prime-power
            # parts were recorded with it, so p's parts (which generate the
            # same subgroups) are all in generators too.  found is unchanged,
            # so the next element makes the same max_subgroups check.
            continue
        # powers[k] = p^k for 0 <= k < m = |p|; p != identity here
        powers = [ident]
        table_p = codec.table(p)
        cur = p
        while cur != ident:
            powers.append(cur)
            cur = codec.apply(cur)(table_p)
        m = len(powers)
        if m not in part_orders:
            factors = _factor(m)
            part_orders[m] = [m] + ([r**e for r, e in factors.items()] if len(factors) > 1 else [])
        for k in part_orders[m]:
            if not complete and len(found) >= config.max_subgroups:
                return _decoded(found), False
            # the part of order k is p^(m / k), and its power q^j = p^(j * step)
            # generates <q> exactly when gcd(j, k) = 1
            step = m // k
            q = powers[step]
            if q in generators:
                continue
            found.append((q, k))
            generators.update(powers[j * step] for j in range(1, k) if math.gcd(j, k) == 1)
    return _decoded(found), complete


def _decoded(found: list) -> list[tuple[Perm, int]]:
    """(key, order) pairs sorted by (order, key), keys decoded to Perms;
    keys of one degree sort as the Perms they encode."""
    return [(tuple(q), m) for q, m in sorted(found, key=lambda t: (t[1], t[0]))]


def _factor(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_prime(p: int) -> bool:
    return p >= 2 and _factor(p) == {p: 1}


def p_part(n: int, p: int) -> int:
    out = 1
    while n % p == 0:
        out *= p
        n //= p
    return out


def sylow_subgroup(
    group: PermutationGroup, p: int, config: Config = Config()
) -> PermutationGroup:
    """A Sylow p-subgroup, grown from the p-parts of random elements (words
    of length <= config.max_word_length, drawn with config.seed).

    A p-part y of a random element joins the p-subgroup P built so far when
    it is not in P and <P, y> still has p-power order; the stabilizer chain
    certifies every order, so randomness only costs draws, never
    correctness.  Growth stops at the p-part of |G|; when 10 000 draws do
    not reach it, SylowGrowthStalled names the word-length budget.  Then
    each generator, last to first, is dropped if the others generate it,
    which leaves an irredundant generating set: class_order_presented
    costs grow with it.
    """
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    target = p_part(group.order(), p)
    sub = PermutationGroup(group.degree, [])
    rng = Random(config.seed)
    draws = 10_000
    for _ in range(draws):
        if sub.order() == target:
            break
        y = group.random_element(rng, config.max_word_length)
        m = element_order(y)
        y = perm_power(y, m // p_part(m, p))
        if not sub.contains(y):
            grown = PermutationGroup(group.degree, [*sub.generators, y])
            if p_part(grown.order(), p) == grown.order():
                sub = grown
    if sub.order() != target:
        raise SylowGrowthStalled(
            f"Sylow {p}-subgroup growth stalled at order {sub.order()} of {target} "
            f"({draws} words of length <= max_word_length {config.max_word_length})"
        )
    gens = list(sub.generators)
    for i in range(len(gens) - 1, -1, -1):
        rest = gens[:i] + gens[i + 1:]
        if PermutationGroup(group.degree, rest).order() == target:
            gens = rest
    return PermutationGroup(group.degree, gens)


def orbits(degree: int, generators: list[Perm], points: list[int]) -> list[list[int]]:
    """Orbits of the given points under the generated group, each sorted,
    ordered by smallest member."""
    remaining = set(points)
    out = []
    for start in sorted(points):
        if start not in remaining:
            continue
        orb = {start}
        frontier = [start]
        while frontier:
            x = frontier.pop()
            for g in generators:
                y = g[x]
                if y not in orb:
                    orb.add(y)
                    frontier.append(y)
        out.append(sorted(orb))
        remaining -= orb
    return out

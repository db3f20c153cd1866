#!/usr/bin/env python3
"""Probe the unresolved doubled-soccer case with a larger scan budget.

The period of the doubled truncated icosahedron is known to be 30 or 60
(lower bound 30 from cyclic restrictions, upper bound 60 from the genus
and orbit rules); deciding between them would require a certificate with
4 dividing some restriction order.  This experiment samples many more
cyclic subgroups than the default scan and tabulates the restriction
orders seen, grouped by element order.

Usage: python scripts/probe_open_case.py [--words N] [--subgroups N] [--seed N]
"""

import argparse
import math
import sys
from collections import Counter

from graphperiod.autgroup import automorphism_group, from_combined
from graphperiod.catalog import builtin
from graphperiod.cohomology import class_order_cyclic
from graphperiod.config import Config
from graphperiod.homology import fundamental_cycle_basis
from graphperiod.permgroup import cyclic_subgroups


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--words", type=int, default=4000)
    parser.add_argument("--subgroups", type=int, default=1200)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    graph = builtin("soccer-doubled")
    group = automorphism_group(graph)
    lattice = fundamental_cycle_basis(graph)

    config = Config(
        seed=args.seed, word_budget=args.words, max_word_length=16, max_subgroups=args.subgroups
    )
    pairs, complete = cyclic_subgroups(group, config)
    print(f"sampled {len(pairs)} cyclic subgroups (complete scan: {complete})")
    table = Counter()
    lower = 1
    for perm, order in pairs:
        sigma = from_combined(graph, perm)
        n = class_order_cyclic(lattice, sigma)
        table[(order, n)] += 1
        lower = math.lcm(lower, n)
    print("element order -> restriction orders seen (count):")
    for (order, n), count in sorted(table.items()):
        print(f"  |sigma| = {order:<3} restriction order {n:<3} x{count}")
    print(f"accumulated period lower bound: {lower}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

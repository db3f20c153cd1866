from math import gcd
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphperiod.intlinalg import (
    DimensionMismatch,
    LatticeSolver,
    NoneUpTo,
    det_bareiss,
    diagonal,
    identity_matrix,
    matmul,
    matvec,
    minimal_multiple_snf,
    smith_normal_form,
)


def check_snf_contract(a):
    u, s, v = smith_normal_form(a)
    assert matmul(matmul(u, a), v) == s
    assert abs(det_bareiss(u)) == 1
    assert abs(det_bareiss(v)) == 1
    rows, cols = len(a), len(a[0])
    for i in range(rows):
        for j in range(cols):
            if i != j:
                assert s[i][j] == 0
    d = diagonal(s)
    assert all(x >= 0 for x in d)
    for x, y in zip(d, d[1:]):
        if x == 0:
            assert y == 0
        else:
            assert y % x == 0
    return d


def test_snf_identity():
    d = check_snf_contract(identity_matrix(3))
    assert d == [1, 1, 1]


def test_snf_hand_example():
    # det = -8, gcd of entries 2, so the invariant factors are 2 and 4
    d = check_snf_contract([[2, 4], [6, 8]])
    assert d == [2, 4]


def test_snf_zero_matrix():
    d = check_snf_contract([[0, 0], [0, 0]])
    assert d == [0, 0]


def test_snf_invariant_under_permutation():
    rng = Random(5)
    for _ in range(20):
        rows, cols = rng.randint(2, 6), rng.randint(2, 6)
        a = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        d1 = check_snf_contract(a)
        rperm = list(range(rows))
        cperm = list(range(cols))
        rng.shuffle(rperm)
        rng.shuffle(cperm)
        b = [[a[i][j] for j in cperm] for i in rperm]
        assert check_snf_contract(b) == d1


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda r: st.integers(1, 6).flatmap(
            lambda c: st.lists(
                st.lists(st.integers(-30, 30), min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            )
        )
    )
)
def test_snf_contract_hypothesis(a):
    check_snf_contract(a)


def column_solver(d):
    """LatticeSolver spanned by the columns of d."""
    solver = LatticeSolver(len(d))
    for j in range(len(d[0])):
        solver.add_generator([row[j] for row in d])
    return solver


def test_minimal_multiple_identity():
    n, x = minimal_multiple_snf(identity_matrix(3), [4, -1, 7], bound=5)
    assert n == 1
    assert x == [4, -1, 7]
    assert column_solver(identity_matrix(3)).least_multiple([4, -1, 7], 5) == 1


def test_minimal_multiple_single_entry():
    n, x = minimal_multiple_snf([[2]], [1], bound=4)
    assert n == 2
    assert x == [1]
    assert column_solver([[2]]).least_multiple([1], 4) == 2


def test_minimal_multiple_diag_2_3():
    # brute force over n = 1..6: n*(1,1) in im diag(2,3) first at n = 6
    d = [[2, 0], [0, 3]]
    expected = None
    for n in range(1, 7):
        if (n % 2 == 0) and (n % 3 == 0):
            expected = n
            break
    assert expected == 6
    n, x = minimal_multiple_snf(d, [1, 1], bound=6)
    assert n == 6
    assert matvec(d, x) == [6, 6]
    assert column_solver(d).least_multiple([1, 1], 6) == 6


def test_minimal_multiple_none_up_to():
    assert minimal_multiple_snf([[2]], [1], bound=1) == NoneUpTo(bound=1)
    assert column_solver([[2]]).least_multiple([1], 1) == NoneUpTo(bound=1)


def test_minimal_multiple_bound_must_be_positive():
    with pytest.raises(ValueError):
        minimal_multiple_snf([[2]], [1], bound=0)


def test_minimal_multiple_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        minimal_multiple_snf([[1, 0]], [1, 2], bound=3)
    with pytest.raises(DimensionMismatch):
        column_solver([[1, 0]]).least_multiple([1, 2], 3)


def test_minimal_multiple_routes_agree():
    rng = Random(11)
    for _ in range(40):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        d = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        c = [rng.randint(-4, 4) for _ in range(rows)]
        n1 = column_solver(d).least_multiple(c, 12)
        r2 = minimal_multiple_snf(d, c, bound=12)
        if isinstance(n1, NoneUpTo):
            assert isinstance(r2, NoneUpTo)
        else:
            assert not isinstance(r2, NoneUpTo)
            assert n1 == r2[0]
            assert matvec(d, r2[1]) == [r2[0] * y for y in c]


def test_minimal_multiple_minimality_brute_force():
    rng = Random(7)
    for _ in range(25):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        d = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        c = [rng.randint(-3, 3) for _ in range(rows)]
        result = minimal_multiple_snf(d, c, bound=10)
        solver = column_solver(d)
        memberships = [n for n in range(1, 11) if solver.contains([n * x for x in c])]
        if isinstance(result, NoneUpTo):
            assert memberships == []
        else:
            assert result[0] == memberships[0]


def test_lattice_solver_membership():
    solver = column_solver([[2, 0], [0, 4]])
    assert solver.contains([2, 4])
    assert not solver.contains([1, 0])
    assert solver.contains([0, 0])
    assert solver.contains([4, -8])


def test_contains_matches_smith_membership_for_every_multiple():
    # The first two columns share their pivot with entries 2 and 3, neither
    # dividing the other, so add_generator replaces the echelon row by the
    # gcd combination.  Most targets are d y / gcd(d y): in the rational
    # span, with a least multiple that is often above 1.
    rng = Random(3)
    for _ in range(60):
        rows, cols = rng.randint(1, 5), rng.randint(0, 2)
        d = [[2, 3] + [rng.randint(-6, 6) for _ in range(cols)]]
        d += [[2 * rng.randint(-3, 3), 3 * rng.randint(-3, 3)]
              + [rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows - 1)]
        if rng.random() < 0.75:
            c = matvec(d, [rng.randint(-3, 3) for _ in range(cols + 2)])
            g = gcd(*c)
            if g:
                c = [x // g for x in c]
        else:
            c = [rng.randint(-4, 4) for _ in range(rows)]
        solver = column_solver(d)
        for n in range(1, 13):
            target = [n * x for x in c]
            in_span = isinstance(minimal_multiple_snf(d, target, bound=1), tuple)
            assert solver.contains(target) == in_span, (d, c, n)


def _reduces_to_zero(solver, vec):
    """LatticeSolver.contains as it was before it became least_multiple(vec,
    1) == 1: reduce a copy by the echelon rows, pivots in increasing order,
    failing at a pivot with no row or an entry the row's does not divide."""
    row = {j: x for j, x in enumerate(vec) if x}
    while row:
        pivot = min(row)
        erow = solver.rows.get(pivot)
        if erow is None or row[pivot] % erow[pivot]:
            return False
        q = row[pivot] // erow[pivot]
        for j, x in erow.items():
            val = row.get(j, 0) - q * x
            if val:
                row[j] = val
            else:
                row.pop(j, None)
    return True


def _least_multiple_n_by_n(solver, vec, bound):
    """least_multiple as it was before it took one reduction: the membership
    test repeated for n = 1, 2, ..., bound."""
    for n in range(1, bound + 1):
        if _reduces_to_zero(solver, [n * x for x in vec]):
            return n
    return NoneUpTo(bound)


def test_least_multiple_matches_the_n_by_n_search():
    """On random integer lattices, for targets in the rational span, random
    targets, the zero target and targets outside the span, the one-pass
    least multiple equals the n-by-n search, at a bound equal to the answer
    and one below it too; no reduction changes an echelon row."""
    rng = Random(20)
    checked = {"zero": 0, "outside": 0, "found": 0, "above 1": 0}
    for _ in range(300):
        rows, cols = rng.randint(1, 6), rng.randint(1, 5)
        # columns scaled by 2, 3 or 6 leave the lattice short of its
        # saturation, so least multiples above 1 are common
        scale = [rng.choice([1, 2, 3, 6]) for _ in range(cols)]
        d = [[s * rng.randint(-6, 6) for s in scale] for _ in range(rows)]
        # a last row of zeros, so a target nonzero there is outside the span
        d.append([0] * cols)
        solver = LatticeSolver(rows + 1)
        for j in range(cols):
            solver.add_generator([row[j] for row in d])
        echelon = {pivot: dict(row) for pivot, row in solver.rows.items()}
        kind = rng.choice(["span", "random", "zero", "outside"])
        if kind == "span":
            c = matvec(d, [rng.randint(-3, 3) for _ in range(cols)])
            g = gcd(*c)
            c = [x // g for x in c] if g else c
        elif kind == "zero":
            c = [0] * (rows + 1)
        else:
            c = [rng.randint(-4, 4) for _ in range(rows)] + [0]
            if kind == "outside":
                c[-1] = rng.choice([-2, -1, 1, 3])
        bound = 60
        expected = _least_multiple_n_by_n(solver, c, bound)
        assert solver.least_multiple(c, bound) == expected, (d, c)
        if not any(c):
            assert expected == 1
            checked["zero"] += 1
        if c[-1]:
            assert expected == NoneUpTo(bound)
            checked["outside"] += 1
        if isinstance(expected, int):
            checked["found"] += 1
            checked["above 1"] += expected > 1
            assert solver.least_multiple(c, expected) == expected
            assert solver.least_multiple(c, expected - 1) == NoneUpTo(expected - 1)
            assert _least_multiple_n_by_n(solver, c, expected - 1) == NoneUpTo(expected - 1)
        assert solver.contains(c) == _reduces_to_zero(solver, c) == (expected == 1)
        assert solver.rows == echelon
    assert all(count >= 20 for count in checked.values()), checked


def test_add_generator_and_least_multiple_leave_the_callers_vectors_alone():
    rng = Random(5)
    solver = LatticeSolver(6)
    for _ in range(30):
        vec = {j: rng.randint(-5, 5) for j in rng.sample(range(6), rng.randint(1, 6))}
        listed = [rng.randint(-5, 5) for _ in range(6)]
        before, listed_before = dict(vec), list(listed)
        solver.add_generator(vec)
        solver.add_generator(listed)
        solver.least_multiple(vec, 20)
        solver.least_multiple(listed, 20)
        assert vec == before and list(vec.items()) == list(before.items())
        assert listed == listed_before
    # the echelon rows are the solver's own dicts, none of them the caller's
    assert all(row is not vec for row in solver.rows.values())

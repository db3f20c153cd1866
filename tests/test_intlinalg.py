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

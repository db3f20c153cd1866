"""Exact integer matrix algebra: Smith normal form, and lattice membership
with least multiples.

LatticeSolver answers whether a vector lies in the span of its generators,
and the least n with n*vec inside, from a Hermite form; it keeps no
coordinates over the generators.  The least multiple takes one reduction of
the vector, which scales it only where a pivot demands, and membership is
the least multiple under the bound 1.  Its echelon rows also give left kernels:
homology.invariant_functionals reads the invariant functionals of an
action off the echelon form of [A - I | I].  The Smith form is the
reference route: minimal_multiple_snf answers the membership question for
the columns of a matrix through a Smith decomposition, with a witness, and
homology.invariant_functional_gcd gets the invariant functionals from one;
the tests and the oracle hold the Hermite routes to them.

Everything is plain Python ints (arbitrary precision); there is no floating
point anywhere.  Matrices are lists of row lists.  The lattice solver takes
and keeps vectors sparse (dict coordinate -> value): its long columns come
built as dicts, the Fox Jacobian of a Sylow subgroup's presentation (one
row per relator and coordinate) and, in the oracle, the bar complex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

Matrix = list[list[int]]


class DimensionMismatch(ValueError):
    pass


@dataclass(frozen=True)
class NoneUpTo:
    """No multiple n <= bound of the target lies in the lattice."""

    bound: int


def identity_matrix(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def zeros(r: int, c: int) -> Matrix:
    return [[0] * c for _ in range(r)]


def matmul(a: Matrix, b: Matrix) -> Matrix:
    if not a or not b:
        return []
    n, k, m = len(a), len(b), len(b[0])
    if len(a[0]) != k:
        raise DimensionMismatch("matmul shapes")
    out = zeros(n, m)
    for i in range(n):
        row = a[i]
        acc = out[i]
        for t in range(k):
            x = row[t]
            if x:
                bt = b[t]
                for j in range(m):
                    if bt[j]:
                        acc[j] += x * bt[j]
    return out


def matvec(a: Matrix, v: list[int]) -> list[int]:
    if a and len(a[0]) != len(v):
        raise DimensionMismatch("matvec shapes")
    return [sum(x * y for x, y in zip(row, v) if x and y) for row in a]


def mat_copy(a: Matrix) -> Matrix:
    return [row[:] for row in a]


def det_bareiss(a: Matrix) -> int:
    """Exact determinant by fraction-free Gaussian elimination."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise DimensionMismatch("determinant needs a square matrix")
    m = mat_copy(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def smith_normal_form(a: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """Return (U, S, V) with U*a*V = S, U and V unimodular, S diagonal with
    s1 | s2 | ... >= 0.

    Entries are cleared by 2x2 unimodular transforms built from the
    extended gcd, which keeps intermediate growth polynomial (plain
    quotient-and-swap pivoting can explode even on small dense matrices).
    """
    if not a or not a[0]:
        raise ValueError("matrix must be nonempty")
    rows, cols = len(a), len(a[0])
    s = mat_copy(a)
    u = identity_matrix(rows)
    v = identity_matrix(cols)

    def swap_rows(i, j):
        s[i], s[j] = s[j], s[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in s:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def row_transform(i1, i2, x, y, z, w):
        # (row i1, row i2) <- (x*r1 + y*r2, z*r1 + w*r2); x*w - y*z = +-1
        for m in (s, u):
            r1, r2 = m[i1], m[i2]
            for k in range(len(r1)):
                r1[k], r2[k] = x * r1[k] + y * r2[k], z * r1[k] + w * r2[k]

    def col_transform(j1, j2, x, y, z, w):
        for m in (s, v):
            for row in m:
                row[j1], row[j2] = x * row[j1] + y * row[j2], z * row[j1] + w * row[j2]

    def clear_col(t) -> bool:
        changed = False
        for i in range(t + 1, rows):
            b = s[i][t]
            if not b:
                continue
            changed = True
            pivot = s[t][t]
            if b % pivot == 0:
                row_transform(t, i, 1, 0, -(b // pivot), 1)
            else:
                g, x, y = _xgcd(pivot, b)
                row_transform(t, i, x, y, -(b // g), pivot // g)
        return changed

    def clear_row(t) -> bool:
        changed = False
        for j in range(t + 1, cols):
            b = s[t][j]
            if not b:
                continue
            changed = True
            pivot = s[t][t]
            if b % pivot == 0:
                col_transform(t, j, 1, 0, -(b // pivot), 1)
            else:
                g, x, y = _xgcd(pivot, b)
                col_transform(t, j, x, y, -(b // g), pivot // g)
        return changed

    t = 0
    while t < min(rows, cols):
        # move a nonzero entry of smallest magnitude into the pivot slot
        pivot = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                x = s[i][j]
                if x and (best is None or abs(x) < best):
                    best = abs(x)
                    pivot = (i, j)
        if pivot is None:
            break
        if pivot[0] != t:
            swap_rows(t, pivot[0])
        if pivot[1] != t:
            swap_cols(t, pivot[1])
        # alternate until both passes are stable; gcd steps shrink the
        # pivot, so this terminates
        clear_col(t)
        while clear_row(t):
            if not clear_col(t):
                break
        # the pivot must divide every remaining entry (divisibility chain)
        fix = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if s[i][j] % s[t][t]:
                    fix = i
                    break
            if fix is not None:
                break
        if fix is not None:
            row_transform(t, fix, 1, 1, 0, 1)  # row t += row fix
            continue
        if s[t][t] < 0:
            for j in range(cols):
                s[t][j] = -s[t][j]
            for j in range(rows):
                u[t][j] = -u[t][j]
        t += 1
    return u, s, v


def diagonal(s: Matrix) -> list[int]:
    return [s[i][i] for i in range(min(len(s), len(s[0]) if s else 0))]


class LatticeSolver:
    """The sublattice of Z^n spanned by a set of generator vectors, held in
    integer row-echelon (Hermite) form: one sparse row per pivot column,
    the least column where the row is nonzero.  Every reduction works on
    the solver's own copy of the vector, in place."""

    def __init__(self, n: int):
        self.n = n
        self.rows: dict[int, dict[int, int]] = {}

    def add_generator(self, vec: dict[int, int] | list[int]):
        row = self._to_sparse(vec)
        while row:
            pivot = min(row)
            erow = self.rows.get(pivot)
            if erow is None:
                self.rows[pivot] = row
                return
            a, b = erow[pivot], row[pivot]
            if b % a == 0:
                _reduce(row, 1, erow, b // a)
            else:
                # replace the echelon row by the gcd combination
                g, x, y = _xgcd(a, b)
                self.rows[pivot] = _combine(erow, x, row, y)
                _reduce(row, a // g, erow, b // g)

    def _to_sparse(self, vec) -> dict[int, int]:
        if isinstance(vec, dict):
            return {j: x for j, x in vec.items() if x}
        if len(vec) != self.n:
            raise DimensionMismatch("vector length")
        return {j: x for j, x in enumerate(vec) if x}

    def contains(self, vec) -> bool:
        """Whether vec lies in the lattice."""
        return self.least_multiple(vec, 1) == 1

    def least_multiple(self, vec, bound: int) -> int | NoneUpTo:
        """Least n in [1, bound] with n*vec in the lattice, from one
        reduction of vec by the echelon rows, pivots in increasing order.

        The n with n*vec in the lattice form an ideal of Z.  Say the reduced
        row r = n*vec - l, l in the lattice, has least column p, and every
        n' in the ideal is a multiple of n, as it is for n = 1.  Then n' =
        k*n is in the ideal iff k*r is in the lattice.  The lattice vectors
        that vanish below column p are the combinations of the echelon rows
        with pivots >= p, so their entry at p is a multiple of the pivot
        entry a of the echelon row e at p, and is 0 when p has no echelon
        row.  So with b = r[p] != 0 no multiple of vec is in the lattice when
        p has no echelon row, and otherwise a | k*b, that is s | k for s =
        |a| / gcd(a, b).  Then n*s divides every n' in the ideal, and r' =
        s*r - (s*b/a)*e, which vanishes up to column p, is n*s*vec less a
        lattice vector.  When the row reaches zero, n*vec is in the lattice
        and n divides every n' in the ideal, so n is the least.  n only
        grows, so once it exceeds bound no n <= bound is in the ideal."""
        row = self._to_sparse(vec)
        n = 1
        while row and n <= bound:
            pivot = min(row)
            erow = self.rows.get(pivot)
            if erow is None:
                return NoneUpTo(bound)
            a, b = erow[pivot], row[pivot]
            s = abs(a) // math.gcd(a, b)
            n *= s
            _reduce(row, s, erow, s * b // a)
        return n if n <= bound else NoneUpTo(bound)


def _reduce(row: dict[int, int], s: int, erow: dict[int, int], q: int):
    """row <- s*row - q*erow in place, zero entries dropped."""
    if s != 1:
        for j in row:
            row[j] *= s
    for j, x in erow.items():
        val = row.get(j, 0) - q * x
        if val:
            row[j] = val
        else:
            del row[j]


def axpy(a: dict[int, int], b: dict[int, int], q: int = 1) -> dict[int, int]:
    """a + q*b on sparse vectors, zero entries dropped."""
    out = dict(a)
    for j, x in b.items():
        val = out.get(j, 0) + q * x
        if val:
            out[j] = val
        else:
            out.pop(j, None)
    return out


def _combine(a: dict[int, int], x: int, b: dict[int, int], y: int) -> dict[int, int]:
    out: dict[int, int] = {}
    for j, v in a.items():
        if x and v:
            out[j] = x * v
    for j, v in b.items():
        val = out.get(j, 0) + y * v
        if val:
            out[j] = val
        else:
            out.pop(j, None)
    return out


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def minimal_multiple_snf(
    d: Matrix, c: list[int], bound: int
) -> tuple[int, list[int]] | NoneUpTo:
    """Least n in [1, bound] with n*c in the integer column span of d,
    together with a witness x satisfying d @ x = n*c, solved through a
    Smith decomposition.  The independent reference for LatticeSolver.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    if not d or len(c) != len(d):
        raise DimensionMismatch("need len(c) == rows(d)")
    u, s, v = smith_normal_form(d)
    cols = len(d[0])
    diag = diagonal(s)
    uc = matvec(u, c)
    for n in range(1, bound + 1):
        target = [n * x for x in uc]
        y = [0] * cols
        ok = True
        for i, t in enumerate(target):
            if i < len(diag) and diag[i]:
                if t % diag[i]:
                    ok = False
                    break
                y[i] = t // diag[i]
            elif t:
                ok = False
                break
        if ok:
            return n, matvec(v, y)
    return NoneUpTo(bound)

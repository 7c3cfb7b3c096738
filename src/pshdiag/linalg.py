"""Small exact linear algebra routines over `fractions.Fraction`.

Everything here is dense Gaussian elimination at desk scale; no pivoting
heuristics are needed because the arithmetic is exact.  ``int_det`` is
the one fraction-free (Bareiss) determinant, of an int matrix; ``det``
wraps it, scaling each rational row to integers.  ``integral`` and
``reduced`` serve the fraction-free kernels, which keep each rational row
as a positive integer multiple of it.  ``int_kernel`` takes the rank and
an integer null basis of an int matrix, without fractions.
"""

from __future__ import annotations

import math
from fractions import Fraction

Vector = tuple[Fraction, ...]
Matrix = list[list[Fraction]]


def frac_rows(rows) -> Matrix:
    return [[Fraction(x) for x in row] for row in rows]


def rref(m: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form over `Fraction`, and the list of pivot columns."""
    a = frac_rows(m)
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pivot = next((i for i in range(r, rows) if a[i][c] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        pv = a[r][c]
        a[r] = [x / pv for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return a, pivots


def rank(m: Matrix) -> int:
    if not m:
        return 0
    return len(rref(m)[1])


def det(m: Matrix) -> Fraction:
    """The determinant: ``int_det`` of the rows, each scaled to integers (``integral``)."""
    scale = 1
    a = []
    for row in m:
        s, ints = integral(row)
        scale *= s
        a.append(ints)
    return Fraction(int_det(a), scale)


def int_det(a: list[list[int]]) -> int:
    """The determinant of an int matrix, by fraction-free elimination
    (Bareiss, Math. Comp. 22, 1968); the rows are overwritten in place.

    After step k every entry right of column k and below the pivots is a
    (k+1)-minor of the matrix, so the division by the previous pivot is
    exact and no entry grows past a minor; the last pivot is the
    determinant.  Entries at and left of column k are not updated, as no
    later step reads them.  Rows are swapped as in Gaussian elimination,
    at the first nonzero entry of the column.
    """
    n = len(a)
    sign, prev = 1, 1
    for c in range(n):
        pivot = next((i for i in range(c, n) if a[i][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            sign = -sign
        top = a[c]
        p = top[c]
        for i in range(c + 1, n):
            row = a[i]
            f = row[c]
            row[c + 1 :] = [(p * x - f * y) // prev for x, y in zip(row[c + 1 :], top[c + 1 :])]
        prev = p
    return sign * prev


def solve_unique(a: Matrix, b: list[Fraction]) -> list[Fraction] | None:
    """Solution of a square system, or None if singular: one ``rref`` of [a | b]."""
    n = len(a)
    red, pivots = rref([list(row) + [b[i]] for i, row in enumerate(a)])
    return [row[n] for row in red] if pivots == list(range(n)) else None


def nullspace(m: Matrix) -> list[list[Fraction]]:
    """Basis of the right null space."""
    if not m:
        return []
    cols = len(m[0])
    red, pivots = rref(m)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -red[r][f]
        basis.append(v)
    return basis


def dot(a, b) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def exact(values) -> tuple:
    """The values, each int or `Fraction` as given and any other through `Fraction`."""
    return tuple(v if type(v) is int or type(v) is Fraction else Fraction(v) for v in values)


def integral(values) -> tuple[int, list[int]]:
    """The lcm of the denominators, and the values times it."""
    scale = math.lcm(*(v.denominator for v in values))
    return scale, [v.numerator * (scale // v.denominator) for v in values]


def reduced(row: list[int]) -> list[int]:
    """The row over the gcd of its entries; a zero row is returned as it is."""
    g = math.gcd(*row)
    return [x // g for x in row] if g > 1 else row


def int_kernel(rows: list[list[int]], cols: int) -> tuple[int, list[list[int]]]:
    """The rank of an int matrix and an int basis of its right null space.

    Gauss-Jordan elimination without division: a row a with a nonzero
    entry f in the pivot column becomes (p a - f r) / gcd(p, f) for the
    pivot row r and its pivot p, divided by the gcd of its entries
    (``reduced``), so each row stays a nonzero int multiple of the row
    that elimination over the rationals would give.  At the end each pivot
    row is zero on every pivot column but its own; the free column j gives
    the null vector with l at j and -a_j l / p at the pivot column of each
    row (a_j its entry at j, p its pivot), l the lcm of the pivots, over
    the gcd of its entries.  The basis is ordered by free column.
    """
    a = [r for r in rows if any(r)]
    pivots: list[int] = []
    for c in range(cols):
        r = len(pivots)
        k = next((i for i in range(r, len(a)) if a[i][c]), None)
        if k is None:
            continue
        a[r], a[k] = a[k], a[r]
        top = a[r]
        p = top[c]
        for i, row in enumerate(a):
            f = row[c]
            if f and i != r:
                g = math.gcd(p, f)
                a[i] = reduced([(p // g) * x - (f // g) * y for x, y in zip(row, top)])
        a[r + 1 :] = [row for row in a[r + 1 :] if any(row)]
        pivots.append(c)
    lcm = math.lcm(*(a[r][c] for r, c in enumerate(pivots)))
    basis = []
    for j in sorted(set(range(cols)) - set(pivots)):
        v = [0] * cols
        v[j] = lcm
        for r, c in enumerate(pivots):
            v[c] = -a[r][j] * lcm // a[r][c]
        basis.append(reduced(v))
    return len(pivots), basis

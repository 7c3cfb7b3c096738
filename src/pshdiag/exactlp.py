"""Exact rational linear programming via the two-phase simplex method.

Tiny dense tableau implementation with Bland's anti-cycling rule.  The
tableau holds Python ints, not `Fraction`s (fraction-free elimination:
Edmonds, J. Res. NBS 71B, 1967; Bareiss, Math. Comp. 22, 1968): answers
are exact at one gcd per row update, not one per operation.

Row invariant: each constraint row is a positive multiple of its
`Fraction` row, the multiple being its entry in its basic column, and the
cost row is a positive multiple of the reduced costs.  A row starts as
its coefficients times the lcm of their denominators, which is also its
artificial entry; a pivot on (row, col) with entry pv > 0 replaces every
other row r by pv*r - r[col]*pivot_row over their gcd.  Each decision of
Bland's rule reads a sign or compares ratios r[-1]/r[col] of single rows,
and neither changes under positive row scaling, so the pivots, and the
answers x_b = r[-1]/r[b], are those of the `Fraction` tableau.

The update is sparse: each row r is scaled to pv*r, and r[col]*y is
subtracted only at the columns where the pivot row holds y != 0 (15 % of
a pivot row's entries on the benchmark's `decide` pool, 22 % on
`session`).  That gives the integers of the dense pv*r - r[col]*pivot_row,
so the invariant holds as stated.  Int and `Fraction` coefficients are
read as they are, and any other through `Fraction`; answers are built
only from the basic structural columns, every other x_j being 0.

One call solves one constraint system: phase 1 finds a feasible basis once,
and phase 2 minimises each objective from a copy of that basis.  Problem
sizes throughout the package are desk scale (tens of variables).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import VerificationFailure
from .linalg import exact, integral, reduced

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"


@dataclass
class LPResult:
    status: str
    x: list[Fraction] | None = None
    value: Fraction | None = None


def _pivot(tab: list[list[int]], basis: list[int], row: int, col: int) -> None:
    pr = tab[row]
    pv = pr[col]
    if pv < 0:
        pr = tab[row] = [-x for x in pr]
        pv = -pv
    # pv*r - f*pr as a new list (phase-2 tableaux share rows), subtracting
    # only where the pivot row is nonzero
    support = [(j, y) for j, y in enumerate(pr) if y]
    for i, r in enumerate(tab):
        f = r[col]
        if i != row and f != 0:
            r = [pv * x for x in r] if pv != 1 else r[:]
            for j, y in support:
                r[j] -= f * y
            tab[i] = reduced(r)
    basis[row] = col


def _priced(cost: list[int], tab: list[list[int]], basis: list[int]) -> list[int]:
    """A positive multiple of the cost row with each basic column priced out."""
    for row, b in zip(tab, basis):
        f = cost[b]
        if f != 0:
            s = row[b]
            cost = [s * x - f * y for x, y in zip(cost, row)]
    return reduced(cost)


def _run_simplex(tab: list[list[int]], basis: list[int], ncols: int) -> str:
    """Minimize; last tableau row holds reduced costs. Bland's rule."""
    while True:
        cost = tab[-1]
        col = next((j for j in range(ncols) if cost[j] < 0), None)
        if col is None:
            return OPTIMAL
        best_row = None
        for i in range(len(tab) - 1):
            r = tab[i]
            if r[col] > 0:
                # r[-1]/r[col] against the best row's ratio, by cross-multiplication
                diff = None if best_row is None else r[-1] * best[col] - best[-1] * r[col]
                if diff is None or diff < 0 or (diff == 0 and basis[i] < basis[best_row]):
                    best_row, best = i, r
        if best_row is None:
            return UNBOUNDED
        _pivot(tab, basis, best_row, col)


def solve_lp(n: int, objectives=(), eq=(), ub=(), nonneg: bool = False) -> list[LPResult] | None:
    """Minimize each objective·x subject to a·x == b (eq) and a·x <= b (ub).

    Variables are free unless ``nonneg`` is set.  Returns one result per
    objective, in order, or None when the system is infeasible; with no
    objectives, a feasible system gives an empty list.
    """
    # standard form columns: x (or x+, x-), slacks, artificials, rhs
    width = n if nonneg else 2 * n
    nslack = len(ub)
    rows = [*eq, *ub]
    m = len(rows)
    neq = m - nslack
    total = width + nslack

    def expand(coeffs: list[int]) -> list[int]:
        return coeffs if nonneg else coeffs + [-v for v in coeffs]

    tab = []
    for i, (coeffs, b) in enumerate(rows):
        scale, row = integral(exact((*coeffs, b)))
        sign = -1 if row[-1] < 0 else 1
        row = [sign * v for v in row]
        slack = [0] * nslack
        if i >= neq:
            slack[i - neq] = sign * scale
        art = [0] * m
        art[i] = scale
        tab.append(expand(row[:-1]) + slack + art + row[-1:])

    # phase 1: minimise the sum of the artificials
    basis = [total + i for i in range(m)]
    tab.append(_priced([0] * total + [1] * m + [0], tab, basis))
    status = _run_simplex(tab, basis, total + m)
    if status != OPTIMAL:
        raise VerificationFailure(f"phase 1 is bounded below by 0 but reported {status}")
    if tab[-1][-1] != 0:
        return None
    # drive remaining artificials out of the basis
    for i in range(m):
        if basis[i] >= total:
            col = next((j for j in range(total) if tab[i][j] != 0), None)
            if col is not None:
                _pivot(tab, basis, i, col)
    keep = [i for i in range(m) if basis[i] < total]
    tab = [tab[i][:total] + [tab[i][-1]] for i in keep]
    basis = [basis[i] for i in keep]

    # phase 2, once per objective; _pivot replaces rows rather than
    # editing them, so a shallow copy of the feasible tableau suffices
    results = []
    for objective in objectives:
        c = exact(objective)
        _, cost = integral(c)
        run_tab = tab + [_priced(expand(cost) + [0] * (nslack + 1), tab, basis)]
        run_basis = list(basis)
        if _run_simplex(run_tab, run_basis, total) == UNBOUNDED:
            results.append(LPResult(UNBOUNDED))
            continue
        y = [Fraction(0)] * width
        for r, b in zip(run_tab, run_basis):
            if b < width:
                y[b] = Fraction(r[-1], r[b])
        x = y if nonneg else [y[i] - y[n + i] for i in range(n)]
        value = sum((ci * xi for ci, xi in zip(c, x) if ci), Fraction(0))
        results.append(LPResult(OPTIMAL, x, value))
    return results

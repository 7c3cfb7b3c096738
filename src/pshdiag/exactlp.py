"""Exact rational linear programming via the two-phase simplex method.

Tiny dense tableau implementation with Bland's anti-cycling rule.  All
arithmetic is in `Fraction`, so feasibility and optimality answers are exact.
Problem sizes throughout the package are desk scale (tens of variables).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import VerificationFailure

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass
class LPResult:
    status: str
    x: list[Fraction] | None = None
    value: Fraction | None = None


def _pivot(tab: list[list[Fraction]], basis: list[int], row: int, col: int) -> None:
    pv = tab[row][col]
    tab[row] = [x / pv for x in tab[row]]
    for i, r in enumerate(tab):
        if i != row and r[col] != 0:
            f = r[col]
            tab[i] = [x - f * y for x, y in zip(r, tab[row])]
    basis[row] = col


def _run_simplex(tab: list[list[Fraction]], basis: list[int], ncols: int) -> str:
    """Minimize; last tableau row holds reduced costs. Bland's rule."""
    while True:
        cost = tab[-1]
        col = next((j for j in range(ncols) if cost[j] < 0), None)
        if col is None:
            return OPTIMAL
        best_row = None
        best_ratio = None
        for i in range(len(tab) - 1):
            if tab[i][col] > 0:
                ratio = tab[i][-1] / tab[i][col]
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[best_row])
                ):
                    best_ratio = ratio
                    best_row = i
        if best_row is None:
            return UNBOUNDED
        _pivot(tab, basis, best_row, col)


def solve_lp(
    n: int,
    objective=None,
    eq=(),
    ub=(),
    maximize: bool = False,
    nonneg: bool = False,
) -> LPResult:
    """Solve min/max objective·x subject to a·x == b (eq) and a·x <= b (ub).

    Variables are free unless ``nonneg`` is set.  ``objective=None`` solves a
    pure feasibility problem.
    """
    c = [Fraction(v) for v in objective] if objective is not None else [Fraction(0)] * n
    if maximize:
        c = [-v for v in c]

    # standard form columns: x (or x+, x-) then slacks
    width = n if nonneg else 2 * n
    nslack = len(ub)
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []

    def expand(coeffs) -> list[Fraction]:
        coeffs = [Fraction(v) for v in coeffs]
        if nonneg:
            return coeffs
        out = []
        for v in coeffs:
            out.append(v)
        for v in coeffs:
            out.append(-v)
        return out

    for coeffs, b in eq:
        rows.append(expand(coeffs) + [Fraction(0)] * nslack)
        rhs.append(Fraction(b))
    for k, (coeffs, b) in enumerate(ub):
        slack = [Fraction(0)] * nslack
        slack[k] = Fraction(1)
        rows.append(expand(coeffs) + slack)
        rhs.append(Fraction(b))

    cost = expand(c) + [Fraction(0)] * nslack
    m = len(rows)
    total = width + nslack

    for i in range(m):
        if rhs[i] < 0:
            rows[i] = [-v for v in rows[i]]
            rhs[i] = -rhs[i]

    # phase 1: artificial variables
    tab = [rows[i] + [Fraction(int(i == j)) for j in range(m)] + [rhs[i]] for i in range(m)]
    basis = [total + i for i in range(m)]
    phase1 = [Fraction(0)] * total + [Fraction(1)] * m + [Fraction(0)]
    # price out the artificial basis
    for i in range(m):
        phase1 = [x - y for x, y in zip(phase1, tab[i])]
    tab.append(phase1)
    status = _run_simplex(tab, basis, total + m)
    if status != OPTIMAL:
        raise VerificationFailure(f"phase 1 is bounded below by 0 but reported {status}")
    if -tab[-1][-1] != 0:
        return LPResult(INFEASIBLE)
    # drive remaining artificials out of the basis
    for i in range(m):
        if basis[i] >= total:
            col = next((j for j in range(total) if tab[i][j] != 0), None)
            if col is not None:
                _pivot(tab, basis, i, col)
    keep = [i for i in range(m) if basis[i] < total]
    tab = [
        [tab[i][j] for j in range(total)] + [tab[i][-1]] for i in keep
    ]
    basis = [basis[i] for i in keep]

    # phase 2
    cost_row = cost + [Fraction(0)]
    for i, b in enumerate(basis):
        if cost_row[b] != 0:
            f = cost_row[b]
            cost_row = [x - f * y for x, y in zip(cost_row, tab[i])]
    tab.append(cost_row)
    status = _run_simplex(tab, basis, total)
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED)

    y = [Fraction(0)] * total
    for i, b in enumerate(basis):
        y[b] = tab[i][-1]
    if nonneg:
        x = y[:n]
    else:
        x = [y[i] - y[n + i] for i in range(n)]
    value = sum((ci * xi for ci, xi in zip(c, x)), Fraction(0))
    if maximize:
        value = -value
    return LPResult(OPTIMAL, x, value)


def feasible(n: int, eq=(), ub=(), nonneg: bool = False) -> list[Fraction] | None:
    """A feasible point of the system, or None."""
    res = solve_lp(n, None, eq=eq, ub=ub, nonneg=nonneg)
    return res.x if res.status == OPTIMAL else None

"""Reference two-phase simplex over `Fraction`, kept to check `pshdiag.exactlp`.

This is the dense `Fraction` tableau the package used before its tableau
moved to integer rows.  `pshdiag.exactlp` must make exactly the pivots this
code makes and return equal results; tests compare the two.
"""

from __future__ import annotations

from fractions import Fraction

from pshdiag.errors import VerificationFailure
from pshdiag.exactlp import OPTIMAL, UNBOUNDED, LPResult


def _pivot(tab: list[list[Fraction]], basis: list[int], row: int, col: int) -> None:
    pv = tab[row][col]
    tab[row] = [x / pv for x in tab[row]]
    for i, r in enumerate(tab):
        if i != row and r[col] != 0:
            f = r[col]
            tab[i] = [x - f * y for x, y in zip(r, tab[row])]
    basis[row] = col


def _priced(cost: list[Fraction], tab: list[list[Fraction]], basis: list[int]) -> list[Fraction]:
    """The cost row with each basic column priced out of it."""
    for row, b in zip(tab, basis):
        f = cost[b]
        if f == 1:  # every phase-1 step; skipping the product saves a gcd per cell
            cost = [x - y for x, y in zip(cost, row)]
        elif f != 0:
            cost = [x - f * y for x, y in zip(cost, row)]
    return cost


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


def solve_lp(n: int, objectives=(), eq=(), ub=(), nonneg: bool = False) -> list[LPResult] | None:
    """Minimize each objective·x subject to a·x == b (eq) and a·x <= b (ub).

    Variables are free unless ``nonneg`` is set.  Returns one result per
    objective, in order, or None when the system is infeasible; with no
    objectives, a feasible system gives an empty list.
    """
    # standard form columns: x (or x+, x-) then slacks
    width = n if nonneg else 2 * n
    nslack = len(ub)
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []

    def expand(coeffs) -> list[Fraction]:
        coeffs = [Fraction(v) for v in coeffs]
        return coeffs if nonneg else coeffs + [-v for v in coeffs]

    for coeffs, b in eq:
        rows.append(expand(coeffs) + [Fraction(0)] * nslack)
        rhs.append(Fraction(b))
    for k, (coeffs, b) in enumerate(ub):
        slack = [Fraction(0)] * nslack
        slack[k] = Fraction(1)
        rows.append(expand(coeffs) + slack)
        rhs.append(Fraction(b))

    m = len(rows)
    total = width + nslack

    for i in range(m):
        if rhs[i] < 0:
            rows[i] = [-v for v in rows[i]]
            rhs[i] = -rhs[i]

    # phase 1: artificial variables
    tab = [rows[i] + [Fraction(int(i == j)) for j in range(m)] + [rhs[i]] for i in range(m)]
    basis = [total + i for i in range(m)]
    tab.append(_priced([Fraction(0)] * total + [Fraction(1)] * m + [Fraction(0)], tab, basis))
    status = _run_simplex(tab, basis, total + m)
    if status != OPTIMAL:
        raise VerificationFailure(f"phase 1 is bounded below by 0 but reported {status}")
    if -tab[-1][-1] != 0:
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
        c = [Fraction(v) for v in objective]
        run_tab = tab + [_priced(expand(c) + [Fraction(0)] * (nslack + 1), tab, basis)]
        run_basis = list(basis)
        if _run_simplex(run_tab, run_basis, total) == UNBOUNDED:
            results.append(LPResult(UNBOUNDED))
            continue
        y = [Fraction(0)] * total
        for i, b in enumerate(run_basis):
            y[b] = run_tab[i][-1]
        x = y[:n] if nonneg else [y[i] - y[n + i] for i in range(n)]
        results.append(LPResult(OPTIMAL, x, sum((ci * xi for ci, xi in zip(c, x)), Fraction(0))))
    return results

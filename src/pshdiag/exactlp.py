"""Exact rational linear programming via the two-phase simplex method.

Tiny dense tableau implementation with Bland's anti-cycling rule.  The
tableau holds Python ints, not `Fraction`s (fraction-free elimination:
Edmonds, J. Res. NBS 71B, 1967; Bareiss, Math. Comp. 22, 1968): answers
are exact at one gcd per row update, not one per operation.

Row invariant: each constraint row is a positive multiple of its
`Fraction` row, the multiple being its entry in its basic column, and the
cost row is a positive multiple of the reduced costs.  The tableau holds
only the constraint rows; each phase keeps its cost row outside it.  A
row starts as its coefficients times the lcm of their denominators, which
is also its artificial entry (and its slack entry, for a bound with
b >= 0, whose artificial column is left out, below); a pivot on
(row, col) with entry pv > 0 replaces every other row r, the cost row
too, by pv*r - r[col]*pivot_row over their gcd.  Each decision of
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
and phase 2 minimises each objective from that basis.  Problem sizes
throughout the package are desk scale (tens of variables).

Phase 1 stores an artificial column only for an equation and for a bound
a·x <= b with b < 0.  A bound with b >= 0 has an artificial column equal
to its slack column at the start, and every row operation keeps the two
equal.  Reduced costs of equal columns differ by the difference of their
costs, 1 - 0, so the artificial's is exactly 1 more than the slack's:
were it negative, the slack's would be too, and the slack has the lower
index, so Bland's rule never enters that artificial.  Leaving it out
keeps the order of the other columns, so the tableau without it makes
the same pivots.  Basic variables carry the labels of the full layout,
row i's artificial being total + i (total counting the structural and
slack columns): each row starts with its artificial's label, stored or
not, and a stored artificial enters under its label, so ties between rows
break as in the full tableau.  The phase-1 cost row is written directly,
as minus the sum of the rows, each over its scale, with 0 at the stored
artificials.  The drive-out that follows pivots only the constraint rows.

Both phases run one loop of Bland's rule, ``_minimise``, which keeps every
pivot it takes in a memo.  The `Fraction` constraint rows at a basis are
fixed by the basis, so a pivot (basis, entering column) leads to the same
leaving row and the same rows whichever cost row takes it.  Phase 1 starts
from an empty memo, in which no pivot repeats, since Bland's rule visits no
basis twice.  Phase 2 shares one memo across the call's objectives: an
objective that reaches a pivot already taken reuses its rows and updates
only its own cost row, by the stored pivot row (on one pass of the
benchmark's `decide` pool, 3,022 of 6,640 phase-2 pivots are reached
again).  The reused rows are positive multiples of the rows that objective
would have built, so each decision, and each answer, is unchanged.  Each
optimal basis builds its `Fraction` answer once per call, and each result
gets its own list.  Nothing is kept past the call.
"""

from __future__ import annotations

import math
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


def _eliminated(r: list[int], col: int, pv: int, support: list[tuple[int, int]]) -> list[int]:
    """pv*r - r[col]*pivot_row over its gcd, the pivot row given by its nonzero (j, y)."""
    f = r[col]
    r = [pv * x for x in r] if pv != 1 else r[:]
    for j, y in support:
        r[j] -= f * y
    return reduced(r)


def _pivot(tab: list[list[int]], basis: list[int], row: int, col: int) -> list[tuple[int, int]]:
    """Pivot on (row, col), replacing rows rather than editing them.

    Bland's rule pivots on a positive entry; only the drive-out of phase 1's
    artificials pivots on a negative one, and negates its row first.
    Returns the pivot row's nonzero (column, entry) pairs, with which
    ``_eliminated`` updates a cost row kept outside tab.
    """
    pr = tab[row]
    pv = pr[col]
    if pv < 0:
        pr = tab[row] = [-x for x in pr]
        pv = -pv
    support = [(j, y) for j, y in enumerate(pr) if y]
    for i, r in enumerate(tab):
        if i != row and r[col] != 0:
            tab[i] = _eliminated(r, col, pv, support)
    basis[row] = col
    return support


def _priced(cost: list[int], tab: list[list[int]], basis: list[int]) -> list[int]:
    """A positive multiple of the cost row with each basic column priced out."""
    for row, b in zip(tab, basis):
        f = cost[b]
        if f != 0:
            s = row[b]
            cost = [s * x - f * y for x, y in zip(cost, row)]
    return reduced(cost)


def _entering(cost: list[int], ncols: int) -> int | None:
    """Bland's entering column: the first with a negative reduced cost."""
    return next((j for j in range(ncols) if cost[j] < 0), None)


def _leaving(tab: list[list[int]], basis, col: int) -> int | None:
    """Bland's leaving row: least ratio r[-1]/r[col] over r[col] > 0, ties to the least label."""
    best_row = None
    for i, b in enumerate(basis):
        r = tab[i]
        if r[col] > 0:
            # r[-1]/r[col] against the best row's ratio, by cross-multiplication
            diff = None if best_row is None else r[-1] * best[col] - best[-1] * r[col]
            if diff is None or diff < 0 or (diff == 0 and b < basis[best_row]):
                best_row, best = i, r
    return best_row


def _minimise(tab: list[list[int]], at: tuple, cost: list[int], labels, steps: dict):
    """Minimise the cost row, held outside tab, from basis ``at`` by Bland's rule.

    Column j enters as basic label labels[j].  ``steps`` is the memo of
    pivots taken: (basis, entering column) -> pivot entry, pivot row support,
    and rows and basis after.  Returns the status and the rows, basis and
    cost row reached.
    """
    while (col := _entering(cost, len(labels))) is not None:
        step = steps.get((at, col))
        if step is None:
            row = _leaving(tab, at, col)
            if row is None:
                return UNBOUNDED, tab, at, cost
            tab, basis = list(tab), list(at)
            support = _pivot(tab, basis, row, col)
            basis[row] = labels[col]
            step = steps[at, col] = (tab[row][col], support, tab, tuple(basis))
        pv, support, tab, at = step
        cost = _eliminated(cost, col, pv, support)
    return OPTIMAL, tab, at, cost


def solve_lp(n: int, objectives=(), eq=(), ub=(), nonneg: bool = False) -> list[LPResult] | None:
    """Minimize each objective·x subject to a·x == b (eq) and a·x <= b (ub).

    Variables are free unless ``nonneg`` is set.  Returns one result per
    objective, in order, or None when the system is infeasible; with no
    objectives, a feasible system gives an empty list.
    """
    # standard form columns: x (or x+, x-), slacks, stored artificials, rhs
    width = n if nonneg else 2 * n
    nslack = len(ub)
    rows = [*eq, *ub]
    m = len(rows)
    neq = m - nslack
    total = width + nslack

    def expand(coeffs: list[int]) -> list[int]:
        return coeffs if nonneg else coeffs + [-v for v in coeffs]

    scaled = [integral(exact((*coeffs, b))) for coeffs, b in rows]
    # the rows that store an artificial column: equations and bounds with b < 0
    kept = [i for i, (_, row) in enumerate(scaled) if i < neq or row[-1] < 0]
    tab = []
    for i, (scale, row) in enumerate(scaled):
        sign = -1 if row[-1] < 0 else 1
        slack = [0] * nslack
        if i >= neq:
            slack[i - neq] = sign * scale
        artificial = [scale if k == i else 0 for k in kept]
        tab.append(expand([sign * v for v in row[:-1]]) + slack + artificial + [sign * row[-1]])

    # phase 1: minimise the sum of the artificials
    labels = [*range(total), *(total + i for i in kept)]
    lcm = math.lcm(*(scale for scale, _ in scaled))
    cost = [0] * (len(labels) + 1)
    for row, (scale, _) in zip(tab, scaled):
        w = lcm // scale
        cost = [x - w * y for x, y in zip(cost, row)]
    cost[total:-1] = [0] * len(kept)
    status, tab, at, cost = _minimise(tab, tuple(range(total, total + m)), reduced(cost), labels, {})
    if status != OPTIMAL:
        raise VerificationFailure(f"phase 1 is bounded below by 0 but reported {status}")
    if cost[-1] != 0:
        return None
    # drive remaining artificials out of the basis
    basis = list(at)
    for i in range(m):
        if basis[i] >= total:
            col = next((j for j in range(total) if tab[i][j] != 0), None)
            if col is not None:
                _pivot(tab, basis, i, col)
    keep = [i for i in range(m) if basis[i] < total]
    tab = [tab[i][:total] + [tab[i][-1]] for i in keep]
    start = tuple(basis[i] for i in keep)

    # phase 2, once per objective, every objective reusing the pivots taken
    steps = {}
    optima = {}  # optimal basis -> x
    results = []
    for objective in objectives:
        c = exact(objective)
        _, cost = integral(c)
        cost = _priced(expand(cost) + [0] * (nslack + 1), tab, start)
        status, run_tab, at, _ = _minimise(tab, start, cost, range(total), steps)
        if status != OPTIMAL:
            results.append(LPResult(status))
            continue
        x = optima.get(at)
        if x is None:
            y = [Fraction(0)] * width
            for r, b in zip(run_tab, at):
                if b < width:
                    y[b] = Fraction(r[-1], r[b])
            x = optima[at] = tuple(y) if nonneg else tuple(y[i] - y[n + i] for i in range(n))
        value = sum((ci * xi for ci, xi in zip(c, x) if ci), Fraction(0))
        results.append(LPResult(OPTIMAL, list(x), value))
    return results

import contextlib
import math
import random
import types
from fractions import Fraction as F

import pytest

import fraction_simplex
from pshdiag import canonicalize, decomposition, exactlp, minkowski_sum, scale, summand_system
from pshdiag.exactlp import OPTIMAL, UNBOUNDED, solve_lp
from test_canonicalize_oracle import on_hyperplane


def random_system(rng):
    """A small system whose feasible region, if any, lies in a box."""
    n = rng.randint(1, 4)
    nonneg = rng.random() < 0.5
    eq = [
        ([F(rng.randint(-2, 2)) for _ in range(n)], F(rng.randint(-3, 3)))
        for _ in range(rng.randint(0, 2))
    ]
    ub = [
        ([F(rng.randint(-3, 3)) for _ in range(n)], F(rng.randint(-2, 4)))
        for _ in range(rng.randint(0, 3))
    ]
    for k in range(n):
        unit = [F(int(j == k)) for j in range(n)]
        ub.append((unit, F(rng.randint(1, 5))))
        ub.append(([-c for c in unit], F(rng.randint(1, 5))))
    return n, eq, ub, nonneg


def assert_batched_as_alone(n, objectives, eq, ub, nonneg):
    """One call answers its objectives as one call each, in either order."""
    results = solve_lp(n, objectives, eq=eq, ub=ub, nonneg=nonneg)
    alone = [solve_lp(n, [c], eq=eq, ub=ub, nonneg=nonneg) for c in objectives]
    reverse = solve_lp(n, objectives[::-1], eq=eq, ub=ub, nonneg=nonneg)
    bare = solve_lp(n, eq=eq, ub=ub, nonneg=nonneg)
    if results is None:
        assert alone == [None] * len(objectives)
        assert reverse is None and bare is None
        return None
    assert bare == []
    assert results == [a[0] for a in alone]
    assert reverse == results[::-1]
    return results


def test_many_objectives_match_one_at_a_time():
    rng = random.Random(41)
    seen = {True: 0, False: 0}
    for _ in range(80):
        n, eq, ub, nonneg = random_system(rng)
        objectives = [
            [F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)]
            for _ in range(rng.randint(1, 4))
        ]
        results = assert_batched_as_alone(n, objectives, eq, ub, nonneg)
        seen[results is not None] += 1
        if results is None:
            continue
        for c, res in zip(objectives, results):
            assert res.status == OPTIMAL
            assert res.value == sum(ci * xi for ci, xi in zip(c, res.x))
            assert all(sum(a * x for a, x in zip(row, res.x)) == b for row, b in eq)
            assert all(sum(a * x for a, x in zip(row, res.x)) <= b for row, b in ub)
            assert not nonneg or all(x >= 0 for x in res.x)
    assert seen[True] >= 15 and seen[False] >= 15

    # the edge-scale sweeps, whose objectives share most of their pivots
    sweeps = 0
    for g in sweep_diagrams(random.Random(23)):
        (n, objectives), kwargs = sweep_call(g)
        results = assert_batched_as_alone(n, objectives, **kwargs)
        assert results and all(res.status == OPTIMAL for res in results)
        sweeps += 1
    assert sweeps >= 10


@contextlib.contextmanager
def recorded_pivots(module):
    """The (row, col) of each pivot the module makes inside the block."""
    pivots = []
    real = module._pivot

    def recording(tab, basis, row, col):
        pivots.append((row, col))
        return real(tab, basis, row, col)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, "_pivot", recording)
        yield pivots


def traced_solve(module, *args, **kwargs):
    """A module's solve_lp results and the (row, col) of each pivot it made."""
    with recorded_pivots(module) as pivots:
        return module.solve_lp(*args, **kwargs), pivots


def assert_exact(results):
    for res in results or []:
        if res.status == OPTIMAL:
            assert type(res.value) is F and all(type(x) is F for x in res.x), res


def full_layout(pivots, n, eq, ub, nonneg):
    """exactlp's pivots, each stored artificial column renumbered as in the full layout.

    The full phase-1 layout, fraction_simplex's, has one artificial column
    per row, row i's at total + i.
    """
    total = (n if nonneg else 2 * n) + len(ub)
    # the rows that store one: equations and bounds with b < 0
    kept = [i for i, (_, b) in enumerate([*eq, *ub]) if i < len(eq) or F(b) < 0]
    return [(row, col if col < total else total + kept[col - total]) for row, col in pivots]


def assert_same_path(n, objectives=(), eq=(), ub=(), nonneg=False):
    """solve_lp answers and pivots as the Fraction tableau does.

    The Fraction tableau runs phase 1 once and then each objective's own
    pivots, one after another.  A solve_lp call takes each phase-2 pivot
    once, whichever of its objectives reaches it first, so each of its
    phase-2 runs of _minimise is replayed from its recorded start with no
    pivots to reuse, and must end where the run did.  The pivots are those
    the call made before its first phase-2 run (phase 1 and the drive-out),
    then each replay's.  Returns the answers and the pivots.
    """
    want, want_pivots = traced_solve(fraction_simplex, n, objectives, eq=eq, ub=ub, nonneg=nonneg)
    real = exactlp._minimise
    runs = []  # (pivots made before the run, its arguments but the memo, status and basis reached)

    def recording(tab, at, cost, labels, steps):
        before = len(pivots)
        status, end_tab, end, end_cost = real(tab, at, cost, labels, steps)
        runs.append((before, (tab, at, cost, labels), (status, end)))
        return status, end_tab, end, end_cost

    with recorded_pivots(exactlp) as pivots, pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactlp, "_minimise", recording)
        got = solve_lp(n, objectives, eq=eq, ub=ub, nonneg=nonneg)
    assert got == want
    assert_exact(got)
    # phase 1, then one run per objective unless the system is infeasible
    assert len(runs) == 1 + (0 if want is None else len(objectives))
    path = pivots[: runs[1][0]] if len(runs) > 1 else pivots
    for _, args, (status, end) in runs[1:]:
        with recorded_pivots(exactlp) as replay:
            again, _, again_end, _ = real(*args, {})
        assert (again, again_end) == (status, end)
        path += replay
    assert full_layout(path, n, eq, ub, nonneg) == want_pivots
    return got, want_pivots


def branch_systems():
    """Systems whose pivots reach every branch of the sparse row update."""
    box = [([1, 0], 2), ([0, 1], 2), ([-1, 0], 2), ([0, -1], 2)]
    twice = [([1, 1], 1), ([1, 1], 1), ([-1, -1], -1)]
    return [
        # -2 x = 0 leaves its artificial basic at level 0, driven out on -2
        (1, [([-2], 0)], [], True),
        # x = 0 pivots on 1 in a row whose one other nonzero is its artificial
        (1, [([1], 0)], [], True),
        # duplicated and negated rows
        (2, twice, [([1, 0], 1), ([1, 0], 1)], True),
        (2, twice, [([1, 0], 1), ([1, 0], 1)], False),
        (2, [([F(1, 2), F(1, 3)], 1), ([3, 2], 6)], box, False),
        # zero rows, feasible and not
        (2, [([0, 0], 0)], [([0, 0], 1), *box], False),
        (2, [([0, 0], 1)], box, False),
        (2, [], [([0, 0], -1), *box], True),
    ]


def test_rational_systems_pivot_as_the_fraction_tableau(monkeypatch):
    # record which branches of the row update the pivots take
    branches = set()
    real = exactlp._pivot

    def recording(tab, basis, row, col):
        pv = tab[row][col]
        branches.add("unit" if pv == 1 else "negative" if pv < 0 else "scaled")
        if sum(1 for y in tab[row] if y) == 2:
            branches.add("one nonzero")
        return real(tab, basis, row, col)

    monkeypatch.setattr(exactlp, "_pivot", recording)
    rng = random.Random(8)
    feasible = [0, 0]
    for _ in range(400):
        n, eq, ub, nonneg = random_system(rng)
        eq, ub = (
            [([a / d for a in row], b / d) for row, b in rows for d in [rng.randint(1, 3)]]
            for rows in (eq, ub)
        )
        objectives = [
            [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
            for _ in range(rng.randint(0, 3))
        ]
        results, _ = assert_same_path(n, objectives, eq=eq, ub=ub, nonneg=nonneg)
        feasible[results is not None] += 1
    assert min(feasible) >= 100
    assert branches == {"unit", "negative", "scaled", "one nonzero"}

    branches.clear()
    outcomes = []
    for n, eq, ub, nonneg in branch_systems():
        objectives = [[1, -1][:n], [0] * n, [-1, 2][:n]]
        results, _ = assert_same_path(n, objectives, eq=eq, ub=ub, nonneg=nonneg)
        outcomes.append(None if results is None else tuple(r.status for r in results))
    assert branches == {"unit", "negative", "scaled", "one nonzero"}
    assert outcomes.count(None) == 2
    assert UNBOUNDED in {status for statuses in outcomes if statuses for status in statuses}


def sweep_call(g):
    """The arguments of the edge-scale sweep's one solve_lp call on g."""
    calls = []

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return exactlp.solve_lp(*args, **kwargs)

    fake = types.SimpleNamespace(OPTIMAL=OPTIMAL, solve_lp=recording)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(decomposition, "exactlp", fake)
        decomposition._edge_scale_candidates(summand_system(g))
    (call,) = calls
    return call


def chain2d(rng):
    """A convex chain of 3 to 6 vertices from the y-axis to the x-axis."""
    steps = set()
    while len(steps) < 5:
        a, b = rng.randint(1, 4), rng.randint(1, 4)
        steps.add((a // math.gcd(a, b), b // math.gcd(a, b)))
    # edges (k a, -k b), steepest first
    pts = [(0, 10)]
    for a, b in sorted(steps, key=lambda ab: F(ab[1], ab[0]), reverse=True)[: rng.randint(2, 5)]:
        k = rng.randint(1, 2)
        pts.append((pts[-1][0] + k * a, pts[-1][1] - k * b))
    low = min(y for _, y in pts)
    return canonicalize(2, [(x, y - low) for x, y in pts])


def sweep_diagrams(rng):
    """2-D chains and 3-D/4-D Minkowski sums, lattice and rationally scaled."""
    for i in range(24):
        dim = (2, 3, 4)[i % 3]
        if dim == 2:
            g = chain2d(rng)
        else:
            g = minkowski_sum(*(
                canonicalize(dim, [on_hyperplane(rng, dim, rng.randint(1, 3)) for _ in range(size)])
                for size in (2, rng.randint(2, 3))
            ))
        if len(g.generators) > 1 and summand_system(g).num_edges > 1:
            yield g if i % 2 else scale(g, F(rng.randint(1, 5), rng.randint(2, 7)))


def test_edge_scale_sweeps_pivot_as_the_fraction_tableau():
    rng = random.Random(19)
    dims = []
    for g in sweep_diagrams(rng):
        args, kwargs = sweep_call(g)
        results, pivots = assert_same_path(*args, **kwargs)
        assert results and pivots
        dims.append((g.dim, any(c.denominator > 1 for p in g.generators for c in p)))
    assert {(dim, rational) for dim in (2, 3, 4) for rational in (False, True)} <= set(dims)


@pytest.mark.parametrize("kind", [F, int, str])
def test_answers_are_fractions_whatever_the_coefficient_type(kind):
    # equality cannot tell Fraction(2) from 2 or 2.0, so check the types
    eq = [([kind(1), kind(1), kind(0)], kind(2))]
    ub = [([kind(1), kind(0), kind(0)], kind(1)), ([kind(0), kind(0), kind(-1)], kind(3))]
    objectives = [[kind(c) for c in row] for row in ([1, 2, 1], [1, 0, 0], [0, 0, 0])]
    for nonneg in (True, False):
        results = solve_lp(3, objectives, eq=eq, ub=ub, nonneg=nonneg)
        assert [r.status for r in results] == [OPTIMAL, OPTIMAL if nonneg else UNBOUNDED, OPTIMAL]
        assert_exact(results)


def test_bound_artificials_never_enter():
    """The Fraction tableau never enters the artificial of a bound a·x <= b with b >= 0.

    Before every phase-1 pivot, that column equals the bound's slack
    column in each constraint row and its reduced cost is the slack's
    plus 1, which is why exactlp stores no such column.
    """
    rng = random.Random(5)
    systems = [random_system(rng) for _ in range(120)]
    dims = []
    for g in sweep_diagrams(random.Random(19)):
        if dims.count(g.dim) < 2:
            dims.append(g.dim)
            (n, _), kwargs = sweep_call(g)
            systems.append((n, kwargs["eq"], kwargs["ub"], True))
    assert sorted(dims) == [2, 2, 3, 3, 4, 4]
    real = fraction_simplex._pivot
    seen = {"negative bound": 0, "checked": 0, "artificial entered": 0}
    for n, eq, ub, nonneg in systems:
        width = n if nonneg else 2 * n
        total, m = width + len(ub), len(eq) + len(ub)
        bounds = [k for k, (_, b) in enumerate(ub) if F(b) >= 0]
        seen["negative bound"] += len(bounds) < len(ub)

        def recording(tab, basis, row, col):
            if len(tab[0]) == total + m + 1:  # a phase-1 tableau
                seen["artificial entered"] += col >= total
                for k in bounds:
                    slack, art = width + k, total + len(eq) + k
                    assert col != art
                    assert all(r[art] == r[slack] for r in tab[:-1])
                    assert tab[-1][art] == tab[-1][slack] + 1
                    seen["checked"] += 1
            real(tab, basis, row, col)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fraction_simplex, "_pivot", recording)
            fraction_simplex.solve_lp(n, eq=eq, ub=ub, nonneg=nonneg)
    assert seen["negative bound"] >= 30 and seen["checked"] >= 10_000, seen
    assert seen["artificial entered"], seen  # a stored artificial may enter


def test_results_own_their_answers():
    box = [([1, 0], 2), ([0, 1], 2), ([-1, 0], 2), ([0, -1], 2)]
    objectives = [[1, 1], [2, 2], [1, 1], [-1, 0]]
    for nonneg in (True, False):
        results = solve_lp(2, objectives, ub=box, nonneg=nonneg)
        # the first three share one optimum, and one optimal basis
        assert results[0].x == results[1].x == results[2].x != results[3].x
        assert len({id(res.x) for res in results}) == len(results)
        results[0].x[0] += 1
        results[0].x.append(F(7))
        assert results[1:] == solve_lp(2, objectives, ub=box, nonneg=nonneg)[1:]
        assert solve_lp(2, objectives, ub=box, nonneg=nonneg)[0].x == results[1].x

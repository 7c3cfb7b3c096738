import random
from fractions import Fraction as F

from pshdiag.exactlp import OPTIMAL, solve_lp


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


def test_many_objectives_match_one_at_a_time():
    rng = random.Random(41)
    seen = {True: 0, False: 0}
    for _ in range(80):
        n, eq, ub, nonneg = random_system(rng)
        objectives = [
            [F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)]
            for _ in range(rng.randint(1, 4))
        ]
        results = solve_lp(n, objectives, eq=eq, ub=ub, nonneg=nonneg)
        alone = [solve_lp(n, [c], eq=eq, ub=ub, nonneg=nonneg) for c in objectives]
        reverse = solve_lp(n, objectives[::-1], eq=eq, ub=ub, nonneg=nonneg)
        bare = solve_lp(n, eq=eq, ub=ub, nonneg=nonneg)
        seen[results is not None] += 1
        if results is None:
            assert alone == [None] * len(objectives)
            assert reverse is None and bare is None
            continue
        assert bare == []
        assert results == [a[0] for a in alone]
        assert reverse == results[::-1]
        for c, res in zip(objectives, results):
            assert res.status == OPTIMAL
            assert res.value == sum(ci * xi for ci, xi in zip(c, res.x))
            assert all(sum(a * x for a, x in zip(row, res.x)) == b for row, b in eq)
            assert all(sum(a * x for a, x in zip(row, res.x)) <= b for row, b in ub)
            assert not nonneg or all(x >= 0 for x in res.x)
    assert seen[True] >= 15 and seen[False] >= 15

"""canonicalize against the LP-per-point reference it replaced.

The reference keeps a point iff one exact LP finds it outside the hull of
all other input points plus the orthant.  The package runs no LP: it
finds the 2-D vertices by a monotone chain and, in other dimensions,
keeps each point that no other point is below componentwise and whose
least face, read off the facets' tight sets, holds no other point.
"""

import random
from fractions import Fraction as F

import pytest

from pshdiag import canonicalize, diagram_to_json, exactlp
from pshdiag import diagram as dg


def lp_canonicalize(dim, raw_points):
    """Sorted vertices of conv(raw_points) + R^n_+, one LP per point."""
    pts = sorted(set(tuple(F(c) for c in p) for p in raw_points))
    return tuple(
        p for i, p in enumerate(pts) if not dg.member_of_hull(p, pts[:i] + pts[i + 1 :])
    )


def undominated(raw_points):
    pts = set(tuple(F(c) for c in p) for p in raw_points)
    return [
        q for q in pts
        if not any(p != q and all(a <= b for a, b in zip(p, q)) for p in pts)
    ]


def on_hyperplane(rng, dim, total):
    """A lattice point with coordinate sum total."""
    cuts = sorted(rng.randint(0, total) for _ in range(dim - 1))
    return tuple(b - a for a, b in zip([0] + cuts, cuts + [total]))


def clouds(dim, seed, count=36):
    """Seeded point clouds, cycling through four kinds of support.

    Kind 0 lies on one hyperplane sum x = s (collinear in 2-D, coplanar in
    3-D); kind 1 has rational coordinates; kinds 2 and 3 are lattice
    points.  Each cloud then gains points above some of its own points
    (dominated) and repeats of its own points (duplicates).  The first
    cloud is a single point.
    """
    rng = random.Random(seed)
    out = [[tuple(rng.randint(0, 5) for _ in range(dim))]]
    for i in range(count):
        size = rng.randint(1, 10 if dim < 4 else 8)
        if i % 4 == 0:
            total = rng.randint(1, 6)
            pts = [on_hyperplane(rng, dim, total) for _ in range(size + 2)]
        elif i % 4 == 1:
            pts = [
                tuple(F(rng.randint(0, 12), rng.randint(1, 4)) for _ in range(dim))
                for _ in range(size)
            ]
        else:
            pts = [tuple(rng.randint(0, 6) for _ in range(dim)) for _ in range(size)]
        pts += [
            tuple(c + rng.randint(0, 3) for c in rng.choice(pts))
            for _ in range(rng.randint(0, 4))
        ]
        pts += [rng.choice(pts) for _ in range(rng.randint(0, 2))]
        rng.shuffle(pts)
        out.append(pts)
    return out


CASES = [(1, 41), (2, 42), (3, 43), (4, 44)]


@pytest.mark.parametrize("dim,seed", CASES)
def test_clouds_cover_every_kind(dim, seed):
    cs = clouds(dim, seed)
    assert any(len(c) == 1 for c in cs)
    assert any(len(set(c)) < len(c) for c in cs)
    assert any(len(undominated(c)) < len(set(c)) for c in cs)
    assert any(any(F(x).denominator > 1 for p in c for x in p) for c in cs)
    if dim > 1:
        # three or more undominated points, all on one hyperplane sum x = s
        assert any(
            len(undominated(c)) >= 3 and len({sum(p) for p in undominated(c)}) == 1
            for c in cs
        )


@pytest.mark.parametrize("dim,seed", CASES)
def test_matches_lp_per_point(dim, seed):
    rng = random.Random(seed)
    for pts in clouds(dim, seed):
        g = canonicalize(dim, pts)
        assert g.generators == lp_canonicalize(dim, pts), pts
        shuffled = list(pts)
        rng.shuffle(shuffled)
        again = canonicalize(dim, shuffled)
        assert diagram_to_json(again) == diagram_to_json(g)
        assert canonicalize(dim, g.generators) == g


@pytest.mark.parametrize("dim,seed", CASES)
def test_no_lp_in_any_dimension(dim, seed, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an LP ran")

    monkeypatch.setattr(dg, "member_of_hull", refuse)
    monkeypatch.setattr(exactlp, "solve_lp", refuse)
    for pts in clouds(dim, seed):
        g = canonicalize(dim, pts)
        assert all(dg.contains(g, p) for p in pts)

"""The type-space step that decides diagrams of dimension 3 and up.

It is checked against the edge-scale sweep it replaced, which still
decides the plane, against a null space over `Fraction` of the sweep's
own constraint rows, and against the independent 3-D oracle in
``oracle3d``.  The agreement with the sweep is checked, not proved: no
seeded input here gives a different certificate.
"""

import json
import math
import random
import time
from fractions import Fraction as F

import pytest

from pshdiag import (
    Decomposable,
    Indecomposable,
    canonicalize,
    decide_decomposability,
    minkowski_sum,
    scale,
    summand_system,
    verify_decomposition,
)
from pshdiag import decomposition, exactlp
from pshdiag.cli import EXIT_INTERNAL, EXIT_OK, execute
from pshdiag.decomposition import (
    METHOD_FACET_PAIR_LP,
    _decide_general,
    _edge_scale_candidates,
    _translation_candidates,
    _witness,
    certificate_to_json,
)
from pshdiag.errors import UnsupportedDimension
from pshdiag.linalg import int_kernel, nullspace, rank

from oracle3d import lattice_summand
from test_bench_golden import load_corpus
from test_canonicalize_oracle import on_hyperplane


def cloud(n, s):
    """3 to 9 points in [0, 6]^n, and a point on each axis with probability 0.8."""
    rng = random.Random(f"{n}/{s}")
    pts = [tuple(rng.randint(0, 6) for _ in range(n)) for _ in range(rng.randint(3, 9))]
    for k in range(n):
        if rng.random() < 0.8:
            pts.append(tuple(rng.randint(1, 6) if i == k else 0 for i in range(n)))
    return canonicalize(n, pts)


def dense_cloud(n, s):
    """8 to 14 points in [0, 6]^n and a point on every axis: mostly
    indecomposable, with more than n vertices."""
    rng = random.Random(f"dense/{n}/{s}")
    pts = [tuple(rng.randint(0, 6) for _ in range(n)) for _ in range(rng.randint(8, 14))]
    pts += [tuple(rng.randint(4, 9) if i == k else 0 for i in range(n)) for k in range(n)]
    return canonicalize(n, pts)


def small_sum(n, s):
    """The Minkowski sum of two seeded supports of 2 to 4 lattice points,
    each on one plane sum x = t, t from 1 to 4 (so none dominates another)."""
    rng = random.Random(f"sum/{n}/{s}")
    parts = []
    for _ in range(2):
        total = rng.randint(1, 4)
        parts.append(canonicalize(n, [on_hyperplane(rng, n, total) for _ in range(rng.randint(2, 4))]))
    return minkowski_sum(*parts)


def general(g):
    """Whether g takes the general path, past the single-vertex and axis-simplex ones."""
    return len(g.generators) > 1 and not decomposition._is_axis_simplex(g)


def sweep_certificate(g):
    """The certificate of the edge-scale sweep, which decided every dimension before."""
    candidates = _translation_candidates(g) + _edge_scale_candidates(summand_system(g))
    if candidates:
        return _witness(g, candidates, METHOD_FACET_PAIR_LP)
    return Indecomposable(
        METHOD_FACET_PAIR_LP,
        "edge scales constant over the summand polytope; all summands are homothets",
    )


def seeded_diagrams():
    """3-D and 4-D clouds and sums, every third one scaled by a rational."""
    for n in (3, 4):
        rng = random.Random(n)
        diagrams = [cloud(n, s) for s in range(100)] + [dense_cloud(n, s) for s in range(10)]
        for i, g in enumerate(diagrams + [small_sum(n, s) for s in range(30)]):
            yield g if i % 3 else scale(g, F(rng.randint(1, 5), rng.randint(2, 7)))


def as_bytes(cert):
    return json.dumps(certificate_to_json(cert), sort_keys=True)


# Seeded inputs on which the type space's witness differs from the sweep's.
# Each is a tie: the same verdict, both pairs lattice with as many
# generators, and another pair wins on the generators themselves, since
# the sweep's optimum does not put the summand at least 0 on every axis.
DIFFERS = {
    ((0, 4, 4), (1, 2, 5), (2, 5, 1), (3, 1, 4), (4, 3, 1), (5, 1, 2)),
}


class TestAgainstTheSweep:
    def test_certificates_equal_the_sweeps(self):
        # every seeded 3-D and 4-D diagram within MAX_SWEEP_CELLS answers
        # with the sweep's certificate, byte for byte, but those in DIFFERS
        rays = {3: 0, 4: 0}
        indecomposable = 0
        differs = set()
        for g in seeded_diagrams():
            if not general(g):
                continue
            try:
                want = sweep_certificate(g)
            except UnsupportedDimension:
                continue
            got = _decide_general(g)
            if as_bytes(got) != as_bytes(want):
                differs.add(g.generators)
                assert g.generators in DIFFERS, g
                key = decomposition._witness_key
                assert key((got.left, got.right))[:2] == key((want.left, want.right))[:2] == (0, 6)
            rays[g.dim] += bool(decomposition._type_space_candidates(summand_system(g)))
            indecomposable += isinstance(got, Indecomposable) and len(g.generators) > g.dim
        assert differs == DIFFERS
        # witnesses among the type cone's rays, and indecomposable diagrams
        # that are not simplices
        assert rays[3] >= 20 and rays[4] >= 20
        assert indecomposable >= 15

    def test_dimension_equals_the_null_space_of_the_sweeps_rows(self, monkeypatch):
        # the rank of the type space's rows against linalg.nullspace over
        # Fraction of every edge equation of S and the rows u_ik = 0 where
        # v_ik = 0, projected to the edge scales
        dims = []
        monkeypatch.setattr(
            decomposition, "int_kernel", lambda rows, cols: dims.append(int_kernel(rows, cols)) or dims[-1]
        )
        seen = set()
        for g in list(seeded_diagrams())[::3]:
            if not general(g):
                continue
            system = summand_system(g)
            dims.clear()
            decomposition._type_space_candidates(system)
            got = len(dims[0][1]) if dims else 1  # one class: one scale for every edge
            n, m = g.dim, system.num_vertices
            eq, _ = system._lp_constraints()
            rows = [row for row, _ in eq]
            for i, v in enumerate(system.graph.vertices):
                for k in range(n):
                    if v[k] == 0:
                        rows.append([int(c == i * n + k) for c in range(len(rows[0]))])
            want = rank([b[m * n :] for b in nullspace(rows)])
            assert got == want, g
            seen.add((n, got))
        assert {(3, 1), (3, 2), (4, 1), (4, 2)} <= seen

    def test_decide_pool_leaves_the_lp_for_three_dimensions_and_up(self, monkeypatch):
        # over one pass of both images of the decide pool the LP runs for
        # the plane alone, 256 times; every other decision answers as its
        # golden result with solve_lp raising
        corpus = load_corpus()
        golden = corpus.load_golden("decide")
        solve_lp = exactlp.solve_lp
        calls = []
        dims = []

        def plane_only(*args, **kwargs):
            if dims[-1] != 2:
                raise AssertionError(f"a {dims[-1]}-D decision reached the LP")
            calls.append(1)
            return solve_lp(*args, **kwargs)

        monkeypatch.setattr(exactlp, "solve_lp", plane_only)
        answered = 0
        for variants in corpus.pools("decide").values():
            for images in variants:
                for command, payload in images:
                    dims.append(payload["diagram"]["dim"])
                    want = golden[corpus.request_key(command, payload)]
                    assert execute(command, payload) == (want["result"], want["code"]), payload
                    answered += dims[-1] >= 3
        assert len(calls) == 256
        assert answered >= 200


class TestOracle3D:
    def test_verdicts_agree_with_the_oracle(self):
        # a diagram the type space calls indecomposable has no lattice
        # summand, and every seeded diagram it calls decomposable has one
        counts = {}
        clouds = [cloud(3, s) for s in range(120)] + [dense_cloud(3, s) for s in range(40)]
        for i, g in enumerate(clouds + [small_sum(3, s) for s in range(60)]):
            if not general(g):
                continue
            cert = decide_decomposability(g)
            found = lattice_summand([tuple(int(c) for c in p) for p in g.generators], 3)
            assert (found is not None) == isinstance(cert, Decomposable), g
            kind = ("sum" if i >= len(clouds) else "cloud", cert.verdict, len(g.generators) > 3)
            counts[kind] = counts.get(kind, 0) + 1
        assert counts["cloud", "indecomposable", True] >= 30
        assert counts["sum", "decomposable", True] >= 40

    def test_oracle_finds_the_planted_summand(self):
        # the oracle itself: a sum of two segments splits, a triangle does not
        k1 = lattice_summand([(1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1)], 3)
        assert k1 is not None and len(k1) == 2
        assert lattice_summand([(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 1)], 3) is None
        assert lattice_summand([(1, 2, 0), (2, 0, 1), (0, 1, 2)], 3) is None
        # a translation split needs a lattice point below every vertex
        assert lattice_summand([(1, 2, 1), (2, 1, 1), (1, 1, 2)], 3) == [(0, 0, 1)]


def sum_of_simplices(seed):
    """The sum of two 4-D simplices, axis entries 5 to 9 and the others 0 to 2."""
    rng = random.Random(seed)

    def simplex():
        return [tuple(rng.randint(5, 9) if i == k else rng.randint(0, 2) for i in range(4)) for k in range(4)]

    return minkowski_sum(canonicalize(4, simplex()), canonicalize(4, simplex()))


def cap(count, r=200, seed=3):
    """count lattice points rounded off the ball about (r, r, r) on the side
    facing 0, and the points 3r on each axis."""
    rng = random.Random(seed)
    pts = []
    for _ in range(count):
        u = [abs(rng.gauss(0, 1)) for _ in range(3)]
        norm = math.sqrt(sum(x * x for x in u))
        pts.append([r - round(r * x / norm) for x in u])
    return pts + [[3 * r if j == k else 0 for j in range(3)] for k in range(3)]


class TestScale:
    """Inputs the sweep's budget refused (exit 3) now answer."""

    @pytest.mark.parametrize("seed", range(8))
    def test_4d_sum_of_two_simplices(self, seed):
        # 11 to 15 vertices; the sweep would take on 27 to 131 million cells
        g = sum_of_simplices(seed)
        assert 11 <= len(g.generators) <= 15
        start = time.perf_counter()
        cert = _decide_general(g)
        assert time.perf_counter() - start < 10
        assert isinstance(cert, Decomposable)
        assert cert.method == METHOD_FACET_PAIR_LP
        assert verify_decomposition(g, cert.left, cert.right)

    def test_3d_cap_of_400_points(self):
        # 192 vertices whose compact edges form one class
        start = time.perf_counter()
        result, code = execute("decompose", {"diagram": {"dim": 3, "generators": cap(400)}})
        assert time.perf_counter() - start < 10
        assert code == EXIT_OK
        assert result["certificate"]["verdict"] == "indecomposable"
        assert result["certificate"]["method"] == METHOD_FACET_PAIR_LP

    def test_12d_diagram_of_66_edges(self):
        # 12 vertices, every pair a compact edge: one class, indecomposable;
        # the sweep's 4290 objectives took 1.4 million cells each
        n = 12
        gens = [[str(k + 2) if j == k else "0" for j in range(n)] for k in range(1, n)]
        start = time.perf_counter()
        result, code = execute("decompose", {"diagram": {"dim": n, "generators": gens + [["1/12"] * n]}})
        assert time.perf_counter() - start < 10
        assert code == EXIT_OK
        assert result["certificate"]["verdict"] == "indecomposable"


def test_ray_outside_s_exit_4(monkeypatch):
    # a ray lifted outside S is a fault of the program, named by its phase
    ray_point = decomposition._ray_point

    def outside(*args):
        a, us, b, ts = ray_point(*args)
        return a, [tuple(c + 5 * a for c in us[0]), *us[1:]], b, ts

    monkeypatch.setattr(decomposition, "_ray_point", outside)
    result, code = execute(
        "decompose", {"diagram": {"dim": 3, "generators": [[1, 1, 0], [1, 0, 1], [0, 2, 0], [0, 1, 1]]}}
    )
    assert code == EXIT_INTERNAL
    assert result["error"].startswith("internal invariant violation: type-space ray outside S: displacement (")

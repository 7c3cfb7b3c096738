import itertools
import random
import types
from fractions import Fraction as F

import pytest

from pshdiag import (
    Decomposable,
    Indecomposable,
    canonicalize,
    classify_extreme,
    decide_decomposability,
    minkowski_sum,
    parse_polynomial,
    scale,
    singularity_input,
    summand_system,
    summands_of,
    verify_decomposition,
    weighted_simplex,
)
from pshdiag import decomposition, diagram, exactlp, volume
from pshdiag.cli import EXIT_INTERNAL, EXIT_OK, execute
from pshdiag.decomposition import _decide_general, _ordered, _split, _translation_candidates
from pshdiag.errors import InfeasibleAssignment

from oracle2d import decomposable_oracle
from test_canonicalize_oracle import on_hyperplane
from test_exactlp import sweep_call, sweep_diagrams
from test_face_oracles import random_diagrams


def D(*pts):
    return canonicalize(2, pts)


class TestSummandSystem:
    def test_chain_assignment(self):
        g = D((3, 0), (1, 1), (0, 2))
        system = summand_system(g)
        # vertices in canonical order: (0,2), (1,1), (3,0); edges chain them
        assert len(system.graph.edges) == 2
        # full assignment reproduces the base, zero assignment the origin
        us_full = list(system.graph.vertices)
        ts_full = [1] * 2
        assert summands_of(system, us_full, ts_full) == (g, D((0, 0)))
        us_zero = [(0, 0)] * 3
        assert summands_of(system, us_zero, [0, 0]) == (D((0, 0)), g)

    def test_partial_assignment(self):
        g = D((3, 0), (1, 1), (0, 2))
        system = summand_system(g)
        edges = {(i, j) for i, j, _ in system.graph.edges}
        assert edges == {(0, 1), (1, 2)}
        # scale the steeper edge fully, freeze the other: u = {(0,1),(0,1),(2,0)}
        us = [(0, 1), (0, 1), (2, 0)]
        ts = {(0, 1): 0, (1, 2): 1}
        tlist = [ts[(i, j)] for i, j, _ in system.graph.edges]
        assert summands_of(system, us, tlist) == (D((2, 0), (0, 1)), D((1, 0), (0, 1)))

    def test_infeasible_assignment_rejected(self):
        g = D((3, 0), (1, 1), (0, 2))
        system = summand_system(g)
        with pytest.raises(InfeasibleAssignment):
            summands_of(system, [(0, 2), (1, 1), (3, 0)], [F(1, 2), 1])

    def test_duality_of_assignments(self):
        g = D((4, 0), (2, 1), (1, 3), (0, 5))
        system = summand_system(g)
        rng = random.Random(21)
        for _ in range(10):
            c = F(rng.randint(0, 4), 4)
            us = [tuple(c * x for x in v) for v in system.graph.vertices]
            ts = [c] * len(system.graph.edges)
            assert minkowski_sum(*summands_of(system, us, ts)) == g

    def test_summands_read_off_the_displaced_vertices(self, monkeypatch):
        # summands_of takes the distinct u_i and v_i - u_i of a point of S
        # as the vertices of its summands; check that against canonicalize
        # at every sweep optimum and at the midpoint of every pair of optima
        diagrams = [
            *sweep_diagrams(random.Random(19)),
            *random_diagrams(2, 12, 21),
            *random_diagrams(3, 12, 22),
            *random_diagrams(4, 6, 23),
        ]
        cases = []
        for g in diagrams:
            system = summand_system(g)
            if len(g.generators) < 2 or system.num_edges < 2:
                continue
            args, kwargs = sweep_call(g)
            optima = sorted({tuple(res.x) for res in exactlp.solve_lp(*args, **kwargs)})
            mids = [tuple((a + b) / 2 for a, b in zip(x, y)) for x, y in itertools.combinations(optima, 2)]
            n, m = g.dim, system.num_vertices
            for x in optima + mids:
                us = [x[i * n : (i + 1) * n] for i in range(m)]
                co = [tuple(c - uc for c, uc in zip(v, u)) for v, u in zip(system.graph.vertices, us)]
                cases.append((system, us, x[m * n :], canonicalize(n, us), canonicalize(n, co)))

        def refuse(*args):
            raise AssertionError("summands_of took a hull")

        monkeypatch.setattr(volume, "_cone_facets", refuse)
        monkeypatch.setattr(diagram, "canonicalize", refuse)
        seen = set()
        for system, us, ts, k1, k2 in cases:
            got = summands_of(system, us, ts)
            assert got == (k1, k2)
            assert all(type(c) is F for k in got for p in k.generators for c in p)
            # an assignment off S still raises
            t = ts[0] + F(1, 3) if ts[0] <= F(2, 3) else ts[0] - F(1, 3)
            with pytest.raises(InfeasibleAssignment):
                summands_of(system, us, [t, *ts[1:]])
            with pytest.raises(InfeasibleAssignment):
                summands_of(system, [tuple(c + 1 for c in system.graph.vertices[0]), *us[1:]], ts)
            base = system.base
            seen.add((base.dim, any(c.denominator > 1 for p in base.generators for c in p)))
        assert {(dim, rational) for dim in (2, 3, 4) for rational in (False, True)} <= seen
        assert len(cases) >= 150

    def test_sweep_checks_each_optimum_once(self, monkeypatch):
        # one check of S covers both summands of an optimum
        checks = []
        check = decomposition.SummandSystem.check

        def counting(self, us, ts):
            checks.append(1)
            return check(self, us, ts)

        total = 0
        for g in sweep_diagrams(random.Random(19)):
            args, kwargs = sweep_call(g)
            optima = {tuple(res.x) for res in exactlp.solve_lp(*args, **kwargs) if res.value < 0}
            with monkeypatch.context() as patch:
                patch.setattr(decomposition.SummandSystem, "check", counting)
                candidates = decomposition._edge_scale_candidates(summand_system(g))
            assert len(checks) == len(candidates) == len(optima), g
            total += len(checks)
            checks.clear()
        assert total >= 40


class TestVerifyDecomposition:
    def test_accepts_transformed_witness(self):
        assert verify_decomposition(
            D((3, 0), (1, 1), (0, 2)), D((1, 0), (0, 1)), D((2, 0), (0, 1))
        )

    def test_rejects_homothetic_halves(self):
        assert not verify_decomposition(
            D((2, 0), (0, 2)), D((1, 0), (0, 1)), D((1, 0), (0, 1))
        )

    def test_accepts_monomial_split(self):
        assert verify_decomposition(D((1, 1)), D((1, 0)), D((0, 1)))

    def test_rejects_wrong_sum(self):
        assert not verify_decomposition(D((2, 0), (0, 2)), D((1, 0)), D((0, 1)))


class TestDecide:
    def test_unit_simplex_indecomposable(self):
        cert = decide_decomposability(D((1, 0), (0, 1)))
        assert isinstance(cert, Indecomposable)
        assert cert.method == "simplex-facet"

    def test_doubled_simplex_indecomposable(self):
        assert isinstance(decide_decomposability(D((2, 0), (0, 2))), Indecomposable)

    def test_transformed_diagram_decomposable(self):
        cert = decide_decomposability(D((3, 0), (1, 1), (0, 2)))
        assert isinstance(cert, Decomposable)
        assert cert.left == D((1, 0), (0, 1))
        assert cert.right == D((2, 0), (0, 1))

    def test_monomial_point_decomposable(self):
        cert = decide_decomposability(D((1, 1)))
        assert isinstance(cert, Decomposable)
        assert {cert.left, cert.right} == {D((1, 0)), D((0, 1))}

    def test_interior_chain_decomposable(self):
        cert = decide_decomposability(D((2, 1), (1, 2)))
        assert isinstance(cert, Decomposable)
        assert verify_decomposition(D((2, 1), (1, 2)), cert.left, cert.right)

    def test_origin_indecomposable(self):
        assert isinstance(decide_decomposability(D((0, 0))), Indecomposable)

    def test_axis_monomial_indecomposable(self):
        assert isinstance(decide_decomposability(D((3, 0))), Indecomposable)

    def test_weighted_simplices_indecomposable(self):
        rng = random.Random(22)
        for _ in range(10):
            dim = rng.choice([2, 3])
            a = [F(rng.randint(1, 6), rng.randint(1, 3)) for _ in range(dim)]
            assert isinstance(
                decide_decomposability(weighted_simplex(a)), Indecomposable
            )

    def test_fast_path_agrees_with_general_path(self):
        rng = random.Random(23)
        for _ in range(5):
            dim = rng.choice([2, 3])
            a = [F(rng.randint(1, 5), rng.randint(1, 2)) for _ in range(dim)]
            g = weighted_simplex(a)
            fast = decide_decomposability(g)
            general = _decide_general(g)
            assert isinstance(fast, Indecomposable)
            assert isinstance(general, Indecomposable)

    def test_three_dimensional_sum_recovered(self):
        k1 = weighted_simplex((1, 1, 1))
        k2 = canonicalize(3, [(2, 0, 0), (0, 2, 0), (0, 0, 1)])
        g = minkowski_sum(k1, k2)
        cert = decide_decomposability(g)
        assert isinstance(cert, Decomposable)
        assert verify_decomposition(g, cert.left, cert.right)

    def test_three_dimensional_witness_pinned(self, monkeypatch):
        # the least pair by witness key, among translations and edge-scale
        # LP optima, verified once
        verified = []

        def recording(g, k1, k2):
            verified.append((k1, k2))
            return verify_decomposition(g, k1, k2)

        monkeypatch.setattr(decomposition, "verify_decomposition", recording)
        g = canonicalize(3, [(1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1)])
        cert = decide_decomposability(g)
        assert len(verified) == 1
        assert isinstance(cert, Decomposable)
        assert cert.method == "facet-pair-lp"
        assert cert.left == canonicalize(3, [(0, 0, 1), (0, 1, 0)])
        assert cert.right == canonicalize(3, [(0, 1, 0), (1, 0, 0)])

    def test_edge_scale_sweep_is_one_lp_call(self, monkeypatch):
        # every edge-scale objective of a 2-D chain shares one phase 1 over S
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return exactlp.solve_lp(*args, **kwargs)

        fake = types.SimpleNamespace(OPTIMAL=exactlp.OPTIMAL, solve_lp=counting)
        monkeypatch.setattr(decomposition, "exactlp", fake)
        cert = _decide_general(D((0, 5), (1, 2), (3, 1), (6, 0)))
        assert len(calls) == 1
        assert cert.left == D((0, 1), (2, 0))
        assert cert.right == D((0, 4), (1, 1), (4, 0))

    def test_one_compact_edge_skips_the_sweep(self, monkeypatch):
        # with no pair of edge scales there is nothing to push apart, so
        # neither the rows nor phase 1 are built
        payload = {"diagram": {"dim": 2, "generators": [[1, 2], [2, 1]]}}
        want = execute("decompose", payload)

        def refuse(*args, **kwargs):
            raise AssertionError("one compact edge reached the LP")

        monkeypatch.setattr(decomposition.SummandSystem, "_lp_constraints", refuse)
        monkeypatch.setattr(exactlp, "solve_lp", refuse)
        g = D((1, 2), (2, 1))
        assert decomposition._edge_scale_candidates(summand_system(g)) == []
        assert execute("decompose", payload) == want
        cert = want[0]["certificate"]
        assert (cert["method"], cert["left"]["generators"], cert["right"]["generators"]) == (
            "two-dim-chain", [["0", "1"]], [["1", "1"], ["2", "0"]]
        )

    def test_every_edge_scale_candidate_verifies(self):
        # the module docstring proves that a point of S with unequal edge
        # scales always gives a verified pair, so no verdict is left open;
        # half of the diagrams are Minkowski sums of two supports, each on
        # one plane sum x = s
        rng = random.Random(31)

        def on_plane(dim, size, total):
            return canonicalize(dim, [on_hyperplane(rng, dim, total) for _ in range(size)])

        checked = sums = 0
        for i in range(32):
            dim = 3 + (i // 2) % 2
            if i % 2 == 0:
                g = minkowski_sum(
                    on_plane(dim, 2, rng.randint(1, 3)),
                    on_plane(dim, rng.randint(2, 5 - dim + 1), rng.randint(1, 3)),
                )
            else:
                g = on_plane(dim, rng.randint(3, 8 - dim), rng.randint(2, 5))
            if len(g.generators) == 1 or decomposition._is_axis_simplex(g):
                continue
            candidates = decomposition._edge_scale_candidates(summand_system(g))
            for pair in candidates:
                assert verify_decomposition(g, *pair), (g, pair)
            checked += len(candidates)
            sums += bool(candidates) and i % 2 == 0
        assert checked >= 20 and sums >= 8

    def test_every_translation_and_point_split_verifies(self, monkeypatch):
        # the module docstring's argument: a translation split of a diagram
        # with two or more vertices, and a point split of a single vertex,
        # always verify; every candidate the decision builds is checked
        rng = random.Random(37)
        built = []
        witness = decomposition._witness

        def recording(g, candidates, method):
            built.append((g, candidates))
            return witness(g, candidates, method)

        monkeypatch.setattr(decomposition, "_witness", recording)
        for i in range(60):
            dim = 2 + i % 3
            shift = [rng.randint(0, 2) for _ in range(dim)]
            decide_decomposability(
                canonicalize(dim, [[rng.randint(0, 3) + s for s in shift] for _ in range(1 + i % 4)])
            )
        translations = splits = 0
        for g, candidates in built:
            assert all(verify_decomposition(g, *pair) for pair in candidates), g
            if len(g.generators) == 1:
                splits += len(candidates)
            else:  # the translation splits are among the candidates
                translations += len(decomposition._translation_candidates(g))
        assert translations >= 100 and splits >= 50

    @pytest.mark.parametrize(
        "command,payload,method",
        [
            # translation candidates and no edge pair: a failed check used to
            # leave the verdict "indecomposable"
            ("decompose", {"diagram": {"dim": 2, "generators": [[1, 2], [2, 1]]}}, "two-dim-chain"),
            ("decompose", {"diagram": {"dim": 2, "generators": [[2, 3]]}}, "point-split"),
            ("decompose", {"diagram": {"dim": 2, "generators": [[0, 3], [1, 1], [3, 0]]}}, "two-dim-chain"),
            (
                "decompose",
                {"diagram": {"dim": 3, "generators": [[1, 1, 0], [1, 0, 1], [0, 2, 0], [0, 1, 1]]}},
                "facet-pair-lp",
            ),
            ("classify", {"input": {"dim": 2, "polys": ["z1*z2^2 + z1^2*z2"]}}, "two-dim-chain"),
        ],
    )
    def test_failed_verification_exits_4(self, monkeypatch, command, payload, method):
        monkeypatch.setattr(decomposition, "verify_decomposition", lambda *pair: False)
        error = f"internal invariant violation: {method} witness failed verification"
        assert execute(command, payload) == ({"error": error}, EXIT_INTERNAL)

    def test_scale_invariance_of_verdict(self):
        rng = random.Random(24)
        for _ in range(8):
            pts = [(rng.randint(0, 5), rng.randint(0, 5)) for _ in range(rng.randint(1, 4))]
            g = canonicalize(2, pts)
            base = type(decide_decomposability(g))
            for c in (2, F(1, 2), F(3, 7)):
                assert type(decide_decomposability(scale(g, c))) is base


class TestSplits:
    """Translation and point splits are built as translates, without a facet search."""

    @staticmethod
    def _cases():
        """Seeded 2-D to 4-D diagrams and single vertices, each with shifts x below every vertex."""
        rng = random.Random(41)
        for dim in (2, 3, 4):
            points = [canonicalize(dim, [on_hyperplane(rng, dim, 5)]) for _ in range(4)]
            for g in random_diagrams(dim, 8, seed=dim) + points:
                mins = [min(p[k] for p in g.generators) for k in range(dim)]
                shifts = [tuple(mins)] + [
                    tuple(m * F(rng.randint(0, 4), 4) for m in mins) for _ in range(3)
                ]
                if len(g.generators) == 1:  # the point splits
                    shifts += [
                        tuple(c if i == k else 0 for i, c in enumerate(mins)) for k in range(dim)
                    ]
                yield g, shifts

    def test_sides_equal_canonicalized_points(self):
        checked = translations = 0
        for g, shifts in self._cases():
            n = g.dim
            for x in shifts:
                rest = [tuple(c - xc for c, xc in zip(p, x)) for p in g.generators]
                assert _split(g, x) == _ordered(canonicalize(n, [x]), canonicalize(n, rest))
                checked += 1
            for pair in _translation_candidates(g):
                assert pair == tuple(canonicalize(n, k.generators) for k in pair)
                assert minkowski_sum(*pair) == g
                translations += 1
        assert checked >= 150 and translations >= 40

    def test_builders_search_no_facets(self, monkeypatch):
        cases = list(self._cases())
        expected = [(_translation_candidates(g), [_split(g, x) for x in xs]) for g, xs in cases]

        def refuse(*args):
            raise AssertionError("a split reached a facet search")

        monkeypatch.setattr(volume, "_cone_facets", refuse)
        with monkeypatch.context() as patch:
            patch.setattr(diagram, "canonicalize", refuse)
            for (g, shifts), (translations, splits) in zip(cases, expected):
                assert _translation_candidates(g) == translations
                assert [_split(g, x) for x in shifts] == splits
        # in the plane the point split is verified without a search as well
        cert = decide_decomposability(D((2, 3)))
        assert cert.method == "point-split"

    def test_translated_diagram_answers_with_one_search_of_its_facets(self, monkeypatch):
        # 18 lattice points of a 7-D plane, shifted by 2 on every axis: 15
        # translation splits, built without a search, so one search over
        # the 15 vertices and 7 axes reads the input, whose facets give its
        # edges and verify the witness, which forms no sum; the 81 compact
        # edges form one class, so no elimination or type cone runs
        rng = random.Random(0)
        gens = [[c + 2 for c in on_hyperplane(rng, 7, 4)] for _ in range(18)]
        searches = []
        cone_facets = volume._cone_facets

        def counting(points):
            searches.append(len(points))
            return cone_facets(points)

        def refuse(*args):
            raise AssertionError("a single class reached the type cone")

        monkeypatch.setattr(volume, "_cone_facets", counting)
        monkeypatch.setattr(decomposition, "_cone_facets", refuse)
        monkeypatch.setattr(decomposition, "int_kernel", refuse)
        result, code = execute("decompose", {"diagram": {"dim": 7, "generators": gens}})
        assert code == EXIT_OK
        cert = result["certificate"]
        assert (cert["verdict"], cert["method"]) == ("decomposable", "facet-pair-lp")
        assert cert["left"]["generators"] == [["0"] * 6 + ["1"]]
        assert len(cert["right"]["generators"]) == 15
        assert searches == [7 + 15]


class TestOracleAgreement:
    def test_random_lattice_diagrams(self):
        rng = random.Random(25)
        for _ in range(40):
            pts = [
                (rng.randint(0, 5), rng.randint(0, 5))
                for _ in range(rng.randint(1, 4))
            ]
            g = canonicalize(2, pts)
            cert = decide_decomposability(g)
            exact = isinstance(cert, Decomposable)
            if exact:
                assert verify_decomposition(g, cert.left, cert.right)
            assert exact == decomposable_oracle(g.generators)


class TestClassify:
    TRANSFORMED = ["z1^3", "z1^2*z2", "z1*z2", "z2^2"]

    def test_transformed_not_extreme(self):
        u = singularity_input(2, [parse_polynomial(t, 2) for t in self.TRANSFORMED])
        report = classify_extreme(u)
        assert report.verdict == "not-extreme"
        assert isinstance(report.certificate, Decomposable)
        assert report.caveat

    def test_log_singularity_extreme(self):
        u = singularity_input(2, [parse_polynomial("z1 + z2", 2)])
        report = classify_extreme(u)
        assert report.verdict == "extreme"
        assert report.diagram == D((1, 0), (0, 1))

    def test_monomial_product_not_extreme(self):
        u = singularity_input(2, [parse_polynomial("z1*z2", 2)])
        assert classify_extreme(u).verdict == "not-extreme"

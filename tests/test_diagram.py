import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from pshdiag import (
    Diagram,
    canonicalize,
    compact_graph,
    contains,
    diagram_from_json,
    diagram_to_json,
    hull_union,
    index_of,
    is_homothetic_to,
    lelong_directional,
    minkowski_sum,
    parse_polynomial,
    scale,
    support_value,
    touches_all_axes,
    translate,
    weighted_simplex,
)
from pshdiag.diagram import HomothetyWitness, rational_from_json
from pshdiag.errors import (
    DimensionMismatch,
    EmptyInput,
    NegativeCoordinate,
    NonpositiveScale,
    NonpositiveWeight,
    PositiveDirection,
)

from oracle2d import canon2


def D(*pts):
    return canonicalize(2, pts)


class TestCanonicalize:
    def test_redundant_points_removed(self):
        g = canonicalize(2, [(3, 0), (2, 1), (2, 0), (1, 1), (0, 2)])
        assert g.generators == ((F(0), F(2)), (F(2), F(0)))

    def test_single_point(self):
        g = canonicalize(2, [(1, 2)])
        assert g.generators == ((F(1), F(2)),)

    def test_three_vertex_chain(self):
        g = canonicalize(2, [(3, 0), (2, 1), (1, 1), (0, 2)])
        assert g.generators == ((F(0), F(2)), (F(1), F(1)), (F(3), F(0)))

    def test_errors(self):
        with pytest.raises(EmptyInput):
            canonicalize(2, [])
        with pytest.raises(NegativeCoordinate):
            canonicalize(2, [(1, -1)])
        with pytest.raises(DimensionMismatch):
            canonicalize(2, [(1, 2, 3)])

    @given(
        st.lists(
            st.tuples(*[st.integers(0, 10)] * 3),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_idempotent_and_order_invariant(self, pts):
        g1 = canonicalize(3, pts)
        g2 = canonicalize(3, list(reversed(pts)))
        assert g1 == g2
        assert canonicalize(3, g1.generators) == g1

    @given(
        st.lists(st.tuples(st.integers(0, 10), st.integers(0, 10)), min_size=1, max_size=6)
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_pairwise_oracle_2d(self, pts):
        g = canonicalize(2, pts)
        assert g.generators == canon2(pts)


class TestContains:
    def test_midpoint(self):
        assert contains(D((2, 0), (0, 2)), (1, 1))

    def test_orthant_shift(self):
        assert contains(D((2, 0), (0, 2)), (5, 7))

    def test_outside(self):
        assert not contains(D((2, 0), (0, 2)), (1, 0))

    def test_dimension_check(self):
        with pytest.raises(DimensionMismatch):
            contains(D((1, 0), (0, 1)), (1, 1, 1))


class TestSupportValue:
    def test_two_generators(self):
        assert support_value(D((2, 0), (0, 2)), (-1, -1)) == -2

    def test_three_generators(self):
        assert support_value(D((3, 0), (1, 1), (0, 2)), (-1, -2)) == -3

    def test_zero_direction(self):
        assert support_value(D((3, 0), (1, 1), (0, 2)), (0, 0)) == 0

    def test_positive_direction_rejected(self):
        with pytest.raises(PositiveDirection):
            support_value(D((1, 0), (0, 1)), (1, -1))

    def test_dimension_check(self):
        with pytest.raises(DimensionMismatch, match="point of length 3, expected 2"):
            support_value(D((1, 0), (0, 1)), (-1, -1, -1))


class TestLelongDirectional:
    def test_balanced(self):
        assert lelong_directional(D((2, 0), (0, 2)), (1, 1)) == 2

    def test_chain(self):
        assert lelong_directional(D((3, 0), (1, 1), (0, 2)), (1, 1)) == 2

    def test_origin(self):
        assert lelong_directional(D((0, 0)), (F(1, 3), 7)) == 0

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(NonpositiveWeight):
            lelong_directional(D((1, 0), (0, 1)), (1, 0))

    def test_one_weight_check(self):
        # the Lelong number, the monomial valuation and the weighted
        # simplex check a weight alike
        errors = set()
        for weighted in [
            lambda a: lelong_directional(D((1, 0), (0, 1)), a),
            lambda a: index_of(parse_polynomial("z1", 2), a),
            weighted_simplex,
        ]:
            with pytest.raises(NonpositiveWeight) as info:
                weighted((1, 0))
            errors.add(str(info.value))
        assert errors == {"weight (1, 0) must be strictly positive"}

    def test_dimension_check(self):
        with pytest.raises(DimensionMismatch, match="point of length 1, expected 2"):
            lelong_directional(D((1, 0), (0, 1)), (1,))


class TestMinkowskiSum:
    def test_paper_style_example(self):
        assert minkowski_sum(D((1, 0), (0, 1)), D((2, 0), (0, 1))) == D(
            (3, 0), (1, 1), (0, 2)
        )

    def test_neutral_element(self):
        g = D((3, 0), (1, 1), (0, 2))
        assert minkowski_sum(g, D((0, 0))) == g

    def test_doubling(self):
        assert minkowski_sum(D((2, 0), (0, 2)), D((2, 0), (0, 2))) == D((4, 0), (0, 4))

    def test_associative_commutative(self):
        a, b, c = D((1, 0), (0, 1)), D((2, 1)), D((3, 0), (1, 1), (0, 2))
        assert minkowski_sum(a, b) == minkowski_sum(b, a)
        assert minkowski_sum(minkowski_sum(a, b), c) == minkowski_sum(
            a, minkowski_sum(b, c)
        )

    @given(
        st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=1, max_size=3),
        st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=1, max_size=3),
        st.tuples(st.integers(-5, 0), st.integers(-5, 0)),
    )
    @settings(max_examples=40, deadline=None)
    def test_support_additivity(self, pts1, pts2, t):
        g1 = canonicalize(2, pts1)
        g2 = canonicalize(2, pts2)
        total = minkowski_sum(g1, g2)
        assert support_value(total, t) == support_value(g1, t) + support_value(g2, t)


class TestScaleTranslate:
    def test_scale(self):
        assert scale(D((1, 0), (0, 1)), 2) == D((2, 0), (0, 2))
        assert scale(D((3, 0), (1, 1), (0, 2)), 1) == D((3, 0), (1, 1), (0, 2))
        assert scale(D((3, 0), (1, 1), (0, 2)), F(1, 3)) == D(
            (1, 0), (F(1, 3), F(1, 3)), (0, F(2, 3))
        )

    def test_scale_rejects_nonpositive(self):
        with pytest.raises(NonpositiveScale):
            scale(D((1, 0)), 0)

    def test_scale_lelong_homogeneity(self):
        g = D((3, 0), (1, 1), (0, 2))
        for c in (F(1, 2), 2, F(7, 3)):
            assert lelong_directional(scale(g, c), (2, 3)) == c * lelong_directional(
                g, (2, 3)
            )

    def test_translate(self):
        assert translate(D((1, 0), (0, 1)), (1, 1)) == D((2, 1), (1, 2))
        g = D((3, 0), (1, 1), (0, 2))
        assert translate(g, (0, 0)) == g
        assert translate(D((0, 0)), (2, 3)) == D((2, 3))

    def test_translate_rejects_negative(self):
        with pytest.raises(NegativeCoordinate, match=r"^translation \(-1/2, 0\) must be nonnegative$"):
            translate(D((1, 0)), (F(-1, 2), 0))


class TestHomothety:
    def test_scaling_witness(self):
        w = is_homothetic_to(D((2, 0), (0, 2)), D((1, 0), (0, 1)))
        assert w is not None and w.c == 2 and w.x == (0, 0)

    def test_translation_witness(self):
        w = is_homothetic_to(D((2, 1), (1, 2)), D((1, 0), (0, 1)))
        assert w is not None and w.c == 1 and w.x == (1, 1)

    def test_directional_asymmetry(self):
        assert is_homothetic_to(D((1, 0), (0, 1)), D((2, 1), (1, 2))) is None

    def test_vertex_count_mismatch(self):
        assert is_homothetic_to(D((3, 0), (1, 1), (0, 2)), D((1, 0), (0, 1))) is None

    def test_reflexive(self):
        g = D((3, 0), (1, 1), (0, 2))
        w = is_homothetic_to(g, g)
        assert w is not None and w.c == 1 and all(c == 0 for c in w.x)

    def test_one_vertex_least_ratio(self):
        # c is the least ratio a_k / b_k, so the translation is nonnegative
        assert is_homothetic_to(D((3, 5)), D((1, 2))) == HomothetyWitness(F(5, 2), (F(1, 2), F(0)))
        assert is_homothetic_to(D((3, 5)), D((0, 0))) == HomothetyWitness(F(1), (F(3), F(5)))

    def test_one_vertex_nonpositive_ratio(self):
        assert is_homothetic_to(D((0, 5)), D((1, 2))) is None

    def test_nonpositive_scale(self):
        # the edges (1, -1, 0) and (0, 1, -1): the scale along the second
        # coordinate would be -1, and 0 for the edge (1, 0, -1)
        b = canonicalize(3, [(0, 0, 1), (0, 1, 0)])
        assert is_homothetic_to(canonicalize(3, [(0, 1, 0), (1, 0, 0)]), b) is None
        assert is_homothetic_to(canonicalize(3, [(0, 0, 1), (1, 0, 0)]), b) is None

    def test_negative_translation(self):
        # c = 1 forces x = (0, 1) - (1, 2)
        assert is_homothetic_to(D((0, 1), (1, 0)), D((1, 2), (2, 1))) is None

    def test_int_coordinates_divide_exactly(self):
        # a Diagram built directly keeps int coordinates; 1/49 is no float
        for a, b, c in [
            (Diagram(2, ((0, 1), (1, 0))), Diagram(2, ((0, 49), (49, 0))), F(1, 49)),
            (Diagram(2, ((1, 7),)), Diagram(2, ((3, 49),)), F(1, 7)),
        ]:
            w = is_homothetic_to(a, b)
            assert w is not None and w.c == c and type(w.c) is F
            assert all(type(x) is F for x in w.x)


class TestHullUnion:
    def test_two_points(self):
        assert hull_union(D((2, 0)), D((0, 2))) == D((2, 0), (0, 2))

    def test_idempotent(self):
        g = D((3, 0), (1, 1), (0, 2))
        assert hull_union(g, g) == g

    def test_domination(self):
        assert hull_union(D((1, 0), (0, 1)), D((2, 0), (0, 1))) == D((1, 0), (0, 1))

    def test_support_is_max(self):
        g1, g2 = D((3, 0), (0, 1)), D((1, 0), (0, 3))
        u = hull_union(g1, g2)
        for t in [(-1, -1), (-2, -1), (0, -3)]:
            assert support_value(u, t) == max(support_value(g1, t), support_value(g2, t))

    def test_smallest_containing_both(self):
        g1, g2 = D((2, 1)), D((1, 2))
        u = hull_union(g1, g2)
        for g in (g1, g2):
            assert all(contains(u, p) for p in g.generators)


class TestCompactGraph:
    def test_chain_edges(self):
        g = D((3, 0), (1, 1), (0, 2))
        graph = compact_graph(g)
        pairs = {
            frozenset((graph.vertices[i], graph.vertices[j]))
            for i, j, _ in graph.edges
        }
        assert pairs == {
            frozenset(((F(3), F(0)), (F(1), F(1)))),
            frozenset(((F(1), F(1)), (F(0), F(2)))),
        }

    def test_single_edge(self):
        assert len(compact_graph(D((2, 0), (0, 2))).edges) == 1

    def test_single_vertex(self):
        assert compact_graph(D((1, 1))).edges == ()

    def test_matches_sorted_chain_oracle(self):
        random.seed(7)
        for _ in range(25):
            pts = [
                (random.randint(0, 6), random.randint(0, 6))
                for _ in range(random.randint(1, 5))
            ]
            g = canonicalize(2, pts)
            graph = compact_graph(g)
            chain = sorted(g.generators, key=lambda p: (-p[0], p[1]))
            expected = {
                frozenset((chain[i], chain[i + 1])) for i in range(len(chain) - 1)
            }
            got = {
                frozenset((graph.vertices[i], graph.vertices[j]))
                for i, j, _ in graph.edges
            }
            assert got == expected


class TestTouchesAllAxes:
    @pytest.mark.parametrize(
        "pts,expected",
        [
            ([(2, 0), (0, 2)], True),
            ([(1, 1)], False),
            ([(3, 0), (1, 1), (0, 2)], True),
            ([(0, 0)], True),
        ],
    )
    def test_cases(self, pts, expected):
        assert touches_all_axes(canonicalize(2, pts)) is expected


class TestSerialization:
    def test_round_trip(self):
        g = D((3, 0), (F(1, 2), F(3, 7)), (0, 2))
        assert diagram_from_json(diagram_to_json(g)) == g

    @pytest.mark.parametrize(
        "value,want",
        [(3, 3), (-3, -3), ("3", 3), ("-007", -7), ("-0", 0), ("6/1", 6),
         ("3/4", F(3, 4)), ("-6/4", F(-3, 2)), ("4/2", F(2))],
    )
    def test_rational_types(self, value, want):
        # integer text stays an int, so JSON lattice diagrams canonicalize on ints
        got = rational_from_json(value)
        assert got == want and type(got) is type(want)

    def test_json_generators_are_fractions(self):
        gens = [[4, "0", "0/5"], ["0", 4, "0"], [0, 0, "8/2"], [2, 2, "3/1"]]
        g = diagram_from_json({"dim": 3, "generators": gens})
        assert g.generators == ((0, 0, 4), (0, 4, 0), (4, 0, 0))
        assert all(type(c) is F for p in g.generators for c in p)

    def test_canonical_strings(self):
        g = D((F(1, 2), 0), (0, 3))
        assert diagram_to_json(g) == {
            "dim": 2,
            "generators": [["0", "3"], ["1/2", "0"]],
        }

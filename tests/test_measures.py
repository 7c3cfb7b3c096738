import math
import random
from fractions import Fraction as F

import pytest

from pshdiag import (
    canonicalize,
    contains,
    covolume_2d_oracle,
    indicator_eval,
    intercept_simplex,
    minkowski_sum,
    newton_number,
    parse_polynomial,
    relative_type_monomial,
    scale,
    singularity_input,
    weighted_simplex,
)
from pshdiag.errors import DimensionMismatch, NonpositiveWeight, PositiveDirection, Unbounded
from pshdiag.volume import diagram_facets, enumerate_vertices


def D(*pts):
    return canonicalize(2, pts)


class TestSimplexFamilies:
    def test_unit(self):
        assert weighted_simplex((1, 1)) == D((1, 0), (0, 1))

    def test_reciprocal_generators(self):
        assert weighted_simplex((2, 2)) == D((F(1, 2), 0), (0, F(1, 2)))

    def test_intercept(self):
        assert intercept_simplex((2, 1)) == D((2, 0), (0, 1))

    def test_families_are_reciprocal(self):
        for a in [(1, 2), (F(1, 3), F(5, 2)), (3, 3)]:
            assert weighted_simplex(a) == intercept_simplex([1 / F(c) for c in a])

    def test_nonpositive_rejected(self):
        with pytest.raises(NonpositiveWeight):
            weighted_simplex((1, 0))


class TestNewtonNumber:
    def test_transformed_diagram(self):
        assert newton_number(D((3, 0), (1, 1), (0, 2))).value == 5

    def test_original_diagram(self):
        assert newton_number(D((2, 0), (0, 2))).value == 4

    def test_unbounded(self):
        assert newton_number(D((1, 1))).infinite

    def test_origin_gives_zero(self):
        assert newton_number(D((0, 0))).value == 0

    def test_simplex_closed_form_2d(self):
        rng = random.Random(11)
        for _ in range(20):
            a = [F(rng.randint(1, 8), rng.randint(1, 5)) for _ in range(2)]
            assert newton_number(weighted_simplex(a)).value == 1 / (a[0] * a[1])

    def test_simplex_closed_form_3d(self):
        rng = random.Random(12)
        for _ in range(10):
            a = [F(rng.randint(1, 6), rng.randint(1, 4)) for _ in range(3)]
            assert newton_number(weighted_simplex(a)).value == 1 / (a[0] * a[1] * a[2])

    def test_scaling_law(self):
        g = D((3, 0), (1, 1), (0, 2))
        for c in (2, F(1, 2), F(5, 3)):
            assert newton_number(scale(g, c)).value == c**2 * newton_number(g).value
        h = canonicalize(3, [(2, 0, 0), (0, 3, 0), (0, 0, 1), (1, 1, 0)])
        assert newton_number(scale(h, 2)).value == 8 * newton_number(h).value

    def test_monotone_under_inclusion(self):
        rng = random.Random(13)
        for _ in range(15):
            pts = [(rng.randint(0, 5), rng.randint(0, 5)) for _ in range(3)]
            g1 = canonicalize(2, pts + [(6, 0), (0, 6)])
            g2 = canonicalize(2, [(p[0] + rng.randint(0, 2), p[1]) for p in pts] + [(6, 0), (0, 6)])
            if all(contains(g1, p) for p in g2.generators):
                assert newton_number(g1).value <= newton_number(g2).value


class TestCovolumeOracle:
    def test_values(self):
        assert covolume_2d_oracle(D((1, 0), (0, 1))) == F(1, 2)
        assert covolume_2d_oracle(D((3, 0), (1, 1), (0, 2))) == F(5, 2)
        assert covolume_2d_oracle(D((2, 0), (0, 1))) == 1

    def test_agrees_with_newton_number(self):
        rng = random.Random(14)
        for _ in range(25):
            pts = [(rng.randint(0, 5), rng.randint(0, 5)) for _ in range(rng.randint(1, 4))]
            g = canonicalize(2, pts + [(rng.randint(1, 6), 0), (0, rng.randint(1, 6))])
            assert newton_number(g).value == 2 * covolume_2d_oracle(g)

    def test_rejects_unbounded(self):
        with pytest.raises(Unbounded):
            covolume_2d_oracle(D((1, 1)))

    def test_rejects_other_dimensions(self):
        with pytest.raises(DimensionMismatch):
            covolume_2d_oracle(canonicalize(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]))


class TestMixedMassIdentity:
    def test_polarization_on_decomposable_example(self):
        g1 = D((1, 0), (0, 1))
        g2 = D((2, 0), (0, 1))
        total = minkowski_sum(g1, g2)
        n_total = newton_number(total).value
        mixed = n_total - newton_number(g1).value - newton_number(g2).value
        assert mixed == 2
        assert n_total > newton_number(D((2, 0), (0, 2))).value


class TestRelativeType:
    def test_original_input(self):
        u = singularity_input(
            2,
            [
                parse_polynomial(t, 2)
                for t in [
                    "z1^3",
                    "z1^3 + z1^2*z2",
                    "z1^2 + z1*z2",
                    "z1^2 + 2*z1*z2 + z2^2",
                ]
            ],
        )
        assert relative_type_monomial(u, (1, 1)) == 2

    def test_single_monomial(self):
        u = singularity_input(2, [parse_polynomial("z2", 2)])
        assert relative_type_monomial(u, (3, 5)) == 5

    def test_transformed_input(self):
        u = singularity_input(
            2,
            [parse_polynomial(t, 2) for t in ["z1^3", "z1^2*z2", "z1*z2", "z2^2"]],
        )
        # generator scan: min(<(2,1),(3,0)>, <(2,1),(1,1)>, <(2,1),(0,2)>) = 2
        assert relative_type_monomial(u, (2, 1)) == 2


class TestIndicatorEval:
    def test_values(self):
        assert indicator_eval(D((1, 0), (0, 1)), (-1, -2)) == -1
        assert indicator_eval(D((3, 0), (1, 1), (0, 2)), (0, 0)) == 0
        assert indicator_eval(D((3, 0), (1, 1), (0, 2)), (-1, -1)) == -2

    def test_nonpositive_on_domain(self):
        rng = random.Random(15)
        g = D((3, 0), (1, 1), (0, 2))
        for _ in range(10):
            t = (-F(rng.randint(0, 9), 3), -F(rng.randint(0, 9), 3))
            assert indicator_eval(g, t) <= 0

    def test_rejects_positive_direction(self):
        with pytest.raises(PositiveDirection):
            indicator_eval(D((1, 0)), (1, -1))


class TestBoxIdentity:
    def test_box_partition(self):
        # complement volume plus box/diagram intersection fills the box;
        # the intersection area is recomputed here by an independent
        # shoelace walk over its vertex cycle
        g = D((3, 0), (1, 1), (0, 2))
        covol = newton_number(g).value / math.factorial(2)
        m_box = 3
        ineqs = [(a, b) for a, b, _ in diagram_facets(g)]
        for k in range(2):
            low = [F(0)] * 2
            low[k] = F(1)
            ineqs.append((tuple(low), F(0)))
            high = [F(0)] * 2
            high[k] = F(-1)
            ineqs.append((tuple(high), F(-m_box)))
        verts = enumerate_vertices(ineqs, 2)
        cx = sum(v[0] for v in verts) / len(verts)
        cy = sum(v[1] for v in verts) / len(verts)
        ring = sorted(verts, key=lambda v: math.atan2(v[1] - cy, v[0] - cx))
        area = F(0)
        for (x1, y1), (x2, y2) in zip(ring, ring[1:] + ring[:1]):
            area += x1 * y2 - x2 * y1
        assert covol + abs(area) / 2 == m_box**2

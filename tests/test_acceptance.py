"""Acceptance suite: every criterion is exact (rational arithmetic, zero
tolerance) and runs at desk scale.  One PASS/FAIL line per criterion is
printed by the conftest hook.
"""

import json
import pathlib
import random
import time
from fractions import Fraction as F

from pshdiag import (
    Decomposable,
    Indecomposable,
    canonicalize,
    classify_extreme,
    covolume_2d_oracle,
    decide_decomposability,
    diagram_of_input,
    index_of,
    minkowski_sum,
    newton_number,
    parse_polynomial,
    poly_mul,
    singularity_input,
    substitute_linear,
    support_value,
    verify_decomposition,
    weighted_simplex,
)
from pshdiag.cli import run_batch
from pshdiag.polynomials import polynomial

from oracle2d import decomposable_oracle

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures" / "example31"

ORIGINAL_POLYS = [
    "z1^3",
    "z1^3 + z1^2*z2",
    "z1^2 + z1*z2",
    "z1^2 + 2*z1*z2 + z2^2",
]
TRANSFORMED_POLYS = ["z1^3", "z1^2*z2", "z1*z2", "z2^2"]
SHEAR = [[1, 0], [-1, 1]]  # z1 = w1, z2 = w2 - w1


def D(*pts):
    return canonicalize(2, pts)


def random_poly(rng, dim, max_deg=6):
    terms = {}
    for _ in range(rng.randint(1, 5)):
        exponent = [0] * dim
        budget = rng.randint(0, max_deg)
        for _ in range(budget):
            exponent[rng.randrange(dim)] += 1
        terms[tuple(exponent)] = F(rng.randint(-5, 5))
    p = polynomial(dim, terms)
    if p.is_zero():
        p = polynomial(dim, {tuple(0 for _ in range(dim)): F(1)})
    return p


def test_criterion_01_example_pipeline():
    original = [parse_polynomial(t, 2) for t in ORIGINAL_POLYS]
    transformed = [substitute_linear(p, SHEAR) for p in original]
    expected = [parse_polynomial(t, 2) for t in TRANSFORMED_POLYS]
    assert transformed == expected
    assert diagram_of_input(singularity_input(2, original)) == D((2, 0), (0, 2))
    assert diagram_of_input(singularity_input(2, transformed)) == D(
        (3, 0), (1, 1), (0, 2)
    )


def test_criterion_02_theorem_classification():
    cert_a = decide_decomposability(D((2, 0), (0, 2)))
    assert isinstance(cert_a, Indecomposable)
    cert_b = decide_decomposability(D((3, 0), (1, 1), (0, 2)))
    assert isinstance(cert_b, Decomposable)
    assert {cert_b.left, cert_b.right} == {D((1, 0), (0, 1)), D((2, 0), (0, 1))}
    assert verify_decomposition(D((3, 0), (1, 1), (0, 2)), cert_b.left, cert_b.right)
    original = singularity_input(2, [parse_polynomial(t, 2) for t in ORIGINAL_POLYS])
    transformed = singularity_input(
        2, [parse_polynomial(t, 2) for t in TRANSFORMED_POLYS]
    )
    assert classify_extreme(original).verdict == "extreme"
    assert classify_extreme(transformed).verdict == "not-extreme"


def test_criterion_03_newton_numbers():
    g_transformed = D((3, 0), (1, 1), (0, 2))
    g_original = D((2, 0), (0, 2))
    n_transformed = newton_number(g_transformed).value
    n_original = newton_number(g_original).value
    assert n_transformed == 5
    assert n_original == 4
    assert n_transformed == 2 * covolume_2d_oracle(g_transformed)
    assert n_original == 2 * covolume_2d_oracle(g_original)
    # the qualitative point survives: the two masses differ strictly
    assert n_transformed > n_original
    # documented expected divergence: these figures have been reported as
    # 6 and 5 elsewhere; the independent shoelace oracle fixes 5 and 4,
    # and this suite binds to the oracle rather than absorbing the
    # difference silently
    assert (n_transformed, n_original) != (6, 5)
    assert n_transformed == 2 * F(5, 2) and n_original == 2 * F(2)


def test_criterion_04_simplex_mass_law():
    rng = random.Random(1004)
    for _ in range(50):
        dim = rng.choice([2, 3])
        a = [F(rng.randint(1, 8), rng.randint(1, 4)) for _ in range(dim)]
        product = F(1)
        for c in a:
            product *= c
        assert newton_number(weighted_simplex(a)).value == 1 / product


def test_criterion_05_valuation_additivity():
    rng = random.Random(1005)
    for _ in range(200):
        dim = rng.randint(1, 3)
        p, q = random_poly(rng, dim), random_poly(rng, dim)
        pq = poly_mul(p, q)
        for _ in range(5):
            a = [F(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(dim)]
            assert index_of(pq, a) == index_of(p, a) + index_of(q, a)


def test_criterion_06_minkowski_homomorphism():
    rng = random.Random(1006)
    for _ in range(200):
        dim = rng.randint(1, 3)
        p, q = random_poly(rng, dim), random_poly(rng, dim)
        dp = diagram_of_input(singularity_input(dim, [p]))
        dq = diagram_of_input(singularity_input(dim, [q]))
        dpq = diagram_of_input(singularity_input(dim, [poly_mul(p, q)]))
        total = minkowski_sum(dp, dq)
        assert dpq == total
        for _ in range(20):
            t = [-F(rng.randint(0, 12), 4) for _ in range(dim)]
            assert support_value(total, t) == support_value(dp, t) + support_value(
                dq, t
            )


def test_criterion_07_weighted_simplices_indecomposable():
    rng = random.Random(1007)
    for _ in range(50):
        dim = rng.choice([2, 3])
        a = [F(rng.randint(1, 8), rng.randint(1, 4)) for _ in range(dim)]
        assert isinstance(decide_decomposability(weighted_simplex(a)), Indecomposable)


def test_criterion_08_decomposability_oracle_agreement():
    rng = random.Random(1008)
    start = time.monotonic()
    for _ in range(100):
        pts = [
            (rng.randint(0, 5), rng.randint(0, 5)) for _ in range(rng.randint(1, 4))
        ]
        g = canonicalize(2, pts)
        cert = decide_decomposability(g)
        exact = isinstance(cert, Decomposable)
        if exact:
            assert verify_decomposition(g, cert.left, cert.right)
        assert exact == decomposable_oracle(g.generators)
    assert time.monotonic() - start < 30


def test_criterion_09_degenerate_but_decisive():
    cert = decide_decomposability(D((1, 1)))
    assert isinstance(cert, Decomposable)
    assert minkowski_sum(cert.left, cert.right) == D((1, 1))
    cert = decide_decomposability(D((2, 1), (1, 2)))
    assert isinstance(cert, Decomposable)
    assert minkowski_sum(cert.left, cert.right) == D((2, 1), (1, 2))
    assert verify_decomposition(D((2, 1), (1, 2)), cert.left, cert.right)


def test_criterion_10_batch_determinism():
    manifest = json.loads((FIXTURES / "manifest.json").read_text())
    first, code1 = run_batch(manifest)
    second, code2 = run_batch(manifest)
    blob1 = json.dumps(first, indent=2, sort_keys=True)
    blob2 = json.dumps(second, indent=2, sort_keys=True)
    assert code1 == code2 == 0
    assert blob1.encode() == blob2.encode()

import math
import random
import re
from fractions import Fraction as F

import pytest

from pshdiag import (
    canonicalize,
    diagram_of_input,
    diagram_to_json,
    index_of,
    input_from_json,
    input_to_json,
    lelong_directional,
    minkowski_sum,
    parse_polynomial,
    parse_tree,
    poly_add,
    poly_mul,
    poly_pow,
    polynomial,
    serialize_polynomial,
    singularity_input,
    substitute_linear,
    support_of,
)
from pshdiag import polynomials
from pshdiag.cli import EXIT_INPUT, EXIT_OK, EXIT_SEMANTIC, execute
from pshdiag.errors import (
    DimensionMismatch,
    NegativeExponent,
    PolynomialSyntaxError,
    PshDiagError,
    SingularMatrix,
    UnknownVariable,
    UnsupportedDimension,
    ZeroPolynomial,
)
from fraction_kernels import inverse
from pshdiag.linalg import frac_rows
from pshdiag.polynomials import MAX_EXPONENT, MAX_NESTING, MAX_TERM_PAIRS

# z1 = zeta1, z2 = zeta2 - zeta1
SHEAR = [[1, 0], [-1, 1]]


def P(text, dim=2):
    return parse_polynomial(text, dim)


class TestParser:
    def test_square(self):
        assert P("z1^2 + 2*z1*z2 + z2^2").as_dict() == {
            (2, 0): F(1),
            (1, 1): F(2),
            (0, 2): F(1),
        }

    def test_cancellation(self):
        assert P("(z1+z2)^2 - z1^2 - 2*z1*z2").as_dict() == {(0, 2): F(1)}

    def test_zero(self):
        assert P("0").is_zero()

    def test_rational_coefficients(self):
        assert P("1/2*z1 + 3/4").as_dict() == {(1, 0): F(1, 2), (0, 0): F(3, 4)}

    def test_syntax_error_position(self):
        with pytest.raises(PolynomialSyntaxError) as err:
            P("z1 + + z2")
        assert err.value.position == 5

    def test_nesting_limit(self):
        depth = MAX_NESTING
        assert P("(" * depth + "z1" + ")" * depth).as_dict() == {(1, 0): F(1)}
        with pytest.raises(PolynomialSyntaxError) as err:
            P("(" * (depth + 1) + "z1" + ")" * (depth + 1))
        assert err.value.position == depth

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariable):
            P("z3 + 1", dim=2)

    def test_bad_exponent(self):
        with pytest.raises(NegativeExponent):
            P("z1^z2")

    def test_trailing_garbage(self):
        with pytest.raises(PolynomialSyntaxError):
            P("z1 z2")


class TestRingOps:
    def test_add(self):
        assert poly_add(P("z1"), P("z2")).as_dict() == {(1, 0): F(1), (0, 1): F(1)}

    def test_binomial(self):
        assert poly_mul(P("z1+z2"), P("z1+z2")) == P("z1^2 + 2*z1*z2 + z2^2")

    def test_cross_cancellation(self):
        assert poly_mul(P("z1 - z2"), P("z1 + z2")) == P("z1^2 - z2^2")

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            poly_add(P("z1"), parse_polynomial("z1", 3))

    @pytest.mark.parametrize(
        "text,dim",
        [
            ("z1 + z2", 2),
            ("2*z1^2 - z1*z2 + 1/3", 2),
            ("z1 - 1", 2),
            ("z1 + z2 + z3", 3),
            ("z1*z2 - 3/2*z3^2 + z2", 3),
        ],
    )
    def test_pow_equals_repeated_mul(self, text, dim):
        p = parse_polynomial(text, dim)
        expected = parse_polynomial("1", dim)
        for k in range(13):
            assert poly_pow(p, k) == expected, k
            expected = poly_mul(expected, p)

    def test_pow_budget(self):
        # the weighted power budget: exponent times the larger of degree and coefficient bits
        assert poly_pow(P("2*z1"), MAX_EXPONENT // 2) == P(f"{2 ** (MAX_EXPONENT // 2)}*z1^{MAX_EXPONENT // 2}")
        for base, k in [("2*z1", MAX_EXPONENT // 2 + 1), ("z1 + z2", MAX_EXPONENT + 1)]:
            with pytest.raises(UnsupportedDimension, match="base size"):
                poly_pow(P(base), k)
        # a first power grows nothing: it is the polynomial itself
        big = P(f"z1^{MAX_EXPONENT // 2} * z1^{MAX_EXPONENT // 2 + 1}")
        for p in [big, P("z1 + z2"), P("0")]:
            assert poly_pow(p, 1) is p

    def test_expand_multiplies_each_factor_once(self, monkeypatch):
        # a first power multiplies nothing, so two factors make one product
        calls = []
        monkeypatch.setattr(polynomials, "poly_mul", lambda *a: calls.append(a) or poly_mul(*a))
        assert P("(z1 + z2)^1 * (z1 + z3)", 3) == P("z1^2 + z1*z3 + z1*z2 + z2*z3", 3)
        assert len(calls) == 1


class TestSubstitution:
    @pytest.mark.parametrize(
        "before,after",
        [
            ("z1^2 + z1*z2", "z1*z2"),
            ("z1^3 + z1^2*z2", "z1^2*z2"),
            ("z1^2 + 2*z1*z2 + z2^2", "z2^2"),
            ("z1^3", "z1^3"),
        ],
    )
    def test_shear(self, before, after):
        assert substitute_linear(P(before), SHEAR) == P(after)

    def test_identity(self):
        p = P("z1^2 - 3*z1*z2 + 1/2")
        assert substitute_linear(p, [[1, 0], [0, 1]]) == p

    def test_inverse_round_trip(self):
        p = P("2*z1^3 - z2^2 + z1*z2")
        m = frac_rows([[2, 1], [1, 1]])
        assert substitute_linear(substitute_linear(p, m), inverse(m)) == p

    def test_singular_matrix(self):
        with pytest.raises(SingularMatrix):
            substitute_linear(P("z1"), [[1, 1], [2, 2]])

    def test_linear_in_the_term_count(self, monkeypatch):
        # the substituted terms are summed once, not re-validated per term
        p = P(" + ".join(f"z1^{i}*z2^{2000 - i}" for i in range(2001)))
        calls = []
        real = polynomials.polynomial
        monkeypatch.setattr(polynomials, "polynomial", lambda *a: calls.append(a) or real(*a))
        assert substitute_linear(p, [[1, 0], [0, 1]]) == p
        assert len(calls) <= p.dim

    def test_each_power_of_a_linear_form_once(self, monkeypatch):
        # z1 -> z1 + z2 and z2 -> -z1 + 2*z2; the powers 1..12 of each form,
        # each built once as an integer table however many terms use it
        p, want = P("(z1 + 2*z2 + 1)^12"), P("(z1 + z2 + 2*(-z1 + 2*z2) + 1)^12")
        calls = []
        real = polynomials._pow_ints
        monkeypatch.setattr(polynomials, "_pow_ints", lambda a, k, dim: calls.append((sorted(a.items()), k)) or real(a, k, dim))
        assert substitute_linear(p, [[1, 1], [-1, 2]]) == want
        forms = [[((0, 1), 1), ((1, 0), 1)], [((0, 1), 2), ((1, 0), -1)]]
        assert sorted(calls) == sorted((form, k) for form in forms for k in range(1, 13))


class TestSupportAndDiagram:
    def test_support(self):
        assert support_of(P("z1^3 + z1^2*z2")) == {(F(3), F(0)), (F(2), F(1))}
        assert support_of(P("5")) == {(F(0), F(0))}
        assert support_of(P("(z1+z2)^2")) == {
            (F(2), F(0)),
            (F(1), F(1)),
            (F(0), F(2)),
        }

    def test_support_of_zero(self):
        with pytest.raises(ZeroPolynomial):
            support_of(P("0"))

    def test_diagram_of_original_input(self):
        u = singularity_input(
            2,
            [
                P("z1^3"),
                P("z1^3 + z1^2*z2"),
                P("z1^2 + z1*z2"),
                P("z1^2 + 2*z1*z2 + z2^2"),
            ],
        )
        assert diagram_of_input(u) == canonicalize(2, [(2, 0), (0, 2)])

    def test_diagram_of_transformed_input(self):
        u = singularity_input(2, [P("z1^3"), P("z1^2*z2"), P("z1*z2"), P("z2^2")])
        assert diagram_of_input(u) == canonicalize(2, [(3, 0), (1, 1), (0, 2)])

    def test_single_monomial(self):
        u = singularity_input(2, [P("z1*z2")])
        assert diagram_of_input(u) == canonicalize(2, [(1, 1)])


class TestIndex:
    def test_examples(self):
        assert index_of(P("z1^3 + z1^2*z2"), (1, 1)) == 3
        assert index_of(P("z1^2 + z1*z2"), (1, 2)) == 2
        assert index_of(P("7"), (F(5, 3), 11)) == 0

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomial):
            index_of(P("0"), (1, 1))

    def test_matches_diagram_lelong(self):
        p = P("z1^4 + 3*z1*z2^2 - z2^5")
        u = singularity_input(2, [p])
        for a in [(1, 1), (F(1, 2), 3), (2, F(2, 3))]:
            assert index_of(p, a) == lelong_directional(diagram_of_input(u), a)


def random_poly(rng, dim, max_deg=6, max_terms=5):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = tuple(rng.randint(0, max_deg // 2) for _ in range(dim))
        terms[e] = F(rng.randint(-5, 5))
    p = polynomial(dim, terms)
    if p.is_zero():
        e = tuple(rng.randint(0, 2) for _ in range(dim))
        p = polynomial(dim, {e: F(1)})
    return p


class TestValuationProperties:
    def test_index_additive_under_products(self):
        rng = random.Random(42)
        for _ in range(200):
            dim = rng.randint(1, 3)
            p, q = random_poly(rng, dim), random_poly(rng, dim)
            a = [F(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(dim)]
            assert index_of(poly_mul(p, q), a) == index_of(p, a) + index_of(q, a)

    def test_diagram_homomorphism(self):
        rng = random.Random(43)
        for _ in range(40):
            dim = rng.randint(1, 3)
            p, q = random_poly(rng, dim), random_poly(rng, dim)
            dp = diagram_of_input(singularity_input(dim, [p]))
            dq = diagram_of_input(singularity_input(dim, [q]))
            dpq = diagram_of_input(singularity_input(dim, [poly_mul(p, q)]))
            assert dpq == minkowski_sum(dp, dq)

    def test_permutation_covariance(self):
        rng = random.Random(44)
        for _ in range(20):
            p = random_poly(rng, 3)
            swapped = polynomial(
                3, {(e[1], e[0], e[2]): c for e, c in p.terms}
            )
            a = [F(rng.randint(1, 7)) for _ in range(3)]
            assert index_of(p, a) == index_of(swapped, [a[1], a[0], a[2]])


class TestSerialization:
    def test_parse_serialize_round_trip(self):
        rng = random.Random(45)
        for _ in range(30):
            p = random_poly(rng, rng.randint(1, 3))
            assert parse_polynomial(serialize_polynomial(p), p.dim) == p

    def test_input_json_round_trip(self):
        u = singularity_input(2, [P("z1^3"), P("z1^2 + z1*z2")])
        assert input_from_json(input_to_json(u)) == u


def random_text(rng, dim, depth):
    """A random expression: sums that cancel, zero factors, zeroth and nested powers."""
    def var():
        return f"z{rng.randint(1, dim)}"

    def sub():
        return random_text(rng, dim, depth - 1)

    if depth == 0:
        return rng.choice(["1/2", var(), f"3*{var()}^{rng.randint(2, 4)}*{var()}", f"({var()} - 2*{var()}^2)"])
    shape = rng.randrange(8)
    if shape == 0:
        return f"({sub()} {rng.choice('+-')} {sub()})"
    if shape == 1:  # terms that cancel, with or without a remainder
        x = sub()
        return f"(({x}) - ({x}){rng.choice(['', ' + ' + sub()])})"
    if shape == 2:
        return "*".join(sub() for _ in range(rng.randint(2, 3)))
    if shape == 3:
        return f"({sub()})^{rng.choice([0, 1, 2, 3])}"
    if shape == 4:  # a nested power
        return f"(({sub()})^{rng.randint(0, 2)})^{rng.randint(2, 3)}"
    if shape == 5:  # a zero factor
        return f"{rng.choice(['0', f'({var()} - {var()})'])}*{sub()}"
    if shape == 6:
        return f"-({sub()})"
    return f"{sub()} + {sub()}"


def value_of_text(text, v):
    """The text evaluated at the point v in Fraction arithmetic, without the parser."""
    def python(m):
        return f"v[{int(m[1]) - 1}]" if m[1] else f"F({m[2]})" if m[2] else "**"

    return eval(re.sub(r"z(\d+)|(\d+)|\^", python, text), {"F": F, "v": v})


def value_of(p, v):
    return sum(c * math.prod(x**k for x, k in zip(v, e)) for e, c in p.terms)


def test_support_reading_matches_expansion():
    # diagram and lelong read supports only; wherever the expansion answers
    # it must agree with the text evaluated at seeded rational points, and
    # diagram and lelong must give the canonical union of the expanded
    # supports, and wherever it refuses the input (exit 2) the same error
    rng = random.Random(46)
    points = random.Random(47)
    answered = refused = evaluated = 0
    for _ in range(500):
        dim = rng.randint(1, 4)
        texts = [random_text(rng, dim, rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
        weight = [str(rng.randint(1, 5)) for _ in range(dim)]
        u = {"dim": dim, "polys": texts}
        try:
            polys = [parse_polynomial(t, dim) for t in texts]
            for t, p in zip(texts, polys):
                for _ in range(3):
                    v = [F(points.randint(-9, 9), points.randint(1, 9)) for _ in range(dim)]
                    assert value_of(p, v) == value_of_text(t, v), (t, v)
                    evaluated += 1
            singularity_input(dim, polys)
        except UnsupportedDimension:
            continue  # a budget of the expansion, which the support reading may pass
        except PshDiagError as exc:
            expected = [({"error": str(exc)}, EXIT_INPUT)] * 2
            refused += 1
        else:
            g = canonicalize(dim, set().union(*map(support_of, polys)))
            expected = [
                ({"diagram": diagram_to_json(g)}, EXIT_OK),
                ({"lelong": str(lelong_directional(g, weight))}, EXIT_OK),
            ]
            answered += 1
        got = [execute("diagram", {"input": u}), execute("lelong", {"input": u, "weight": weight})]
        assert got == expected, texts
    assert answered > 150 and refused > 100 and evaluated > 1000


def with_each_text_command(text, dim):
    """execute's answer for the one-polynomial input text, from each command that parses it."""
    u = {"dim": dim, "polys": [text]}
    identity = [[str(int(i == j)) for j in range(dim)] for i in range(dim)]
    return {
        "diagram": execute("diagram", {"input": u}),
        "lelong": execute("lelong", {"input": u, "weight": ["1"] * dim}),
        "classify": execute("classify", {"input": u}),
        "substitute": execute("substitute", {"input": u, "matrix": identity}),
    }


@pytest.mark.parametrize(
    "text,dim,error",
    [
        ("z1 + + z2", 2, "unexpected token '+' (at position 5)"),
        ("z1 +* z2", 2, "unexpected token '*' (at position 4)"),
        ("(z1 + z2", 2, "expected ')' (at position 8)"),
        ("z1 + z2)", 2, "unexpected token ')' (at position 7)"),
        ("z3", 2, "variable z3 out of range for dimension 2 (at position 0)"),
        ("z1^z2", 2, "exponent must be a nonnegative integer (at position 3)"),
        ("(" * 101 + "z1" + ")" * 101, 1, "parentheses nested deeper than 100 (at position 100)"),
        ("z1 + 2*" + "7" * 5000, 1, "number with 5000 digits exceeds the limit of 4300 digits (at position 7)"),
        ("z1 $ z2", 2, "unexpected character '$' (at position 3)"),
        ("2/", 1, "expected positive integer denominator (at position 2)"),
        ("z1^", 1, "exponent must be a nonnegative integer (at position 3)"),
        ("", 1, "unexpected token None (at position 0)"),
        # digits are ASCII: an Arabic-Indic or fullwidth three is no digit
        ("z1^\u0663", 1, "unexpected character '\u0663' (at position 3)"),
        ("z1^\uff13", 1, "unexpected character '\uff13' (at position 3)"),
    ],
)
def test_malformed_text_errors(text, dim, error):
    for command, answer in with_each_text_command(text, dim).items():
        assert answer == ({"error": error}, EXIT_INPUT), command


def test_syntax_error_before_an_expansion_budget():
    # every command reads the text into one tree before it multiplies out
    # a product or power outside a sum, so a later syntax error speaks first
    sum_501 = " + ".join(f"z1^{i}" for i in range(501))
    for text, dim, budget in [
        ("(z1 + z2)^20000", 2, "exponent times base size 1 exceeds the budget of 10000"),
        (f"({sum_501})*({sum_501})", 1, f"product of {501 * 501} term pairs exceeds the budget of {MAX_TERM_PAIRS}"),
    ]:
        parse_error = ({"error": f"unexpected token None (at position {len(text) + 2})"}, EXIT_INPUT)
        for command, answer in with_each_text_command(text + " +", dim).items():
            assert answer == parse_error, (command, text)
        assert execute("classify", {"input": {"dim": dim, "polys": [text]}}) == ({"error": budget}, EXIT_SEMANTIC)


def test_diagram_multiplies_out_only_sums(monkeypatch):
    calls = []
    for name in ("poly_mul", "poly_pow"):
        real = getattr(polynomials, name)
        monkeypatch.setattr(polynomials, name, lambda *a, real=real: calls.append(a) or real(*a))
    for text, sums in [
        ("(2/3*z1 + 5/4*z2)^29", ["2/3*z1 + 5/4*z2"]),
        ("(z1+z2)^3*(z1+2*z2^2)^5", ["z1+z2", "z1+2*z2^2"]),
    ]:
        del calls[:]
        for s in sums:
            parse_tree(s, 2)
        own = len(calls)  # the power z2^2 inside a sum
        del calls[:]
        assert execute("diagram", {"input": {"dim": 2, "polys": [text]}})[1] == EXIT_OK
        assert len(calls) == own, text
        assert all(len(p.terms) == 1 for p, *_ in calls), text

import json
import math
import os
import pathlib
import random
import subprocess
import sys
import time
import types
from fractions import Fraction

import pytest

from pshdiag import decomposition, diagram, exactlp, polynomials
from pshdiag.diagram import MAX_DIGITS, MAX_DIM, MAX_GENERATORS, diagram_from_json
from pshdiag.measures import covolume_2d_oracle
from pshdiag.polynomials import MAX_EXPONENT, MAX_TERM_PAIRS, polynomial, serialize_polynomial
from pshdiag.cli import (
    EXIT_INPUT,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_SEMANTIC,
    build_parser,
    execute,
    main,
    run_batch,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures" / "example31"


def load(name):
    return json.loads((FIXTURES / name).read_text())


def sphere_then_dominated():
    """400 lattice points near a sphere, each a vertex, then 19,600 points above every one."""
    rng = random.Random(8)
    r = 10**4
    gens = []
    for _ in range(400):
        u = [abs(rng.gauss(0, 1)) for _ in range(3)]
        norm = math.sqrt(sum(x * x for x in u))
        gens.append([r - round(r * x / norm) for x in u])
    return gens + [[r + 1 + i, r + 1 + j, r + 1] for i in range(196) for j in range(100)]


def chain(n):
    """The 2-D diagram with the n + 1 vertices (i, (n - i)^2)."""
    return {"dim": 2, "generators": [[str(i), str((n - i) ** 2)] for i in range(n + 1)]}


def convex_chain(m):
    """m + 1 lattice points, each a vertex of the 2-D diagram they span, with coordinates under 7,000."""
    steps = sorted(
        ((a, b) for a in range(1, 42) for b in range(1, 42) if math.gcd(a, b) == 1),
        key=lambda s: (s[0] + s[1], s),
    )[:m]
    steps.sort(key=lambda s: s[1] / s[0], reverse=True)  # steepest first: a convex chain
    x, y = 0, sum(b for _, b in steps)
    points = [(x, y)]
    for a, b in steps:
        x, y = x + a, y - b
        points.append((x, y))
    return points


# each command with a payload it answers; the keys that hold a diagram or
# an input are the ones every command reads through diagram_from_json or
# input_from_json
SIMPLEX = {"dim": 2, "generators": [["1", "0"], ["0", "1"]]}
INPUT = {"dim": 2, "polys": ["z1 + z2"]}
GOOD_PAYLOADS = {
    "diagram": {"input": INPUT},
    "lelong": {"input": INPUT, "weight": ["1", "1"]},
    "sum": {"a": SIMPLEX, "b": SIMPLEX},
    "homothetic": {"a": SIMPLEX, "b": SIMPLEX},
    "decompose": {"diagram": SIMPLEX},
    "classify": {"input": INPUT},
    "newton-number": {"diagram": SIMPLEX},
    "substitute": {"input": INPUT, "matrix": [["1", "0"], ["0", "1"]]},
    "indicator": {"diagram": SIMPLEX, "t": ["-1", "-1"]},
}


def run_cli(capsys, *args):
    code = main([str(a) for a in args])
    out = capsys.readouterr().out
    return code, out


class TestExecute:
    def test_classify_transformed_fixture(self):
        result, code = execute("classify", {"input": load("input_transformed.json")})
        assert code == EXIT_OK
        assert result["verdict"] == "not-extreme"
        cert = result["certificate"]
        assert cert["left"] == load("summand_left.json")
        assert cert["right"] == load("summand_right.json")
        assert "caveat" in result

    def test_classify_original_fixture(self):
        result, code = execute("classify", {"input": load("input_original.json")})
        assert code == EXIT_OK
        # the untransformed diagram alone looks indecomposable
        assert result["verdict"] == "extreme"
        assert result["diagram"] == load("diagram_original.json")

    def test_substitute_fixture(self):
        result, code = execute(
            "substitute",
            {"input": load("input_original.json"), "matrix": load("matrix.json")},
        )
        assert code == EXIT_OK
        assert result["input"] == load("input_transformed.json")

    @pytest.mark.parametrize(
        "matrix,error",
        [
            ("x", "matrix must be a list of rows"),
            ([["1", 0.5], ["0"]], "rationals must be strings or integers, got 0.5"),
            ([["1", "0"], ["0"]], "matrix must be 2x2"),
            ([["1", "0"]], "matrix must be 2x2"),
            ([["1", "1"], ["1", "1"]], "substitution matrix is singular"),
        ],
    )
    def test_matrix_errors_in_order(self, matrix, error):
        # types, then rationals, then the shape, then the singular check
        payload = {"input": load("input_original.json"), "matrix": matrix}
        assert execute("substitute", payload) == ({"error": error}, EXIT_INPUT)

    def test_sum_of_simplices(self):
        result, code = execute(
            "sum", {"a": load("summand_left.json"), "b": load("summand_right.json")}
        )
        assert code == EXIT_OK
        assert result["diagram"] == load("diagram_transformed.json")

    def test_newton_numbers(self):
        result, code = execute(
            "newton-number", {"diagram": load("diagram_transformed.json")}
        )
        assert (code, result["newton_number"]) == (EXIT_OK, "5")
        result, code = execute(
            "newton-number", {"diagram": load("diagram_original.json")}
        )
        assert (code, result["newton_number"]) == (EXIT_OK, "4")

    def test_results_share_equal_numbers(self):
        # a caller that keeps many results holds each number text once
        payload = {"input": {"dim": 2, "polys": ["z1^12 + z1*z2 + z2^12"]}}
        (a, _), (b, _) = execute("diagram", payload), execute("diagram", payload)
        gens = a["diagram"]["generators"]
        assert gens == [["0", "12"], ["1", "1"], ["12", "0"]]
        assert gens[0][0] is gens[2][1] and gens[0][1] is gens[2][0]
        assert all(x is y for p, q in zip(gens, b["diagram"]["generators"]) for x, y in zip(p, q))
        (n, _), (m, _) = (execute("newton-number", {"diagram": a["diagram"]}) for _ in range(2))
        assert n == m == {"newton_number": "24"}
        assert n["newton_number"] is m["newton_number"]

    def test_newton_number_infinite_exit_3(self):
        result, code = execute(
            "newton-number", {"diagram": {"dim": 2, "generators": [["1", "1"]]}}
        )
        assert code == EXIT_SEMANTIC
        assert result == {"newton_number": "infinite"}

    def test_homothetic(self):
        result, code = execute(
            "homothetic",
            {
                "a": {"dim": 2, "generators": [["2", "0"], ["0", "2"]]},
                "b": {"dim": 2, "generators": [["1", "0"], ["0", "1"]]},
            },
        )
        assert code == EXIT_OK
        assert result == {"homothetic": True, "c": "2", "x": ["0", "0"]}

    def test_lelong_and_indicator(self):
        result, code = execute(
            "lelong", {"input": load("input_original.json"), "weight": ["1", "1"]}
        )
        assert (code, result["lelong"]) == (EXIT_OK, "2")
        result, code = execute(
            "indicator",
            {"diagram": load("diagram_transformed.json"), "t": ["-1", "-1"]},
        )
        assert (code, result["indicator"]) == (EXIT_OK, "-2")

    def test_validation_errors_exit_2(self):
        _, code = execute("diagram", {"input": {"dim": 2, "polys": ["z1 +"]}})
        assert code == EXIT_INPUT
        _, code = execute("unknown-command", {})
        assert code == EXIT_INPUT
        _, code = execute("diagram", {"input": {"dim": 2}})
        assert code == EXIT_INPUT

    # a point in an error text reads as the rationals a user writes
    @pytest.mark.parametrize(
        "command,payload,error",
        [
            (
                "decompose",
                {"diagram": {"dim": 2, "generators": [["-1", "2"], ["1", "0"]]}},
                "negative coordinate in (-1, 2)",
            ),
            (
                "indicator",
                {"diagram": {"dim": 2, "generators": [["1", "0"], ["0", "1"]]}, "t": ["1/2", "-1"]},
                "direction (1/2, -1) has a positive component",
            ),
            (
                "lelong",
                {"input": {"dim": 2, "polys": ["z1 + z2"]}, "weight": ["1/2", "0"]},
                "weight (1/2, 0) must be strictly positive",
            ),
        ],
    )
    def test_points_in_error_texts(self, command, payload, error):
        assert execute(command, payload) == ({"error": error}, EXIT_INPUT)

    def test_non_object_payload_exit_2(self):
        for payload in ([], "g.json", None):
            result, code = execute("diagram", payload)
            assert code == EXIT_INPUT
            assert "JSON object" in result["error"]

    @pytest.mark.parametrize(
        "command,key", [(c, k) for c, p in GOOD_PAYLOADS.items() for k in p if k in ("input", "diagram", "a", "b")]
    )
    def test_non_object_part_exit_2(self, command, key):
        assert execute(command, GOOD_PAYLOADS[command])[1] == EXIT_OK
        for part in ([], "g.json", None, 3, [SIMPLEX]):
            result, code = execute(command, {**GOOD_PAYLOADS[command], key: part})
            assert code == EXIT_INPUT, part
            assert "JSON must have 'dim'" in result["error"]

    def test_boolean_dim_exit_2(self):
        _, code = execute("newton-number", {"diagram": {"dim": True, "generators": [["1"]]}})
        assert code == EXIT_INPUT
        _, code = execute("diagram", {"input": {"dim": True, "polys": ["z1"]}})
        assert code == EXIT_INPUT

    def test_json_floats_exit_2(self):
        simplex = {"dim": 2, "generators": [["1", "0"], ["0", "1"]]}
        requests = [
            ("newton-number", {"diagram": {"dim": 2, "generators": [[0.1, 0], [0, 1]]}}),
            ("lelong", {"input": load("input_original.json"), "weight": [0.5, 1]}),
            ("indicator", {"diagram": simplex, "t": [-0.5, -1]}),
            ("substitute", {"input": load("input_original.json"), "matrix": [[1, 0.5], [0, 1]]}),
        ]
        for command, payload in requests:
            result, code = execute(command, payload)
            assert code == EXIT_INPUT, command
            assert "0.5" in result["error"] or "0.1" in result["error"]

    def test_strings_in_place_of_lists_exit_2(self):
        # a string is a sequence too: "20" must not become the point (2, 0)
        _, code = execute("newton-number", {"diagram": {"dim": 2, "generators": ["20", "02"]}})
        assert code == EXIT_INPUT
        _, code = execute(
            "substitute", {"input": load("input_original.json"), "matrix": ["10", "01"]}
        )
        assert code == EXIT_INPUT

    # a dict of texts was read off its keys, a string char by char, and the
    # other shapes failed with Python's own messages
    @pytest.mark.parametrize("polys", [{"z1 + z2^2": 1}, "z1", 5, ["z1", 5], [["z1"]]])
    @pytest.mark.parametrize("command", ["diagram", "lelong", "classify", "substitute"])
    def test_polys_must_be_a_list_of_texts(self, command, polys):
        payload = {**GOOD_PAYLOADS[command], "input": {"dim": 2, "polys": polys}}
        assert execute(command, payload) == ({"error": "'polys' must be a list of polynomial texts"}, EXIT_INPUT)

    # the dimension is read first, by the rule of a JSON diagram's: an empty
    # list was refused as empty, and a bad list before a bad dimension
    @pytest.mark.parametrize("dim,polys", [(0, []), (0, ["1"]), (MAX_DIM + 1, 5), (-1, [["z1"]])])
    @pytest.mark.parametrize("command", ["diagram", "lelong", "classify", "substitute"])
    def test_input_dim_read_before_polys(self, command, dim, polys):
        payload = {**GOOD_PAYLOADS[command], "input": {"dim": dim, "polys": polys}}
        assert execute(command, payload) == (
            {"error": f"dimension must be between 1 and {MAX_DIM}, got {dim}"},
            EXIT_INPUT,
        )

    @pytest.mark.parametrize("command", ["diagram", "lelong", "classify", "substitute"])
    def test_empty_polys_exit_2(self, command):
        payload = {**GOOD_PAYLOADS[command], "input": {"dim": 2, "polys": []}}
        assert execute(command, payload) == ({"error": "at least one polynomial is required"}, EXIT_INPUT)

    def test_deep_parentheses_exit_2(self):
        # nesting past polynomials.MAX_NESTING is a syntax error, not a
        # RecursionError escaping execute
        text = "(" * 5000 + "z1" + ")" * 5000
        result, code = execute("diagram", {"input": {"dim": 1, "polys": [text]}})
        assert code == EXIT_INPUT
        assert "nested" in result["error"]

    @pytest.mark.parametrize("dim", [MAX_DIM + 1, 10**20])
    def test_huge_dim_exit_2(self, dim):
        # exponent tuples have length dim, so a huge dim must stop at the parser
        result, code = execute("diagram", {"input": {"dim": dim, "polys": ["1"]}})
        assert code == EXIT_INPUT
        assert str(MAX_DIM) in result["error"]

    def test_max_dim_accepted(self):
        result, code = execute("diagram", {"input": {"dim": MAX_DIM, "polys": ["z1 + z32"]}})
        assert code == EXIT_OK
        assert len(result["diagram"]["generators"]) == 2

    @staticmethod
    def _point_payload(command, dim):
        diagram = {"dim": dim, "generators": [[1] * min(dim, MAX_DIM + 1)]}
        return {"a": diagram, "b": diagram} if command == "sum" else {"diagram": diagram}

    @pytest.mark.parametrize("command", ["decompose", "newton-number", "sum"])
    @pytest.mark.parametrize("dim", [MAX_DIM + 1, 10**20])
    def test_huge_diagram_dim_exit_2(self, command, dim):
        # a JSON diagram obeys the parser's bound, with the parser's message
        result, code = execute(command, self._point_payload(command, dim))
        assert (result, code) == (
            {"error": f"dimension must be between 1 and {MAX_DIM}, got {dim}"},
            EXIT_INPUT,
        )

    @pytest.mark.parametrize(
        "command,answer",
        [("decompose", "certificate"), ("newton-number", "newton_number"), ("sum", "diagram")],
    )
    def test_max_diagram_dim_accepted(self, command, answer):
        result, code = execute(command, self._point_payload(command, MAX_DIM))
        assert code in (EXIT_OK, EXIT_SEMANTIC) and answer in result

    def test_diagram_of_high_power(self):
        # every support point lies on one segment, so only its ends survive
        result, code = execute("diagram", {"input": {"dim": 2, "polys": ["(z1+z2)^300"]}})
        assert code == EXIT_OK
        assert result["diagram"]["generators"] == [["0", "300"], ["300", "0"]]

    def test_diagram_of_coplanar_powers(self):
        # every support point lies on the plane x + y + z = k
        for k in (16, 20, 60):
            result, code = execute("diagram", {"input": {"dim": 3, "polys": [f"(z1+z2+z3)^{k}"]}})
            assert code == EXIT_OK
            assert result["diagram"]["generators"] == [
                ["0", "0", str(k)], ["0", str(k), "0"], [str(k), "0", "0"]
            ]

    def test_twelve_dim_simplex_newton_number(self):
        # intercepts 2, ..., 13: the Newton number is their product, 13!
        n = 12
        simplex = [[str(k + 2) if j == k else "0" for j in range(n)] for k in range(n)]
        result, code = execute("newton-number", {"diagram": {"dim": n, "generators": simplex}})
        assert (code, result["newton_number"]) == (EXIT_OK, "6227020800")

    def test_coplanar_lattice_diagram(self):
        # the 5151 lattice points of x + y + z = 100; only the three on the
        # axes are vertices
        gens = [[a, b, 100 - a - b] for a in range(101) for b in range(101 - a)]
        result, code = execute("newton-number", {"diagram": {"dim": 3, "generators": gens}})
        assert (code, result["newton_number"]) == (EXIT_OK, "1000000")
        result, code = execute("decompose", {"diagram": {"dim": 3, "generators": gens}})
        assert (code, result["certificate"]["verdict"]) == (EXIT_OK, "indecomposable")

    def test_facet_search_budget_exit_3(self):
        # 30 points near a sphere in 8-D: about 66 million ray pairs and
        # 50 s of facet search without the budget
        rng = random.Random(8)
        n = 8
        gens = []
        for _ in range(30):
            u = [abs(rng.gauss(0, 1)) for _ in range(n)]
            norm = math.sqrt(sum(x * x for x in u))
            gens.append([str(round(100 - 100 * x / norm)) for x in u])
        start = time.perf_counter()
        result, code = execute("newton-number", {"diagram": {"dim": n, "generators": gens}})
        assert time.perf_counter() - start < 10
        assert code == EXIT_SEMANTIC
        assert "budget of 1000000 ray tests" in result["error"]

    def test_type_space_budget_exit_3(self, monkeypatch):
        # the sum of two 19-vertex chains, in the planes z = 0 and x = 0: 361
        # vertices and 684 compact edges, none on a compact 3-cycle, so 1011
        # rows by 687 columns, about 4.5 s of elimination without the budget
        def refuse(*args):
            raise AssertionError("the elimination ran past its budget")

        monkeypatch.setattr(decomposition, "int_kernel", refuse)
        gens = [[x, y + p, q] for x, y in convex_chain(18) for p, q in convex_chain(18)]
        start = time.perf_counter()
        result, code = execute("decompose", {"diagram": {"dim": 3, "generators": gens}})
        assert time.perf_counter() - start < 10
        assert (code, result["error"]) == (
            EXIT_SEMANTIC,
            "type-space elimination over 694557 matrix cells exceeds the budget of "
            f"{decomposition.MAX_TYPE_SPACE_CELLS}",
        )

    def test_type_space_budget_edge(self, monkeypatch):
        # the sum of two 4-vertex chains: 16 vertices and 24 classes, so 9
        # edges off the tree give 27 rows, 9 zero coordinates 9 more, by 24
        # scales and 3 axes; at a budget of exactly 972 cells it answers
        gens = [[x, y + p, q] for x, y in convex_chain(3) for p, q in convex_chain(3)]
        payload = {"diagram": {"dim": 3, "generators": gens}}
        want = execute("decompose", payload)
        assert want[0]["certificate"]["verdict"] == "decomposable"
        monkeypatch.setattr(decomposition, "MAX_TYPE_SPACE_CELLS", 972)
        assert execute("decompose", payload) == want
        monkeypatch.setattr(decomposition, "MAX_TYPE_SPACE_CELLS", 971)
        result, code = execute("decompose", payload)
        assert code == EXIT_SEMANTIC and "over 972 matrix cells" in result["error"]

    @pytest.mark.parametrize(
        "command,payload,budget",
        [
            # C(45, 5) terms; squaring the 1287 terms of p^8 takes 1.7 million pairs
            ("classify", {"input": {"dim": 6, "polys": ["(z1+z2+z3+z4+z5+z6)^40"]}}, "term pairs"),
            # squaring the 561 terms of p^32 takes 314,721 pairs
            ("classify", {"input": {"dim": 3, "polys": ["(z1+z2+z3)^80"]}}, "term pairs"),
            # 400 points on a sphere build 800 facets, then 19,600 points
            # above them all cost one sign test per facet each: 7 s of
            # search if only the ray pairs counted
            ("newton-number", {"diagram": {"dim": 3, "generators": sphere_then_dominated()}}, "ray tests"),
            # the coefficient 2^(10^30) would never finish
            ("classify", {"input": {"dim": 1, "polys": ["(2*z1)^1000000000000000000000000000000"]}}, "base size"),
            ("classify", {"input": {"dim": 1, "polys": ["z1^" + "1" * 4000]}}, "base size"),
            # nested powers multiply exponents: z1^(10^9) with coefficient 2^(10^9)
            ("classify", {"input": {"dim": 1, "polys": ["(((2*z1)^1000)^1000)^1000"]}}, "base size"),
            ("classify", {"input": {"dim": 1, "polys": ["(((2^1000)^1000)^1000)*z1"]}}, "base size"),
        ],
    )
    def test_expansion_and_dominance_budgets_exit_3(self, command, payload, budget):
        start = time.perf_counter()
        result, code = execute(command, payload)
        assert time.perf_counter() - start < 5
        assert code == EXIT_SEMANTIC
        assert budget in result["error"] and "budget" in result["error"]

    @pytest.mark.parametrize(
        "dim,text,generators",
        [
            (2, "(z1+z2)^1000", [["0", "1000"], ["1000", "0"]]),
            (6, "(z1+z2+z3+z4+z5+z6)^40", [["40" if j == 5 - k else "0" for j in range(6)] for k in range(6)]),
            (3, "(z1+z2+z3)^80", [["0", "0", "80"], ["0", "80", "0"], ["80", "0", "0"]]),
            (1, "(2*z1)^1000000000000000000000000000000", [[str(10**30)]]),
            (1, "z1^" + "1" * 4000, [["1" * 4000]]),
            (1, "(((2*z1)^1000)^1000)^1000", [[str(10**9)]]),
            (1, "(((2^1000)^1000)^1000)*z1", [["1"]]),
            (1, f"z1^{MAX_EXPONENT + 1}", [[str(MAX_EXPONENT + 1)]]),
            (1, f"(z1^2 + 1)^{MAX_EXPONENT // 2 + 1}", [["0"]]),
            (2, "(z1 + z2^2)^6000 * (z1^3 + z2)^4000 * z1*z2", [["1", "16001"], ["6001", "4001"], ["18001", "1"]]),
        ],
    )
    def test_diagram_past_the_expansion_budgets(self, dim, text, generators):
        # diagram multiplies out no product or power, so the budgets that
        # refuse these in classify do not apply (see the test above)
        payload = {"input": {"dim": dim, "polys": [text]}, "weight": ["1"] * dim}
        answers = {}
        for command in ("diagram", "lelong"):
            start = time.perf_counter()
            answers[command], code = execute(command, payload)
            assert time.perf_counter() - start < 0.1, command
            assert code == EXIT_OK, command
        assert answers["diagram"]["diagram"] == {"dim": dim, "generators": generators}
        assert answers["lelong"]["lelong"] == str(min(sum(map(int, g)) for g in generators))
        assert execute("classify", payload)[1] == EXIT_SEMANTIC

    def test_computed_exponent_limit_exit_3(self):
        # an exponent written out has at most MAX_DIGITS digits, and so has
        # one a power computes: nested, the powers below would reach
        # 430,000 digits and 20 s of facet search
        k = "9" * MAX_DIGITS
        result, code = execute("diagram", {"input": {"dim": 3, "polys": [f"(z1+z2+z3)^{k}"]}})
        assert (code, result["diagram"]["generators"][0]) == (EXIT_OK, ["0", "0", k])
        text = "(" * 100 + "z1+z2+z3" + f")^{k}" * 100
        start = time.perf_counter()
        result, code = execute("diagram", {"input": {"dim": 3, "polys": [text]}})
        assert time.perf_counter() - start < 1
        assert (code, result["error"]) == (EXIT_SEMANTIC, f"a power has an exponent of over {MAX_DIGITS} digits")

    def test_product_of_vertex_sets_budget_exit_3(self):
        # two factors of 501 vertices each: 251,001 vertex pairs, as many
        # term pairs as multiplying them out takes
        factor = " + ".join(f"z1^{x}*z2^{y}" for x, y in convex_chain(500))
        for command in ("diagram", "classify"):
            result, code = execute(command, {"input": {"dim": 2, "polys": [f"({factor})*({factor})"]}})
            assert (code, result["error"]) == (
                EXIT_SEMANTIC, "product of 251001 term pairs exceeds the budget of 250000"
            ), command

    def test_substituted_power_budget_exit_3(self):
        # c^10000 for a c of 4,001 digits: over a minute of squaring if the
        # power of the linear form went unchecked
        payload = {"input": {"dim": 2, "polys": ["z1^10000 + z2"]},
                   "matrix": [["1" + "0" * 4000, "0"], ["0", "1"]]}
        start = time.perf_counter()
        result, code = execute("substitute", payload)
        assert time.perf_counter() - start < 1
        assert code == EXIT_SEMANTIC
        assert "base size" in result["error"] and "budget" in result["error"]

    def test_substituted_long_product_exit_3(self):
        # a text of 2,000 powers folds into z1^20000000; the power of the
        # form z1/3 is refused before any term is put over the denominator
        # 3^20000000, which would take seconds
        text = "1 + " + "*".join(["z1^10000"] * 2000)
        payload = {"input": {"dim": 1, "polys": [text]}, "matrix": [["1/3"]]}
        start = time.perf_counter()
        error = f"exponent times base size 2 exceeds the budget of {MAX_EXPONENT}"
        assert execute("substitute", payload) == ({"error": error}, EXIT_SEMANTIC)
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("k", [998, 999])
    def test_substituted_power_at_the_pair_budget(self, k):
        # z1 -> z1 + z2; the last step of the power (z1 + z2)^k multiplies
        # (z1 + z2)^(k - 512) by (z1 + z2)^512: 487 * 513 = 249,831 term
        # pairs for k = 998, within the budget, and 488 * 513 for k = 999
        payload = {"input": {"dim": 2, "polys": [f"z1^{k}"]}, "matrix": [["1", "1"], ["0", "1"]]}
        result, code = execute("substitute", payload)
        if k == 998:
            want = polynomial(2, {(i, k - i): math.comb(k, i) for i in range(k + 1)})
            assert (code, result["input"]["polys"]) == (EXIT_OK, [serialize_polynomial(want)])
            assert len(want.terms) == 999
        else:
            error = f"product of 250344 term pairs exceeds the budget of {MAX_TERM_PAIRS}"
            assert (code, result) == (EXIT_SEMANTIC, {"error": error})

    def test_substituted_power_as_text(self):
        # the same power exits 3 whether it is written out or substituted
        text = {"input": {"dim": 1, "polys": ["(2*z1)^6000"]}, "matrix": [["1"]]}
        substituted = {"input": {"dim": 1, "polys": ["z1^6000"]}, "matrix": [["2"]]}
        assert execute("substitute", text) == execute("substitute", substituted)
        assert execute("substitute", text)[1] == EXIT_SEMANTIC
        # at the budget the substitution answers 2^5000 * z1^5000
        payload = {"input": {"dim": 1, "polys": ["z1^5000"]}, "matrix": [["2"]]}
        result, code = execute("substitute", payload)
        assert (code, result["input"]["polys"]) == (EXIT_OK, [f"{2**5000}*z1^5000"])

    def test_exponent_budget_edge(self):
        # the budget weighs the exponent by the base's degree or coefficient bits
        for text, code in [
            (f"z1^{MAX_EXPONENT}", EXIT_OK),
            (f"z1^{MAX_EXPONENT + 1}", EXIT_SEMANTIC),
            (f"(2*z1)^{MAX_EXPONENT // 2}", EXIT_OK),
            (f"(2*z1)^{MAX_EXPONENT // 2 + 1}", EXIT_SEMANTIC),
            (f"(z1^2 + 1)^{MAX_EXPONENT // 2 + 1}", EXIT_SEMANTIC),
            # a first power grows nothing
            (f"(z1^{MAX_EXPONENT // 2} * z1^{MAX_EXPONENT // 2 + 1})^1", EXIT_OK),
        ]:
            assert execute("classify", {"input": {"dim": 1, "polys": [text]}})[1] == code, text

    @pytest.mark.parametrize(
        "command,payload,position",
        [
            ("diagram", {"input": {"dim": 1, "polys": ["z1^" + "1" * 5000]}}, 3),
            ("diagram", {"input": {"dim": 1, "polys": ["z1 + " + "7" * 5000 + "/3"]}}, 5),
            ("diagram", {"input": {"dim": 1, "polys": ["z" + "1" * 5000]}}, 0),
            ("newton-number", {"diagram": {"dim": 1, "generators": [["1" * 5000]]}}, 0),
            ("newton-number", {"diagram": {"dim": 2, "generators": [["1", "2/" + "3" * 5000]]}}, 0),
        ],
    )
    def test_digit_limit_exit_2(self, command, payload, position):
        # Python's own error past its digit limit would point at sys
        result, code = execute(command, payload)
        assert code == EXIT_INPUT
        assert f"limit of {MAX_DIGITS} digits (at position {position})" in result["error"]
        assert "sys" not in result["error"]

    def test_digit_limit_edge(self):
        payload = {"diagram": {"dim": 1, "generators": [["9" * MAX_DIGITS]]}}
        result, code = execute("newton-number", payload)
        assert (code, result["newton_number"]) == (EXIT_OK, "9" * MAX_DIGITS)

    def test_digit_limit_counts_digits_not_characters(self):
        # the indicator of the diagram [1, oo) at t <= 0 is t
        line = {"dim": 1, "generators": [["1"]]}
        text = "-" + "1" * (MAX_DIGITS - 1) + "/7"
        result, code = execute("indicator", {"diagram": line, "t": [text]})
        assert (code, result["indicator"]) == (EXIT_OK, text)
        result, code = execute("indicator", {"diagram": line, "t": ["-1" + text[1:]]})
        assert code == EXIT_INPUT
        assert f"limit of {MAX_DIGITS} digits" in result["error"]

    @pytest.mark.parametrize(
        "command,payload",
        [
            ("newton-number", {"diagram": {"dim": 2, "generators": [["1e300000", "0"], ["0", "1"]]}}),
            ("lelong", {"input": {"dim": 2, "polys": ["z1 + z2"]}, "weight": ["1e300000", "1"]}),
        ],
    )
    def test_exponent_notation_exit_2(self, command, payload):
        # read as a Python Fraction, "1e300000" would build 10^300000
        t0 = time.perf_counter()
        result, code = execute(command, payload)
        assert time.perf_counter() - t0 < 0.05
        assert code == EXIT_INPUT
        assert '"3/4"' in result["error"] and "sys" not in result["error"]

    @pytest.mark.parametrize(
        "text", ["0.5", "1e3", "+1", " 1", "1 ", "1_000", "1/0", "1/-2", "--1", "", "\u0663"]
    )
    def test_rationals_only_in_printed_form(self, text):
        result, code = execute("newton-number", {"diagram": {"dim": 1, "generators": [[text]]}})
        assert code == EXIT_INPUT and '"3/4"' in result["error"], text

    @pytest.mark.parametrize("text,value", [("-0", "0"), ("-007", "-7"), ("-6/4", "-3/2"), ("-6/04", "-3/2")])
    def test_printed_form_rationals(self, text, value):
        # the indicator of the diagram [1, oo) at t <= 0 is t
        result, code = execute("indicator", {"diagram": {"dim": 1, "generators": [["1"]]}, "t": [text]})
        assert (code, result) == (EXIT_OK, {"indicator": value}), text

    @pytest.mark.parametrize(
        "command,payload",
        [  # serialize_polynomial: a product of two literals inside the digit limit
            ("substitute", {"input": {"dim": 1, "polys": ["1" + "0" * 4000 + "*1" + "0" * 4000 + "*z1"]},
                            "matrix": [["1"]]}),
            ("substitute", {"input": {"dim": 1, "polys": ["1/1" + "0" * 2200 + "*1/1" + "0" * 2200]},
                            "matrix": [["1"]]}),
            # rational_to_json: a JSON integer has no digit limit through execute
            ("newton-number", {"diagram": {"dim": 1, "generators": [[10**MAX_DIGITS]]}}),
            ("lelong", {"input": {"dim": 1, "polys": ["z1"]}, "weight": [10**MAX_DIGITS]}),
        ],
    )
    def test_answer_past_the_digit_limit_exit_3(self, command, payload):
        result, code = execute(command, payload)
        assert code == EXIT_SEMANTIC
        assert f"over {MAX_DIGITS} digits" in result["error"] and "sys" not in result["error"]

    def test_answer_at_the_digit_limit(self):
        big = 10**MAX_DIGITS - 1
        result, code = execute("newton-number", {"diagram": {"dim": 1, "generators": [[big]]}})
        assert (code, result["newton_number"]) == (EXIT_OK, str(big))
        payload = {"input": {"dim": 1, "polys": ["1/1" + "0" * 2149 + "*1/1" + "0" * 2150]},
                   "matrix": [["1"]]}
        result, code = execute("substitute", payload)
        assert (code, result["input"]["polys"]) == (EXIT_OK, ["1/1" + "0" * 4299])

    def test_generator_budget_exit_3(self):
        # refused before any coordinate is read: "x" would exit 2
        gens = [["x", "x"]] * (MAX_GENERATORS + 1)
        result, code = execute("newton-number", {"diagram": {"dim": 2, "generators": gens}})
        assert code == EXIT_SEMANTIC
        assert f"budget of {MAX_GENERATORS}" in result["error"]
        gens = [["1", "0"], ["0", "1"]] * (MAX_GENERATORS // 2)
        result, code = execute("newton-number", {"diagram": {"dim": 2, "generators": gens}})
        assert (code, result["newton_number"]) == (EXIT_OK, "1")

    def test_sum_budget_exit_3(self):
        # 1,501 x 1,501 pair sums would take over a minute to canonicalize
        start = time.perf_counter()
        result, code = execute("sum", {"a": chain(1500), "b": chain(1500)})
        assert time.perf_counter() - start < 1
        assert code == EXIT_SEMANTIC
        assert f"2253001 generator pairs exceeds the budget of {MAX_GENERATORS}" in result["error"]

    def test_sum_budget_edge(self):
        # 100 x m pair sums at the budget, then 101 x m past it
        m = MAX_GENERATORS // 100
        result, code = execute("sum", {"a": chain(99), "b": chain(m - 1)})
        assert code == EXIT_OK
        assert result["diagram"]["generators"][0] == ["0", str(99**2 + (m - 1) ** 2)]
        result, code = execute("sum", {"a": chain(100), "b": chain(m - 1)})
        assert code == EXIT_SEMANTIC and f"{101 * m} generator pairs" in result["error"]

    def test_decompose_long_chain_exit_3_quickly(self):
        # compact edges are sought among the pairs that share facets, so
        # the sweep budget refuses a 701-vertex chain without m^2 face scans
        start = time.perf_counter()
        result, code = execute("decompose", {"diagram": chain(700)})
        assert time.perf_counter() - start < 2
        assert code == EXIT_SEMANTIC
        assert "sweep" in result["error"] and "budget" in result["error"]

    def test_newton_number_of_5000_vertex_chain(self):
        # the plane's facets come off the chain, so no search budget applies
        result, code = execute("newton-number", {"diagram": chain(4999)})
        assert code == EXIT_OK
        g = diagram_from_json(chain(4999))
        assert len(g.generators) == 5000
        assert Fraction(result["newton_number"]) == 2 * covolume_2d_oracle(g)

    def test_decompose_19000_vertex_chain_refused_before_lp_rows(self, monkeypatch):
        def refuse(self):
            raise AssertionError("LP rows built past the sweep budget")

        monkeypatch.setattr(decomposition.SummandSystem, "_lp_constraints", refuse)
        result, code = execute("decompose", {"diagram": chain(18999)})
        assert code == EXIT_SEMANTIC
        assert result["error"].startswith("edge-scale sweep over ")
        assert result["error"].endswith(f"exceeds the budget of {decomposition.MAX_SWEEP_CELLS}")

    def test_json_integers_accepted(self):
        result, code = execute(
            "newton-number", {"diagram": {"dim": 2, "generators": [[2, 0], [0, 2]]}}
        )
        assert (code, result["newton_number"]) == (EXIT_OK, "4")
        result, code = execute("indicator", {"diagram": load("diagram_transformed.json"), "t": [-1, -1]})
        assert (code, result["indicator"]) == (EXIT_OK, "-2")

    def _run_with_faulty_lp(self, monkeypatch, answer):
        # only the edge-scale sweep sees the faulty LP; canonicalize keeps
        # the real one through its own binding of exactlp
        fake = types.SimpleNamespace(
            OPTIMAL=exactlp.OPTIMAL,
            solve_lp=lambda *args, **kwargs: answer,
        )
        monkeypatch.setattr(decomposition, "exactlp", fake)
        return execute("decompose", {"diagram": load("diagram_transformed.json")})

    def test_internal_lp_fault_exit_4(self, monkeypatch):
        result, code = self._run_with_faulty_lp(monkeypatch, [exactlp.LPResult(exactlp.UNBOUNDED)])
        assert code == EXIT_INTERNAL
        assert "unbounded" in result["error"]

    def test_internal_lp_infeasible_exit_4(self, monkeypatch):
        result, code = self._run_with_faulty_lp(monkeypatch, None)
        assert code == EXIT_INTERNAL
        assert "infeasible" in result["error"]

    def test_internal_lp_optimum_outside_s_exit_4(self, monkeypatch):
        # an optimum that breaks S is a fault of the LP, not of the input
        x = [Fraction(5), Fraction(6)] + [Fraction(0)] * 6
        result, code = self._run_with_faulty_lp(
            monkeypatch, [exactlp.LPResult(exactlp.OPTIMAL, x, Fraction(-1))]
        )
        assert (code, result["error"]) == (
            EXIT_INTERNAL,
            "internal invariant violation: edge-scale LP optimum outside S: "
            "displacement (5, 6) outside [0, (0, 2)]",
        )


class TestBatch:
    def test_fixture_manifest(self):
        manifest = load("manifest.json")
        result, code = run_batch(manifest)
        assert code == EXIT_OK
        results = result["results"]
        assert results["classify-transformed"]["result"]["verdict"] == "not-extreme"
        assert results["newton-transformed"]["result"]["newton_number"] == "5"
        assert (
            results["decompose-transformed"]["result"]["certificate"]
            == load("expected_certificate_transformed.json")["certificate"]
        )

    def test_empty_manifest(self):
        result, code = run_batch({"requests": []})
        assert (result, code) == ({"results": {}}, EXIT_OK)

    def test_malformed_entry_isolated(self):
        manifest = {
            "requests": [
                {"id": "good", "command": "newton-number",
                 "payload": {"diagram": {"dim": 2, "generators": [["1", "0"], ["0", "1"]]}}},
                {"id": "bad", "command": "diagram", "payload": {"input": {"dim": 2, "polys": ["("]}}},
                {"id": "not-an-object", "command": "diagram", "payload": []},
            ]
        }
        result, code = run_batch(manifest)
        assert code == EXIT_INPUT
        assert result["results"]["good"]["ok"]
        assert not result["results"]["bad"]["ok"]
        assert result["results"]["not-an-object"]["exit_code"] == EXIT_INPUT

    @pytest.mark.parametrize(
        "manifest,error",
        [
            ([], "manifest must have a 'requests' list"),
            ({"requests": {"id": "a", "command": "sum"}}, "manifest must have a 'requests' list"),
            ({"requests": [{"id": "a", "command": "sum"}, {"command": "sum"}]}, "request #1 needs 'id' and 'command'"),
            ({"requests": [{"id": "a"}]}, "request #0 needs 'id' and 'command'"),
            ({"requests": ["a"]}, "request #0 needs 'id' and 'command'"),
            ({"requests": [{"id": "a", "command": "sum"}, {"id": "a", "command": "sum"}]}, "duplicate request id 'a'"),
        ],
    )
    def test_malformed_manifest_exit_2(self, manifest, error):
        assert run_batch(manifest) == ({"error": error}, EXIT_INPUT)

    def test_jobs_key_ignored(self, capsys, tmp_path):
        # "jobs" is no option: any value, even a malformed one, is ignored
        path = tmp_path / "manifest.json"
        requests = [{"id": "nn", "command": "newton-number",
                     "payload": {"diagram": {"dim": 2, "generators": [["2", "0"], ["0", "2"]]}}}]
        outputs = []
        for jobs in ("x", [2], 2):
            path.write_text(json.dumps({"jobs": jobs, "requests": requests}))
            outputs.append(run_cli(capsys, "batch", path))
        assert outputs[0][0] == EXIT_OK
        assert json.loads(outputs[0][1])["results"]["nn"]["result"] == {"newton_number": "4"}
        assert outputs[0] == outputs[1] == outputs[2]

    @pytest.mark.parametrize(
        "ids, bad",
        [([1, "a"], 1), (["a", 1], 1), ([[1]], 0), (["x", None], 1), ([True], 0), ([1.5], 0), ([2, False], 1)],
    )
    def test_ids_of_one_type(self, capsys, tmp_path, ids, bad):
        path = tmp_path / "manifest.json"
        requests = [{"id": rid, "command": "sum", "payload": {}} for rid in ids]
        path.write_text(json.dumps({"requests": requests}))
        code, out = run_cli(capsys, "batch", path)
        assert code == EXIT_INPUT
        assert json.loads(out)["error"].startswith(f"request #{bad}:")

    def test_integer_ids_in_numeric_order(self, capsys, tmp_path):
        path = tmp_path / "manifest.json"
        diagram = {"dim": 2, "generators": [["2", "0"], ["0", "2"]]}
        requests = [
            {"id": rid, "command": "newton-number", "payload": {"diagram": diagram}}
            for rid in (10, 2)
        ]
        path.write_text(json.dumps({"requests": requests}))
        code, out = run_cli(capsys, "batch", path)
        assert code == EXIT_OK
        assert list(json.loads(out)["results"]) == ["2", "10"]


# one input in two texts, and its diagram, the 3-D sum of two segments,
# whose decision runs the type-space step
SEGMENTS_INPUT = {"dim": 3, "polys": ["z1*z2 + z1*z3", "z2^2 + z2*z3"]}
SEGMENTS = {"dim": 3, "generators": [["1", "1", "0"], ["1", "0", "1"], ["0", "2", "0"], ["0", "1", "1"]]}
SESSION = [
    ("classify", {"input": SEGMENTS_INPUT}),
    ("decompose", {"diagram": SEGMENTS}),
    ("diagram", {"input": SEGMENTS_INPUT}),
    ("lelong", {"input": SEGMENTS_INPUT, "weight": ["1", "2", "3"]}),
    ("substitute", {"input": SEGMENTS_INPUT, "matrix": [["1", "0", "0"], ["0", "1", "0"], ["1", "0", "1"]]}),
]


def manifest_of(requests):
    return {"requests": [{"id": f"{k}-{c}", "command": c, "payload": p} for k, (c, p) in enumerate(requests)]}


class TestBatchReuse:
    """Within one batch each distinct text is parsed and each distinct diagram decided once."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"parse": 0, "type space": 0}

        def counted(name, original):
            def call(*args):
                counts[name] += 1
                return original(*args)

            return call

        monkeypatch.setattr(polynomials._Parser, "parse", counted("parse", polynomials._Parser.parse))
        monkeypatch.setattr(
            decomposition,
            "_type_space_candidates",
            counted("type space", decomposition._type_space_candidates),
        )
        return counts

    def test_batch_parses_and_decides_once(self, calls):
        result, code = run_batch(manifest_of(SESSION))
        assert code == EXIT_OK
        assert calls == {"parse": 2, "type space": 1}
        # shared results answer as each entry does alone
        for k, (command, payload) in enumerate(SESSION):
            assert result["results"][f"{k}-{command}"]["result"] == execute(command, payload)[0]
        certificate = result["results"]["1-decompose"]["result"]["certificate"]
        assert certificate["method"] == "facet-pair-lp"
        assert result["results"]["0-classify"]["result"]["certificate"] == certificate

    def test_nothing_carries_across_batches(self, calls):
        first = run_batch(manifest_of(SESSION))
        assert first == run_batch(manifest_of(SESSION))
        assert calls == {"parse": 4, "type space": 2}

    def test_execute_outside_a_batch_computes_every_call(self, calls):
        for _ in range(2):
            assert execute("decompose", {"diagram": SEGMENTS})[1] == EXIT_OK
            assert execute("diagram", {"input": SEGMENTS_INPUT})[1] == EXIT_OK
        assert calls == {"parse": 4, "type space": 2}

    def test_repeated_failures_fail_alike(self, calls):
        malformed = ("diagram", {"input": {"dim": 2, "polys": ["z1 +* z2"]}})
        singular = ("substitute", {"input": INPUT, "matrix": [["1", "2"], ["2", "4"]]})
        # a list in place of a polynomial text is refused before any text is parsed
        unhashable = ("classify", {"input": {"dim": 2, "polys": [["z1"]]}})
        result, code = run_batch(manifest_of([malformed, singular, unhashable] * 2))
        assert code == EXIT_INPUT
        # the malformed text is read afresh each time, the good one once
        assert calls["parse"] == 3
        results = result["results"]
        for k, request in enumerate([malformed, singular, unhashable]):
            first, again = results[f"{k}-{request[0]}"], results[f"{k + 3}-{request[0]}"]
            assert first == again == {"ok": False, "exit_code": EXIT_INPUT, "result": execute(*request)[0]}

    def test_internal_fault_is_not_shared(self, calls, monkeypatch):
        # a ray of the type cone lifted outside S is a fault of the program,
        # and each request meets it afresh
        ray_point = decomposition._ray_point

        def outside(*args):
            us, ts = ray_point(*args)
            return us, [t + 1 for t in ts]

        monkeypatch.setattr(decomposition, "_ray_point", outside)
        result, code = run_batch(manifest_of(SESSION[:2]))
        assert code == EXIT_INTERNAL
        for rid in ("0-classify", "1-decompose"):
            assert result["results"][rid]["exit_code"] == EXIT_INTERNAL
            assert result["results"][rid]["result"]["error"] == (
                "internal invariant violation: type-space ray outside S: edge scale 2 outside [0, 1]"
            )
        assert calls["type space"] == 2

    def test_one_canonical_diagram_per_batch(self, monkeypatch):
        # a 3-D diagram with dominated points and a non-vertex on an edge
        g = {"dim": 3, "generators": [[4, 0, 0], [0, 4, 0], [0, 0, 4], ["1", "1", "1"], [2, 2, 2], [2, 2, 0]]}
        requests = [
            ("newton-number", {"diagram": g}),
            ("decompose", {"diagram": g}),
            ("indicator", {"diagram": g, "t": ["-1", "-2", "-3"]}),
            ("sum", {"a": g, "b": g}),
            ("homothetic", {"a": g, "b": g}),
        ]
        alone = [execute(*request) for request in requests]
        seen = []
        canonicalize = diagram.canonicalize

        def recording(dim, points):
            seen.append(points)
            return canonicalize(dim, points)

        monkeypatch.setattr(diagram, "canonicalize", recording)
        result, code = run_batch(manifest_of(requests))
        assert code == EXIT_OK
        assert seen.count(tuple(tuple(map(int, p)) for p in g["generators"])) == 1
        for k, (command, _) in enumerate(requests):
            entry = result["results"][f"{k}-{command}"]
            assert json.dumps(entry["result"], sort_keys=True) == json.dumps(alone[k][0], sort_keys=True)
            assert entry["exit_code"] == alone[k][1]

    def test_numbers_equal_to_an_integer_are_read_afresh(self):
        # 1.0 and true equal 1 as keys, but JSON floats and booleans are refused
        requests = [
            ("decompose", {"diagram": {"dim": 2, "generators": [[c, 2], [3, 0]]}}) for c in (1, 1.0, True)
        ]
        result, code = run_batch(manifest_of(requests))
        assert code == EXIT_INPUT
        for k, request in enumerate(requests):
            entry = result["results"][f"{k}-decompose"]
            assert (entry["result"], entry["exit_code"]) == execute(*request)
        assert [e["exit_code"] for e in result["results"].values()] == [EXIT_OK, EXIT_INPUT, EXIT_INPUT]


class TestMainEntry:
    def test_classify_json_round_trip(self, capsys):
        code, out = run_cli(
            capsys, "classify", "--input", FIXTURES / "input_transformed.json"
        )
        assert code == 0
        parsed = json.loads(out)
        assert parsed["verdict"] == "not-extreme"
        # emitted JSON re-parses to an equal value through a dump cycle
        assert json.loads(json.dumps(parsed)) == parsed

    def test_determinism(self, capsys):
        args = ("batch", FIXTURES / "manifest.json")
        _, first = run_cli(capsys, *args)
        _, second = run_cli(capsys, *args)
        assert first == second

    def test_text_format_has_caveat_and_sketch(self, capsys, monkeypatch):
        monkeypatch.setenv("NO_COLOR", "1")
        code, out = run_cli(
            capsys,
            "--format",
            "text",
            "classify",
            "--input",
            FIXTURES / "input_transformed.json",
        )
        assert code == 0
        assert "verdict: not-extreme" in out
        assert "almost homogeneity" in out
        assert "*" in out  # staircase sketch
        assert "\033[" not in out

    def test_text_format_extreme_verdict(self, capsys, monkeypatch):
        monkeypatch.setenv("NO_COLOR", "1")
        code, out = run_cli(capsys, "--format", "text", "classify", "--input", FIXTURES / "input_original.json")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "verdict: extreme"
        assert lines[1] == "vertices: (0, 2), (2, 0)"
        assert "indecomposability method: simplex-facet" in lines
        assert "witness" not in out and "almost homogeneity" in lines[-1]

    def test_text_format_of_a_rational_sum(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps({"dim": 2, "generators": [["0", "7/2"], ["2/3", "1"], ["5", "0"]]}))
        b.write_text(json.dumps({"dim": 2, "generators": [["0", "3/4"], ["1/2", "0"]]}))
        sketch = ["", "", "", "*", "", "", "", "  *", "    *", " " * 19 + "*"]
        assert run_cli(capsys, "--format", "text", "sum", a, b) == (EXIT_OK, "\n".join(
            ["vertices: (0, 17/4), (2/3, 7/4), (7/6, 1), (11/2, 0)"]
            + ["  |" + row.ljust(20) for row in sketch]
            + ["  +" + "-" * 20, ""]
        ))

    def test_text_format_colors_verdicts_on_a_terminal(self, capsys, monkeypatch):
        monkeypatch.delenv("NO_COLOR", raising=False)
        monkeypatch.setattr(sys.stdout, "isatty", lambda: True)
        for name, verdict, color in [
            ("input_original.json", "extreme", "\033[32m"),
            ("input_transformed.json", "not-extreme", "\033[31m"),
        ]:
            code, out = run_cli(capsys, "--format", "text", "classify", "--input", FIXTURES / name)
            assert code == EXIT_OK
            assert out.splitlines()[0] == f"verdict: {color}{verdict}\033[0m"

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_output_file(self, capsys, tmp_path, fmt):
        path = tmp_path / "out.txt"
        diagram = FIXTURES / "diagram_transformed.json"
        code, out = run_cli(capsys, "--format", fmt, "newton-number", diagram)
        assert (code, run_cli(capsys, "--format", fmt, "--output", path, "newton-number", diagram)) == (
            EXIT_OK, (EXIT_OK, "")
        )
        assert path.read_text() == out

    def test_infinite_newton_number_exit_code(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"dim": 2, "generators": [["1", "1"]]}))
        code, out = run_cli(capsys, "newton-number", path)
        assert code == 3
        assert json.loads(out) == {"newton_number": "infinite"}

    def test_long_json_integer_exit_2(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        path.write_text('{"dim": 1, "generators": [[' + "1" * 5000 + "]]}")
        assert main(["newton-number", str(path)]) == EXIT_INPUT
        error = json.loads(capsys.readouterr().err)["error"]
        assert f"limit of {MAX_DIGITS} digits" in error and "sys" not in error

    def test_missing_file_exit_2(self, capsys):
        code = main(["newton-number", "/nonexistent.json"])
        assert code == 2

    @pytest.mark.parametrize(
        "content", [b"[" * 200_000, b"\xff\xfe{}"], ids=["nested-past-recursion-limit", "not-utf-8"]
    )
    def test_unreadable_json_exit_2(self, capsys, tmp_path, content):
        path = tmp_path / "g.json"
        path.write_bytes(content)
        assert main(["newton-number", str(path)]) == EXIT_INPUT
        assert json.loads(capsys.readouterr().err)["error"].startswith(f"cannot read {path}: ")

    def test_unwritable_output_exit_2(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x.json"
        code = main(["--output", str(path), "newton-number", str(FIXTURES / "diagram_original.json")])
        assert code == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == "" and not path.exists()
        assert json.loads(captured.err)["error"].startswith(f"cannot write {path}: ")

    @pytest.mark.parametrize(
        "args,payload",
        [
            (["diagram", "--input", "input_original.json"], {"input": "input_original.json"}),
            (
                ["lelong", "--input", "input_transformed.json", "--weight", " 1 , 2/3"],
                {"input": "input_transformed.json", "weight": ["1", "2/3"]},
            ),
            (["sum", "summand_left.json", "summand_right.json"],
             {"a": "summand_left.json", "b": "summand_right.json"}),
            (["homothetic", "diagram_transformed.json", "diagram_original.json"],
             {"a": "diagram_transformed.json", "b": "diagram_original.json"}),
            (["decompose", "diagram_transformed.json"], {"diagram": "diagram_transformed.json"}),
            (["classify", "--input", "input_transformed.json"], {"input": "input_transformed.json"}),
            (["newton-number", "diagram_original.json"], {"diagram": "diagram_original.json"}),
            (
                ["substitute", "--matrix", "matrix.json", "--input", "input_original.json"],
                {"input": "input_original.json", "matrix": "matrix.json"},
            ),
            # the README form: a value starting with "-" follows "="
            (["indicator", "diagram_transformed.json", "--t=-1,-1"],
             {"diagram": "diagram_transformed.json", "t": ["-1", "-1"]}),
            (["indicator", "diagram_transformed.json", "--t", "0,-1/2"],
             {"diagram": "diagram_transformed.json", "t": ["0", "-1/2"]}),
        ],
    )
    def test_arguments_become_the_payload(self, capsys, args, payload):
        argv = [str(FIXTURES / a) if a.endswith(".json") else a for a in args]
        sent = {key: load(v) if isinstance(v, str) else v for key, v in payload.items()}
        result, code = execute(args[0], sent)
        assert run_cli(capsys, *argv) == (code, json.dumps(result, indent=2, sort_keys=True) + "\n")

    @pytest.mark.parametrize("text", ["1e5000,1", "0.5,1", "1,", "1/0,1", "1;1"])
    def test_vectors_read_like_payload_rationals(self, capsys, text):
        # as in a batch payload: exit 2 with a JSON error, never a traceback
        path = FIXTURES / "input_original.json"
        code, out = run_cli(capsys, "lelong", "--input", path, "--weight", text)
        assert code == EXIT_INPUT
        assert '"3/4"' in json.loads(out)["error"] and "sys" not in out
        payload = {"input": load("input_original.json"), "weight": text.split(",")}
        assert execute("lelong", payload) == (json.loads(out), EXIT_INPUT)

    def test_batch_runs_only_from_main(self, capsys):
        # "batch" is in the command table for its arguments, with no handler
        manifest = load("manifest.json")
        assert execute("batch", manifest) == ({"error": "unknown command 'batch'"}, EXIT_INPUT)
        result, code = run_batch(manifest)
        as_json = json.dumps(result, indent=2, sort_keys=True) + "\n"
        assert run_cli(capsys, "batch", FIXTURES / "manifest.json") == (code, as_json)

    def test_parser_built_once(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"dim": 1, "generators": [["2"]]}))
        assert build_parser() is build_parser()
        # options of one call do not carry over to the next
        as_json = '{\n  "newton_number": "2"\n}\n'
        assert run_cli(capsys, "--format", "json", "newton-number", path) == (0, as_json)
        assert run_cli(capsys, "--format", "text", "newton-number", path) == (0, 'newton_number: "2"\n')
        assert run_cli(capsys, "newton-number", path) == (0, as_json)


def test_optimized_interpreter_gives_same_bytes(tmp_path):
    # behaviour must not rest on assert statements, which -O strips; the
    # second manifest expands a product of a power and a sum, and decides a
    # 3-D sum of two segments from the type space (its cone's rays and
    # their check against S), a decision the classify entry of the same
    # diagram then shares
    product = {"dim": 2, "polys": ["(z1 + z2)^3 * (z1 + 2*z2)"]}
    segments = {"dim": 3, "generators": [[1, 1, 0], [1, 0, 1], [0, 2, 0], [0, 1, 1]]}
    expanding = tmp_path / "manifest.json"
    expanding.write_text(json.dumps({"requests": [
        {"id": "classify-product", "command": "classify", "payload": {"input": product}},
        {"id": "substitute-product", "command": "substitute",
         "payload": {"input": product, "matrix": [["1", "0"], ["-1", "1"]]}},
        {"id": "decompose-segments", "command": "decompose", "payload": {"diagram": segments}},
        {"id": "classify-segments", "command": "classify",
         "payload": {"input": {"dim": 3, "polys": ["z1*z2 + z1*z3 + z2^2 + z2*z3"]}}},
    ]}))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for manifest in (FIXTURES / "manifest.json", expanding):
        runs = [
            subprocess.run(
                [sys.executable, *flags, "-m", "pshdiag.cli", "batch", str(manifest)],
                capture_output=True, env=env, cwd=ROOT, timeout=300,
            )
            for flags in ([], ["-O"])
        ]
        assert runs[0].returncode == EXIT_OK
        assert runs[0].stdout
        if manifest == expanding:
            assert b'"facet-pair-lp"' in runs[0].stdout
        assert (runs[1].returncode, runs[1].stdout, runs[1].stderr) == (
            runs[0].returncode, runs[0].stdout, runs[0].stderr
        )

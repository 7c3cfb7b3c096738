"""The fraction-free kernels against the `Fraction` kernels they replaced
(``fraction_kernels``).

The facet search must find the same tight sets in the same order, with
normals equal up to a positive factor; products and powers must be equal
polynomials; canonicalize must give equal diagrams and raise the same
errors with the same messages, and det equal values; Newton numbers and
the axis test, read on a diagram's integer rows, must equal those read on
its `Fraction` generators.  Every facet entry,
coefficient, generator coordinate and determinant must be a `Fraction`:
equal values alone would not catch a plain int leaking out.
"""

import hashlib
import json
import math
import random
import time
from fractions import Fraction as F

import pytest

import fraction_kernels
from pshdiag import diagram as dg
from pshdiag import linalg, measures, parse_polynomial, poly_add, poly_mul, poly_pow, polynomial, polynomials, volume
from pshdiag.cli import EXIT_OK, EXIT_SEMANTIC, execute
from pshdiag.errors import PshDiagError
from pshdiag.polynomials import _const, _Parser
from pshdiag.volume import _cone_facets
from test_canonicalize_oracle import on_hyperplane, undominated
from test_face_oracles import homogenized


def assert_same_search(gens):
    got = _cone_facets(gens)
    want = fraction_kernels.cone_facets(gens)
    assert [tight for _, tight in got] == [tight for _, tight in want], gens
    for (normal, _), (ref, _) in zip(got, want):
        assert all(type(x) is int for x in normal), normal
        k = next(i for i, x in enumerate(ref) if x != 0)
        factor = normal[k] / ref[k]
        assert factor > 0 and [factor * x for x in ref] == normal, gens


def point_sets(dim, seed, count=40):
    """Seeded supports: lattice points, the same scaled by a rational, and
    lattice points on one hyperplane; every fifth set is a single point."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        size = 1 if i % 5 == 0 else rng.randint(2, 9 if dim < 4 else 7)
        if i % 3 == 2:
            pts = [on_hyperplane(rng, dim, rng.randint(1, 6)) for _ in range(size)]
        else:
            pts = [tuple(rng.randint(0, 6) for _ in range(dim)) for _ in range(size)]
        if i % 3 == 1:
            c = F(rng.randint(1, 9), rng.randint(2, 7))
            pts = [tuple(c * x for x in p) for p in pts]
        out.append(undominated(pts))
    return out


@pytest.mark.parametrize("dim,seed", [(2, 61), (3, 62), (4, 63)])
def test_cone_facets_match_fraction_search(dim, seed):
    for pts in point_sets(dim, seed):
        assert_same_search(homogenized(pts, dim))


@pytest.mark.parametrize("dim,seed", [(2, 64), (3, 65), (4, 66)])
def test_polytope_cones_with_dependent_leading_points(dim, seed, monkeypatch):
    # polytope_volume lifts its sorted points to (p, 1); the first dim + 1
    # here lie on the hyperplane x_1 = 0, so the start must skip one
    rng = random.Random(seed)
    for _ in range(12):
        face = {(0, *(rng.randint(0, 4) for _ in range(dim - 1))) for _ in range(dim + 2)}
        rest = {
            (rng.randint(1, 6), *(F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(dim - 1)))
            for _ in range(dim + 1)
        }
        points = sorted(tuple(F(x) for x in p) for p in face | rest)
        gens = [p + (F(1),) for p in points]
        if len(face) < dim + 1 or linalg.rank([list(g) for g in gens]) < dim + 1:
            continue
        assert linalg.rref([list(col) for col in zip(*gens)])[1] != list(range(dim + 1))
        assert_same_search(gens)
        got = volume.polytope_volume(points, dim)
        monkeypatch.setattr(volume, "_cone_facets", fraction_kernels.cone_facets)
        assert got == volume.polytope_volume(points, dim) > 0
        monkeypatch.undo()


def random_polynomial(rng, dim):
    terms = {}
    for _ in range(rng.randint(1, 6)):
        e = tuple(rng.randint(0, 3) for _ in range(dim))
        terms[e] = F(rng.randint(-9, 9), rng.randint(1, 6))
    return polynomial(dim, terms)


def assert_fraction_terms(p):
    assert all(type(c) is F and type(e) is tuple for e, c in p.terms), p


def test_products_and_powers_match_fraction_kernels():
    rng = random.Random(67)
    for _ in range(150):
        dim = rng.randint(1, 3)
        p, q = random_polynomial(rng, dim), random_polynomial(rng, dim)
        product = poly_mul(p, q)
        assert product == fraction_kernels.poly_mul(p, q), (p, q)
        assert_fraction_terms(product)
        k = rng.randint(0, 4)
        power = poly_pow(p, k)
        assert power == fraction_kernels.poly_pow(p, k), (p, k)
        assert_fraction_terms(power)


def test_products_cancel():
    p, q = parse_polynomial("z1 - 1/2*z2", 2), parse_polynomial("z1 + 1/2*z2", 2)
    square = parse_polynomial("z1^2 - 1/4*z2^2", 2)
    assert poly_mul(p, q) == square == fraction_kernels.poly_mul(p, q)
    assert poly_mul(p, parse_polynomial("0", 2)).is_zero()
    assert parse_polynomial("(z1+z2)^2 - z1^2 - 2*z1*z2", 2) == polynomial(2, {(0, 2): F(1)})
    assert parse_polynomial("(z1 - z2)*(z1 + z2) - z1^2 + z2^2", 2).is_zero()


@pytest.mark.parametrize("k", [0, 1, 5])
@pytest.mark.parametrize("c", [F(1), F(-3, 4), F(5)])
def test_single_term_powers(c, k):
    p = polynomial(2, {(2, 3): c})
    power = poly_pow(p, k)
    assert power == fraction_kernels.poly_pow(p, k)
    assert power == polynomial(2, {(2 * k, 3 * k): c**k})
    assert_fraction_terms(power)
    text = f"({c.numerator}/{c.denominator}*z1^2*z2^3)^{k}"
    assert parse_polynomial(text, 2) == power


def test_parsed_sums_match_fraction_kernels():
    rng = random.Random(68)
    for _ in range(100):
        dim = rng.randint(1, 3)
        p, q, r = (random_polynomial(rng, dim) for _ in range(3))
        minus_r2 = polynomial(dim, {e: -c for e, c in fraction_kernels.poly_pow(r, 2).terms})
        got = parse_polynomial(f"({p})*({q}) - ({r})^2", dim)
        assert got == poly_add(fraction_kernels.poly_mul(p, q), minus_r2), (p, q, r)
        assert_fraction_terms(got)


def test_sums_match_fraction_kernel():
    rng = random.Random(69)
    seen = {"zero": 0, "cancelled term": 0}
    for _ in range(300):
        dim = rng.randint(1, 3)
        summands = [random_polynomial(rng, dim) for _ in range(rng.randint(0, 4))]
        terms = [(rng.random() < 0.5, p) for p in summands]
        if terms and rng.random() < 0.3:
            negative, p = rng.choice(terms)
            terms.append((not negative, p))  # cancels p
        if rng.random() < 0.1:
            terms.append((False, polynomial(dim, {})))
        got = polynomials._add(dim, terms)
        assert got == fraction_kernels.add(dim, terms), terms
        assert_fraction_terms(got)
        seen["zero"] += got.is_zero()
        summed = {e for _, p in terms for e, _ in p.terms}
        seen["cancelled term"] += len(got.terms) < len(summed)
    assert min(seen.values()) >= 10, seen


def assert_same_canonical(dim, raw):
    got = dg.canonicalize(dim, raw)
    assert got == fraction_kernels.canonicalize(dim, raw), raw
    assert all(type(c) is F for p in got.generators for c in p), got


def as_given(rng, p):
    """p with each coordinate an int (when integral), a Fraction or a string."""
    kinds = (int, F, str)
    return [rng.choice(kinds if c == int(c) else kinds[1:])(c) for c in p]


def canonical_inputs(dim, seed, count=30):
    """Seeded supports with duplicates, dominated points and collinear points,
    as lattice points or scaled by a rational, in mixed types."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        size = rng.randint(1, 10 if dim < 4 else 7)
        pts = [tuple(rng.randint(0, 6) for _ in range(dim)) for _ in range(size)]
        pts += [tuple(x + rng.randint(0, 2) for x in rng.choice(pts)) for _ in range(3)]
        a, b = rng.choice(pts), rng.choice(pts)
        pts += [tuple(x + t * (y - x) for x, y in zip(a, b)) for t in range(3)]  # a line
        pts += rng.sample(pts, 2)
        if i % 2:
            c = F(rng.randint(1, 9), rng.randint(2, 7))
            pts = [tuple(c * x for x in p) for p in pts]
        rng.shuffle(pts)
        out.append([as_given(rng, p) for p in pts if min(p) >= 0])
    return out


@pytest.mark.parametrize("dim,seed", [(1, 71), (2, 72), (3, 73), (4, 74)])
def test_canonicalize_matches_fraction_kernel(dim, seed):
    for raw in canonical_inputs(dim, seed):
        assert_same_canonical(dim, raw)
    # a 2-D chain with collinear vertices and points on its edges
    chain = [(0, 6), (1, 4), (2, 2), (3, 0), (F(1, 2), 5), (F(3, 2), 3), (4, 0), (3, 1)]
    assert_same_canonical(2, chain)


@pytest.mark.parametrize(
    "dim,raw",
    [
        (2, []),
        (0, [(1,)]),
        (2, [(1, 2, 3)]),
        (2, [(1, 2), (1,)]),
        (2, [(1, -2)]),
        (3, [(F(-1, 2), "1", 0)]),
        (2, [(1, -2), (1,)]),  # every length is checked before any sign
        (2, [(1, "-3/4")]),
        (2, [(1, "x")]),
        (2, [(1, None)]),
        (2, [(1, "1/0")]),
        # no point dominates another, so both search the same 55 points
        (3, [(i, j, 9 - i - j) for i in range(10) for j in range(10 - i)]),  # over budget
    ],
)
def test_canonicalize_errors_match_fraction_kernel(dim, raw, monkeypatch):
    monkeypatch.setattr(volume, "MAX_RAY_TESTS", 100)
    with pytest.raises(Exception) as want:
        fraction_kernels.canonicalize(dim, raw)
    with pytest.raises(want.type) as got:
        dg.canonicalize(dim, raw)
    assert str(got.value) == str(want.value)


def random_matrix(rng, n):
    rows = [[F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n)] for _ in range(n)]
    shape = rng.randrange(4)
    if n and shape == 1:
        rows[0][0] = F(0)  # the first column needs a row swap
    elif n > 1 and shape == 2:  # singular: one row a combination of two others
        c = F(rng.randint(-4, 4), rng.randint(1, 3))
        rows[-1] = [x + c * y for x, y in zip(rows[0], rows[n // 2])]
    elif n and shape == 3:
        for row in rows:
            row[rng.randrange(n)] = F(0)
    return rows


def test_det_matches_fraction_kernel():
    rng = random.Random(75)
    singular = swapped = 0
    for _ in range(400):
        rows = random_matrix(rng, rng.randint(0, 5))
        got = linalg.det(rows)
        assert type(got) is F
        assert got == fraction_kernels.det(rows), rows
        singular += got == 0
        swapped += bool(rows) and rows[0][0] == 0
    assert singular > 50 and swapped > 50
    assert linalg.det([]) == 1
    assert linalg.det([[F(0), F(1)], [F(1), F(0)]]) == -1


def integer_form_cases(dim, seed, count=40):
    """Seeded diagrams, each canonicalized and again built directly from its
    generators: lattice points, the same scaled by a rational, and points
    with distinct denominators; some with a point on every axis, some with
    the origin, and dominated points that canonicalize drops."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        pts = [tuple(rng.randint(0, 6) for _ in range(dim)) for _ in range(rng.randint(1, 8 if dim < 4 else 6))]
        if i % 3 == 0:
            pts += [tuple(rng.randint(1, 6) * (j == k) for j in range(dim)) for k in range(dim)]
        pts += [tuple(x + rng.randint(0, 2) for x in rng.choice(pts)) for _ in range(2)]  # dominated
        if i % 10 == 7:
            pts.append((0,) * dim)
        if i % 4 == 1:
            c = F(rng.randint(1, 9), rng.randint(2, 7))
            pts = [tuple(c * x for x in p) for p in pts]
        elif i % 4 == 3:
            pts = [tuple(x + F(rng.randint(0, 1), rng.randint(2, 40)) * bool(x) for x in p) for p in pts]
        g = dg.canonicalize(dim, pts)
        out.append((len(set(pts)), g))
        out.append((len(g.generators), dg.Diagram(dim, g.generators)))
    return out


@pytest.mark.parametrize("dim,seed", [(1, 81), (2, 82), (3, 83), (4, 84)])
def test_integer_rows_match_fraction_kernels(dim, seed):
    seen = {"finite": 0, "infinite": 0, "origin": 0, "dropped": 0, "rational": 0, "lattice": 0}
    for points, g in integer_form_cases(dim, seed):
        s, rows = g.ints
        # s is the least common denominator, and each row is a generator times s
        assert s == math.lcm(*(c.denominator for p in g.generators for c in p)), g
        assert len(rows) == len(g.generators), g
        for p, row in zip(g.generators, rows):
            assert all(type(x) is int for x in row), g
            assert tuple(F(x, s) for x in row) == p, g
        assert dg.touches_all_axes(g) == fraction_kernels.touches_all_axes(g), g
        got, want = measures.newton_number(g).value, fraction_kernels.newton_number(g)
        assert got == want, g
        assert want is None or type(got) is F, g
        seen["infinite" if want is None else "finite"] += 1
        seen["origin"] += g.generators == ((0,) * dim,)
        seen["dropped"] += len(g.generators) < points
        seen["lattice" if s == 1 else "rational"] += 1
    assert min(seen.values()) >= 4 if dim > 1 else seen["infinite"] == 0, seen


@pytest.mark.parametrize("dim,seed", [(1, 85), (2, 86), (3, 87), (4, 88)])
def test_axis_test_matches_fraction_kernel_on_any_points(dim, seed):
    # generators built directly need not be vertices: the origin among other
    # points, points on the axes and points off them
    rng = random.Random(seed)
    seen = {True: 0, False: 0}
    for i in range(60):
        pts = {tuple(F(rng.randint(0, 3), rng.randint(1, 3)) * (rng.random() < 0.6) for _ in range(dim))
               for _ in range(rng.randint(1, 6))}
        if i % 5 == 0:
            pts.add((F(0),) * dim)
        g = dg.Diagram(dim, tuple(pts))
        want = fraction_kernels.touches_all_axes(g)
        assert dg.touches_all_axes(g) == want, g
        seen[want] += 1
    assert min(seen.values()) >= 5 if dim > 1 else seen[False] == 0, seen


def denominators(rng, count):
    """count distinct 60-digit denominators."""
    out = set()
    while len(out) < count:
        out.add(rng.randrange(10**59, 10**60))
    return sorted(out)


def raw_points_with_long_denominators():
    """800 raw 2-D points, each coordinate over its own 60-digit denominator;
    the first lies on the y-axis and the second on the x-axis."""
    rng = random.Random(27)
    d = denominators(rng, 1600)
    pts = [[F(rng.randrange(50 * d[2 * i]), d[2 * i]), F(rng.randrange(50 * d[2 * i + 1]), d[2 * i + 1])]
           for i in range(800)]
    pts[0][0] = pts[1][1] = F(0)
    return pts


def chain_with_long_denominators(m=300):
    """The convex chain (i, (m - 1 - i)^2), each vertex but the two on the
    axes moved by 1/d_i in both coordinates, d_i distinct 60-digit numbers."""
    rng = random.Random(28)
    d = denominators(rng, m)
    return [[F(i) + F(int(i > 0), d[i]), F((m - 1 - i) ** 2) + F(int(i < m - 1), d[i])] for i in range(m)]


HOSTILE_ANSWERS = {
    # sha256 of each answer's JSON with sorted keys, as the `Fraction` kernels gave them
    ("raw", "newton-number"): (EXIT_OK, "1e8e011500d9b032d99acbaecdb53c6d493b673369c4c2651df01215c13b8ff1"),
    ("raw", "decompose"): (EXIT_OK, "8a9ac6b2f2cd6c0cb3479b2c9c1d969fe6ed1b86fb9ab46d63dba6854c6cb5f5"),
    ("chain", "newton-number"): (EXIT_SEMANTIC, "cb24bca93a27203ee0d2bcc60859784b16272e6bb203551fa0a3850acc6e6ee7"),
    ("chain", "decompose"): (EXIT_SEMANTIC, "1c3fb6aa7c001b5aceacecd5fd82cb9a0d31e7fa747c4e6440474484586b587b"),
}


@pytest.mark.parametrize("name,build", [("raw", raw_points_with_long_denominators), ("chain", chain_with_long_denominators)])
def test_long_denominators_keep_their_answers_and_time(name, build):
    # The integer form is taken of a diagram's generators, never of raw
    # points: a 2-D chain over one common denominator of the 800 raw points
    # took 2.2 s.  Before the integer form the raw points took 0.021-0.023 s
    # (newton-number) and 0.031-0.033 s (decompose), and the chain 1.4-1.6 s
    # and 1.3-1.6 s (Python 3.11, 2-vCPU host).  The bounds are twice the
    # chain's times, and 0.1 s for the raw points, where a timer of a few
    # hundredths of a second would fail on any pause of the host.  The
    # chain's Newton number has over MAX_DIGITS digits.
    pts = build()
    payload = {"diagram": {"dim": 2, "generators": [[str(c) for c in p] for p in pts]}}
    bound = 3.0 if name == "chain" else 0.1
    for command in ["newton-number", "decompose"]:
        start = time.perf_counter()
        answer, code = execute(command, payload)
        assert time.perf_counter() - start < bound, command
        digest = hashlib.sha256(json.dumps(answer, sort_keys=True).encode()).hexdigest()
        assert (code, digest) == HOSTILE_ANSWERS[name, command], (command, str(answer)[:200])
    g = dg.canonicalize(2, pts)
    if name == "chain":
        assert len(g.generators) == 300
    else:  # a few vertices, each over its own long denominators
        assert len(g.generators) == 4 and g.ints[0] > 10**300
        assert measures.newton_number(g).value == fraction_kernels.newton_number(g)


def test_int_rows_eliminate_exactly():
    # rref divides as Fraction whatever its rows hold, so int rows give no float
    near = [[10**17, 10**17 + 1], [10**17 + 1, 10**17 + 2]]  # det -1
    assert linalg.rank(near) == 2
    x = linalg.solve_unique([[3, 1], [1, 2]], [1, 1])
    assert x == [F(1, 5), F(2, 5)] and all(type(c) is F for c in x)
    red, pivots = linalg.rref(near)
    assert red == [[1, 0], [0, 1]] and pivots == [0, 1]
    assert all(type(c) is F for row in red for c in row)
    basis = linalg.nullspace([[3, 1, 2], [6, 2, 5]])
    assert basis == [[F(-1, 3), F(1), F(0)]] and all(type(c) is F for c in basis[0])


@pytest.mark.parametrize("dim", [1, 3])
def test_parsed_atoms_equal_validated_forms(dim):
    origin = (0,) * dim
    atoms = {"0": {}, "0/7": {}, "7": {origin: F(7)}, "6/4": {origin: F(3, 2)}}
    for k in range(dim):
        atoms[f"z{k + 1}"] = {tuple(int(i == k) for i in range(dim)): F(1)}
    for text, terms in atoms.items():
        want = polynomial(dim, terms)
        parser = _Parser(text, dim)  # an atom is read as its (exponent, coefficient) pair
        for got in (parser.leaf(parser.base()), parse_polynomial(text, dim)):
            assert got == want, text
            assert_fraction_terms(got)
    assert _const(dim, F(0)) == polynomial(dim, {origin: F(0)})
    assert _const(dim, F(-2, 3)) == polynomial(dim, {origin: F(-2, 3)})


def outcome(fn, *args):
    """fn's value, or the type, message and position of the error it raises."""
    try:
        return fn(*args)
    except PshDiagError as exc:
        return type(exc), str(exc), getattr(exc, "position", None)


def low_budgets(rng, monkeypatch):
    """Patch MAX_TERM_PAIRS low, and MAX_EXPONENT low or not, at random."""
    monkeypatch.setattr(polynomials, "MAX_TERM_PAIRS", rng.choice([4, 12, 40, 150]))
    monkeypatch.setattr(polynomials, "MAX_EXPONENT", rng.choice([3, 12, 40, 10_000]))


def tree_leaves(tree):
    if isinstance(tree, polynomials.Polynomial):
        yield tree
    else:
        for t, _ in tree.factors:
            yield from tree_leaves(t)


def test_substitution_matches_fraction_kernel(monkeypatch):
    # equal polynomials, or the same error from the same budget check first
    rng = random.Random(76)
    kinds = {}
    for _ in range(300):
        dim = rng.randint(1, 4)
        p = random_polynomial(rng, dim)
        if rng.random() < 0.3:  # higher powers of the linear forms, for the exponent budget
            shift = [rng.randint(0, 5) for _ in range(dim)]
            p = polynomial(dim, {tuple(map(sum, zip(e, shift))): c for e, c in p.terms})
        m = random_matrix(rng, dim)
        low_budgets(rng, monkeypatch)
        got = outcome(polynomials.substitute_linear, p, m)
        assert got == outcome(fraction_kernels.substitute_linear, p, m), (p, m)
        if isinstance(got, polynomials.Polynomial):
            assert_fraction_terms(got)
        kind = got[1].split(" ")[0] if isinstance(got, tuple) else "answered"
        kinds[kind] = kinds.get(kind, 0) + 1
    # answers, singular matrices, and each budget ("product of ..." and "exponent times ...")
    assert all(kinds.get(k, 0) > 20 for k in ["answered", "substitution", "product", "exponent"]), kinds


def random_token_text(rng, bases, powers, depth=2):
    """A text of sums of products of powers of the bases, with parentheses and signs."""
    terms = []
    for _ in range(rng.randint(1, 3)):
        factors = []
        for _ in range(rng.randint(1, 3)):
            if depth and rng.random() < 0.35:
                base = f"({random_token_text(rng, bases, powers, depth - 1)})"
            else:
                base = rng.choice(bases)
            factors.append(base + rng.choice(powers))
        terms.append("*".join(factors))
    text = rng.choice(["", "", "-", "+"]) + terms[0]
    return text + "".join(f" {rng.choice('+-')} {t}" for t in terms[1:])


def random_texts(rng, count):
    """Texts over z0-z3, 0, 1/2, 3/0, ^0, ^20000, ^x, parentheses and signs:
    half of them well formed, the rest with malformed tokens or with a
    token cut out or put in."""
    for i in range(count):
        bases, powers = ["z1", "z2", "z3", "2", "7", "1/2", "0"], ["", "", "^0", "^2", "^3", "^5"]
        if i % 2:
            bases, powers = bases * 8 + ["z0", "3/0"], powers * 6 + ["^20000", "^x"]
        text = random_token_text(rng, bases, powers)
        if i % 4 == 3:
            cut = rng.randrange(len(text))
            text = text[:cut] + rng.choice(["", "*", "+", "(", ")", "^", " - "]) + text[cut + 1:]
        yield rng.randint(3, 4) if i % 2 == 0 else rng.randint(1, 4), text


def test_parser_matches_fraction_parser(monkeypatch):
    # equal trees with Fraction coefficients, or the same error at the same
    # position; and equal expansions under the same budgets
    rng = random.Random(77)
    kinds = {}
    for dim, text in random_texts(rng, 1500):
        low_budgets(rng, monkeypatch)
        got = outcome(polynomials.parse_tree, text, dim)
        assert got == outcome(fraction_kernels.parse_tree, text, dim), (text, dim)
        if not isinstance(got, tuple):
            tree = got
            for leaf in tree_leaves(tree):
                assert_fraction_terms(leaf)
            got = outcome(polynomials.expand, tree)
            assert got == outcome(fraction_kernels.expand, tree), (text, dim)
        kind = f"{got[0].__name__} {got[1].split()[0]}" if isinstance(got, tuple) else "answered"
        kinds[kind] = kinds.get(kind, 0) + 1
    # answers, syntax errors, and each budget
    common = ["answered", "PolynomialSyntaxError unexpected", "UnsupportedDimension product", "UnsupportedDimension exponent"]
    assert all(kinds.get(k, 0) > 50 for k in common), kinds

"""The fraction-free kernels against the `Fraction` kernels they replaced
(``fraction_kernels``).

The facet search must find the same tight sets in the same order, with
normals equal up to a positive factor; products and powers must be equal
polynomials; canonicalize must give equal diagrams and raise the same
errors with the same messages, and det equal values.  Every facet entry,
coefficient, generator coordinate and determinant must be a `Fraction`:
equal values alone would not catch a plain int leaking out.
"""

import random
from fractions import Fraction as F

import pytest

import fraction_kernels
from pshdiag import diagram as dg
from pshdiag import linalg, parse_polynomial, poly_add, poly_mul, poly_pow, polynomial, polynomials, volume
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

"""One exactness rule for every public function that takes numbers.

Each numeric argument is read by ``linalg.exact``: an int or a `Fraction`
as given, a rational string through `Fraction`, and a float or a bool
refused with ``TypeError``.  Every slot below is one such argument of one
function, filled with 0 or 1: the float and the bool of that value equal
it, so a reader that converted them would answer as for the int, and the
refusal shows that the type is read, not the value.
"""

import re
from fractions import Fraction as F

import pytest

from pshdiag import exactlp, linalg, volume
from pshdiag.decomposition import summand_system, summands_of
from pshdiag.diagram import (
    Diagram,
    canonicalize,
    contains,
    lelong_directional,
    member_of_hull,
    scale,
    support_value,
    translate,
)
from pshdiag.errors import DimensionMismatch, EmptyInput, NegativeCoordinate
from pshdiag.measures import intercept_simplex, weighted_simplex
from pshdiag.polynomials import Polynomial, index_of, polynomial, substitute_linear

G = canonicalize(2, [(0, 2), (1, 1), (2, 0)])
P = polynomial(2, {(1, 2): 3, (2, 0): 1})
SEGMENT = summand_system(canonicalize(2, [(0, 2), (2, 0)]))  # one compact edge
TRIANGLE = [((1, 0), 0), ((0, 1), 0), ((-1, -1), -1)]  # x >= 0, y >= 0, x + y <= 1


def lp(objective=(1, 2), eq=((1, 1), 1), ub=((1, 0), 1)):
    return exactlp.solve_lp(2, [objective], eq=[eq], ub=[ub], nonneg=True)


# (name, value, call): call(x) passes x as one numeric argument
SLOTS = [
    ("canonicalize coordinate", 1, lambda x: canonicalize(2, [(x, 2), (2, 0)])),
    ("Diagram coordinate", 1, lambda x: Diagram(2, [(x, 2), (2, 0)])),
    ("translate", 1, lambda x: translate(G, (x, 0))),
    ("scale", 1, lambda x: scale(G, x)),
    ("contains", 1, lambda x: contains(G, (x, 1))),
    ("support_value", 0, lambda x: support_value(G, (x, -1))),
    ("lelong_directional", 1, lambda x: lelong_directional(G, (x, 2))),
    ("weighted_simplex", 1, lambda x: weighted_simplex((x, 2))),
    ("intercept_simplex", 1, lambda x: intercept_simplex((x, 2))),
    ("index_of", 1, lambda x: index_of(P, (x, 2))),
    ("polynomial", 1, lambda x: polynomial(2, {(1, 2): x, (2, 0): 1})),
    ("substitute_linear", 1, lambda x: substitute_linear(P, [[x, 1], [0, 1]])),
    ("summands_of u", 1, lambda x: summands_of(SEGMENT, [(0, x), (x, 0)], [F(1, 2)])),
    ("summands_of t", 1, lambda x: summands_of(SEGMENT, [(0, 2), (2, 0)], [x])),
    ("solve_lp objective", 1, lambda x: lp(objective=(x, 2))),
    ("solve_lp equation", 1, lambda x: lp(eq=((x, 1), 1))),
    ("solve_lp equation bound", 1, lambda x: lp(eq=((1, 1), x))),
    ("solve_lp inequality", 1, lambda x: lp(ub=((x, 0), 1))),
    ("solve_lp inequality bound", 1, lambda x: lp(ub=((1, 0), x))),
    ("member_of_hull point", 1, lambda x: member_of_hull((x, 2), [(0, 2), (2, 0)])),
    ("member_of_hull generator", 1, lambda x: member_of_hull((1, 2), [(0, 2), (2, x)])),
    ("det", 1, lambda x: linalg.det([[x, 2], [3, 4]])),
    ("rref", 1, lambda x: linalg.rref([[x, 2], [3, 4]])),
    ("rank", 1, lambda x: linalg.rank([[x, 2], [2, 4]])),
    ("nullspace", 1, lambda x: linalg.nullspace([[x, 2], [2, 4]])),
    ("solve_unique matrix", 1, lambda x: linalg.solve_unique([[x, 1], [1, 2]], [1, 1])),
    ("solve_unique vector", 1, lambda x: linalg.solve_unique([[3, 1], [1, 2]], [x, 1])),
    ("enumerate_vertices normal", 1, lambda x: volume.enumerate_vertices([((x, 0), 0)] + TRIANGLE[1:], 2)),
    ("enumerate_vertices bound", 0, lambda x: volume.enumerate_vertices([((1, 0), x)] + TRIANGLE[1:], 2)),
    ("polytope_volume", 1, lambda x: volume.polytope_volume([(0, 0), (x, 0), (0, 1)], 2)),
]
# counts are ints: the dimension, which canonicalize and Diagram check
# alike, and an exponent, which serialize_polynomial prints for the parser
COUNTS = [
    ("canonicalize dim", lambda x: canonicalize(x, [(2,), (3,)])),
    ("Diagram dim", lambda x: Diagram(x, [(2,)])),
    ("polynomial exponent", lambda x: polynomial(2, {(x, 2): 1, (2, 0): 1})),
]


def typed(r):
    """r with the type of every number beside it, so that 1 and F(1) differ."""
    if isinstance(r, (list, tuple)):
        return type(r), [typed(x) for x in r]
    if isinstance(r, Diagram):
        return Diagram, r.dim, typed(r.ints)
    if isinstance(r, Polynomial):
        return Polynomial, r.dim, typed(r.terms)
    if isinstance(r, exactlp.LPResult):
        return exactlp.LPResult, r.status, typed(r.x), typed(r.value)
    return type(r), r


@pytest.mark.parametrize("name, value, call", SLOTS, ids=[s[0] for s in SLOTS])
def test_floats_and_bools_are_refused(name, value, call):
    for bad in (float(value), bool(value)):
        with pytest.raises(TypeError, match=re.escape(repr(bad))):
            call(bad)


@pytest.mark.parametrize("name, value, call", SLOTS, ids=[s[0] for s in SLOTS])
def test_ints_fractions_and_strings_give_one_answer(name, value, call):
    # the package's answers keep their types whatever form the input takes
    want = typed(call(value))
    assert typed(call(F(value))) == want
    assert typed(call(str(value))) == want


@pytest.mark.parametrize("name, call", COUNTS, ids=[c[0] for c in COUNTS])
def test_a_count_is_an_int(name, call):
    call(1)
    for bad in (1.0, True, F(1)):
        with pytest.raises(TypeError, match=re.escape(repr(bad))):
            call(bad)


def test_a_float_names_itself():
    # 0.1 is stored as 3602879701896397/36028797018963968, not as 1/10
    with pytest.raises(TypeError, match=r"got 0\.1$"):
        canonicalize(2, [(0.1, 0), (0, 1)])
    assert canonicalize(2, [("1/10", 0), (0, 1)]) == canonicalize(2, [(F(1, 10), 0), (0, 1)])


@pytest.mark.parametrize(
    "dim, generators, error",
    [
        (0, [()], DimensionMismatch),
        (2, [], EmptyInput),
        (3, [(1, 2)], DimensionMismatch),
        (2, [(1, -1)], NegativeCoordinate),
        (2, [(0.5, 0)], TypeError),
    ],
)
def test_the_constructor_checks_as_canonicalize_does(dim, generators, error):
    messages = []
    for build in (canonicalize, Diagram):
        with pytest.raises(error) as info:
            build(dim, generators)
        messages.append(str(info.value))
    assert messages[0] == messages[1]


def test_the_constructor_keeps_what_it_is_given():
    # duplicates and non-vertices stay, read as canonicalize reads them
    g = Diagram(2, [("1/2", 0), (F(1, 2), 0), (1, 1), (0, 1)])
    assert g.ints == (2, ((0, 2), (1, 0), (1, 0), (2, 2)))

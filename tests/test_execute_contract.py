"""execute's contract over arbitrary JSON: it never raises, and it returns a
JSON-serializable result with an exit code in {0, 2, 3, 4}.

Payloads are bounded recursive JSON over the payload keys, plus objects
with every key of roughly the right shape, so that a share of requests
passes validation and reaches the exact computations.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from pshdiag.cli import COMMANDS, execute

KEYS = ["input", "weight", "a", "b", "diagram", "matrix", "t", "dim", "generators", "polys"]

rationals = st.one_of(
    st.integers(-3, 9).map(str),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-3, 9), st.integers(0, 4)),
)
polys = st.sampled_from(
    ["z1", "z1 + z2", "(z1+z2)^3", "z1^2*z2 - 1/2", "z2*z3 + z1^4", "z1*z2 + z3^2", "1"]
    + ["0", "z1 +", "((z1)", "z1^-1", "z0"]
)
leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 6),
    st.floats(),
    rationals,
    polys,
)
json_values = st.recursive(
    leaves,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS), children, max_size=4),
    max_leaves=16,
)


def shaped(n):
    """Values of the shape each payload key expects in dimension n, mostly valid."""
    coords = st.integers(0, 6) | st.builds(
        lambda p, q: f"{p}/{q}", st.integers(0, 9), st.integers(1, 4)
    )
    vector = st.lists(coords | st.integers(-3, -1), min_size=n, max_size=n)
    points = st.lists(st.lists(coords, min_size=n, max_size=n), min_size=1, max_size=5)
    diagram = st.fixed_dictionaries({"dim": st.just(n), "generators": points})
    monomial = st.builds(
        lambda c, e: "*".join([str(c)] + [f"z{i + 1}^{k}" for i, k in enumerate(e)]),
        st.integers(1, 3),
        st.lists(st.integers(0, 3), min_size=n, max_size=n),
    )
    poly = st.lists(monomial, min_size=1, max_size=4).map(" + ".join)
    singularity = st.fixed_dictionaries(
        {"dim": st.just(n), "polys": st.lists(poly | polys, min_size=1, max_size=3)}
    )
    return {
        "input": singularity,
        "a": diagram,
        "b": diagram,
        "diagram": diagram,
        "weight": vector,
        "t": vector,
        "matrix": st.lists(vector, min_size=n, max_size=n),
    }


structured = st.integers(1, 3).flatmap(
    lambda n: st.fixed_dictionaries(
        {k: st.one_of(v, v, v, json_values) for k, v in shaped(n).items()}
    )
)
payloads = st.one_of(
    structured,
    structured,
    st.dictionaries(st.sampled_from(KEYS), json_values, max_size=4),
    json_values,
)
commands = st.sampled_from(sorted(COMMANDS) + ["no-such-command"])


@settings(derandomize=True, deadline=None, max_examples=250, database=None)
@given(commands, payloads)
def test_execute_never_raises(command, payload):
    result, code = execute(command, payload)
    assert code in {0, 2, 3, 4}
    assert isinstance(result, dict)
    json.dumps(result, sort_keys=True)

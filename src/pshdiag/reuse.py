"""Results shared between the entries of one batch.

``cli.run_batch`` runs its entries inside ``batch_scope``.  Within the
scope a function decorated with ``once_per_batch`` computes once per
distinct argument tuple and hands the same result to every later call
with equal arguments; outside it every call computes.  The scope's
results are dropped when it ends, so nothing carries from one batch to
the next, and an exception is never kept, so a failing call fails afresh
each time.

Only pure functions whose equal arguments give equal, immutable results
are decorated (``polynomials.parse_tree``, ``diagram._canonical``, which
canonicalizes a JSON diagram's points and so shares its facets too, and
``decomposition.decide_decomposability``), so sharing a result cannot
change an answer.  Every argument they get is hashable: ``parse_tree`` a
string and an int, checked by ``polynomials._read_input``; ``_canonical``
an int and tuples of ints and `Fraction`s; ``decide_decomposability`` a
frozen ``Diagram``.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from contextvars import ContextVar

# the open scope's results by (function, *arguments); None outside a scope
_results: ContextVar[dict | None] = ContextVar("pshdiag_batch_results", default=None)


@contextmanager
def batch_scope():
    """A scope in which each decorated function computes once per distinct arguments."""
    token = _results.set({})
    try:
        yield
    finally:
        _results.reset(token)


def once_per_batch(fn):
    """``fn``, computed once per distinct positional arguments inside a ``batch_scope``."""

    @functools.wraps(fn)
    def reused(*args):
        results = _results.get()
        if results is None:
            return fn(*args)
        key = (fn, *args)
        try:
            return results[key]
        except KeyError:
            pass
        value = results[key] = fn(*args)
        return value

    return reused

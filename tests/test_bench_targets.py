"""The benchmark's tracer still finds what it wraps.

``bench/spans.py`` wraps package functions by name and its hooks read
their arguments by parameter name, so renaming or deleting one breaks
the benchmark rather than the package.  This test loads that file by
path (it imports only the standard library) and checks both against the
package.
"""

import importlib
import importlib.util
import inspect
import pathlib
import re

SPANS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_exists():
    for mod, fn, _, _ in load_spans().TARGETS:
        module = importlib.import_module(f"pshdiag.{mod}")
        assert callable(getattr(module, fn, None)), f"{mod}.{fn}"


def test_hooks_read_parameters_of_their_targets():
    read = set()
    for mod, fn, before, after in load_spans().TARGETS:
        params = inspect.signature(getattr(importlib.import_module(f"pshdiag.{mod}"), fn)).parameters
        for hook in (before, after):
            if hook is not None:
                # a hook reads bound.arguments["name"], or the same through an alias
                names = set(re.findall(r'\["(\w+)"\]', inspect.getsource(hook)))
                assert names <= set(params), f"{mod}.{fn} lacks {names - set(params)}"
                read |= names
    assert read == {"raw_points", "g", "n", "eq", "ub", "nonneg"}

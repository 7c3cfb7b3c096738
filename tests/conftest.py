import re
import sys

from hypothesis import settings

# Property tests draw the same examples on every run and replay none from
# an example database; each test keeps its own max_examples and deadline.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


def pytest_runtest_logreport(report):
    """One PASS/FAIL line per acceptance criterion, bypassing capture."""
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    match = re.search(r"test_criterion_(\d+)", report.nodeid)
    if not match:
        return
    outcome = "PASS" if report.passed else "FAIL"
    print(
        f"acceptance criterion {int(match.group(1))}: {outcome}",
        file=sys.__stdout__,
    )

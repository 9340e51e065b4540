"""Prints one PASS/FAIL line per acceptance criterion after the run, and
shares one rack enumeration of orders 0..6 among the tests."""

import pytest

from legrack.census import enumerate_racks


@pytest.fixture(scope="session")
def rack_classes():
    """``enumerate_racks(n)`` for n = 0..6, computed once per session."""
    return {n: tuple(enumerate_racks(n)) for n in range(7)}


_acceptance_results: dict[str, str] = {}


def pytest_runtest_logreport(report):
    if "test_acceptance.py" not in report.nodeid:
        return
    if report.when == "call" or (report.when == "setup" and report.outcome != "passed"):
        _acceptance_results[report.nodeid] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for nodeid, outcome in sorted(_acceptance_results.items()):
        name = nodeid.split("::")[-1]
        status = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(f"{name}: {status}")

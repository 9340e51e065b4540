"""Prints one PASS/FAIL line per acceptance criterion after the run,
shares one rack enumeration of orders 0..6 among the tests, and records
the isomorphism searches a test makes."""

import pytest

import legrack.racks
from legrack.census import enumerate_racks


@pytest.fixture(scope="session")
def rack_classes():
    """``enumerate_racks(n)`` for n = 0..6, computed once per session."""
    return {n: tuple(enumerate_racks(n)) for n in range(7)}


@pytest.fixture
def iso_search_calls(monkeypatch):
    """One entry per ``racks._iso_search`` call the test makes, in order:
    True for an Aut(X) search (``src is dst``), False for a search between
    two tables."""
    calls = []
    real = legrack.racks._iso_search

    def recording(src, dst):
        calls.append(src is dst)
        return real(src, dst)

    monkeypatch.setattr(legrack.racks, "_iso_search", recording)
    return calls


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

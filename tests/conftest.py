"""Shared fixtures plus the acceptance-criteria reporter.

Tests marked ``@pytest.mark.acceptance("<description>")`` are collected
into a per-criterion PASS/FAIL table printed at the end of the session,
one line per criterion, so the acceptance status is readable without
scrolling through the full pytest output.
"""

import numpy as np
import pytest

from dsinkhorn import otcore


def pytest_addoption(parser):
    parser.addoption("--differential-configs", type=int, default=40, metavar="N",
                     help="generated configs the engine's differential check runs (test_engine.py)")


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "acceptance(description): test realizes one acceptance criterion; "
        "the description is echoed in the end-of-run summary table",
    )
    config._acceptance_results = {}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("acceptance")
    if marker is None:
        return
    # record the call phase; a setup error (failed fixture) also counts as FAIL
    if report.when == "call" or (report.when == "setup" and report.outcome != "passed"):
        desc = marker.args[0] if marker.args else item.name
        item.config._acceptance_results[item.nodeid] = (desc, report.outcome)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    results = getattr(config, "_acceptance_results", {})
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    for nodeid in sorted(results):
        desc, outcome = results[nodeid]
        tag = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(f"[{tag}] {desc}")


@pytest.fixture(scope="session")
def symmetric_instance():
    """The two-point mirror problem: masses at opposite corners, unit cost."""
    return otcore.ProblemInstance(
        cost=otcore.CostMatrix(np.array([[0.0, 1.0], [1.0, 0.0]])),
        epsilon=1.0,
        ridge=1e-16,
        histograms=(np.array([1.0, 0.0]), np.array([0.0, 1.0])),
    )


@pytest.fixture(scope="session")
def small_instance():
    """d=16, N=4 mixture instance used across the unit tests."""
    from dsinkhorn import config as cfgmod

    hists = cfgmod.mixture_histograms(16, 4, density_seed=7)
    return otcore.ProblemInstance(
        cost=otcore.grid_cost(16), epsilon=0.5, ridge=1e-16, histograms=tuple(hists)
    )

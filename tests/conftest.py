"""Shared pytest hooks and fixtures.

The hooks print one summary line per acceptance criterion.

The acceptance tests live in ``test_acceptance.py`` and are named
``test_criterion_NN_<slug>``.  After the run, one line per criterion is
printed in the terminal summary so the verdicts are visible without
digging through the verbose listing:

    ACCEPTANCE 01 PASS -- schedule identities (...)
"""

import re

import pytest
import scipy.sparse as sp

_CRITERION = re.compile(r"test_criterion_(\d+)_(\w+)")

_results: dict[int, dict] = {}


def pytest_runtest_logreport(report):
    match = _CRITERION.search(report.nodeid)
    if not match or "test_acceptance" not in report.nodeid:
        return
    num = int(match.group(1))
    slug = match.group(2).replace("_", " ")
    entry = _results.setdefault(num, {"slug": slug, "passed": True, "detail": ""})
    if report.failed:
        entry["passed"] = False
    if report.when == "call":
        for name, value in report.user_properties:
            if name == "detail":
                entry["detail"] = str(value)


def pytest_terminal_summary(terminalreporter):
    if not _results:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_results):
        entry = _results[num]
        verdict = "PASS" if entry["passed"] else "FAIL"
        line = f"ACCEPTANCE {num:02d} {verdict} -- {entry['slug']}"
        if entry["detail"]:
            line += f" ({entry['detail']})"
        terminalreporter.write_line(line)


class CountingCSR(sp.csr_matrix):
    """CSR matrix that counts its matrix-vector products ``mat @ x``
    (products with its transpose, a separate matrix, are not counted)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.products = 0

    def _matmul_vector(self, other):
        self.products += 1
        return super()._matmul_vector(other)


@pytest.fixture
def counting_csr():
    """The :class:`CountingCSR` class.  Build a ``Dataset`` on it directly:
    ``make_dataset`` copies into a plain CSR matrix."""
    return CountingCSR

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


@pytest.fixture
def full_products(monkeypatch):
    """A list that gets the form of every product ``A @ x`` over all rows
    of a design matrix, as :meth:`~dasvrda.problem.Rows.dot` takes it
    (``"csr"`` or ``"dense"``): its length counts them."""
    from dasvrda.problem import Rows

    forms = []
    dot = Rows.dot

    def counted(rows, x):
        if rows.idx is None:
            forms.append(rows.form)
        return dot(rows, x)

    monkeypatch.setattr(Rows, "dot", counted)
    return forms


@pytest.fixture
def compiled_loop():
    """The compiled library, built first if need be.  Skips the test on a
    machine with no C compiler, where every stage runs numpy; with one, a
    library that does not build fails it."""
    import shutil

    from dasvrda import stage_loop

    if shutil.which(stage_loop.CC) is None:
        pytest.skip(f"no C compiler {stage_loop.CC!r}")
    kernels = stage_loop._library()
    assert not isinstance(kernels, str), kernels
    return kernels

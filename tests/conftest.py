import re
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

_criteria = {}
_descriptions = {}


@pytest.fixture(autouse=True)
def empty_lattice_memo():
    """Each test starts with an empty χ memo (`resultants._lattice_gcd`),
    so what a call-counting test sees does not depend on the tests run
    before it."""
    from subalg.resultants import _lattice_memo
    _lattice_memo.clear()


def register_criterion(number, description):
    _descriptions[number] = description


def pytest_runtest_logreport(report):
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    match = re.search(r"criterion_(\d+)", report.nodeid)
    if match:
        _criteria[int(match.group(1))] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _criteria:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria")
    for number in sorted(_criteria):
        status = "PASS" if _criteria[number] == "passed" else "FAIL"
        description = _descriptions.get(number, "")
        terminalreporter.write_line(
            f"criterion {number:2d}: {status}  {description}")

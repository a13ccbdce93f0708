"""Top-level acceptance gate: the ten numbered verification checks.

Each criterion gets its own test so the pytest report carries one
pass/fail line per check; the rendered detail line is printed alongside
for the record.  The last test additionally reruns the full suite in
fresh subprocesses and compares output bytes.
"""

import subprocess
import sys

import pytest

from locmech import verify
from locmech.verify import CHECKS, run_all

EXPECTED = [
    (1, "work-winding"),
    (2, "closedness"),
    (3, "cocycle"),
    (4, "holonomy"),
    (5, "angular-momentum"),
    (6, "energy-ledger"),
    (7, "cover-energy"),
    (8, "log-monodromy"),
    (9, "forms-identities"),
    (10, "determinism"),
]


@pytest.fixture(scope="module")
def report():
    return run_all()


def result_for(report, number):
    for r in report.results:
        if r.number == number:
            return r
    raise AssertionError(f"check {number} missing from the report")


def test_registry_matches_the_expected_checks():
    assert [(n, name) for n, name, _ in CHECKS] == EXPECTED


@pytest.mark.parametrize("number,name", EXPECTED)
def test_criterion(report, number, name):
    r = result_for(report, number)
    mark = "PASS" if r.passed else "FAIL"
    print(f"[{r.number:2d}] {mark} {r.name:<18} {r.detail}")
    assert r.name == name
    assert r.passed, f"check {number} ({name}) failed: {r.detail}"


def test_full_report_renders_green(report):
    rendered = report.render()
    print(rendered)
    assert report.passed
    assert rendered.splitlines()[-1] == "all checks passed"
    assert len(report.results) == 10


def test_a_check_over_its_budget_fails(monkeypatch):
    monkeypatch.setitem(verify.BUDGETS, 2, 0.0)
    results = {r.number: r for r in run_all().results}
    assert not results[2].passed
    assert results[2].detail.endswith("; runtime over 0 s budget")
    assert all(r.passed for number, r in results.items() if number != 2)


def run_verify_cli():
    return subprocess.run(
        [sys.executable, "-m", "locmech.cli", "verify", "--deterministic"],
        capture_output=True, timeout=600,
    )


def test_verify_cli_is_byte_identical_between_processes():
    first = run_verify_cli()
    second = run_verify_cli()
    assert first.returncode == 0, first.stdout.decode()
    assert second.returncode == 0
    assert first.stdout == second.stdout
    assert b"all checks passed" in first.stdout

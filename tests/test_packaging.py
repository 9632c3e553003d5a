import re
from pathlib import Path

import pytest

import conftest

ROOT = Path(__file__).resolve().parent.parent


def _version(text):
    return tuple(int(part) for part in text.split("."))


def test_ci_floor_entry_installs_the_declared_floors():
    # read as text: CI installs no YAML or TOML parser for Python 3.10
    declared = dict(re.findall(r'"(numpy|scipy)>=([\d.]+)"',
                               (ROOT / "pyproject.toml").read_text(encoding="utf-8")))
    installed = dict(re.findall(r"'(numpy|scipy)==([\d.]+)\.\*'",
                                (ROOT / ".github/workflows/tier1.yml").read_text(encoding="utf-8")))
    assert sorted(declared) == ["numpy", "scipy"]
    assert installed == declared


def test_ci_tests_the_declared_python_floor():
    # the lowest Python any CI entry runs is the one requires-python accepts
    floor = re.search(r'requires-python = ">=([\d.]+)"',
                      (ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    workflow = (ROOT / ".github/workflows/tier1.yml").read_text(encoding="utf-8")
    tested = [version for entry in re.findall(r"python-version: (.+)", workflow)
              for version in re.findall(r'"([\d.]+)"', entry)]
    assert floor and tested
    assert min(tested, key=_version) == floor.group(1)


@pytest.mark.parametrize("args", [["-q"], []], ids=["quiet", "normal"])
def test_run_states_its_build_once(pytester, args):
    # -q leaves out pytest's header, so a quiet run prints the build line at
    # its end instead; either way the log has it exactly once
    pytester.makepyfile("def test_one():\n    pass\n")
    result = pytester.runpytest(*args, plugins=[conftest])
    result.assert_outcomes(passed=1)
    assert [line for line in result.outlines if line.startswith("PINNED_BUILD")] == \
        [conftest.pytest_report_header(None)]

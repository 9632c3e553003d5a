import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_ci_floor_entry_installs_the_declared_floors():
    # read as text: CI installs no YAML or TOML parser for Python 3.10
    declared = dict(re.findall(r'"(numpy|scipy)>=([\d.]+)"',
                               (ROOT / "pyproject.toml").read_text(encoding="utf-8")))
    installed = dict(re.findall(r"'(numpy|scipy)==([\d.]+)\.\*'",
                                (ROOT / ".github/workflows/tier1.yml").read_text(encoding="utf-8")))
    assert sorted(declared) == ["numpy", "scipy"]
    assert installed == declared

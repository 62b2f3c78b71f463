import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import nle

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = ["nle"] + [f"nle.{m.name}" for m in pkgutil.iter_modules(nle.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_readme_python_examples_run(tmp_path, monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    monkeypatch.chdir(tmp_path)
    for i, block in enumerate(blocks, 1):
        exec(compile(block, f"README.md python block {i}", "exec"), {"__name__": "readme"})


def test_readme_tables_every_verify_check_in_order():
    from nle import cli

    rows = re.findall(r"^\| `(\w+)` \|.*\| `verify\.(\w+)` \|$", README.read_text(encoding="utf-8"), re.M)
    assert all(name == key for name, key in rows)
    assert [name for name, _ in rows] == [check.name for check in cli.CHECKS]

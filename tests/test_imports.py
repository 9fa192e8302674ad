"""No module imports a name at top level that it never uses, and starting
the command line imports no module it does not need."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = ([p for p in sorted((ROOT / "src" / "decolog").glob("*.py")) if p.name != "__init__.py"]
           + sorted((ROOT / "tests").glob("*.py")))


def unused_imports(source: str) -> list[str]:
    """The names a module's top-level imports bind and nothing reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_top_level_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_scan_sees_an_unused_import():
    assert unused_imports("import os\nfrom x import a, b as c\nprint(a)\n") == ["os", "c"]


def test_cli_start_up_leaves_out_dataclasses_and_inspect():
    """Importing the command line, as every decolog process does first,
    loads neither dataclasses nor what it pulls in (inspect, ast, dis):
    they cost a fresh process tens of milliseconds."""
    code = "import sys, decolog.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"

"""Every module of the package uses each name it imports, and the exact
half of the package imports no float code.

A name left imported after its last use goes unnoticed at run time; this
scan finds it with the standard library's parser alone.  ``from
__future__`` imports are compiler directives, not names.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "suq2"


def _unused_imports(tree: ast.Module):
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0]
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return sorted(imported - used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _unused_imports(tree) == []


def test_exact_layer_loads_no_float_code():
    # The exact half of the package stands alone: importing it, the
    # command line and the battery included, loads neither numpy nor
    # scipy, in a fresh interpreter.
    code = ("import sys\n"
            "from suq2 import (acceptance, actions, algebra, cli, errors,\n"
            "    functionals, hochschild, modular, peterweyl, rewrite,\n"
            "    sampling, scalars)\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.partition('.')[0] in ('numpy', 'scipy')))\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert run.stdout == "[]\n", run.stdout

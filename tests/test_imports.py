"""Every module of the package uses each name it imports, the exact half
of the package imports no float code, and no module imports scipy.linalg.

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


def _fresh_stdout(code: str) -> str:
    """The stdout of ``code`` run in a fresh interpreter on this source."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True).stdout


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
    assert _fresh_stdout(code) == "[]\n"


def _linalg_imports(tree: ast.Module):
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names
                      if a.name.startswith("scipy.linalg")]
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module.startswith("scipy.linalg"):
                found.append(node.module)
            elif node.module == "scipy":
                found += [f"scipy.{a.name}" for a in node.names
                          if a.name == "linalg"]
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_imports_scipy_linalg(path):
    # D is placed block by block with numpy slicing, so no module of the
    # package imports scipy.linalg.  Read from the source, since whether
    # importing scipy.special loads scipy.linalg depends on SciPy's release.
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _linalg_imports(tree) == []


def test_dirac_check_loads_no_scipy_linalg_of_its_own():
    # At run time: the check that assembles D loads no scipy.linalg module
    # beyond what scipy.special itself loads, which is all of scipy.linalg
    # on SciPy releases before 1.17 and none of it from 1.17 on.
    code = ("import sys\n"
            "import scipy.special\n"
            "base = {m for m in sys.modules if m.startswith('scipy.linalg')}\n"
            "from suq2 import acceptance\n"
            "assert acceptance.check_dirac_spectrum()[0]\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.startswith('scipy.linalg') and m not in base))\n")
    assert _fresh_stdout(code) == "[]\n"

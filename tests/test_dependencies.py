"""The library keeps the README's promises: no runtime dependencies, and
each module imports on its own, loading only the modules it needs; the CLI
prints its notes without the ``logging`` package."""

import ast
import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "pcsreg"


def test_library_imports_only_the_standard_library():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    imported = set()
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert imported - set(sys.stdlib_module_names) - {"pcsreg"} == set()


def _modules_after_import(module: str, package: str = "pcsreg") -> list:
    """The modules of ``package`` that a fresh interpreter holds after
    ``import module``."""
    script = (
        f"import json, sys, {module}; "
        f"print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == {package!r})))"
    )
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def test_each_module_imports_on_its_own():
    modules = sorted(f"pcsreg.{path.stem}" for path in SRC.glob("*.py") if path.stem != "__init__")
    assert len(modules) == 10
    for module in modules:
        assert module in _modules_after_import(module)


def test_the_scene_module_loads_only_what_it_imports():
    assert _modules_after_import("pcsreg.scene") == ["pcsreg", "pcsreg.geometry", "pcsreg.scene"]


def test_the_cli_loads_no_logging():
    assert _modules_after_import("pcsreg.cli", "logging") == []

"""Import-graph gates for ``src/repro``, each run in a subprocess.

Every module imports on its own: ``repro/__init__`` imports the engines
eagerly, which hides import cycles (whichever module a caller imports
first, the package has already loaded the rest in a working order).
One test replaces the package with an empty module (what lazy package
exports would leave) and imports each module from a clean
``sys.modules``, so a cycle between subpackages fails here instead of in
the first entry point that reaches it.

scipy is a test dependency only: no module under ``src/repro`` imports
it at any scope, and the package's runtime dependencies name numpy
alone.  The import-time gate reads ``python -X importtime`` and counts
modules, not seconds, so runner speed cannot flake it.
"""

import ast
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = textwrap.dedent(
    """
    import importlib
    import sys
    import types
    from importlib.machinery import SourceFileLoader
    from pathlib import Path

    src = Path(sys.argv[1])
    root = src / "repro"

    # Each module is imported from scratch; compile each file once.
    codes = {}
    get_code = SourceFileLoader.get_code

    def cached_get_code(self, fullname):
        if self.path not in codes:
            codes[self.path] = get_code(self, fullname)
        return codes[self.path]

    SourceFileLoader.get_code = cached_get_code

    failed = []
    for path in sorted(root.rglob("*.py")):
        parts = path.relative_to(src).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        name = ".".join(parts)
        for mod in [m for m in sys.modules if m.split(".")[0] == "repro"]:
            del sys.modules[mod]
        package = types.ModuleType("repro")
        package.__path__ = [str(root)]
        sys.modules["repro"] = package
        try:
            importlib.import_module(name)
        except ImportError as exc:
            failed.append(f"{name}: {exc}")
    print("\\n".join(failed))
    sys.exit(1 if failed else 0)
    """
)


def test_every_module_imports_under_an_empty_package():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(SRC)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def _imported_modules(*args: str) -> list[str]:
    """Every module ``python -X importtime <args>`` imports."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return [
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:") and "|" in line
    ]


@pytest.mark.parametrize(
    "args",
    [
        ("-m", "repro", "--help"),
        ("-c", "import repro.baselines, repro.core"),
    ],
    ids=["cli-help", "engines"],
)
def test_planning_path_imports_no_scipy(args):
    modules = _imported_modules(*args)
    assert "repro.offload.planner" in modules
    assert [m for m in modules if m.split(".")[0] == "scipy"] == []


def test_no_module_imports_scipy():
    """Stricter than the import-time gate: an ``import scipy`` inside a
    function body that no command happens to call fails here too."""
    offenders = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            offenders += [
                f"{path.relative_to(SRC)}:{node.lineno}: {name}"
                for name in names if name.split(".")[0] == "scipy"
            ]
    assert offenders == []


def test_runtime_dependencies_are_numpy_only():
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    with open(SRC.parent / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    names = [re.split(r"[\s\[<>=!~;]", dep)[0] for dep in project["dependencies"]]
    assert names == ["numpy"]
    assert any(dep.startswith("scipy") for dep in project["optional-dependencies"]["dev"])

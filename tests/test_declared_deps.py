"""Every third-party import is a declared dependency.

A clean ``pip install -e ".[test]"`` must be enough to import every
module the repo ships and run every test, bench and tool.  This test
AST-scans the imports under ``src/``, ``tests/``, ``tools/`` and
``benchmarks/``, drops the standard library, the package itself and
modules that live in the scanned tree (``helpers``, ``conftest``, ...),
and checks that what is left maps to a distribution ``pyproject.toml``
declares: ``src/`` may use runtime dependencies only, the other
directories the runtime dependencies plus the ``test`` extra.
"""

import ast
import re
import sys
import tomllib
from importlib.metadata import packages_distributions
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Scanned directory → the ``pyproject.toml`` extras its imports may use.
SCANNED = {"src": (), "tests": ("test",), "tools": ("test",), "benchmarks": ("test",)}


def _canonical(name: str) -> str:
    """PEP 503 normalised distribution name."""
    return re.sub(r"[-_.]+", "-", name).lower()


def _requirement_name(requirement: str) -> str:
    return _canonical(re.match(r"[A-Za-z0-9][A-Za-z0-9._-]*", requirement).group(0))


def _declared(extras) -> set:
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    requirements = list(project.get("dependencies", []))
    for extra in extras:
        requirements += project.get("optional-dependencies", {})[extra]
    return {_requirement_name(req) for req in requirements}


def _top_level_imports(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            yield node.module.partition(".")[0]


def _is_local(module: str, importer: Path, top: Path) -> bool:
    """A module file or package beside *importer* or in an enclosing
    directory up to the scanned *top* (scripts put those on sys.path)."""
    directory = importer.parent
    while True:
        if (directory / f"{module}.py").is_file() or (directory / module / "__init__.py").is_file():
            return True
        if directory == top:
            return False
        directory = directory.parent


def undeclared_imports(root: Path = ROOT):
    """``(file, module, distribution)`` for every undeclared import."""
    to_dist = packages_distributions()
    found = []
    for name, extras in SCANNED.items():
        top = root / name
        declared = _declared(extras)
        for path in sorted(top.rglob("*.py")):
            modules = set(_top_level_imports(ast.parse(path.read_text(), str(path))))
            for module in sorted(modules):
                if module in sys.stdlib_module_names or module == "repro":
                    continue
                if _is_local(module, path, top):
                    continue
                dists = {_canonical(d) for d in to_dist.get(module, [module])}
                if not dists & declared:
                    found.append((str(path.relative_to(root)), module, sorted(dists)))
    return found


def test_third_party_imports_are_declared_in_pyproject():
    found = undeclared_imports()
    assert not found, "undeclared third-party imports:\n" + "\n".join(
        f"  {path}: import {module} (distribution {', '.join(dists)})"
        for path, module, dists in found
    )


def test_scan_sees_the_known_third_party_imports():
    # Guards against a scan that silently finds nothing.
    seen = set()
    for name in SCANNED:
        for path in (ROOT / name).rglob("*.py"):
            seen.update(_top_level_imports(ast.parse(path.read_text())))
    assert {"numpy", "pytest", "hypothesis"} <= seen

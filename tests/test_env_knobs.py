"""The library reads exactly one environment knob.

Every environment variable the package consults is behaviour a caller
cannot see in a config or a report.  This test pins the set of keys
read anywhere under ``src/repro`` so a new knob has to be added here on
purpose.
"""

import ast
from pathlib import Path

import repro

PACKAGE = Path(repro.__file__).resolve().parent

#: The sanitizer opt-in gate (``repro.sim.sanitize``).
ALLOWED_KEYS = {"REPRO_SANITIZE"}


def _is_environ(node: ast.AST) -> bool:
    """``os.environ`` or a bare ``environ`` imported from :mod:`os`."""
    if isinstance(node, ast.Attribute):
        return node.attr == "environ"
    return isinstance(node, ast.Name) and node.id == "environ"


def _key(node: ast.AST) -> str:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return f"<non-literal key: {ast.unparse(node)}>"


def _env_keys(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and node.args:
            func = node.func
            reads_environ = (
                isinstance(func, ast.Attribute)
                and func.attr in ("get", "pop", "setdefault")
                and _is_environ(func.value)
            )
            reads_getenv = (
                isinstance(func, ast.Attribute) and func.attr == "getenv"
            ) or (isinstance(func, ast.Name) and func.id == "getenv")
            if reads_environ or reads_getenv:
                yield _key(node.args[0])
        elif isinstance(node, ast.Subscript) and _is_environ(node.value):
            yield _key(node.slice)
        elif (
            isinstance(node, ast.Compare)
            and len(node.ops) == 1
            and isinstance(node.ops[0], (ast.In, ast.NotIn))
            and _is_environ(node.comparators[0])
        ):
            yield _key(node.left)


def test_src_reads_only_the_sanitize_knob():
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for key in _env_keys(tree):
            found.setdefault(key, []).append(str(path.relative_to(PACKAGE)))
    assert set(found) == ALLOWED_KEYS, found


def test_scanner_sees_every_read_shape():
    source = (
        "import os\nfrom os import environ, getenv\n"
        "a = os.environ.get('A')\nb = os.getenv('B')\nc = os.environ['C']\n"
        "d = 'D' in os.environ\ne = environ.get('E')\nf = getenv('F')\n"
    )
    assert set(_env_keys(ast.parse(source))) == set("ABCDEF")

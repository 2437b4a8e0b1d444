"""Package layout rule: no module imports a private name of a sibling.

Underscore-prefixed names are each module's own business; what another
module needs belongs in the public surface of the module that owns it.
"""

import ast
from pathlib import Path

PACKAGE_DIR = Path(__file__).resolve().parents[1] / "src" / "gbm_hitfun"


def private_imports(source: str):
    """(line, module, name) for each private name imported from a
    sibling module, including imports inside functions."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and not module.startswith("gbm_hitfun"):
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                found.append((node.lineno, module, alias.name))
    return found


def test_rule_catches_private_imports():
    src = ("from .density import q_density, _w_eval\n"
           "def f():\n"
           "    from gbm_hitfun.weight import _kernel\n"
           "from numpy import _private\n")
    assert private_imports(src) == [(1, "density", "_w_eval"),
                                    (3, "gbm_hitfun.weight", "_kernel")]


def test_no_private_imports_between_modules():
    assert (PACKAGE_DIR / "__init__.py").is_file()
    offenders = {path.name: private_imports(path.read_text())
                 for path in sorted(PACKAGE_DIR.glob("*.py"))}
    assert {k: v for k, v in offenders.items() if v} == {}

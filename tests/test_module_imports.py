"""Package layout rules: no module uses a private name of a sibling,
no public function goes unused, and only the quadrature module names
the semi-infinite adaptive engine.

Underscore-prefixed names are each module's own business; what another
module needs belongs in the public surface of the module that owns it.
Two ways in are checked: importing a private name, and reading a
private attribute of an object the module got from elsewhere.  The
other way round, a public function, or a public method or property of a
public class, that neither a sibling module nor a test names is dead
surface.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE_DIR = ROOT / "src" / "gbm_hitfun"


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


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__")
                                         and name.endswith("__"))


def private_attribute_reads(source: str):
    """(line, name) for each read of obj._name where the module does
    not itself define _name; reads through self and cls are exempt.

    A module defines a name by a def or class statement, an assignment
    to it (plain, annotated, as a dataclass field, or as an attribute
    target such as self._name = ...), an argument, or an import alias.
    """
    tree = ast.parse(source)
    defined = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            defined.add(node.id)
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Store)):
            defined.add(node.attr)
        elif isinstance(node, ast.arg):
            defined.add(node.arg)
        elif isinstance(node, ast.alias):
            defined.add(node.asname or node.name)
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)
                and _is_private(node.attr)
                and node.attr not in defined
                and not (isinstance(node.value, ast.Name)
                         and node.value.id in ("self", "cls"))):
            found.append((node.lineno, node.attr))
    return sorted(found)


def names_used(source: str):
    """Every name the source reads, binds, imports or takes as an
    attribute."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
    return found


def _public_surface(tree):
    """(name, label) for each public top-level function and each public
    method or property of a public top-level class."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, defs) and not node.name.startswith("_"):
            yield node.name, node.name
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, defs) and not item.name.startswith("_"):
                    yield item.name, f"{node.name}.{item.name}"


def unreferenced_public_functions(modules: dict, others: dict):
    """(module, label) for each public top-level function, and each
    public method or property of a public class ("Class.name"), of a
    module in modules that no other source in modules or others names."""
    used = {key: names_used(src) for key, src in {**modules,
                                                  **others}.items()}
    found = []
    for key, src in modules.items():
        for name, label in _public_surface(ast.parse(src)):
            if not any(name in names for other, names in used.items()
                       if other != key):
                found.append((key, label))
    return sorted(found)


def test_rule_catches_private_imports():
    src = ("from .density import q_density, _w_eval\n"
           "def f():\n"
           "    from gbm_hitfun.weight import _kernel\n"
           "from numpy import _private\n")
    assert private_imports(src) == [(1, "density", "_w_eval"),
                                    (3, "gbm_hitfun.weight", "_kernel")]


def test_rule_catches_private_attribute_reads():
    src = ("class Rep:\n"
           "    _own: int = 0\n"
           "    def __init__(self):\n"
           "        self._grid = 1\n"
           "    def f(self, other):\n"
           "        return self._grid + other._own + other._grid\n"
           "    @classmethod\n"
           "    def g(cls):\n"
           "        return cls._hidden\n"
           "def h(ev):\n"
           "    kern = ev.w._kernel\n"
           "    return kern.coef + ev.__class__.__name__ + ev._own\n")
    assert private_attribute_reads(src) == [(11, "_kernel")]


def test_rule_catches_unreferenced_public_functions():
    modules = {"a.py": ("def imported(): pass\n"
                        "def attribute(): pass\n"
                        "def tested(): pass\n"
                        "def lonely(): return lonely()\n"
                        "def _private(): pass\n"
                        "class Record: pass\n"),
               "b.py": ("from .a import imported\n"
                        "def helper(): return 'helper'\n")}
    others = {"test_a.py": ("import a\n"
                            "def test_it():\n"
                            "    a.attribute(a.tested)\n")}
    assert unreferenced_public_functions(modules, others) == [
        ("a.py", "lonely"), ("b.py", "helper")]


def test_rule_catches_unreferenced_public_methods():
    modules = {"a.py": ("class Rep:\n"
                        "    def __init__(self): self.cut()\n"
                        "    def used(self): pass\n"
                        "    @property\n"
                        "    def cut(self): return self.lonely()\n"
                        "    def lonely(self): pass\n"
                        "    def _own(self): pass\n"
                        "class _Hidden:\n"
                        "    def anything(self): pass\n")}
    others = {"test_a.py": "def test_it(rep):\n    rep.used()\n"}
    assert unreferenced_public_functions(modules, others) == [
        ("a.py", "Rep.cut"), ("a.py", "Rep.lonely")]


def test_no_unreferenced_public_functions():
    def sources(directory):
        return {str(p.relative_to(ROOT)): p.read_text()
                for p in sorted(directory.glob("*.py"))}

    assert unreferenced_public_functions(sources(PACKAGE_DIR),
                                         sources(ROOT / "tests")) == []


def test_no_private_imports_between_modules():
    assert (PACKAGE_DIR / "__init__.py").is_file()
    offenders = {path.name: private_imports(path.read_text())
                 for path in sorted(PACKAGE_DIR.glob("*.py"))}
    assert {k: v for k, v in offenders.items() if v} == {}


def test_only_quadrature_names_the_semi_infinite_engine():
    # every t-integral of q in the package is an exact order swap; the
    # adaptive semi-infinite engine serves the test oracles alone
    offenders = [path.name for path in sorted(PACKAGE_DIR.glob("*.py"))
                 if path.name != "quadrature.py"
                 and "integrate_semi_infinite" in names_used(
                     path.read_text())]
    assert offenders == []


def test_no_private_attribute_reads_between_modules():
    offenders = {path.name: private_attribute_reads(path.read_text())
                 for path in sorted(PACKAGE_DIR.glob("*.py"))}
    assert {k: v for k, v in offenders.items() if v} == {}

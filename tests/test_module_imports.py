"""Package layout rules: no module uses a private name of a sibling,
no public function goes unused, only the quadrature module names the
semi-infinite adaptive engine, only density's adaptive_integral calls
the finite one, only density and weight import from quadrature, and no
module tests the drift against 1/2 to choose a representation.

Underscore-prefixed names are each module's own business; what another
module needs belongs in the public surface of the module that owns it.
Two ways in are checked: importing a private name, and reading a
private attribute of an object the module got from elsewhere.  The
other way round, a public function that neither a sibling module nor a
test names, or a public method or property of a public class that no
sibling module or test reads as an attribute (obj.name), is dead
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


def attributes_read(source: str):
    """Every name the source reads as an attribute, obj.name."""
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


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
    """(module, label) for each public top-level function of a module in
    modules that no other source in modules or others names, and each
    public method or property of a public class ("Class.name") that no
    other source reads as an attribute."""
    sources = {**modules, **others}
    used = {key: names_used(src) for key, src in sources.items()}
    read = {key: attributes_read(src) for key, src in sources.items()}
    found = []
    for key, src in modules.items():
        for name, label in _public_surface(ast.parse(src)):
            pool = read if "." in label else used
            if not any(name in names for other, names in pool.items()
                       if other != key):
                found.append((key, label))
    return sorted(found)


def calls_by_function(source: str, name: str):
    """(top-level function, line) for each call of name, plain or as an
    attribute; a call outside any top-level function is under "".
    Imports and other references are not calls."""
    found = []
    for top in ast.parse(source).body:
        owner = (top.name if isinstance(top, (ast.FunctionDef,
                                              ast.AsyncFunctionDef))
                 else "")
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and (
                    (isinstance(node.func, ast.Name)
                     and node.func.id == name)
                    or (isinstance(node.func, ast.Attribute)
                        and node.func.attr == name)):
                found.append((owner, node.lineno))
    return sorted(found)


def imports_from(source: str, module: str):
    """(line, name) for each name imported from the sibling module
    `module` and each import of that module itself, including imports
    inside functions."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name == f"gbm_hitfun.{module}"]
        elif isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("gbm_hitfun")):
            found += [(node.lineno, alias.name) for alias in node.names
                      if (node.module or "").split(".")[-1] == module
                      or alias.name == module]
    return sorted(found)


def _is_drift(node) -> bool:
    return ((isinstance(node, ast.Name) and node.id == "mu")
            or (isinstance(node, ast.Attribute) and node.attr == "mu"))


def drift_half_comparisons(source: str):
    """Line of each comparison between the drift (a name mu or an
    attribute .mu) and the constant 0.5."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(map(_is_drift, operands)) and any(
                    isinstance(o, ast.Constant) and o.value == 0.5
                    for o in operands):
                found.append(node.lineno)
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


def test_rule_counts_only_attribute_reads_of_methods():
    # a local variable, an argument or a keyword of the same name in
    # another source does not use a property
    modules = {"a.py": ("class Params:\n"
                        "    @property\n"
                        "    def alpha(self): return 1.0\n"
                        "    @property\n"
                        "    def beta(self): return 2.0\n"),
               "b.py": ("def rule(p, alpha=0.0):\n"
                        "    alpha, beta = [], [p.beta]\n"
                        "    return dict(alpha=alpha), beta\n")}
    assert unreferenced_public_functions(modules, {}) == [
        ("a.py", "Params.alpha"), ("b.py", "rule")]


def test_rule_catches_calls_of_the_finite_engine():
    src = ("from .quadrature import integrate_finite\n"
           "from . import quadrature\n"
           "ENGINE = integrate_finite\n"
           "def one(f):\n"
           "    return integrate_finite(f, 0.0, 1.0)\n"
           "def two(f):\n"
           "    def inner(v):\n"
           "        return quadrature.integrate_finite(f, 0.0, v)\n"
           "    return inner\n"
           "def three():\n"
           "    return ENGINE\n"
           "TOTAL = integrate_finite(abs, 0.0, 1.0)\n")
    assert calls_by_function(src, "integrate_finite") == [
        ("", 12), ("one", 5), ("two", 8)]


def test_rule_catches_quadrature_imports():
    src = ("from .quadrature import gauss_legendre_panels, geometric_edges\n"
           "from . import quadrature, weight\n"
           "import gbm_hitfun.quadrature\n"
           "from .density import table_integral, quadrature_rule\n"
           "def f():\n"
           "    from gbm_hitfun.quadrature import integrate_finite\n"
           "from scipy import quadrature\n"
           "import quadrature\n")
    assert imports_from(src, "quadrature") == [
        (1, "gauss_legendre_panels"), (1, "geometric_edges"),
        (2, "quadrature"), (3, "gbm_hitfun.quadrature"),
        (6, "integrate_finite")]


def test_rule_catches_drift_half_comparisons():
    src = ("if mu <= 0.5:\n"
           "    j = int(p.mu > 0.5)\n"
           "k = 0.5 < ev.params.mu < 2.0\n"
           "if abs(mu - 0.5) <= 1e-12 or mu + 0.5 < m or ev.l_terms == 0:\n"
           "    k = nu <= 0.5 or mu == 1.5 or mu ** 0.5 > 1\n")
    assert drift_half_comparisons(src) == [1, 2, 3]


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


def test_only_adaptive_integral_calls_the_finite_engine():
    # every adaptive kernel integral in the package is one
    # density.adaptive_integral call; weight's import of the engine is
    # not a call
    calls = {path.name: calls_by_function(path.read_text(),
                                          "integrate_finite")
             for path in sorted(PACKAGE_DIR.glob("*.py"))
             if path.name != "quadrature.py"}
    assert {k: [f for f, _ in v] for k, v in calls.items() if v} == {
        "density.py": ["adaptive_integral"]}


def test_only_density_and_weight_import_quadrature():
    # the v-table's panels are density's business and the u-grid's
    # weight's; the other modules reach both through their public calls
    offenders = {path.name: imports_from(path.read_text(), "quadrature")
                 for path in sorted(PACKAGE_DIR.glob("*.py"))
                 if path.name not in ("density.py", "weight.py",
                                      "quadrature.py")}
    assert {k: v for k, v in offenders.items() if v} == {}


def test_no_private_attribute_reads_between_modules():
    offenders = {path.name: private_attribute_reads(path.read_text())
                 for path in sorted(PACKAGE_DIR.glob("*.py"))}
    assert {k: v for k, v in offenders.items() if v} == {}


def test_only_l_terms_switches_the_representation():
    # the lead term is there iff l_terms = 0, and l_terms is 0 within
    # is_half_integer's tolerance of 1/2 on both sides, where a drift
    # test against 1/2 picks the other representation
    offenders = {path.name: drift_half_comparisons(path.read_text())
                 for path in sorted(PACKAGE_DIR.glob("*.py"))}
    assert {k: v for k, v in offenders.items() if v} == {}

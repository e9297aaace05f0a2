"""Static checks on the package source: every module reads what it imports,
and the representation layer sums in one pass."""

import ast
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "surfqp"
MODULES = sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names an import binds that the module never reads, with their lines."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(bound.items()) if name not in read]


def test_checker_sees_an_unused_import():
    source = "from typing import Iterable, Optional\nimport re as regex\nx: Optional[int] = None\n"
    assert unused_imports(source) == ["Iterable (line 1)", "regex (line 2)"]
    assert unused_imports("from __future__ import annotations\n") == []
    assert "words.py" in MODULES and "dbracket.py" in MODULES


@pytest.mark.parametrize("module", MODULES)
def test_module_reads_every_import(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


# sums here are one accumulate or collect; a chain of `+` re-copies its
# running total at every step
ONE_PASS_MODULES = ("repalgebra.py", "evaluation.py", "suites.py")


def chained_sums(source: str) -> list[int]:
    """Lines where a loop rebinds a name to itself plus or minus something
    (`out = out + term`).  Augmented scalar counters such as `k += 1` are
    not sums of sparse values and are left alone."""
    lines = set()
    for loop in ast.walk(ast.parse(source)):
        if not isinstance(loop, (ast.For, ast.While)):
            continue
        for node in ast.walk(loop):
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)):
                continue
            name = node.targets[0].id
            if any(isinstance(op, ast.BinOp) and isinstance(op.op, (ast.Add, ast.Sub))
                   and any(isinstance(side, ast.Name) and side.id == name
                           for side in (op.left, op.right))
                   for op in ast.walk(node.value)):
                lines.add(node.lineno)
    return sorted(lines)


def test_checker_sees_a_chained_sum():
    source = ("def f(xs, n):\n"
              "    out = 0\n"
              "    for x in xs:\n"
              "        out = out + x\n"
              "    while n:\n"
              "        out = x - out if n % 2 else out - x\n"
              "        n -= 1\n"
              "    total = out + 1\n"
              "    for x in xs:\n"
              "        k = out + x\n"
              "    return total\n")
    assert chained_sums(source) == [4, 6]


@pytest.mark.parametrize("module", ONE_PASS_MODULES)
def test_module_sums_in_one_pass(module):
    assert chained_sums((PACKAGE / module).read_text()) == []


def products_in_accumulate(source: str) -> list[int]:
    """Lines of `*` products formed inside the arguments of an `accumulate`
    call.  A sum of products goes through `accumulate_products`, which
    fuses them into one multiply-accumulate instead of building each one."""
    lines = set()
    for call in ast.walk(ast.parse(source)):
        if not isinstance(call, ast.Call):
            continue
        name = getattr(call.func, "attr", getattr(call.func, "id", None))
        if name != "accumulate":
            continue
        for arg in call.args + [keyword.value for keyword in call.keywords]:
            lines.update(node.lineno for node in ast.walk(arg)
                         if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult))
    return sorted(lines)


def test_checker_sees_a_product_in_accumulate():
    source = ("def f(self, alg, xs, ys):\n"
              "    a = self.accumulate(x * y for x, y in zip(xs, ys))\n"
              "    b = alg.accumulate_products((1, x, y) for x, y in zip(xs, ys))\n"
              "    c = accumulate([x.scale(2) for x in xs])\n"
              "    return alg.accumulate(\n"
              "        [x,\n"
              "         2 * y])\n")
    assert products_in_accumulate(source) == [2, 7]


@pytest.mark.parametrize("module", ONE_PASS_MODULES)
def test_module_builds_no_product_inside_accumulate(module):
    assert products_in_accumulate((PACKAGE / module).read_text()) == []


def imported_public_names(source: str) -> set[str]:
    """The names a module's `from ... import` statements bind, bar private ones."""
    return {alias.asname or alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module != "__future__"
            for alias in node.names if not (alias.asname or alias.name).startswith("_")}


def test_export_list_is_what_the_package_imports():
    # a name deleted or renamed in a module must leave __all__ too
    import surfqp

    imported = imported_public_names((PACKAGE / "__init__.py").read_text())
    assert "RepAlgebra" in imported and "annotations" not in imported
    assert len(surfqp.__all__) == len(set(surfqp.__all__))
    assert set(surfqp.__all__) == imported
    namespace = {}
    exec("from surfqp import *", namespace)
    assert imported <= namespace.keys()


def calling_functions(source: str, name: str) -> list[str]:
    """The innermost function around each call of `name` (a bare name or an
    attribute), once per call."""
    out = []

    def visit(node, around):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            around = node.name
        if isinstance(node, ast.Call) and getattr(node.func, "attr",
                                                  getattr(node.func, "id", None)) == name:
            out.append(around)
        for child in ast.iter_child_nodes(node):
            visit(child, around)

    visit(ast.parse(source), None)
    return out


def test_checker_sees_every_caller():
    source = ("def f(self, x):\n"
              "    def g():\n"
              "        return self.raise_den(x)\n"
              "    return raise_den(g())\n"
              "class A:\n"
              "    def h(self):\n"
              "        return self.raise_den\n"
              "y = raise_den(1)\n")
    assert calling_functions(source, "raise_den") == ["g", "f", None]


def test_common_denominator_has_one_home():
    # raising numerators to a common denominator happens in one place;
    # every sum, a + b and a - b included, reaches it through accumulate
    callers = [caller for module in MODULES
               for caller in calling_functions((PACKAGE / module).read_text(), "raise_den")]
    assert callers == ["_over_common_den"]


BENCH = PACKAGE.parent.parent / "perfbench"
# public definitions that no module reads, each kept for a reason
UNREAD_BY_DESIGN = {
    "tensor3": "builds a tensor cube from three factors: the canonical triple bracket's reference",
    "outer_act": "the second-slot Leibniz rule's action, which tests hold the bracket to",
    "inner_act": "the first-slot Leibniz rule's action, which tests hold the bracket to",
    "monomial": "packs (variable, exponent) pairs: the Poly tests' term fixture",
    "bivector_bracket": "the bivector side of the pointwise check on one pair of word entries, "
                        "which the golden bivector values and the trace tests check",
}


def definitions(source: str) -> list[tuple[str, ast.AST]]:
    """The module-level functions and classes, and the methods of those
    classes, as ("name" or "Class.method", node), bar dunders."""
    def named(node):
        return isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not (
            node.name.startswith("__") and node.name.endswith("__"))

    out = []
    for node in filter(named, ast.parse(source).body):
        out.append((node.name, node))
        if isinstance(node, ast.ClassDef):
            out += [(f"{node.name}.{m.name}", m) for m in filter(named, node.body)
                    if isinstance(m, ast.FunctionDef)]
    return out


def names_read(tree: ast.AST) -> Counter:
    """How often the tree reads each name, bare or as an attribute."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute))
                   and isinstance(node.ctx, ast.Load))


def unread_definitions(sources: list[str], readers: list[str]) -> list[str]:
    """The definitions in sources that no reader reads outside the
    definition itself."""
    read = sum((names_read(ast.parse(source)) for source in readers), Counter())
    return [d for source in sources for d, node in definitions(source)
            if read[d.rsplit(".", 1)[-1]] <= names_read(node)[d.rsplit(".", 1)[-1]]]


def test_checker_sees_an_unread_definition():
    source = ("class A:\n"
              "    def __init__(self):\n"
              "        self.stored = 1\n"
              "    def used(self):\n"
              "        return helper() + self._read()\n"
              "    def unused(self):\n"
              "        self.stored = 1\n"
              "    def _read(self):\n"
              "        pass\n"
              "    def _private(self):\n"
              "        return self._private()\n"
              "def helper():\n"
              "    return A().used\n"
              "def stored():\n"
              "    pass\n"
              "def _unread():\n"
              "    return _unread\n")
    assert [d for d, _ in definitions(source)] == [
        "A", "A.used", "A.unused", "A._read", "A._private", "helper", "stored", "_unread"]
    assert unread_definitions([source], [source]) == \
        ["A.unused", "A._private", "stored", "_unread"]
    assert unread_definitions([source], [source, "A().unused(_unread())\n"]) == \
        ["A._private", "stored"]


def test_every_public_definition_has_a_reader():
    # a definition only tests call is surface to keep in step for nothing:
    # tests reach the value through the path the package itself takes.
    # Private definitions count too, read anywhere but in their own body
    sources = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]
    defined = {d for source in sources for d, _ in definitions(source)}
    assert UNREAD_BY_DESIGN.keys() <= defined
    unread = unread_definitions(sources, sources + [p.read_text() for p in BENCH.glob("*.py")])
    assert sorted(unread) == sorted(UNREAD_BY_DESIGN)

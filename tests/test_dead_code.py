"""Static guard against dead code and stale exports in the package modules.

Every imported name is used in its module or exported through ``__all__``,
and every module-level private function or class is referenced somewhere in
the package outside its own definition.  ``__init__.py`` only re-exports, so
it is not checked for these, though its references count.  Every name in a
module's ``__all__``, ``__init__.py``'s included, is defined or imported at
that module's top level, and every public module-level function or class is
in its module's ``__all__``.  The ``_private`` names that one module reads
from another are pinned, so new coupling to another module's layout comes
with a stated reason.  So is the package's module-level state: every
``global`` statement, and every module-level name bound to a mutable
container.  Every field of a named tuple record is read somewhere in the
package.  No positional parameter of a module-level function or class takes
one int or bool literal at every call in the package.  Rings compare by
identity: no ``==`` or ``!=`` has a ``.ring`` as an operand, and the classes
that define a value equality are pinned.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "congrlab"
ALL_MODULES = sorted(PACKAGE.glob("*.py"))
MODULES = [path for path in ALL_MODULES if path.name != "__init__.py"]


def _trees() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}


def _references(node: ast.AST) -> Counter:
    """Names read under ``node``: bare names, attribute names and the names
    imported from a sibling module."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom) and sub.module != "__future__":
            found.update(alias.name for alias in sub.names)
    return found


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(tree: ast.Module) -> list[str]:
    """Names a module imports but neither reads nor lists in ``__all__``."""
    read = Counter(sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name))
    exported = _exported(tree)
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if not read[name] and name not in exported:
                    out.append(name)
    return out


def stale_exports(tree: ast.Module) -> list[str]:
    """Names in ``__all__`` that the module neither defines, assigns nor
    imports at its top level."""
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound.update(sub.id for t in targets for sub in ast.walk(t) if isinstance(sub, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    return sorted(_exported(tree) - bound)


def unexported_publics(tree: ast.Module) -> list[str]:
    """Module-level functions and classes without a leading underscore that
    are missing from ``__all__``."""
    exported = _exported(tree)
    return [
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in exported
    ]


def unreferenced_privates(trees: dict[str, ast.Module]) -> list[str]:
    """Module-level ``_private`` functions and classes that nothing in the
    package refers to outside their own definition."""
    total = Counter()
    for tree in trees.values():
        total.update(_references(tree))
    out = []
    for module, tree in sorted(trees.items()):
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if not name.startswith("_") or name.startswith("__"):
                continue
            if total[name] - _references(node)[name] < 1:
                out.append(f"{module}:{name}")
    return out


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_reads(tree: ast.Module) -> set[str]:
    """The ``_private`` names of sibling modules that a module reads, as
    "m._x": each ``from .m import _x``, and each ``m._x`` for a module m
    bound by ``from . import m``."""
    siblings, out = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    siblings[alias.asname or alias.name] = alias.name
                elif _private(alias.name):
                    out.add(f"{node.module}.{alias.name}")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and _private(node.attr):
            if node.value.id in siblings:
                out.add(f"{siblings[node.value.id]}.{node.attr}")
    return out


#: Every private name that one package module reads from another: a kernel
#: or helper that a sibling shares rather than copies.
PRIVATE_READS = {
    "binomsums.py": {"harmonic._powers"},
    "catalog.py": {
        "binomsums._dot", "binomsums._odd_powers", "harmonic._mhs_mod", "harmonic._odd_mhs_mod",
        "harmonic._merge_walks", "modring._unit_plan",
        "sequences._fibonacci_quotient",
    },
    "cli.py": {"catalog._repeated_value"},
    "harmonic.py": {"modring._unit_plan"},
    "specialnum.py": {"harmonic._powers"},
}


def test_cross_module_private_reads_are_pinned():
    reads = {name: private_reads(tree) for name, tree in _trees().items()}
    assert {name: found for name, found in reads.items() if found} == PRIVATE_READS


def test_the_guard_sees_a_planted_private_read():
    tree = ast.parse(
        "from . import harmonic as h, modring\n"
        "from .modring import _MR_BASES, is_prime\n"
        "import os\n"
        "def f(ring):\n"
        "    return h._powers(ring, 1), h.mhs, modring.__name__, os._exit, _MR_BASES\n"
    )
    assert private_reads(tree) == {"harmonic._powers", "modring._MR_BASES"}


def global_statements(tree: ast.Module) -> set[str]:
    """Each name that a ``global`` statement rebinds, as "f.x" for a
    statement in the function (or class) f that holds it innermost."""
    out = set()

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Global):
                out.update(f"{scope}.{name}" for name in child.names)
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, child.name if named else scope)

    visit(tree, "<module>")
    return out


_CONTAINERS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)


def _mutable(value: ast.AST | None) -> bool:
    """Whether ``value`` builds a list, dict or set: a display, a
    comprehension or a call of the constructor."""
    if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
        return value.func.id in {"list", "dict", "set"}
    return isinstance(value, _CONTAINERS)


def mutable_module_names(tree: ast.Module) -> set[str]:
    """The module-level names other than ``__all__`` bound to a new list,
    dict or set, also through a tuple assignment."""
    out = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            pairs = [(target, node.value) for target in node.targets]
        elif isinstance(node, ast.AnnAssign):
            pairs = [(node.target, node.value)]
        else:
            continue
        while pairs:
            target, value = pairs.pop()
            if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple):
                pairs.extend(zip(target.elts, value.elts))
            elif isinstance(target, ast.Name) and target.id != "__all__" and _mutable(value):
                out.add(target.id)
    return out


#: The package's module-level state.  ``unit_scope`` alone rebinds a module
#: global, whether a unit is open; the list of unit tables grows once per
#: kernel at import; and the report writers are a fixed table by format.
GLOBAL_STATEMENTS = {"modring.py": {"unit_scope._memoizing"}}
MUTABLE_MODULE_NAMES = {"modring.py": {"_UNIT_TABLES"}, "cli.py": {"_WRITERS"}}


def test_module_level_state_is_pinned():
    trees = _trees()
    rebound = {name: global_statements(tree) for name, tree in trees.items()}
    assert {name: found for name, found in rebound.items() if found} == GLOBAL_STATEMENTS
    mutable = {name: mutable_module_names(tree) for name, tree in trees.items()}
    assert {name: found for name, found in mutable.items() if found} == MUTABLE_MODULE_NAMES


def test_the_guard_sees_planted_module_state():
    tree = ast.parse(
        "__all__ = ['f']\n"
        "_plan: dict = {}\n"
        "_SEEN, _N = set(), 0\n"
        "_ROWS = [x for x in range(3)]\n"
        "_BASES, _ONE = (2, 3), frozenset({1})\n"
        "def f(p):\n"
        "    global _plan\n"
        "    _plan = {p: []}\n"
        "    local = {}\n"
        "    return local\n"
    )
    assert global_statements(tree) == {"f._plan"}
    assert mutable_module_names(tree) == {"_plan", "_SEEN", "_ROWS"}


def _namedtuple_fields(node: ast.AST) -> list[str] | None:
    """The field names of a ``namedtuple(typename, field_names)`` call, or
    None for any other node."""
    if not isinstance(node, ast.Call) or len(node.args) < 2:
        return None
    func = node.func
    if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) != "namedtuple":
        return None
    fields = ast.literal_eval(node.args[1])
    return fields.replace(",", " ").split() if isinstance(fields, str) else list(fields)


def _unpacked_from_self(cls: ast.ClassDef, fields: list[str]) -> set[str]:
    """The fields that a method of ``cls`` binds by unpacking ``self`` into
    a name other than ``_``."""
    out = set()
    for sub in ast.walk(cls):
        if isinstance(sub, ast.Assign) and isinstance(sub.value, ast.Name) and sub.value.id == "self":
            if isinstance(sub.targets[0], ast.Tuple):
                out.update(
                    field for field, elt in zip(fields, sub.targets[0].elts)
                    if isinstance(elt, ast.Name) and elt.id != "_"
                )
    return out


def unread_fields(trees: dict[str, ast.Module]) -> list[str]:
    """The fields of named tuple records that nothing in the package reads,
    as "m.py:Record.field".  A field is read by an attribute load anywhere,
    or by unpacking ``self`` in one of its own record's methods; a keyword
    argument or a store reads nothing."""
    loads = {
        sub.attr for tree in trees.values() for sub in ast.walk(tree)
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)
    }
    out = []
    for module, tree in sorted(trees.items()):
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                records = [(node.name, _namedtuple_fields(base)) for base in node.bases]
            elif isinstance(node, ast.Assign):
                records = [(t.id, _namedtuple_fields(node.value)) for t in node.targets if isinstance(t, ast.Name)]
            else:
                continue
            for name, fields in records:
                if fields is not None:
                    unpacked = _unpacked_from_self(node, fields) if isinstance(node, ast.ClassDef) else set()
                    out.extend(f"{module}:{name}.{f}" for f in fields if f not in loads and f not in unpacked)
    return sorted(out)


def test_every_record_field_is_read():
    assert unread_fields(_trees()) == []


def test_the_guard_sees_a_planted_unread_field():
    tree = ast.parse(
        "import collections\n"
        "from collections import namedtuple\n"
        "class Term(namedtuple('Term', 'c e comp note', defaults=(None,))):\n"
        "    def __call__(self, x):\n"
        "        c, e, comp, _ = self\n"
        "        return c * x ** e\n"
        "Pair = collections.namedtuple('Pair', ['left', 'right'])\n"
        "def f(pair, term):\n"
        "    pair.right = term._replace(note=pair.left)\n"
        "    c, e, comp, note = term\n"
        "    return Term(c, e, comp, note=note)\n"
    )
    assert unread_fields({"m.py": tree}) == ["m.py:Pair.right", "m.py:Term.note"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_used_or_exported(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda path: path.name)
def test_every_export_is_defined_or_imported(path):
    assert stale_exports(ast.parse(path.read_text(encoding="utf-8"))) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_public_definition_is_exported(path):
    assert unexported_publics(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_every_private_definition_is_referenced():
    assert unreferenced_privates(_trees()) == []


def test_the_guard_sees_a_planted_unused_import_and_private_function():
    tree = ast.parse(
        "from math import comb, inf\n"
        "__all__ = ['inf']\n"
        "def _eval_leftover(ring, t):\n"
        "    return _eval_leftover(ring, t)\n"
        "def _used():\n"
        "    return comb\n"
        "def public():\n"
        "    return _used()\n"
    )
    assert unused_imports(tree) == []
    assert unreferenced_privates({"m.py": tree}) == ["m.py:_eval_leftover"]
    assert unused_imports(ast.parse("import os\nfrom math import comb\nx = os\n")) == ["comb"]


def test_the_guard_sees_a_stale_export():
    tree = ast.parse(
        "import os.path\n"
        "from fractions import Fraction as F\n"
        "__all__ = ['os', 'F', 'Rational', 'QQ', 'TABLE', 'f', 'C']\n"
        "QQ, TABLE = object(), {}\n"
        "def f():\n"
        "    Rational = F\n"
        "class C:\n"
        "    pass\n"
    )
    assert stale_exports(tree) == ["Rational"]
    assert unexported_publics(tree) == []
    assert unexported_publics(ast.parse("__all__ = ['f']\ndef f(): pass\ndef g(): pass\nclass C: pass\n")) == [
        "g", "C",
    ]


def _int_literal(node: ast.AST) -> str | None:
    """``repr`` of an int or bool literal (a negated one too), else None."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        inner = _int_literal(node.operand)
        return None if inner is None else repr(-int(inner))
    if isinstance(node, ast.Constant) and type(node.value) in (int, bool):
        return repr(node.value)
    return None


def _positional_parameters(node: ast.AST) -> list[str]:
    """A function's positional parameters, or those of a class's ``__init__``
    after ``self``."""
    if isinstance(node, ast.ClassDef):
        inits = [sub for sub in node.body if isinstance(sub, ast.FunctionDef) and sub.name == "__init__"]
        return _positional_parameters(inits[0])[1:] if inits else []
    return [arg.arg for arg in node.args.posonlyargs + node.args.args]


def constant_parameters(trees: dict[str, ast.Module]) -> list[str]:
    """The positional parameters of module-level functions and classes that
    every call in the package passes as one int or bool literal, as
    "m.py:f.x=1": a constant spelled as a parameter.

    Only calls by the bare name count.  A call that leaves the parameter
    out, or that has a starred argument at or before its position, passes an
    unknown value, and the guard then does not judge the parameter.  So it
    is blind behind a starred call: ``recurrence_column`` once took a y that
    was 1 at every call, and the guard missed it, since ``alternating_v_sum``
    passes its seeds as ``*seeds``.  A function with no call in the package
    is not judged either.
    """
    params = {
        node.name: (module, _positional_parameters(node))
        for module, tree in sorted(trees.items())
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }
    calls = {name: [] for name in params}
    for tree in trees.values():
        for sub in ast.walk(tree):
            if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name) and sub.func.id in calls:
                calls[sub.func.id].append(sub)
    out = []
    for name, (module, names) in params.items():
        for i, param in enumerate(names):
            passed = set()
            for call in calls[name]:
                if any(isinstance(arg, ast.Starred) for arg in call.args[: i + 1]):
                    passed.add(None)
                elif i < len(call.args):
                    passed.add(_int_literal(call.args[i]))
                else:
                    given = [kw.value for kw in call.keywords if kw.arg == param]
                    passed.add(_int_literal(given[0]) if given else None)
            if len(passed) == 1 and None not in passed:
                out.append(f"{module}:{name}.{param}={passed.pop()}")
    return sorted(out)


def test_no_parameter_takes_one_literal_at_every_call():
    assert constant_parameters(_trees()) == []


def test_the_guard_sees_a_planted_constant_parameter():
    tree = ast.parse(
        "def f(n, d, ring, flag=False):\n"
        "    return n\n"
        "def g(a, b):\n"
        "    return a\n"
        "class C:\n"
        "    def __init__(self, k, m):\n"
        "        self.k = k\n"
        "def use(seeds, n):\n"
        "    f(n, 1, None, flag=True)\n"
        "    f(2, 1, None, True)\n"
        "    g(*seeds, 3)\n"
        "    g(1, 3)\n"
        "    C(-1, n)\n"
        "    C(k=-1, m=2)\n"
    )
    assert constant_parameters({"m.py": tree}) == ["m.py:C.k=-1", "m.py:f.d=1", "m.py:f.flag=True"]


def ring_equalities(tree: ast.Module) -> list[str]:
    """Each ``==`` or ``!=`` with a ``.ring`` attribute as an operand, as
    the source of its comparison."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for op, pair in zip(node.ops, zip(operands, operands[1:])):
                if isinstance(op, (ast.Eq, ast.NotEq)) and any(
                    isinstance(x, ast.Attribute) and x.attr == "ring" for x in pair
                ):
                    out.append(ast.unparse(node))
    return out


def value_equality_classes(tree: ast.Module) -> set[str]:
    """The classes that define or assign ``__eq__`` or ``__hash__``."""
    names = {"__eq__", "__hash__"}
    return {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and any(
            isinstance(sub, ast.FunctionDef) and sub.name in names
            or isinstance(sub, ast.Assign) and any(getattr(t, "id", None) in names for t in sub.targets)
            for sub in node.body
        )
    }


#: The elements with a value equality.  A ring is one object per (p, k)
#: (`prime_power`) and ``QQ`` one object, so neither defines an equality.
VALUE_EQUALITY_CLASSES = {"exactalg.py": {"Poly", "QuadExt"}, "modring.py": {"Residue"}}


def test_rings_compare_by_identity():
    trees = _trees()
    assert [found for tree in trees.values() for found in ring_equalities(tree)] == []
    classes = {name: value_equality_classes(tree) for name, tree in trees.items()}
    assert {name: found for name, found in classes.items() if found} == VALUE_EQUALITY_CLASSES


def test_the_guard_sees_a_planted_ring_equality():
    tree = ast.parse(
        "class Ring:\n"
        "    def __hash__(self):\n"
        "        return hash(self.k)\n"
        "class Field:\n"
        "    __eq__ = lambda self, other: True\n"
        "class Elt:\n"
        "    def __init__(self, ring):\n"
        "        self.ring = ring\n"
        "    def same(self, x, ring):\n"
        "        return x.ring is ring, x.ring != ring, self.ring.p == 7, 0 < ring == self.ring\n"
    )
    assert ring_equalities(tree) == ["x.ring != ring", "0 < ring == self.ring"]
    assert value_equality_classes(tree) == {"Ring", "Field"}

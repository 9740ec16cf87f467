"""Every name a module of the package imports is used in that module,
every top-level function and class and every method of a top-level class
is named somewhere in the package, every defaulted parameter is
passed by some call in the package or its tests, no CLI command
handler catches the bad-input errors that ``cli.main`` maps to exit 2,
and no ``lru_cache`` is capped.

Neither pyflakes nor ruff is assumed to be installed, so this parses each
``catsl2`` module with ``ast``.  A name counts as used if it occurs as a
``Name`` node anywhere in the module.  ``__init__`` is exempt (its imports
are the package's re-exports), and so is ``from __future__ import
annotations``.  A top-level definition, or a method (other than a
``__dunder__`` one) of a top-level class, counts as named if another place
in the package or in ``bench/workloads.py`` refers to it; ``__init__``'s
re-export alone does not count, so an exported name needs a user too.  The
few kept without one are listed, each with its reason, and so are the
defaulted parameters that no call passes.
"""

import ast
from collections import Counter
from pathlib import Path

import catsl2

PACKAGE = Path(catsl2.__file__).resolve().parent
WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def _unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name != "annotations":
                    imported.append((node.lineno, name))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


def test_the_check_sees_an_unused_import():
    source = "from os import path, sep\nimport sys\nprint(sep)\n"
    assert _unused_imports(source) == [(1, "path"), (2, "sys")]


def test_no_module_imports_an_unused_name():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert len(modules) >= 8
    unused = {p.name: _unused_imports(p.read_text()) for p in modules}
    assert not any(unused.values()), {k: v for k, v in unused.items() if v}


#: Top-level definitions and methods of top-level classes that nothing in
#: the package or the benchmark workloads names, each kept for a reason.
UNNAMED_BUT_KEPT = {
    "relationsuite.inventory": "the live side of the MANIFEST lock, which "
                               "the tests compare against the committed list",
    "diagramlang.render_diagram": "the printer of the diagram DSL, the "
                                  "inverse of parse_diagram",
    "cli._CliParser.error": "argparse calls it on a usage error",
    "bimodules.BimElement.basis_vector": "a public constructor, which the "
                                         "tests and bench/selftest.py use",
    "bimodules.act": "the checked public entry of the left action; the "
                     "engine calls its unchecked twin _act",
    "bimodules.inject_at_junction": "the checked public entry of junction "
                                    "insertion; the engine calls its "
                                    "unchecked twin _inject_at_junction",
}


def _names(tree, bare=True) -> list:
    """Every name ``tree`` refers to: its ``Name`` nodes (if ``bare``), the
    attribute names of its ``Attribute`` nodes, and the names it imports."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and bare:
            out.append(node.id)
        elif isinstance(node, ast.Attribute):
            out.append(node.attr)
        elif isinstance(node, ast.alias):
            out.append(node.name.split(".")[-1])
    return out


def _definitions(tree):
    """``(label, node)`` for the top-level functions and classes of
    ``tree`` and the methods of its top-level classes; the language calls
    the ``__dunder__`` methods, so they are left out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not (
                        sub.name.startswith("__") and sub.name.endswith("__")):
                    yield "%s.%s" % (node.name, sub.name), sub


def _unnamed_definitions(sources: dict, users) -> list:
    """The top-level functions and classes of ``sources`` (module name ->
    source), and the methods of its top-level classes, that nothing names
    outside their own definition: no module of ``sources`` and no
    ``users`` source, which counts only the names it imports or reaches as
    attributes (its bare names are its own).  ``__init__`` only
    re-exports, so it is neither checked nor read."""
    trees = {mod: ast.parse(source) for mod, source in sources.items() if mod != "__init__"}
    named = Counter(name for tree in trees.values() for name in _names(tree))
    named.update(name for source in users for name in _names(ast.parse(source), bare=False))
    unnamed = []
    for mod, tree in trees.items():
        for label, node in _definitions(tree):
            if named[node.name] == _names(node).count(node.name):
                unnamed.append("%s.%s" % (mod, label))
    return unnamed


def test_the_check_sees_an_unnamed_definition():
    sources = {"a": "def used():\n    pass\n\ndef spare(n):\n    return spare(n - 1)\n\n"
                    "def exported():\n    pass\n\ndef benched():\n    pass\n\n"
                    "class Kept:\n"
                    "    def __init__(self):\n        self.called()\n\n"
                    "    def called(self):\n        pass\n\n"
                    "    def idle(self, n):\n        return self.idle(n - 1)\n",
               "b": "from a import used\nused()\n",
               "__init__": "from a import Kept, exported\n__all__ = ['Kept', 'exported']\n"}
    users = ["from a import benched\nbenched()\nspare = None\n"]
    assert _unnamed_definitions(sources, users) == \
        ["a.spare", "a.exported", "a.Kept", "a.Kept.idle"]


def test_every_top_level_definition_is_named_somewhere():
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert len(sources) >= 10
    unnamed = set(_unnamed_definitions(sources, [WORKLOADS.read_text()]))
    assert unnamed == set(UNNAMED_BUT_KEPT), sorted(unnamed ^ set(UNNAMED_BUT_KEPT))


#: Defaulted parameters that no call in the package or its tests passes,
#: each kept for a reason.
DEFAULTED_BUT_UNPASSED: dict = {}


def _defaulted_parameters(tree):
    """(label, callee name, position or None, parameter) for each defaulted
    parameter of the top-level functions and the methods of the top-level
    classes of ``tree``.  A class call passes its ``__init__``'s parameters,
    and a method's positions leave out ``self`` (or ``cls``)."""
    defs = [(node.name, node.name, node, False) for node in tree.body
            if isinstance(node, ast.FunctionDef)]
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            defs += [("%s.%s" % (cls.name, node.name),
                      cls.name if node.name == "__init__" else node.name, node,
                      not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                              for d in node.decorator_list))
                     for node in cls.body if isinstance(node, ast.FunctionDef)]
    for label, callee, node, bound in defs:
        positional = (node.args.posonlyargs + node.args.args)[1 if bound else 0:]
        first = len(positional) - len(node.args.defaults)
        for index, arg in enumerate(positional[first:], start=first):
            yield label, callee, index, arg.arg
        for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
            if default is not None:
                yield label, callee, None, arg.arg


def _unpassed_defaults(defining: dict, calling) -> list:
    """The defaulted parameters of the functions and methods of
    ``defining`` (module name -> source), as ``module.function(parameter)``,
    that no call in the ``calling`` sources passes, by position or by
    keyword.  A call is matched to a definition by name alone."""
    passed = {}   # callee name -> (positional count, keyword names)
    for source in calling:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            starred = any(isinstance(arg, ast.Starred) for arg in node.args)
            count = float("inf") if starred else len(node.args)
            keywords = {kw.arg for kw in node.keywords}
            passed.setdefault(name, []).append((count, keywords))
    unpassed = []
    for mod, source in defining.items():
        for label, callee, index, param in _defaulted_parameters(ast.parse(source)):
            if not any((index is not None and count > index)
                       or param in keywords or None in keywords
                       for count, keywords in passed.get(callee, ())):
                unpassed.append("%s.%s(%s)" % (mod, label, param))
    return unpassed


def test_the_check_sees_an_unpassed_default():
    defining = {"a": "def f(x, y=1, *, z=2):\n    pass\n\n"
                     "class C:\n"
                     "    def __init__(self, n=0):\n        pass\n\n"
                     "    def m(self, k=1, j=2):\n        pass\n\n"
                     "    @staticmethod\n"
                     "    def s(p=1):\n        pass\n"}
    calling = [defining["a"], "from a import C, f\nf(1, 2)\nC(5).m(j=3)\nC.s()\n"]
    assert _unpassed_defaults(defining, calling) == ["a.f(z)", "a.C.m(k)", "a.C.s(p)"]


def test_every_defaulted_parameter_is_passed_somewhere():
    defining = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    tests = Path(__file__).resolve().parent
    calling = list(defining.values()) + [p.read_text() for p in tests.glob("*.py")]
    unpassed = set(_unpassed_defaults(defining, calling))
    assert unpassed == set(DEFAULTED_BUT_UNPASSED), \
        sorted(unpassed ^ set(DEFAULTED_BUT_UNPASSED))


def _handlers_catching(source: str, names) -> list:
    """``(function, exception)`` for each top-level ``_cmd_*`` function of
    ``source`` with an ``except`` clause that names one of ``names``."""
    out = []
    for fn in ast.parse(source).body:
        if not (isinstance(fn, ast.FunctionDef) and fn.name.startswith("_cmd_")):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                out += [(fn.name, t.id) for t in types
                        if isinstance(t, ast.Name) and t.id in names]
    return out


def test_the_check_sees_a_command_that_catches_bad_input():
    source = ("def _cmd_a(args):\n    try:\n        pass\n"
              "    except (OSError, ValueError):\n        pass\n\n"
              "def _cmd_b(args):\n    try:\n        pass\n"
              "    except OSError:\n        pass\n\n"
              "def main():\n    try:\n        pass\n"
              "    except ValueError:\n        pass\n")
    assert _handlers_catching(source, {"ValueError"}) == [("_cmd_a", "ValueError")]


def test_no_command_catches_bad_input():
    # cli.main alone turns a ValueError (a DiagramError is one) into the
    # exit-2 message, so no command handler states that rule again
    source = (PACKAGE / "cli.py").read_text()
    assert source.count("\ndef _cmd_") == 5
    assert _handlers_catching(source, {"ValueError", "DiagramError"}) == []


def _capped_caches(source: str) -> list:
    """The lines of ``source`` that use ``lru_cache`` other than as
    ``lru_cache(maxsize=None)`` or ``lru_cache(None)``: a bare or
    ``maxsize``-given cache drops entries past its cap (128 by default)."""
    tree = ast.parse(source)

    def is_none(node):
        return isinstance(node, ast.Constant) and node.value is None

    uncapped = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)
                and (any(kw.arg == "maxsize" and is_none(kw.value) for kw in node.keywords)
                     or node.args and is_none(node.args[0]))}
    return [node.lineno for node in ast.walk(tree)
            if (getattr(node, "id", None) == "lru_cache"
                or getattr(node, "attr", None) == "lru_cache")
            and id(node) not in uncapped]


def test_the_check_sees_a_capped_cache():
    source = ("import functools\nfrom functools import cache, lru_cache\n\n"
              "@functools.lru_cache\ndef a():\n    pass\n\n"
              "@lru_cache(maxsize=None)\ndef b():\n    pass\n\n"
              "@lru_cache(maxsize=256)\ndef c():\n    pass\n\n"
              "@functools.lru_cache(None)\ndef d():\n    pass\n\n"
              "@cache\ndef e():\n    pass\n\n"
              "f = lru_cache()(len)\n")
    assert _capped_caches(source) == [4, 12, 24]


def test_no_cache_is_capped():
    # a memo that quietly stops caching at a hard-coded cap hides its misses;
    # every lru_cache in the package passes maxsize=None (or is functools.cache)
    capped = {p.name: _capped_caches(p.read_text()) for p in PACKAGE.glob("*.py")}
    assert not any(capped.values()), {k: v for k, v in capped.items() if v}

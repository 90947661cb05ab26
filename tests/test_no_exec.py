"""No module of the package turns data into running code.

Nothing read from a cache directory, a plan or a request may execute
code. Tests that plant files (``test_disk_cache.py``) check that one
path at a time; this one checks the whole package at once. It parses
every module under ``src/repro`` with :mod:`ast` and fails on any call
to ``exec``, ``eval``, the built-in ``compile``, ``pickle.load(s)``,
``pickle.Unpickler`` or ``marshal.load(s)``, under whatever name a
module imports them.
"""

import ast
import os

PACKAGE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "repro"
)

#: Dotted call targets that run code built from data.
FORBIDDEN = frozenset({
    "exec", "eval", "compile",
    "builtins.exec", "builtins.eval", "builtins.compile",
    "pickle.load", "pickle.loads", "pickle.Unpickler",
    "marshal.load", "marshal.loads",
})


def _dotted(node, aliases):
    """The dotted name a call target resolves to through the module's
    imports, or ``None`` for anything but names and attributes."""
    if isinstance(node, ast.Name):
        return aliases.get(node.id, node.id)
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value, aliases)
        return None if base is None else base + "." + node.attr
    return None


def forbidden_calls(source, filename="<source>"):
    """``[(line, dotted name)]`` of every forbidden call in ``source``."""
    tree = ast.parse(source, filename)
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    aliases[alias.asname] = alias.name
                else:
                    top = alias.name.split(".")[0]
                    aliases[top] = top
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                aliases[alias.asname or alias.name] = (
                    node.module + "." + alias.name
                )
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = _dotted(node.func, aliases)
            if name in FORBIDDEN:
                found.append((node.lineno, name))
    return sorted(found)


def _modules():
    for root, _, files in os.walk(PACKAGE):
        for name in sorted(files):
            if name.endswith(".py"):
                yield os.path.join(root, name)


def test_no_module_runs_code_from_data():
    modules = list(_modules())
    assert len(modules) > 50, PACKAGE   # the walk found the package
    offences = []
    for path in modules:
        with open(path, encoding="utf-8") as handle:
            source = handle.read()
        for line, name in forbidden_calls(source, path):
            offences.append(
                "%s:%d %s" % (os.path.relpath(path, PACKAGE), line, name)
            )
    assert offences == []


def test_the_scan_sees_every_import_form():
    """The scan flags direct, aliased, from-imported and ``builtins``
    calls, and passes same-named methods and other modules' functions."""
    source = "\n".join([
        "import builtins",
        "import pickle as p",
        "from marshal import load as read_code",
        "import re",
        "exec('x = 1')",
        "eval('1')",
        "code = compile('1', '<s>', 'eval')",
        "p.loads(b'')",
        "p.Unpickler(None)",
        "read_code(None)",
        "builtins.exec('')",
        "re.compile('x')",
        "self.compile()",
        "compile_dsl('done;')",
        "p.dumps(1)",
    ])
    assert forbidden_calls(source) == [
        (5, "exec"),
        (6, "eval"),
        (7, "compile"),
        (8, "pickle.loads"),
        (9, "pickle.Unpickler"),
        (10, "marshal.load"),
        (11, "builtins.exec"),
    ]

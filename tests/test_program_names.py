"""Every definition in the package is named by the program that runs it.

The program is the package modules, `scripts/` and `bench/`; `__init__` only
re-exports, and tests are not the program: a function that only tests call
belongs in `tests/references.py`.  A module-level function or class counts
as used when its name appears as a code token or inside a string literal
(the bench tracer names its targets in strings) anywhere but on its own
`def` or `class` line.  A method or property counts as used only where the
program reads it as an attribute (`.name`) or names it in a string: a local
variable of the same name does not use it.  Comments do not count.
"""

import ast
import io
import re
import tokenize
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "contactmono"
IDENTIFIER = re.compile(r"[A-Za-z_]\w*")
LAYOUT = (tokenize.NL, tokenize.NEWLINE, tokenize.COMMENT, tokenize.INDENT, tokenize.DEDENT)


def _program_files():
    package = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    return package + sorted((ROOT / "scripts").rglob("*.py")) + sorted((ROOT / "bench").rglob("*.py"))


def _names_used(text: str):
    """(names, attributes): the code tokens and the names read after a '.',
    each with the identifiers inside string literals."""
    names, attributes = Counter(), Counter()
    prev = None
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.NAME:
            names[tok.string] += 1
            if prev is not None and prev.type == tokenize.OP and prev.string == ".":
                attributes[tok.string] += 1
        elif tok.type == tokenize.STRING:
            found = IDENTIFIER.findall(tok.string)
            names.update(found)
            attributes.update(found)
        if tok.type not in LAYOUT:
            prev = tok
    return names, attributes


def _definitions(text: str):
    """(module-level functions and classes, the non-dunder methods of classes)."""
    functions, methods = Counter(), Counter()
    for node in ast.parse(text).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            functions[node.name] += 1
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    sub.name.startswith("__") and sub.name.endswith("__")
                ):
                    methods[sub.name] += 1
    return functions, methods


def test_every_package_definition_is_named_by_the_program():
    names, attributes = Counter(), Counter()
    functions, methods = Counter(), Counter()
    for path in _program_files():
        text = path.read_text()
        used = _names_used(text)
        names += used[0]
        attributes += used[1]
        if path.parent == PACKAGE:
            defined = _definitions(text)
            functions += defined[0]
            methods += defined[1]
    # each function names itself once, on its def line; a method's def line
    # is no attribute read
    unused = sorted(name for name, count in functions.items() if names[name] <= count)
    unused += sorted(name for name in methods if not attributes[name])
    assert not unused

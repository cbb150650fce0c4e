"""Every definition in the package is named by the program that runs it.

The program is the package modules, `scripts/` and `bench/`; `__init__` only
re-exports, and tests are not the program: a function that only tests call
belongs in `tests/references.py`.  A name counts as used when it appears as
a code token or inside a string literal (the bench tracer names its targets
in strings) anywhere but on its own `def` or `class` line.  Comments do not
count.
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


def _program_files():
    package = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    return package + sorted((ROOT / "scripts").rglob("*.py")) + sorted((ROOT / "bench").rglob("*.py"))


def _names_used(text: str) -> Counter:
    names = Counter()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.NAME:
            names[tok.string] += 1
        elif tok.type == tokenize.STRING:
            names.update(IDENTIFIER.findall(tok.string))
    return names


def _definitions(text: str):
    """Module-level functions and classes, and the non-dunder methods of classes."""
    for node in ast.parse(text).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    sub.name.startswith("__") and sub.name.endswith("__")
                ):
                    yield sub.name


def test_every_package_definition_is_named_by_the_program():
    used, defined = Counter(), Counter()
    for path in _program_files():
        text = path.read_text()
        used += _names_used(text)
        if path.parent == PACKAGE:
            defined.update(_definitions(text))
    # each definition names itself once, on its def line
    unused = sorted(name for name, count in defined.items() if used[name] <= count)
    assert not unused

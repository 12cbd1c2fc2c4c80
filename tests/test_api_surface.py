"""Every public top-level function of the package is public API or used.

A function counts as public API when `cartierforge/__init__.py` imports
it, and as used when some other top-level statement of the package refers
to it by name or attribute.  Anything else is called only from tests: an
oracle that belongs in `tests/`, or dead code.
"""

import ast
from pathlib import Path

import cartierforge

PACKAGE = Path(cartierforge.__file__).parent


def _names(node):
    """Names and attribute names that `node` refers to."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def test_every_public_function_is_exported_or_referenced():
    exported, defined, referenced = set(), [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for stmt in tree.body:
            if path.name == "__init__.py" and isinstance(stmt, ast.ImportFrom):
                exported.update(alias.asname or alias.name for alias in stmt.names)
            if isinstance(stmt, ast.FunctionDef):
                if not stmt.name.startswith("_"):
                    defined.append(f"{path.stem}.{stmt.name}")
                # a function's own body does not count as a use of it
                referenced.update(_names(stmt) - {stmt.name})
            else:
                referenced.update(_names(stmt))
    unused = [q for q in defined
              if q.split(".")[1] not in exported | referenced]
    assert not unused, "neither exported nor referenced: " + ", ".join(unused)

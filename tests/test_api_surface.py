"""Every public top-level function of the package is public API or used,
and none takes a `check` flag.

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


def test_no_function_takes_a_check_flag():
    # constructors build and `validate` checks: no switch turns checking on
    flagged = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for stmt in ast.walk(tree):
            if isinstance(stmt, ast.FunctionDef):
                args = stmt.args
                names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
                if "check" in names:
                    flagged.append(f"{path.stem}.{stmt.name}")
    assert not flagged, "takes a `check` parameter: " + ", ".join(flagged)


def test_oracles_import_no_private_name():
    # the shared oracles recompute by the definitions; a private helper of
    # the package would make them depend on the code they check
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    private = [f"{stmt.module}.{alias.name}" for stmt in ast.walk(tree)
               if isinstance(stmt, ast.ImportFrom)
               and (stmt.module or "").startswith("cartierforge")
               for alias in stmt.names if alias.name.startswith("_")]
    assert not private, "oracles import private names: " + ", ".join(private)

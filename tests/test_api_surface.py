"""Every public top-level function of the package is public API or used,
and none takes a `check` flag.  Every scope boundary is one exception,
`Unsupported`, raised where it is met and caught once, in
`cli.run_command`.  Arrays are stacked by `np.concatenate` alone.  One
record, `structures.Structured`, holds a Cartier or a Frobenius structure.
One builder, `artinian._hom`, calls the Hom solver `intertwiners`.

A function counts as public API when `cartierforge/__init__.py` imports
it, and as used when some other top-level statement of the package refers
to it by name or attribute.  Anything else is called only from tests: an
oracle that belongs in `tests/`, or dead code.
"""

import ast
import importlib
import inspect
from pathlib import Path

import cartierforge
from cartierforge.artinian import fin_module, ring_make
from cartierforge.structures import CARTIER, FROBENIUS, Structured, structured

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


def test_arrays_are_stacked_by_concatenate_alone():
    # np.vstack and np.hstack cost several times np.concatenate on the
    # small arrays of the kernels; every stack in the package is of 2-D
    # arrays, along axis 0 or 1
    stacks = [f"{path.stem}:{node.lineno}" for path in sorted(PACKAGE.glob("*.py"))
              for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
              if isinstance(node, ast.Attribute) and node.attr in ("vstack", "hstack")
              or isinstance(node, ast.alias) and node.name in ("vstack", "hstack")]
    assert not stacks, "np.vstack or np.hstack: " + ", ".join(stacks)


def _enclosing(node, parents) -> str:
    """The name of the function that holds `node`, or '' at module level."""
    while node in parents:
        node = parents[node]
        if isinstance(node, ast.FunctionDef):
            return node.name
    return ""


def test_intertwiners_has_one_caller_the_hom_builder():
    # every Hom space of the package, Hom(M, N), F^flat M and the structure
    # spaces, is Hom_R(A, N) from `artinian._hom`: one system and one read
    # of its module structure; no other code names the solver, not even by
    # an import
    users = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        parents = {child: node for node in ast.walk(tree)
                   for child in ast.iter_child_nodes(node)}
        users += [f"{path.stem}.{_enclosing(node, parents)}" for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and node.id == "intertwiners"
                  or isinstance(node, ast.Attribute) and node.attr == "intertwiners"
                  or isinstance(node, ast.alias) and node.name == "intertwiners"]
    assert users == ["artinian._hom"]


def test_unsupported_is_the_one_boundary_raised_and_caught_once():
    exceptions = set()
    for path in sorted(PACKAGE.glob("*.py")):
        mod = importlib.import_module(f"cartierforge.{path.stem}" if path.stem != "__init__"
                                      else "cartierforge")
        exceptions.update(f"{path.stem}.{name}" for name, obj in vars(mod).items()
                          if inspect.isclass(obj) and obj.__module__ == mod.__name__
                          and issubclass(obj, BaseException))
    # the two cli classes are input errors (exit 2, or an invalid-module
    # result), not boundaries of the theory
    assert exceptions == {"structures.Unsupported", "cli.SchemaError", "cli.InvalidModule"}
    assert issubclass(cartierforge.Unsupported, ValueError)

    misused, handlers, verdicts = [], [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        parents = {child: node for node in ast.walk(tree)
                   for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            where = f"{path.stem}.{_enclosing(node, parents)}:{getattr(node, 'lineno', 0)}"
            if (isinstance(node, ast.Name) and node.id == "Unsupported"
                    or isinstance(node, ast.Attribute) and node.attr == "Unsupported"):
                up = parents[node]
                if isinstance(up, ast.ExceptHandler):
                    handlers.append(where.split(":")[0])
                elif not (isinstance(up, ast.Call) and up.func is node
                          and isinstance(parents[up], ast.Raise)):
                    misused.append(where)   # returned, tested, stored or passed on
            # an unsupported result is written only by the one handler
            pairs = ([(node.arg, node.value)] if isinstance(node, ast.keyword) else
                     zip(node.keys, node.values) if isinstance(node, ast.Dict) else [])
            for key, value in pairs:
                if getattr(key, "value", key) == "unsupported" and \
                        isinstance(value, ast.Constant) and value.value is True:
                    verdicts.append(where.split(":")[0])
    assert not misused, "Unsupported used other than in a raise: " + ", ".join(misused)
    assert handlers == ["cli.run_command"]
    assert verdicts == ["cli.run_command"]


def test_one_structure_record_with_no_kappa_or_tau():
    # a Cartier and a Frobenius structure are one record,
    # `structures.Structured`, told apart by `kind`: no class has a kappa
    # or tau field, no code reads one, and one hash covers both kinds
    root = Path(__file__).resolve().parent.parent
    found = []
    for path in sorted([*PACKAGE.glob("*.py"), *(root / "tests").glob("*.py"),
                        *(root / "tools").glob("*.py")]):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ClassDef):
                found += [f"{path.stem}.{node.name}.{stmt.target.id}" for stmt in node.body
                          if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                          and stmt.target.id in ("kappa", "tau")]
            elif isinstance(node, ast.Attribute) and node.attr in ("kappa", "tau"):
                found.append(f"{path.stem}:{node.lineno}")
    assert not found, "kappa or tau field or attribute: " + ", ".join(found)
    module = fin_module(ring_make(2, [], []), [], 1)
    k, t = (structured(kind, module, [[1]]) for kind in (CARTIER, FROBENIUS))
    assert type(k) is type(t) is Structured and k != t
    assert [hash(m) for m in (k, t)] == [hash(m._key) for m in (k, t)]
    assert k._key[1:] == t._key[1:]     # the kind alone tells them apart

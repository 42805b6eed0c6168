"""Every definition in the package is reached from a real entry point.

A name-level reachability scan over ``src/asdimforge/*.py``, with the
standard library's ``ast`` only.  The roots are:

- the package's module-level and class-level code (imports excepted: a
  re-export is not a use);
- the ``cmd_*`` command handlers;
- the acceptance gates, ``perfbench/*.py`` and ``tools/*.py``, including
  the dotted names they spell out as strings (the tracer looks its
  targets up with ``getattr``).

From there every name that reached code loads, as a bare name or as an
attribute, reaches every definition of that name, whatever its module or
class; a reached function's body reaches on.  An attribute read off a
module that an ``import`` statement binds from outside the package
(``json.dumps``, ``os.path.join``) names that module's definition, and
reaches none of the package's.  Dunder methods are reached
with their class.  The test asserts that every top-level function and
class, and every other method, is reached: an API that nothing calls
fails here, and a test alone does not count as a caller.

A second check keeps each module's private names its own: no package
module imports an underscore-prefixed name from another.  Test files
are not scanned.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import NamedTuple

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "asdimforge"
EXTERNAL_ROOTS = [REPO / "tests" / "test_acceptance.py",
                  *sorted((REPO / "perfbench").glob("*.py")),
                  *sorted((REPO / "tools").glob("*.py"))]

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def foreign_modules(tree: ast.AST) -> set[str]:
    """The names that ``import`` statements bind to modules from outside
    the package."""
    return {alias.asname or alias.name.split(".")[0]
            for sub in ast.walk(tree) if isinstance(sub, ast.Import)
            for alias in sub.names if alias.name.split(".")[0] != "asdimforge"}


def _loaded_names(nodes, foreign: set[str]) -> set[str]:
    """Bare names and attribute names that the code loads, less the
    attributes read off a ``foreign`` module name."""
    out: set[str] = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                root = sub.value
                while isinstance(root, ast.Attribute):
                    root = root.value
                if not (isinstance(root, ast.Name) and root.id in foreign):
                    out.add(sub.attr)
    return out


def _spelled_names(tree: ast.AST) -> set[str]:
    """The parts of string constants that spell a dotted identifier."""
    out: set[str] = set()
    for sub in ast.walk(tree):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            parts = sub.value.split(".")
            if all(p.isidentifier() for p in parts):
                out.update(parts)
    return out


def _header(node) -> list:
    """What a def or class statement evaluates where it stands."""
    parts = list(node.decorator_list)
    if isinstance(node, ast.ClassDef):
        parts += node.bases + [k.value for k in node.keywords]
    else:
        parts += node.args.defaults + [d for d in node.args.kw_defaults if d is not None]
    return parts


class _Definition(NamedTuple):
    label: str
    name: str
    body: list  # nodes whose loaded names the definition reaches
    foreign: set[str]  # its module's names for modules outside the package


def scan_package():
    """All definitions, plus the names the package's own roots load."""
    definitions: list[_Definition] = []
    roots: set[str] = set()
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        tree = ast.parse(path.read_text(encoding="utf-8"))
        foreign = foreign_modules(tree)
        for stmt in tree.body:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(stmt, FUNCTIONS):
                roots |= _loaded_names(_header(stmt), foreign)
                definitions.append(_Definition(f"{module}.{stmt.name}", stmt.name,
                                               stmt.body + [stmt.args], foreign))
                if stmt.name.startswith("cmd_"):
                    roots.add(stmt.name)
            elif isinstance(stmt, ast.ClassDef):
                roots |= _loaded_names(_header(stmt), foreign)
                class_body = []
                for item in stmt.body:
                    if isinstance(item, FUNCTIONS):
                        roots |= _loaded_names(_header(item), foreign)
                        if _is_dunder(item.name):
                            class_body += item.body + [item.args]
                        else:
                            definitions.append(_Definition(
                                f"{module}.{stmt.name}.{item.name}", item.name,
                                item.body + [item.args], foreign))
                    else:
                        roots |= _loaded_names([item], foreign)
                definitions.append(_Definition(f"{module}.{stmt.name}", stmt.name,
                                               class_body, foreign))
            else:
                roots |= _loaded_names([stmt], foreign)
    return definitions, roots


def external_roots() -> set[str]:
    names: set[str] = set()
    for path in EXTERNAL_ROOTS:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names |= _loaded_names([tree], foreign_modules(tree)) | _spelled_names(tree)
    return names


def unreached() -> list[str]:
    definitions, reached = scan_package()
    reached |= external_roots()
    pending = list(definitions)
    while True:
        hits = [d for d in pending if d.name in reached]
        if not hits:
            break
        for d in hits:
            pending.remove(d)
            reached |= _loaded_names(d.body, d.foreign)
    return sorted(d.label for d in pending)


def test_scan_sees_the_package_and_its_roots():
    definitions, roots = scan_package()
    labels = {d.label for d in definitions}
    assert {"cli.cmd_build", "cli.main", "theorem.run_certificate",
            "graphs.FiniteGraph.distances_to_set", "amalgam.BuildResult"} <= labels
    # dunders ride with their class and are not listed on their own
    assert not any(_is_dunder(label.rsplit(".", 1)[1]) for label in labels)
    assert "main" in roots  # cli's ``__main__`` guard
    assert {"run_certificate", "FiniteGraph", "distances_from"} <= external_roots()


def test_attributes_of_foreign_modules_reach_nothing():
    tree = ast.parse("import json\nimport os.path\nimport importlib.util as iu\n"
                     "import asdimforge as af\nfrom asdimforge import jsonio\n"
                     "json.dumps(x)\nos.path.join(a)\niu.find_spec(b)\n"
                     "af.jsonio.dump(v)\njsonio.write_json(p)\njson.loads(s).get(k)\n")
    foreign = foreign_modules(tree)
    assert foreign == {"json", "os", "iu"}
    names = _loaded_names([tree], foreign)
    assert {"dump", "write_json", "get", "jsonio", "json"} <= names
    assert not {"dumps", "loads", "path", "join", "find_spec"} & names


def test_every_definition_is_reached():
    missing = unreached()
    assert not missing, "defined but reached from no entry point: " + ", ".join(missing)


def private_imports() -> list[str]:
    """``module: name`` for each underscore-prefixed name that a package
    module imports from another package module."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("asdimforge"):
                continue
            found += [f"{path.stem}: {a.name}" for a in node.names
                      if a.name.startswith("_")]
    return found


def test_no_module_imports_a_private_name():
    found = private_imports()
    assert not found, "private names imported across modules: " + ", ".join(found)

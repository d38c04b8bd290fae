"""No package code that only tests reach, or that nothing reaches.

Every module-level function, class and constant under ``src/holoscreen``,
public or private, and every method other than a dunder, must be
referenced somewhere in the package outside its own definition.  A
reference is a name or an attribute access, matched by name alone, so a
method counts as reached when any object's attribute of that name is
read.  Imports and ``__all__`` entries are not references: a name that is
only exported is still unreached.  Every name a module lists in
``__all__`` must resolve in that module.
"""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "holoscreen"

# Entry points that no package code calls.  Each must be named in scripts/
# or perfbench/, or in the README; the test checks that it is.
ALLOWED = {
    "save_group": "scripts/gen_corpora.py writes each corpus file with it",
    "regular_generators": "scripts/gen_corpora.py builds permutation "
                          "generators with it",
    "write_index": "scripts/gen_corpora.py writes each index.txt with it",
    "HAVE_COMPILED": "perfbench/worker.py reads it; it goes together with "
                     "perfbench's backend comparison",
}


def is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def definitions(tree):
    """(qualified name, bare name, node) of each module-level function,
    class and constant, and of each method that is not a dunder."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and not is_dunder(target.id):
                    yield target.id, target.id, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not is_dunder(item.name)):
                    yield f"{node.name}.{item.name}", item.name, item


def references(tree):
    """(name, line) of every name and attribute read or written."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def unreached():
    trees = {path: ast.parse(path.read_text())
             for path in sorted(PACKAGE.rglob("*.py"))}
    refs = {path: list(references(tree)) for path, tree in trees.items()}
    out = []
    for path, tree in trees.items():
        for qualname, name, node in definitions(tree):
            reached = any(
                ref == name and not (other == path
                                     and node.lineno <= line <= node.end_lineno)
                for other, found in refs.items() for ref, line in found)
            if not reached:
                out.append(qualname)
    return out


def test_every_public_definition_is_reached_in_the_package():
    assert sorted(set(unreached()) - set(ALLOWED)) == []


def test_allowed_names_are_entry_points():
    scripts = "".join(path.read_text()
                      for folder in ("scripts", "perfbench")
                      for path in sorted((ROOT / folder).glob("*.py")))
    readme = (ROOT / "README.md").read_text()
    for name in ALLOWED:
        assert (re.search(rf"\b{name}\b", scripts)
                or f"`{name}`" in readme), name
    # An allowed name that the package reaches after all is stale.
    assert sorted(set(ALLOWED) - set(unreached())) == []


def test_every_all_entry_resolves():
    checked = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        module = importlib.import_module(".".join(parts))
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), (module.__name__, name)
            checked += 1
    assert checked

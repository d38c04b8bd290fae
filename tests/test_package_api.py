"""No package API that only tests reach.

Every public function, class and method under ``src/holoscreen`` must be
referenced somewhere in the package outside its own definition.  A
reference is a name or an attribute access, matched by name alone, so a
method counts as reached when any object's attribute of that name is
read.  Imports and ``__all__`` entries are not references: a name that is
only exported is still unreached.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "holoscreen"

# Entry points that no package code calls.  Each must be called from
# scripts/ or named in the README; the test checks that it is.
ALLOWED = {
    "save_group": "scripts/gen_corpora.py writes each corpus file with it",
    "regular_generators": "scripts/gen_corpora.py builds permutation "
                          "generators with it",
    "write_index": "scripts/gen_corpora.py writes each index.txt with it",
    "has_regular_embedding": "the README's second exact search, which the "
                             "tests hold against enumeration",
    "pair_test": "the README's per-pair screening entry point",
    "nonsolvable_orders_up_to": "an arithmetic helper the README lists "
                                "under library use",
    "gl_is_solvable": "an arithmetic helper the README lists under "
                      "library use",
    "mersenne_gcd_property": "an arithmetic helper the README lists under "
                             "library use",
}


def definitions(tree):
    """(qualified name, bare name, node) of each module-level function and
    class, and of each method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
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
            if name.startswith("_"):
                continue
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
                      for path in sorted((ROOT / "scripts").glob("*.py")))
    readme = (ROOT / "README.md").read_text()
    for name in ALLOWED:
        assert (re.search(rf"\b{name}\b", scripts)
                or f"`{name}`" in readme), name
    # An allowed name that the package reaches after all is stale.
    assert sorted(set(ALLOWED) - set(unreached())) == []

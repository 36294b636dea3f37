"""Package surface: every public member has a caller inside the package.

The scan parses `src/dwpt_auth/*.py` with `ast` and collects the public
top-level functions and classes and the public methods and properties of
those classes.  A member passes when some Name, Attribute or ImportFrom
node of the package names it (so `__init__`'s imports keep every export),
or when `KEPT` lists it with the reason it stays.  A member only the test
suite calls fails: delete it, or keep it on purpose in `KEPT`.

The match is by name, not by binding, so a name that another member, a
local variable or an attribute also uses hides an unused member.  That is
how `RingElement.scale`, `RandomSource.uniform` and `HashChain.n_pads` went
unflagged before they were deleted: `scale` is a local in `ntrusolve`,
`uniform` an attribute of `ring.GaussianTrials`, and `n_pads` a parameter
name throughout.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "dwpt_auth"

#: Public members with no caller in the package, kept on purpose.
KEPT = {
    "below": "RandomSource.below: gate 7 draws its pad indices with it",
    "value_for_pad": "HashChain.value_for_pad: gate 7 checks the EV's chain against it",
    "position": "RandomSource.position: the byte-accounting tests read the stream offset",
    "load_dataset": "keyfiles.load_dataset: reads the file `export-dataset` writes",
}


def _public(name: str) -> bool:
    return not name.startswith("_")


def members(tree: ast.Module) -> list[str]:
    """Qualified names of the public top-level functions and classes, and of
    the public methods and properties of those classes."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _public(node.name):
            out.append(node.name)
        if isinstance(node, ast.ClassDef) and _public(node.name):
            out += [
                f"{node.name}.{item.name}"
                for item in node.body
                if isinstance(item, ast.FunctionDef) and _public(item.name)
            ]
    return out


def references(tree: ast.Module) -> set[str]:
    """Every name that a Name, Attribute or ImportFrom node uses."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def package_trees() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def test_every_public_member_has_a_caller():
    trees = package_trees()
    used = set().union(*(references(tree) for tree in trees.values()), KEPT)
    unused = [
        f"{module}:{member}"
        for module, tree in trees.items()
        for member in members(tree)
        if member.rsplit(".", 1)[-1] not in used
    ]
    assert unused == []


def test_kept_members_exist():
    trees = package_trees().values()
    assert set(KEPT) <= {m.rsplit(".", 1)[-1] for tree in trees for m in members(tree)}

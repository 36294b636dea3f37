"""Package surface: every public member has a caller inside the package, and
no private name is used outside its own module.

The scan parses `src/dwpt_auth/*.py` with `ast` and collects the public
top-level functions and classes and the public methods and properties of
those classes.  A member passes when some Name, Attribute or ImportFrom
node of the package names it (so `__init__`'s imports keep every export),
or when `KEPT` lists it with the reason it stays.  A member only the test
suite calls fails: delete it, or keep it on purpose in `KEPT`, which lists
only members that no package code names.

The match is by name, not by binding, so a name that another member, a
local variable or an attribute also uses hides an unused member.  That is
how `RingElement.scale`, `RandomSource.uniform` and `HashChain.n_pads` went
unflagged before they were deleted: `scale` is a local in `ntrusolve`,
`uniform` an attribute of `ring.GaussianTrials`, and `n_pads` a parameter
name throughout.
"""

import ast
import functools
import importlib
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "dwpt_auth"
TRACER = PACKAGE.parents[1] / "bench" / "tracer.py"

#: Public members with no caller in the package, kept on purpose.
KEPT = {
    "below": "RandomSource.below: gate 7 draws its pad indices with it",
    "position": "RandomSource.position: the byte-accounting tests read the stream offset",
    "load_dataset": "keyfiles.load_dataset: reads the file `export-dataset` writes",
    "cspa_identity": "RegistrationAuthority.cspa_identity: the benchmark extracts the operator "
    "key with it; `ra_setup`'s parameter of that name hid it here before",
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


@functools.cache
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


def test_kept_members_have_no_caller():
    """A member that the package names needs no `KEPT` entry, so an entry
    that outlives the member's last missing caller fails here."""
    used = set().union(*(references(tree) for tree in package_trees().values()))
    assert sorted(used & KEPT.keys()) == []


def test_no_private_cross_module_imports():
    """No module imports an underscore name from another package module, nor
    reads one off a package module it imported: a private name has callers
    in its own module only."""
    breaches = []
    for module, tree in package_trees().items():
        imported, reads = set(), []
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("dwpt_auth"):
                imported.update(alias.asname or alias.name for alias in node.names)
                breaches += [f"{module}: {node.module}.{alias.name}"
                             for alias in node.names if alias.name.startswith("_")]
            elif (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                    and isinstance(node.value, ast.Name)):
                reads.append(f"{node.value.id}.{node.attr}")
        breaches += [f"{module}: {read}" for read in reads if read.split(".")[0] in imported]
    assert breaches == []


def test_argparse_checks_no_value():
    """No `add_argument` call in `cli.py` passes `type=` or `choices=`:
    argparse only collects text, and `cli._setting` and `cli._check` cast
    and check every value, so a bad one is a single `error:` line and not
    argparse's usage block."""
    calls = [
        f"line {node.lineno}: {keyword.arg}="
        for node in ast.walk(package_trees()["cli.py"])
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "add_argument"
        for keyword in node.keywords
        if keyword.arg in ("type", "choices")
    ]
    assert calls == []


def test_import_leaves_the_aead_binding_unloaded():
    """Importing the package does not load `cryptography`'s compiled binding
    (about 6 MB of memory, which set-up and enrollment never use); the first
    AEAD seal and open load it."""
    script = """
import sys
import dwpt_auth
from dwpt_auth.rng import RandomSource
from dwpt_auth.symcrypto import SymmetricKey, aead_open, aead_seal
binding = "cryptography.hazmat.bindings._rust"
assert binding not in sys.modules, "imported with the package"
key = SymmetricKey(bytes(range(32)), "session")
assert aead_open(key, aead_seal(key, b"payload", RandomSource("guard"))) == b"payload"
assert binding in sys.modules, "not loaded by seal and open"
"""
    result = subprocess.run(
        [sys.executable, "-c", script], cwd=PACKAGE.parent, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr


def test_benchmark_spans_resolve():
    """Every function the benchmark's tracer wraps exists in the package
    under the module and qualified name that `bench/tracer.py`'s SPANS
    give: a renamed or moved one would crash a traced run where the tracer
    installs its wrappers, and silence the span that its coverage test
    expects.  SPANS is read from the file's source, not imported."""
    (spans,) = [
        ast.literal_eval(node.value)
        for node in ast.parse(TRACER.read_text()).body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["SPANS"]
    ]
    missing = []
    for _, module, qualname, _ in spans:
        target = importlib.import_module(module)
        for part in qualname.split("."):
            target = getattr(target, part, None)
        if not callable(target):
            missing.append(f"{module}.{qualname}")
    assert spans and missing == []

"""Package surface: every public member has a caller inside the package, and
no private name is used outside its own module.

The scan parses `src/dwpt_auth/*.py` with `ast` and collects the public
top-level functions and classes and the public methods and properties of
those classes.  A member passes when some Name, Attribute or ImportFrom
node of a package module other than `__init__` names it, or when `KEPT`
lists it with the reason it stays: a re-export is not a caller, and every
other import must be used (`test_every_import_is_used`).  A member only the
test suite calls fails: delete it, or keep it on purpose in `KEPT`, which
lists only members that no package code names.

The match is by name, not by binding, so a name that another member, a
local variable or an attribute also uses hides an unused member.  That is
how `RingElement.scale`, `RandomSource.uniform` and `HashChain.n_pads` went
unflagged before they were deleted: `scale` is a local in `ntrusolve`,
`uniform` an attribute of `ring.GaussianTrials`, and `n_pads` a parameter
name throughout.

A second scan asks the same of state: every attribute a package class
stores, by `self.x = ...` or as a dataclass or NamedTuple field, is loaded
as data somewhere in the package, or `UNREAD` lists it with its reason.
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
    "sign": "ibe.sign: gate 4 checks that honest signatures verify",
    "verify": "ibe.verify: gate 4 checks that a mutated message does not verify",
    "storage_estimate": "registration.storage_estimate: gate 3's fleet storage anchor",
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


def caller_references() -> set[str]:
    """The names every package module but `__init__` uses; `__init__` only
    re-exports, and a re-export is not a caller."""
    trees = package_trees()
    return set().union(*(references(tree) for module, tree in trees.items()
                         if module != "__init__.py"))


def test_every_public_member_has_a_caller():
    used = caller_references() | KEPT.keys()
    unused = [
        f"{module}:{member}"
        for module, tree in package_trees().items()
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
    assert sorted(caller_references() & KEPT.keys()) == []


def test_every_import_is_used():
    """Every name a package module imports at top level is used in that
    module.  `__init__`, whose imports are the public surface, and
    `__future__` imports are exempt."""
    unused = []
    for module, tree in package_trees().items():
        if module == "__init__.py":
            continue
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        imports = [node for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
                   and getattr(node, "module", None) != "__future__"]
        for node in imports:
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in names:
                    unused.append(f"{module}:{node.lineno} {bound}")
    assert unused == []


#: Stored attributes that no package code loads, kept on purpose.
UNREAD = {
    "detail": "ProtocolRejection.detail: the exception's detail, for callers",
    "target": "AdversaryAction.target: serialized through `vars` in `to_json`",
}


def _is_record(node: ast.ClassDef) -> bool:
    """A dataclass or a NamedTuple, whose annotated body names are fields."""
    names = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    names += node.bases
    return any(getattr(n, "id", getattr(n, "attr", None)) in ("dataclass", "NamedTuple")
               for n in names)


def stored_attributes(tree: ast.Module) -> list[str]:
    """Class.attr for every `self.attr = ...` in a class's methods and every
    field of a dataclass or NamedTuple."""
    out = []
    for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
        if _is_record(cls):
            out += [f"{cls.name}.{item.target.id}" for item in cls.body
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]
        out += [f"{cls.name}.{node.attr}" for node in ast.walk(cls)
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name) and node.value.id == "self"]
    return out


def loaded_attributes(tree: ast.Module) -> set[str]:
    """Every attribute name loaded as data: an `Attribute` load that is not
    the function of a call."""
    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    return {
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        and id(node) not in called
    }


def test_every_stored_attribute_is_read():
    """Every attribute a package class stores is read somewhere in the
    package, or `UNREAD` lists it with its reason: a value stored and
    never read is state that only looks used.  Matched by name, as
    `KEPT` is."""
    trees = package_trees()
    loaded = set().union(*(loaded_attributes(tree) for tree in trees.values()), UNREAD)
    unread = sorted({
        f"{module}:{attr}"
        for module, tree in trees.items()
        for attr in stored_attributes(tree)
        if attr.rsplit(".", 1)[-1] not in loaded
    })
    assert unread == []


def test_unread_attributes_are_stored_and_unread():
    """Each `UNREAD` entry names a stored attribute that the package still
    does not load, so an entry outlives neither."""
    stored = {a for tree in package_trees().values() for a in stored_attributes(tree)}
    loaded = set().union(*(loaded_attributes(tree) for tree in package_trees().values()))
    assert {a.rsplit(".", 1)[-1] for a in stored} >= UNREAD.keys()
    assert sorted(loaded & UNREAD.keys()) == []


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

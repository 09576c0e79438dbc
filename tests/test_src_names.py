"""Every top-level name in src/qsgames is named by other code in src/.

A function, class or assignment at the top of a module that nothing
else in the package names runs only in its own tests, so it belongs
next to them (see tests/oracles.py and tests/oram_reference.py) or
nowhere.  The exceptions are the names the acceptance suite, the
benchmark harness or the package metadata reach from outside; each is
listed with its reason, and an entry fails once its name is gone or
src/ names it again, so the list cannot go stale.

Attributes and methods are not top-level names, so
`ClientState.stash_history`, `ClientState.leaf_log` and
`QuantumBlock.digest` need no entry.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qsgames"

ACCEPTANCE = "tests/test_acceptance.py uses it"
ALLOWED = {
    "__init__.__version__": "package version",
    "fiatshamir.TOY_GROUP": ACCEPTANCE,
    "fiatshamir.run_honest": ACCEPTANCE,
    "fiatshamir.semi_constant_oracle": ACCEPTANCE,
    "fiatshamir.special_soundness_extract": ACCEPTANCE,
    "oram.diff_nodes": ACCEPTANCE,
    "qoram.QuantumDataRequest": ACCEPTANCE + ", and perfbench/sweep.py imports it",
    "qscheme.PkqesScheme": "the public-key quantum scheme README documents; tests/test_qscheme.py runs it",
    "quantum.avg_perm_channel": ACCEPTANCE,
    "quantum.avg_perm_channel_sampled": ACCEPTANCE,
    "quantum.maximally_mixed": ACCEPTANCE,
    "quantum.trace_distance": ACCEPTANCE,
    "quantum.type1_from_type2": ACCEPTANCE,
    "quantum.type2_from_type1": ACCEPTANCE,
    "rng.dlog_bruteforce": "perfbench/sweep.py times it as sweep.dlog_ms",
}


def _bound_names(node) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _name_of(node) -> str | None:
    """The name a node refers to: a load, an attribute access or an import."""
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name
    return None


def scan() -> tuple[dict[str, str], dict[str, str]]:
    """(every top-level name, the unreferenced ones), each as
    module.name -> file:line.  A name is referenced when some node of
    the package outside its own definition names it."""
    trees = {path: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))}
    refs: dict[str, set[int]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            name = _name_of(node)
            if name is not None:
                refs.setdefault(name, set()).add(id(node))
    defined, unreferenced = {}, {}
    for path, tree in trees.items():
        for node in tree.body:
            own = {id(n) for n in ast.walk(node)}
            for name in _bound_names(node):
                key, where = f"{path.stem}.{name}", f"src/qsgames/{path.name}:{node.lineno}"
                defined[key] = where
                if not refs.get(name, set()) - own:
                    unreferenced[key] = where
    return defined, unreferenced


DEFINED, UNREFERENCED = scan()


def test_every_top_level_name_is_named_in_src():
    stray = [f"{where}: {key} is named nowhere else in src/qsgames"
             for key, where in sorted(UNREFERENCED.items()) if key not in ALLOWED]
    assert not stray, "\n".join(stray)


def test_every_allowed_name_exists_and_is_still_unreferenced():
    gone = [f"{key}: no longer defined" for key in ALLOWED if key not in DEFINED]
    named = [f"{DEFINED[key]}: {key} is named in src/ now" for key in ALLOWED
             if key in DEFINED and key not in UNREFERENCED]
    assert not gone + named, "\n".join(gone + named)

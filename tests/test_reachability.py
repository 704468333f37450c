"""Every public function or class of the package has a caller outside the
tests, or is on the allowlist with the paper claim or test oracle it serves.

A name counts as used when some package module, or the acceptance gate
`tests/test_acceptance.py`, reads it.  A `Name` counts by binding: only in
the module that defines it, or in a module that imports it from there, so
a parameter or local of the same spelling elsewhere is not a use.  An
`Attribute` counts by spelling.  A mention in a docstring, in `__all__` or
in an import alone does not count.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fractalforms"

# name -> the claim it checks or the reference tests compare against
ALLOWED = {
    "point_of": "exact vertex coordinates of an address word, the reference "
    "the vertex graph's integer coordinates are compared against",
    "canonical_address": "the smallest word addressing a vertex, the reference "
    "for the graph's addresses and the corner table",
    "sg_vertex_corner_resistance": "the gasket's vertex-to-corner resistance, "
    "compared with its closed form in the resistance tests",
    "x_profile_energy_level1": "the level-1 energy of the profile f, whose "
    "minimum 6/7 sits at (f(1/3), f(2/3)) = (2/7, 5/7)",
    "holder_constant": "the Holder estimate |u(p)-u(q)|^2 <= C E(u) |p-q|^(beta-alpha)",
    "rho_a": "the visual metric on the tree's boundary at infinity",
    "martin_kernel_check": "the Martin kernel comparison "
    "K(x, xi) ~ lam^|x| (3/lam)^(x|xi)",
    "detailed_balance_residual": "that the walk is reversible, so its "
    "conductances define the tree's Dirichlet form",
    "Cache": "no subcommand reads or writes the graph cache any more; it is "
    "kept only because the benchmark harness passes --cache and wraps "
    "Cache.get and Cache.put, until that harness stops and the cache goes",
}


def _trees():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))
    acceptance = ROOT / "tests" / "test_acceptance.py"
    yield acceptance, ast.parse(acceptance.read_text(), filename=str(acceptance))


def _public_definitions() -> dict:
    defined = {}
    for path, tree in _trees():
        if path.parent != PACKAGE:
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    defined[node.name] = path.stem
    return defined


def _imports(tree) -> dict:
    """Local name -> (package module, name there) for each `from` import
    out of the package."""
    bound = {}
    for node in ast.walk(tree):
        module = getattr(node, "module", None) or ""
        if isinstance(node, ast.ImportFrom) and (node.level or module.startswith("fractalforms")):
            module = module.rpartition(".")[2]
            for alias in node.names:
                bound[alias.asname or alias.name] = (module, alias.name)
    return bound


def _used_names(defined: dict) -> set:
    used = set()
    for path, tree in _trees():
        bound = _imports(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Name):
                module, name = bound.get(node.id, (path.stem, node.id))
                if defined.get(name) == module:
                    used.add(name)
    return used


def test_every_public_name_has_a_caller_or_a_claim():
    defined = _public_definitions()
    used = _used_names(defined)
    unused = {name: module for name, module in defined.items() if name not in used}
    unreached = sorted(f"{module}: {name}" for name, module in unused.items() if name not in ALLOWED)
    assert not unreached, (
        "reached only from tests; give each a run or delete it: " + ", ".join(unreached)
    )
    stale = sorted(set(ALLOWED) - set(unused))
    assert not stale, "allowed but now used or gone; drop from ALLOWED: " + ", ".join(stale)


import ast
from pathlib import Path

import qknot

# Top-level names that nothing in the package uses, each with why it stays.
# A helper that only tests use belongs in tests/, not on this list.
KEEP = {
    "braid.markov_moves": "documented API: the moves of the invariance tests",
    "deformed_burau.check_right_quantum": "documented API: the relations that make rho right-quantum",
    "exactpoly.laurent_divmod": "documented API: division by a divisor of leading coefficient ±1",
    "kashaev.kashaev_series": "documented API: the Kashaev series of a braid",
    "kashaev.mahler_measure": "documented API: the Mahler measure of an Alexander polynomial",
    "verma_oracle.apply_braiding": "benchmark tracer target; it calls braiding_coeff, q_int_binom, _gauss_binom_std",
}


def _unused_top_level_names() -> set[str]:
    """module.name of each top-level function or class of the package whose
    name occurs nowhere in the package outside its own definition (matched by
    name, as a variable or an attribute; imports alone do not count)."""
    defs, refs = {}, []
    for path in sorted(Path(qknot.__file__).resolve().parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs[f"{path.stem}.{node.name}"] = (path.stem, node)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)):
                refs.append((path.stem, node.id if isinstance(node, ast.Name) else node.attr, node.lineno))
    return {
        key
        for key, (module, node) in defs.items()
        if not any(
            name == node.name and not (mod == module and node.lineno <= line <= node.end_lineno)
            for mod, name, line in refs
        )
    }


def test_every_top_level_name_is_used_exported_or_kept():
    unused = {key for key in _unused_top_level_names() if key.split(".")[1] not in qknot.__all__}
    # equality: no name lacks a use or a reason, and no reason is stale
    assert unused == set(KEEP)

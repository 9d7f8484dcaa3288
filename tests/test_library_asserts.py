"""A ratchet on `assert` statements in the library.

`python -O` strips asserts, so no library invariant may rest on one.  The
asserts that remain are listed here by function, with their count; a new
assert, or one more in a listed function, fails this test, and so does a
listed one that is gone, so the list only ever shrinks.
"""

import ast
from pathlib import Path

import cocenter

REMAINING_ASSERTS = {
    "oracles.left_coset_reps_diag_p": 4,
    "saturation.sat_prime_member": 1,
    "saturation.product_rule_check": 1,
}


def _asserts_by_function(path):
    counts = {}

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                walk(child, scope + [child.name])
                continue
            if isinstance(child, ast.Assert):
                name = ".".join([path.stem] + scope)
                counts[name] = counts.get(name, 0) + 1
            walk(child, scope)

    walk(ast.parse(path.read_text()), [])
    return counts


def test_library_asserts_only_shrink():
    found = {}
    for path in sorted(Path(cocenter.__file__).parent.glob("*.py")):
        found.update(_asserts_by_function(path))
    new = {k: v for k, v in found.items() if v > REMAINING_ASSERTS.get(k, 0)}
    assert not new, f"raise an exception instead of asserting in {new}"
    gone = {k: v for k, v in REMAINING_ASSERTS.items() if found.get(k, 0) < v}
    assert not gone, f"shrink REMAINING_ASSERTS: {gone} now hold fewer asserts"

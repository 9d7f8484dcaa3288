"""Ratchets on `assert` statements and on memos in the library.

`python -O` strips asserts, so no library invariant may rest on one.  The
asserts that remain are listed here by function, with their count; a new
assert, or one more in a listed function, fails this test, and so does a
listed one that is gone, so the list only ever shrinks.  It is empty: every
former assert is an explicit raise, and a test below trips each one.  No
memo may outlive a call either, so module-level caches are refused.  A
label becomes a QMat only for JSON and the unflagged orbital path, and
the measures do not take the modulus twist through `modulus_lambda`.  One
function, `matrices.det_int`, runs Bareiss elimination, and one,
`matrices.mat_mul`, forms integer products (beside the block diagonal
`BlockParabolic.levi_product`).  The CLI names
none of the pieces of an identity that a library checker computes.  No
library name that the traced benchmark wraps or its workloads call may
disappear or change its call shape unnoticed.  And every library function
or class has a caller in the library, is pinned by the benchmark, or is
listed with its reason.
"""

import ast
import importlib
import importlib.util
import inspect
from collections import Counter
from pathlib import Path

import pytest

import cocenter
from cocenter.oracles import left_coset_reps_diag_p
from cocenter.saturation import (
    ConstructibleSet,
    CurveWitness,
    MPoly,
    product_rule_check,
    sat_prime_member,
)

REMAINING_ASSERTS = {}

LIBRARY = sorted(Path(cocenter.__file__).parent.glob("*.py"))


def _scoped_nodes(path):
    """(module.scope, node) for every node of a module but the function and
    class definitions, scope being the dotted names of the functions and
    classes around the node."""

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from walk(child, f"{scope}.{child.name}")
                continue
            yield scope, child
            yield from walk(child, scope)

    return walk(ast.parse(path.read_text()), path.stem)


def _scan_library(scan):
    """{module: scan(path)} for each library module where the scan finds something."""
    return {path.stem: found for path in LIBRARY if (found := scan(path))}


def _asserts_by_function(path):
    return Counter(where for where, node in _scoped_nodes(path) if isinstance(node, ast.Assert))


def test_library_asserts_only_shrink(tmp_path):
    """The library holds no more asserts than REMAINING_ASSERTS lists, and
    no fewer.  The scan itself is checked on a sample module."""
    found = {}
    for counts in _scan_library(_asserts_by_function).values():
        found.update(counts)
    new = {k: v for k, v in found.items() if v > REMAINING_ASSERTS.get(k, 0)}
    assert not new, f"raise an exception instead of asserting in {new}"
    gone = {k: v for k, v in REMAINING_ASSERTS.items() if found.get(k, 0) < v}
    assert not gone, f"shrink REMAINING_ASSERTS: {gone} now hold fewer asserts"
    sample = tmp_path / "sample.py"
    sample.write_text("assert True\ndef f(x):\n    assert x\n    assert not x\n"
                      "class C:\n    def g(self):\n        assert self\n")
    assert _asserts_by_function(sample) == {"sample": 1, "sample.f": 2, "sample.C.g": 1}


def test_coset_reps_checks_raise(monkeypatch):
    """Each certificate of `left_coset_reps_diag_p` raises when it fails:
    forced valuations break integrality, the determinant valuation and the
    nonvanishing mod p in turn, and a forced K_0 membership merges cosets."""
    for value, match in ((-1, "not integral"), (0, "valuation 1"), (1, "vanishes mod")):
        with monkeypatch.context() as patch:
            patch.setattr("cocenter.oracles.padic_valuation", lambda x, p, v=value: v)
            with pytest.raises(RuntimeError, match=match):
                left_coset_reps_diag_p(2)
    with monkeypatch.context() as patch:
        patch.setattr("cocenter.oracles.gln_zp_membership", lambda g, p: True)
        with pytest.raises(RuntimeError, match="one left K_0 coset"):
            left_coset_reps_diag_p(2)
    assert len(left_coset_reps_diag_p(3)) == 4


def test_saturation_checks_raise(monkeypatch):
    """The re-verification of a member point's constant curve and the common
    puncture of the product rule raise when they fail."""
    punctured = ConstructibleSet.inequation(MPoly.variable(1, 0))
    with monkeypatch.context() as patch:
        patch.setattr("cocenter.saturation.verify_witness", lambda w, target: False)
        with pytest.raises(RuntimeError, match="fails verification"):
            sat_prime_member(punctured, (1,))
    off_zero = CurveWitness(((1, 1),), 1)
    with monkeypatch.context() as patch:
        patch.setattr("cocenter.saturation.sat_prime_member", lambda *args: off_zero)
        with pytest.raises(RuntimeError, match="not punctured at t = 0"):
            product_rule_check(punctured, punctured, (1,), (1,))
    assert product_rule_check(punctured, punctured, (0,), (0,))[0]


def _module_level_caches(path):
    """Module-level names ending in _CACHE, and functools memo decorators."""
    tree = ast.parse(path.read_text())
    found = []
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        found += [t.id for t in targets if isinstance(t, ast.Name) and t.id.endswith("_CACHE")]
    for node in ast.walk(tree):
        for deco in getattr(node, "decorator_list", []):
            call = deco.func if isinstance(deco, ast.Call) else deco
            name = call.attr if isinstance(call, ast.Attribute) else getattr(call, "id", "")
            if name in ("cache", "lru_cache"):
                found.append(f"{node.name} (@{name})")
    return found


def test_no_memo_outlives_a_call(tmp_path):
    """No module-level cache and no functools.cache or lru_cache in the
    library: a memo that outlives a call grows without bound and answers
    from state a guard never saw.  Per-instance cached_property stays.
    The scan itself is checked on a module that holds each kind."""
    found = _scan_library(_module_level_caches)
    assert not found, f"module-level memos in {found}"
    sample = tmp_path / "sample.py"
    sample.write_text(
        "import functools\nfrom functools import cache, cached_property\n"
        "_SEEN_CACHE = {}\nTABLE_CACHE: dict = {}\n"
        "@functools.lru_cache(maxsize=None)\ndef f(x):\n    return x\n"
        "@cache\ndef g(x):\n    return x\n"
        "class C:\n    @cached_property\n    def h(self):\n        return 1\n"
    )
    assert _module_level_caches(sample) == [
        "_SEEN_CACHE", "TABLE_CACHE", "f (@lru_cache)", "g (@cache)"
    ]


LABEL_MATRIX_READERS = {"measures.measure_to_jsonable"}


def _qmat_label_reads(path):
    """(module.scope, name) for each read of `label_matrix` outside
    LABEL_MATRIX_READERS, and of `modulus_lambda` in `measures` or
    `characters`: called, passed on or reached as an attribute."""
    found = set()
    for where, node in _scoped_nodes(path):
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute) else None)
        if (name == "label_matrix" and where not in LABEL_MATRIX_READERS
                or name == "modulus_lambda" and path.stem in ("measures", "characters")):
            found.add((where, name))
    return sorted(found)


def test_labels_become_qmats_only_for_json(tmp_path):
    """Conjugation, the modulus twist and orbital integrals act on integer
    labels: no library function but `measure_to_jsonable` reads
    `label_matrix`, and neither `measures` nor `characters` reads
    `modulus_lambda`.  The scan itself is checked on a sample module."""
    found = _scan_library(_qmat_label_reads)
    assert not found, f"labels made QMats outside JSON: {found}"
    sample = tmp_path / "measures.py"
    sample.write_text(
        "from cocenter import groups\nfrom cocenter.measures import label_matrix\n"
        "def measure_to_jsonable(h):\n    return [label_matrix(x) for x in h]\n"
        "def ad_pullback(h, g):\n    return sorted(h, key=label_matrix)\n"
        "class M:\n    def twist(self, parab, x):\n"
        "        return groups.modulus_lambda(parab, cocenter.measures.label_matrix(x))\n"
    )
    assert _qmat_label_reads(sample) == [
        ("measures.M.twist", "label_matrix"), ("measures.M.twist", "modulus_lambda"),
        ("measures.ad_pullback", "label_matrix"),
    ]


MEMBERSHIP_TESTS = {"groups.BlockParabolic.vanishes"}


def _is_positions_call(node):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "positions")


def _membership_loops(path):
    """module.scope of each `any` or `all` over a comprehension that
    iterates a `.positions(...)` call, or a name the module binds to one
    (also inside a tuple assignment), outside MEMBERSHIP_TESTS."""
    tree = ast.parse(path.read_text())
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                pairs = (zip(target.elts, node.value.elts)
                         if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple)
                         else [(target, node.value)])
                bound |= {t.id for t, v in pairs
                          if isinstance(t, ast.Name) and _is_positions_call(v)}
    found = set()
    for where, node in _scoped_nodes(path):
        if (isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("any", "all")
                and where not in MEMBERSHIP_TESTS):
            iters = [gen.iter for arg in node.args
                     if isinstance(arg, (ast.GeneratorExp, ast.ListComp, ast.SetComp))
                     for gen in arg.generators]
            if any(_is_positions_call(it) or isinstance(it, ast.Name) and it.id in bound
                   for it in iters):
                found.add(where)
    return sorted(found)


def test_membership_is_one_vanishing_test(tmp_path):
    """Whether rows lie in P, M or the torus is decided only by
    `BlockParabolic.vanishes`, which also refuses rows of another size: no
    other library function runs `any` or `all` over the positions of a
    pattern.  The scan itself is checked on a sample module."""
    found = _scan_library(_membership_loops)
    assert not found, f"membership decided outside BlockParabolic.vanishes: {found}"
    sample = tmp_path / "groups.py"
    sample.write_text(
        "class BlockParabolic:\n    def vanishes(self, rows, pattern):\n"
        "        return not any(rows[i][j] for i, j in self.positions(pattern))\n"
        "    def contains(self, g):\n"
        "        return all(g.rows[i][j] == 0 for i, j in self.positions('G/P'))\n"
        "def unit(parab, rows):\n"
        "    zeros, m = parab.positions('G/M'), 2\n"
        "    return [r for r in rows if not any(r[i][j] for i, j in zeros)]\n"
        "def roots(parab):\n"
        "    return [(i, j) for i, j in parab.positions('M') if i != j]\n"
    )
    assert _membership_loops(sample) == ["groups.BlockParabolic.contains", "groups.unit"]


BAREISS_KERNELS = {"matrices.det_int"}


def _bareiss_updates(path):
    """module.scope of each comprehension that iterates a `zip(...)` call
    and holds a floor division, the Bareiss row update, outside
    BAREISS_KERNELS."""
    found = set()
    for where, node in _scoped_nodes(path):
        if (isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.SetComp, ast.DictComp))
                and where not in BAREISS_KERNELS
                and any(isinstance(gen.iter, ast.Call)
                        and getattr(gen.iter.func, "id", None) == "zip"
                        for gen in node.generators)
                and any(isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.FloorDiv)
                        for sub in ast.walk(node))):
            found.add(where)
    return sorted(found)


def test_one_bareiss_kernel(tmp_path):
    """Fraction-free elimination lives in `matrices.det_int` alone: no
    other library function floor-divides inside a comprehension over
    `zip(...)`, the shape of a Bareiss row update.  The scan itself is
    checked on a sample module."""
    found = _scan_library(_bareiss_updates)
    assert not found, f"Bareiss elimination outside matrices.det_int: {found}"
    sample = tmp_path / "matrices.py"
    sample.write_text(
        "def det_int(m, piv, prev):\n"
        "    return [[(piv * x - r[0] * y) // prev for x, y in zip(r, m[0])] for r in m]\n"
        "def halve(rows, p):\n    return [[x // p for x in row] for row in rows]\n"
        "def reduce(col, f, big):\n    return [(x - f * y) % big for x, y in zip(col, col)]\n"
        "class QMat:\n    def det(self, a, b, d):\n"
        "        return sum((x * y) // d for x, y in zip(a, b))\n"
        "def eliminate(m, piv, prev):\n"
        "    return [[(piv * x - f * y) // prev for x, y in zip(r, m[0])] for f, *r in m]\n"
    )
    assert _bareiss_updates(sample) == ["matrices.QMat.det", "matrices.eliminate"]


PRODUCT_KERNELS = {"matrices.mat_mul", "groups.BlockParabolic.levi_product"}


def _row_products(path):
    """module.scope of each `sum(map(mul, ...))`, an integer row times a
    column, outside PRODUCT_KERNELS; `operator.mul` counts as `mul`."""
    found = set()
    for where, node in _scoped_nodes(path):
        if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "sum"
                and node.args and isinstance(node.args[0], ast.Call)
                and getattr(node.args[0].func, "id", None) == "map"
                and node.args[0].args
                and (getattr(node.args[0].args[0], "id", None) == "mul"
                     or getattr(node.args[0].args[0], "attr", None) == "mul")
                and where not in PRODUCT_KERNELS):
            found.add(where)
    return sorted(found)


def test_one_product_kernel(tmp_path):
    """Integer matrix products go through `matrices.mat_mul`: no other
    library function forms `sum(map(mul, row, col))`, except
    `BlockParabolic.levi_product`, which forms only the block diagonal
    entries.  The scan itself is checked on a sample module."""
    found = _scan_library(_row_products)
    assert not found, f"integer products outside matrices.mat_mul: {found}"
    sample = tmp_path / "matrices.py"
    sample.write_text(
        "import operator\nfrom operator import mul\n"
        "def mat_mul(a, cols):\n    return [[sum(map(mul, r, c)) for c in cols] for r in a]\n"
        "def sizes(rows):\n    return sum(map(len, rows))\n"
        "class FFMatrix:\n    def __mul__(self, cols):\n"
        "        return [[sum(map(mul, r, c)) % 5 for c in cols] for r in self.rows]\n"
        "def dot(r, c):\n    return sum(map(operator.mul, r, c))\n"
    )
    assert _row_products(sample) == ["matrices.FFMatrix.__mul__", "matrices.dot"]


# what an inline copy of the induced character or the descent identity reads
CHECKER_PIECES = {"trace_measure", "normalize_on_levi", "res_unnormalized", "descent_factor"}


def _names(path):
    """Every name a module reads, binds or imports, every attribute it
    reads and every string constant in it."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found |= {node.name, node.asname}
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def test_cli_runs_the_library_checkers(tmp_path):
    """`cli.py` takes its induced character rows from
    `characters.induced_character_values` and its descent rows from
    `orbital.descent_values`: it names none of the CHECKER_PIECES, so it
    cannot compute either identity a second time.  The scan itself is
    checked on a sample module."""
    found = _names(Path(cocenter.__file__).parent / "cli.py") & CHECKER_PIECES
    assert not found, f"the CLI recomputes an identity its checker owns: {sorted(found)}"
    sample = tmp_path / "cli.py"
    sample.write_text(
        "from cocenter.characters import trace_measure as tm\nimport cocenter.orbital\n"
        "def run(h, g, parab, module):\n"
        "    return cocenter.orbital.descent_factor(g, parab, 2), getattr(module, 'res_unnormalized')\n"
    )
    assert _names(sample) & CHECKER_PIECES == {"trace_measure", "descent_factor", "res_unnormalized"}


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_traced_benchmark_names_resolve():
    """Every (module, attribute) that `perfbench/tracer.py` wraps exists in
    the library, so deleting or renaming one fails here and not only in the
    traced benchmark run."""
    tracer = _tracer()
    missing = []
    for prefix, module_name, attr, _, _ in tracer.TARGETS:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{prefix}: {module_name}.{attr}")
    assert tracer.TARGETS and not missing, f"traced names gone from the library: {missing}"


def _library_bindings(tree):
    """Local names bound by `from cocenter[.module] import ...`, each with
    its dotted label and the module or object it names (None if gone)."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("cocenter"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                label = f"{node.module}.{alias.name}"
                try:
                    owner = importlib.import_module(label)
                except ImportError:
                    owner = getattr(module, alias.name, None)
                names[alias.asname or alias.name] = (label, owner)
    return names


def _dotted(node):
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return (node.id, parts[::-1]) if isinstance(node, ast.Name) else (None, [])


def test_benchmark_calls_bind_to_library_signatures():
    """Every call in `perfbench/workloads.py` into a name imported from
    `cocenter` resolves, and its positional and keyword arguments bind to
    the callee's signature, so a renamed function, a dropped parameter or a
    changed arity fails here and not only in the benchmark run."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    names = _library_bindings(tree)
    checked, broken = 0, []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        root, attrs = _dotted(node.func)
        if root not in names:
            continue
        label, owner = names[root]
        for attr in attrs:
            label, owner = f"{label}.{attr}", getattr(owner, attr, None)
        where = f"line {node.lineno}: {label}"
        if not callable(owner):
            broken.append(f"{where} does not resolve")
            continue
        try:
            inspect.signature(owner).bind(*node.args, **{k.arg: k.value for k in node.keywords})
        except TypeError as exc:
            broken.append(f"{where}: {exc}")
        checked += 1
    assert checked and not broken, f"benchmark calls that no longer fit: {broken}"


# library names with no caller in the library, each with its reason; a
# listed name that gains a caller or is gone fails, so the list only shrinks
UNCALLED_BY_DESIGN = {
    "groups.discriminant_square_identity": "the checker of criterion 1",
    "orbital.joint_kernel_dimension": "the checker of criterion 8b",
    "measures.measure_from_jsonable": "the reader of measures at the trust boundary",
    "unipotent.partwise_sum": "the predicted heart, asserted against the sweep by tests and demo 06",
}


def _benchmark_names():
    """(module, name) of each top-level library name the benchmark pins:
    the owner of every attribute `perfbench/tracer.py` wraps, every name
    `perfbench/workloads.py` imports from a library module, and every
    attribute it reads off a library module it imports."""
    pinned = {(module.rpartition(".")[2], attr.split(".")[0])
              for _, module, attr, _, _ in _tracer().TARGETS if module.startswith("cocenter.")}
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    modules = {}
    for local, (label, owner) in _library_bindings(tree).items():
        parts = label.split(".")
        if inspect.ismodule(owner):
            modules[local] = parts[1]
        else:
            pinned.add((parts[1], parts[2]))
    pinned |= {(modules[node.value.id], node.attr) for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
               and node.value.id in modules}
    return pinned


def _uncalled_definitions(paths, pinned):
    """module.name of each top-level function or class in paths that no
    module among them refers to, by name or attribute or, in `__init__`, by
    re-export, outside the body of its own definition, and that is not in
    pinned.  Names are matched across modules, so a reference to one
    module's name also counts for a namesake in another."""
    defined, referred = [], set()
    for path in paths:
        tree = ast.parse(path.read_text())
        own = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((path.stem, node.name))
                own.update((id(sub), node.name) for sub in ast.walk(node))
        for node in ast.walk(tree):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else node.name if isinstance(node, ast.alias) and path.stem == "__init__"
                    else None)
            if name is not None and own.get(id(node)) != name:
                referred.add(name)
    return sorted(f"{module}.{name}" for module, name in defined
                  if name not in referred and (module, name) not in pinned)


def test_every_library_function_has_a_library_caller(tmp_path):
    """A library function or class that only tests or demos reach belongs
    in `tests/oracles.py`: each one is referred to by another part of the
    library (an `__init__` re-export and `cli.SUITES` count), is pinned by
    the benchmark, or is listed in UNCALLED_BY_DESIGN.  The scan itself is
    checked on a sample package."""
    pinned = _benchmark_names()
    found = _uncalled_definitions(LIBRARY, pinned)
    unlisted = sorted(set(found) - set(UNCALLED_BY_DESIGN))
    assert not unlisted, f"library names that only tests, demos or nothing reach: {unlisted}"
    stale = sorted(set(UNCALLED_BY_DESIGN) - set(found))
    assert not stale, f"shrink UNCALLED_BY_DESIGN: {stale} now have a caller or are gone"
    (tmp_path / "__init__.py").write_text("from pkg.a import exported\n")
    (tmp_path / "a.py").write_text(
        "def exported():\n    return 1\n"
        "def recursive(n):\n    return recursive(n - 1) if n else 0\n"
        "class Node:\n    def copy(self):\n        return Node()\n"
        "def helper():\n    return 2\ndef pinned():\n    return 3\n"
    )
    (tmp_path / "b.py").write_text(
        "from pkg import a\nSUITES = {'one': a.helper}\ndef _spare():\n    pass\n")
    sample = sorted(tmp_path.glob("*.py"))
    assert _uncalled_definitions(sample, {("a", "pinned")}) == [
        "a.Node", "a.recursive", "b._spare"]

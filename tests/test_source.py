"""Static checks on the library source."""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "subalg"
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"


def _identifiers(node):
    """The names a node reads, by name, attribute or import."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.ImportFrom):
        return [alias.name for alias in node.names]
    return []


def test_every_module_level_definition_is_referenced():
    """Each module-level function and class in src/subalg is named in
    src/subalg outside its own definition (an import counts), or in the
    acceptance tests, whose criteria are the library's contract.  Code
    that nothing reaches is deleted, not kept."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in [*sorted(SOURCE.glob("*.py")), ACCEPTANCE]}
    references = {}                 # identifier -> [(path, line)]
    for path, tree in trees.items():
        for node in ast.walk(tree):
            for name in _identifiers(node):
                references.setdefault(name, []).append((path, node.lineno))
    unreferenced = [
        f"{path.name}:{node.name}"
        for path, tree in trees.items() if path != ACCEPTANCE
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not any(where != path
                    or not node.lineno <= line <= node.end_lineno
                    for where, line in references.get(node.name, ()))]
    assert unreferenced == []


def test_the_library_imports_only_the_standard_library():
    """Every import in src/subalg is relative or names a module of the
    standard library: runtime dependencies stay at the standard library
    (tests may use more)."""
    outside = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}:{node.lineno}:{name}" for name in names
                        if name.partition(".")[0]
                        not in sys.stdlib_module_names]
    assert outside == []


def test_only_modular_finds_the_roots_of_the_modulus():
    """`modulus_roots` is named in no module of src/subalg but
    `modular`: every loop over primes modulo which m̃ splits goes through
    `modular.split_primes`."""
    callers = [f"{path.name}:{node.lineno}"
               for path in sorted(SOURCE.glob("*.py"))
               if path.name != "modular.py"
               for node in ast.walk(ast.parse(path.read_text("utf-8")))
               if "modulus_roots" in _identifiers(node)]
    assert callers == []


def test_the_conductor_imports_nothing_from_modular():
    """`conditions` imports nothing from `modular`: the conductor is one
    exact projection of the degree products, with no loop over primes."""
    imports = []
    for node in ast.walk(ast.parse(
            (SOURCE / "conditions.py").read_text("utf-8"))):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [getattr(node, "module", None) or ""]
            names += [alias.name for alias in node.names]
            if any("modular" in name.split(".") for name in names):
                imports.append(f"conditions.py:{node.lineno}")
    assert imports == []


def test_monomial_rows_feed_only_apply_and_the_cut():
    """Condition rows come from one place: inside `conditions.py` only the
    jet table (`_JetTable`) and `_jet_image`, whose jets of a generated
    algebra are plain jet rows with no condition to combine, call
    `_jet_row`, and nothing in src/subalg names `monomial_row` or
    `_read_terms`, the per-condition rows and the term reading it
    replaced.  `LinearFunctional.apply`, `_cut`, `_jet_image` (on carried
    conditions) and `classify.canonical_case_basis` read a jet table."""
    scopes, retired = set(), []

    def walk(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}"
        if isinstance(node, ast.Call) \
                and "_jet_row" in _identifiers(node.func):
            scopes.add(scope)
        retired.extend(f"{scope}:{name}" for name in _identifiers(node)
                       if name in ("monomial_row", "_read_terms"))
        for child in ast.iter_child_nodes(node):
            walk(child, scope)

    for path in sorted(SOURCE.glob("*.py")):
        walk(ast.parse(path.read_text("utf-8")), path.stem)
    assert {scope for scope in scopes if scope.startswith("conditions.")} \
        == {"conditions._JetTable.rows", "conditions._jet_image"}
    assert retired == []
    readers = set()
    for path in sorted(SOURCE.glob("*.py")):
        for top in ast.parse(path.read_text("utf-8")).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) \
                        and "_JetTable" in _identifiers(node.func):
                    readers.add(f"{path.stem}.{getattr(top, 'name', '')}")
    assert readers == {"conditions.LinearFunctional", "conditions._cut",
                       "conditions._jet_image",
                       "classify.canonical_case_basis"}


def test_the_polynomial_ring_cut_reads_no_degree_products():
    """`_cut` branches once, on B = K[x] (`_POLYNOMIAL_RING`), whose
    degree products are the monomials: that branch names no
    `degree_products`, `_int_values` or `_killed_combinations`, which the
    other one (every other algebra) does."""
    tree = ast.parse((SOURCE / "conditions.py").read_text("utf-8"))
    cut = next(node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name == "_cut")
    branches = [node for node in ast.walk(cut) if isinstance(node, ast.If)]
    assert len(branches) == 1
    (branch,) = branches
    assert "_POLYNOMIAL_RING" in {name for node in ast.walk(branch.test)
                                  for name in _identifiers(node)}

    def names(body):
        return {name for stmt in body for node in ast.walk(stmt)
                for name in _identifiers(node)}

    products = {"degree_products", "_int_values", "_killed_combinations"}
    assert names(branch.body) & products == set()
    assert names(branch.orelse) >= {"degree_products",
                                    "_killed_combinations"}


def test_one_jet_image_feeds_the_annihilators_and_the_conditions():
    """src/subalg defines no `annihilator`, `_conditions_annihilator` or
    `_annihilator_equations`, and only `classify` and
    `conditions_from_subalgebra` call `_jet_image`: classify's
    annihilators and the derived conditions read A on its jets below the
    conductor in one place, whether A carries conditions or not."""
    retired = {"annihilator", "_conditions_annihilator",
               "_annihilator_equations"}
    defined, callers = [], set()
    for path in sorted(SOURCE.glob("*.py")):
        for top in ast.parse(path.read_text("utf-8")).body:
            for node in ast.walk(top):
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                        and node.name in retired:
                    defined.append(f"{path.name}:{node.name}")
                if isinstance(node, ast.Call) \
                        and "_jet_image" in _identifiers(node.func):
                    callers.add(f"{path.stem}.{getattr(top, 'name', '')}")
    assert defined == []
    assert callers == {"classify.classify",
                       "conditions.conditions_from_subalgebra"}


def test_every_import_is_read():
    """Each name a module of src/subalg imports (`__init__`, which
    re-exports, aside) is read in that module: an import left behind by
    deleted code goes with it."""
    unread = []
    for path in sorted(SOURCE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text("utf-8"))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unread += [f"{path.name}:{node.lineno}:{alias.name}"
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom))
                   and getattr(node, "module", "") != "__future__"
                   for alias in node.names
                   if (alias.asname or alias.name).partition(".")[0]
                   not in read]
    assert unread == []


def test_one_lockstep_euclid_per_prime():
    """`resultants._image`, which `_resultant` calls once per prime, calls
    `_lane_euclid` once and outside any loop or comprehension: every
    (θ, point) lane of a prime runs in one lockstep Euclid.  src/subalg
    names no `_euclid` or `_interpolate`, the scalar Euclid per lane and
    the Newton interpolation on all points that it replaced."""
    tree = ast.parse((SOURCE / "resultants.py").read_text("utf-8"))
    functions = {node.name: node for node in tree.body
                 if isinstance(node, ast.FunctionDef)}

    def calls(function, name):
        return [node for node in ast.walk(functions[function])
                if isinstance(node, ast.Call)
                and name in _identifiers(node.func)]

    def looped(function, call):
        loops = (ast.For, ast.While, ast.ListComp, ast.SetComp,
                 ast.DictComp, ast.GeneratorExp)
        return any(call in ast.walk(node)
                   for node in ast.walk(functions[function])
                   if isinstance(node, loops))

    (euclid,) = calls("_image", "_lane_euclid")
    assert not looped("_image", euclid)
    assert [name for name in functions if calls(name, "_image")] \
        == ["_resultant"]
    assert len(calls("_resultant", "_image")) == 1
    retired = [f"{path.name}:{node.lineno}"
               for path in sorted(SOURCE.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text("utf-8")))
               if {"_euclid", "_interpolate"} & {
                   *_identifiers(node), getattr(node, "name", None)}]
    assert retired == []

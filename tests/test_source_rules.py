"""Rules the library source keeps, checked on its syntax tree."""

import ast
import os
import sys

import galepoly

SRC = os.path.dirname(galepoly.__file__)


def _trees():
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(SRC, name), encoding="utf-8") as fh:
            yield name, ast.parse(fh.read(), filename=name)


def test_library_has_no_assert_statements():
    # python -O strips asserts, so a certificate check written as one
    # would silently stop running; checks raise CertificateError instead
    found = []
    for name, tree in _trees():
        found += [f"{name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield node.lineno, [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, [node.module]


def test_library_imports_only_the_standard_library_and_itself():
    # the package has no runtime dependencies; an import of anything else,
    # at module level or inside a function, would bring one back
    allowed = set(sys.stdlib_module_names) | {"galepoly"}
    found = []
    for name, tree in _trees():
        for lineno, modules in _imported_modules(tree):
            found += [f"{name}:{lineno} {m}" for m in modules if m.split(".")[0] not in allowed]
    assert found == []


def test_library_imports_no_process_pool():
    # every scan runs serially in the calling process: measured, a pool
    # started per call cost more than it saved
    banned = {"multiprocessing", "concurrent"}
    found = []
    for name, tree in _trees():
        for lineno, modules in _imported_modules(tree):
            found += [f"{name}:{lineno} {m}" for m in modules if m.split(".")[0] in banned]
    assert found == []


def _divides_by_den(node) -> bool:
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.FloorDiv):
        divisor = node.right if isinstance(node, ast.BinOp) else node.value
        return isinstance(divisor, ast.Name) and divisor.id == "den"
    return False


def test_bareiss_division_lives_only_in_linalg():
    # the exact division by the common denominator is the Bareiss pivot
    # step; a second copy of it outside linalg.bareiss_pivot is a fork of
    # the one kernel that lp's simplex and ExactMatrix elimination share
    found = {}
    for name, tree in _trees():
        lines = [node.lineno for node in ast.walk(tree) if _divides_by_den(node)]
        if lines:
            found[name] = lines
    assert found.pop("linalg.py")
    assert found == {}


def _owners(tree, match) -> list[str]:
    """The innermost function around each node for which ``match`` holds."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if match(node):
            found.append(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, None)
    return found


def _functions_naming(tree, name: str) -> list[str]:
    """The innermost function around each reference to ``name``."""
    return _owners(
        tree,
        lambda node: isinstance(node, ast.Name) and node.id == name
        or isinstance(node, ast.Attribute) and node.attr == name,
    )


def test_bareiss_pivot_runs_in_the_simplex_and_the_one_elimination_loop():
    # lp's simplex and linalg.eliminate are the only loops that pivot
    found = {}
    for name, tree in _trees():
        for owner in _functions_naming(tree, "bareiss_pivot"):
            found.setdefault(name, set()).add(owner)
    assert found == {"lp.py": {"solve_feasibility"}, "linalg.py": {"eliminate"}}


def _named(tree) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in node.names)
    return names


def test_jsonio_runs_no_certificate_step_of_its_own():
    # verify obtains its LP flags, functionals and designated planes from
    # the mani steps that build runs, on the report's own points; jsonio
    # decodes, validates, builds payloads and caches
    banned = {
        "hull_flags", "separating_functional", "interior_point_test", "solve_feasibility",
        "realize", "realized_base", "strict_positive_dependence",
    }
    trees = dict(_trees())
    assert _named(trees["mani.py"]) & banned  # the rule can see these names
    assert _named(trees["jsonio.py"]) & banned == set()


def _string_uses(tree, text: str) -> tuple[list[int], list[int]]:
    """Lines where the string ``text`` is a dict-literal key, and the others."""
    keys = {id(k) for node in ast.walk(tree) if isinstance(node, ast.Dict) for k in node.keys}
    found = [node for node in ast.walk(tree) if isinstance(node, ast.Constant) and node.value == text]
    return [n.lineno for n in found if id(n) in keys], [n.lineno for n in found if id(n) not in keys]


def test_the_certificate_dual_has_one_minimality_proof():
    # build and verify both read the dual's removal witnesses off their own
    # midpoint certificates (mani.dual_spanning_report): mani runs no removal
    # scan, and jsonio writes perIndex into payloads but never reads it
    trees = dict(_trees())
    assert "removal_scan" in _named(trees["spanning.py"])  # the rule can see it
    assert "removal_scan" not in _named(trees["mani.py"])
    written, read = _string_uses(trees["jsonio.py"], "perIndex")
    assert written and read == []


def test_the_certificate_dual_stage_runs_no_lp():
    # the dual's base scan is proved off the vertex functionals and its
    # removal witnesses off the midpoint certificates: mani imports no LP
    # scan, and no function of the dual stage names the LP kernel
    trees = dict(_trees())
    mani = trees["mani.py"]
    defined = {node.name for node in ast.walk(mani) if isinstance(node, ast.FunctionDef)}
    dual_stage = {"_dual_base_scan", "_removal_witnesses", "dual_spanning_report", "spanning_bound_counterexample"}
    assert dual_stage <= defined
    assert "solve_feasibility" in _named(mani)  # the rule can see it: hull_flags solves LPs
    assert _named(mani) & {"positively_spans", "is_positively_k_spanning"} == set()
    owners = {
        owner
        for name in ("positively_spans", "is_positively_k_spanning", "solve_feasibility")
        for owner in _functions_naming(mani, name)
    }
    assert owners & dual_stage == set()


def test_lp_has_one_certificate_checker():
    # Fraction and integer rows are re-checked by the one
    # lp.verify_certificate; a second verify_ function in lp, or any
    # mention of the integer copy it replaced, is a fork of that check
    trees = dict(_trees())
    defined = {
        name: [node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
        for name, tree in trees.items()
    }
    found = [
        name for name, tree in trees.items()
        if "verify_integer_certificate" in _named(tree) | set(defined[name])
    ]
    assert found == []
    assert [name for name in defined["lp.py"] if name.startswith("verify_")] == ["verify_certificate"]


def test_rows_enter_the_kernel_by_one_rule():
    # every row that enters an ExactMatrix or lp's simplex is taken by
    # linalg.exact_row, which keeps int and Fraction rows as they are; a
    # second definition of the rule, or an ExactMatrix method or lp
    # function that coerces entries itself (as_vector, qq), would be a
    # second rule
    trees = dict(_trees())
    defined = {
        name: [node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
        for name, tree in trees.items()
    }
    assert [name for name, funcs in defined.items() if any("exact" in f.lower() for f in funcs)] == ["linalg.py"]
    assert [name for name, tree in trees.items() if "_EXACT_TYPES" in _named(tree)] == ["linalg.py"]
    matrix = next(
        node for node in ast.walk(trees["linalg.py"])
        if isinstance(node, ast.ClassDef) and node.name == "ExactMatrix"
    )
    methods = [node for node in matrix.body if isinstance(node, ast.FunctionDef)]
    assert "as_vector" in _named(trees["linalg.py"])  # the rule can see it
    assert [f.name for f in methods if _named(f) & {"as_vector", "qq"}] == []
    assert _named(trees["lp.py"]) & {"as_vector", "qq"} == set()
    takers = {f.name for f in methods if "exact_row" in _named(f)}
    assert takers == {"__init__", "from_columns", "matvec", "solve_columns"}
    takers = set(_functions_naming(trees["lp.py"], "exact_row"))
    assert {"solve_feasibility", "_selected", "separating_functional", "verify_certificate"} <= takers


def test_gale_normalizes_directions_only_through_primitive():
    # coface enumeration groups vectors by linalg.primitive of their
    # coordinates; a gcd taken in gale would be a second normalization
    gale = dict(_trees())["gale.py"]
    imported = {
        alias.name
        for node in ast.walk(gale)
        if isinstance(node, ast.ImportFrom) and node.module == "linalg"
        for alias in node.names
    }
    assert "primitive" in imported
    classes = next(
        node for node in ast.walk(gale)
        if isinstance(node, ast.FunctionDef) and node.name == "_direction_classes"
    )
    assert "primitive" in _named(classes)
    assert [name for name in _named(gale) if "gcd" in name.lower()] == []


def test_rows_get_one_common_scale_from_one_helper():
    # rows times one lcm common to all of them come from
    # linalg.common_scale alone, for each point set's lifted view (gale)
    # and for every configuration's integer view (spanning); another such
    # helper, or math.lcm outside linalg, would be a second copy of it
    trees = dict(_trees())
    defined = {
        name: [node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
        for name, tree in trees.items()
    }
    assert [name for name, funcs in defined.items() if any("common_scale" in f for f in funcs)] == ["linalg.py"]
    assert [name for name, tree in trees.items() if "lcm" in _named(tree)] == ["linalg.py"]
    assert {name for name, tree in trees.items() if "common_scale" in _named(tree)} == {"gale.py", "spanning.py"}


def _is_lifted_row(node) -> bool:
    """``(QQ(1),) + ...`` or ``(1,) + ...``: a point lifted to (1, p)."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)):
        return False
    head = node.left
    if not (isinstance(head, ast.Tuple) and len(head.elts) == 1):
        return False
    one = head.elts[0]
    if isinstance(one, ast.Call) and len(one.args) == 1:
        one = one.args[0]
    return isinstance(one, ast.Constant) and one.value == 1


def test_lifted_rows_are_built_in_one_place():
    # every hull, Gale-dual and realization step reads the one lifted view
    # of a point set (gale.PointConfiguration.lifted); only the vertex LP
    # of lp.separating_functional builds its own Fraction rows, whose
    # per-column scales keep its tableau entries small
    found = {}
    for name, tree in _trees():
        for owner in _owners(tree, _is_lifted_row):
            found.setdefault(name, set()).add(owner)
    assert found == {"gale.py": {"lifted"}, "lp.py": {"separating_functional"}}


def test_derived_views_are_cached_properties():
    # derived data is kept by functools.cached_property; a getattr with a
    # default, or an object.__setattr__ outside the one setter that every
    # construction of an IncidencePolytope goes through and the one that
    # stores a configuration's rows as Fractions, would be a second caching
    # idiom
    defaults = []
    setters = {}
    for name, tree in _trees():
        defaults += [
            f"{name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "getattr"
            and len(node.args) == 3
        ]
        for owner in _functions_naming(tree, "__setattr__"):
            setters.setdefault(name, set()).add(owner)
    assert defaults == []
    assert setters == {"polytope.py": {"_assign"}, "linalg.py": {"__post_init__"}}


def test_labelled_rows_have_one_rule():
    # the label checks (linalg.check_labels) and from_pairs
    # (linalg.LabelledRows) are written once, for configurations and
    # polytopes alike; a copy of either in a constructor would be a second
    # rule
    checks, from_pairs = set(), []
    for name, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                if "must be distinct" in node.value or "must be nonempty" in node.value:
                    checks.add(name)
            if isinstance(node, ast.FunctionDef) and node.name == "from_pairs":
                from_pairs.append(name)
    assert checks == {"linalg.py"}
    assert from_pairs == ["linalg.py"]
    trees = dict(_trees())
    assert set(_functions_naming(trees["polytope.py"], "check_labels")) == {"_vertex_index"}
    assert set(_functions_naming(trees["linalg.py"], "check_labels")) == {"__post_init__"}

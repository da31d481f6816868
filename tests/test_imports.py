"""Source rules checked on the package ASTs: no module imports a private name
from a sibling, every private module-level function is used in its module,
no function re-imports from a sibling its module imports at top level, no
assert statement stands in for a self-check, every parameter is read, only
the root finder loops over a whole finite field, one scan limit serves the
two root finders, only qpoly.power runs a square-and-multiply loop, a
formula walk calls itself only through the walk driver, and one test decides
the denseness condition."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "prime_scope"


def test_no_private_names_imported_across_modules():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 1
    private = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("prime_scope"):
                continue
            private += [
                f"{path.name}:{node.lineno} {node.module}.{alias.name}"
                for alias in node.names
                if alias.name.startswith("_")
            ]
    assert not private, private


def test_every_private_function_is_used_in_its_module():
    # a private name cannot be imported by a sibling (see above), so one that
    # nothing in its own module refers to, outside its own body, is dead code
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for fn in tree.body:
            if not isinstance(fn, ast.FunctionDef) or not fn.name.startswith("_"):
                continue
            used = any(
                isinstance(node, ast.Name) and node.id == fn.name
                for other in tree.body
                if other is not fn
                for node in ast.walk(other)
            )
            if not used:
                unused.append(f"{path.name}:{fn.lineno} {fn.name}")
    assert not unused, unused


def _sibling(node):
    """The sibling module an ImportFrom names, or None for other packages."""
    if node.level == 1:
        return node.module
    if node.level == 0 and (node.module or "").startswith("prime_scope."):
        return node.module.split(".", 1)[1]
    return None


def test_no_function_local_import_from_a_top_level_sibling():
    # a function-local import is kept only to break an import cycle; a sibling
    # the module already imports at top level has no cycle to break
    local = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        top = {
            _sibling(node) for node in tree.body if isinstance(node, ast.ImportFrom)
        } - {None}
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            local |= {
                f"{path.name}:{node.lineno} {node.module}"
                for node in ast.walk(fn)
                if isinstance(node, ast.ImportFrom) and _sibling(node) in top
            }
    assert not local, sorted(local)


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements; self-checks go through errors.check
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found


def _shares_a_dispatch_signature(module: str, name: str) -> bool:
    # CLI handlers take (args, config) and suite cases take (config), whether
    # or not the one at hand reads them
    return (module == "cli.py" and name.startswith("_h_")) or (
        module == "suite.py" and name.startswith("case_")
    )


def test_every_parameter_is_read_in_its_function():
    unread = []
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if fn.name.startswith("__") or _shares_a_dispatch_signature(path.name, fn.name):
                continue
            a = fn.args
            params = [x.arg for x in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if x]
            read = {
                node.id
                for stmt in fn.body
                for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            }
            unread += [
                f"{path.name}:{fn.lineno} {fn.name}({name})"
                for name in params
                if name not in read and name not in ("self", "cls")
            ]
    assert not unread, unread


def test_only_the_root_finder_walks_a_whole_finite_field():
    # FF.elements() is linear in q; ff_poly_roots calls it only on fields
    # below its scan limit, and every other caller asks ff_poly_roots
    allowed = set()
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        if path.name == "localdata.py":
            (fn,) = [f for f in tree.body if getattr(f, "name", None) == "ff_poly_roots"]
            allowed = {id(node) for node in ast.walk(fn)}
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "elements"
            and id(node) not in allowed
        ]
    assert allowed and not found, found


def test_one_scan_limit_read_by_the_two_root_finders():
    # F_p in factor_fpoly and F_q in ff_poly_roots are scanned up to the same
    # order of field: the limit is set once, in ffield, and nothing else
    # compares against it
    finders = {("ffield.py", "factor_fpoly"), ("localdata.py", "ff_poly_roots")}
    assigned, compared = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        allowed = {
            id(node)
            for fn in tree.body if (path.name, getattr(fn, "name", None)) in finders
            for node in ast.walk(fn)
        }
        for node in ast.walk(tree):
            names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            if "SCAN_LIMIT" not in names:
                continue
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                assigned.append(path.name)
            elif isinstance(node, ast.Compare):
                compared.append((path.name, node.lineno, id(node) in allowed))
    assert assigned == ["ffield.py"]
    assert {name for name, _line, _ok in compared} == {"ffield.py", "localdata.py"}
    assert all(ok for _name, _line, ok in compared), compared


def _squares(node) -> bool:
    """x * x, x ** 2, or a call with two equal leading arguments (mul(x, x))."""
    if isinstance(node, ast.BinOp):
        if isinstance(node.op, ast.Mult):
            return ast.dump(node.left) == ast.dump(node.right)
        return isinstance(node.op, ast.Pow) and getattr(node.right, "value", None) == 2
    return isinstance(node, ast.Call) and len(node.args) >= 2 and (
        ast.dump(node.args[0]) == ast.dump(node.args[1])
    )


def _reads_a_bit(node) -> bool:
    """e & 1, e >> 1, e % 2, e // 2, e >>= 1, e //= 2, bin(e) or divmod(e, 2)."""
    if isinstance(node, (ast.BinOp, ast.AugAssign)):
        if isinstance(node.op, (ast.BitAnd, ast.RShift)):
            return True
        operand = node.right if isinstance(node, ast.BinOp) else node.value
        return isinstance(node.op, (ast.Mod, ast.FloorDiv)) and getattr(operand, "value", None) == 2
    return (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id in ("bin", "divmod")
    )


def _own_nodes(loop) -> list:
    """The nodes of a loop's body outside the loops nested in it."""
    out, todo = [], list(loop.body) + list(loop.orelse)
    while todo:
        node = todo.pop()
        out.append(node)
        if not isinstance(node, (ast.For, ast.While)):
            todo.extend(ast.iter_child_nodes(node))
    return out


def test_only_the_power_kernel_squares_and_multiplies():
    # every power x^k, modular or not, goes through qpoly.power; a loop that
    # shifts with >>=, or squares and reads a bit of an exponent, is a second
    # powering loop
    allowed = set()
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        if path.name == "qpoly.py":
            (fn,) = [f for f in tree.body if getattr(f, "name", None) == "power"]
            allowed = {id(node) for node in ast.walk(fn)}
        for loop in ast.walk(tree):
            if not isinstance(loop, (ast.For, ast.While)) or id(loop) in allowed:
                continue
            body = _own_nodes(loop)
            shifts = any(
                isinstance(n, ast.AugAssign) and isinstance(n.op, ast.RShift) for n in body
            )
            if shifts or (any(map(_squares, body)) and any(map(_reads_a_bit, body))):
                found.append(f"{path.name}:{loop.lineno}")
    assert allowed and not found, found


def test_a_formula_walk_calls_itself_only_through_the_driver():
    # a walk over a formula tree yields each sub-walk to formulas._run, so a
    # deep tree never reaches the Python stack; only _phi_term and MPoly's
    # horner call themselves directly, once per variable of phi_n
    path = SRC / "formulas.py"
    tree = ast.parse(path.read_text(), str(path))
    parent = {id(child): node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    walks, direct = set(), []
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef) or fn.name in ("_phi_term", "horner"):
            continue
        for node in ast.walk(fn):
            if not (
                isinstance(node, ast.Name) and node.id == fn.name
                or isinstance(node, ast.Attribute) and node.attr == fn.name
                and isinstance(node.value, ast.Name) and node.value.id == "self"
            ):
                continue
            call = parent[id(node)]
            if isinstance(call, ast.Call) and call.func is node and isinstance(
                parent[id(call)], ast.Yield
            ):
                walks.add(f"{fn.name}:{fn.lineno}")
            else:
                direct.append(f"formulas.py:{node.lineno} {fn.name}")
    assert not direct, direct
    # parse, substitute, evaluation, the quantifier-free test and eval_bounded
    assert len(walks) >= 5, sorted(walks)
    raised = [
        f"{p.name}:{node.lineno}"
        for p in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(p.read_text(), str(p)))
        if isinstance(node, ast.Attribute) and node.attr == "setrecursionlimit"
    ]
    assert not raised, raised


def _calls(tree, name: str) -> list:
    """The call nodes of a module that call `name`, as a function or a method."""
    return [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call) and (
            isinstance(node.func, ast.Name) and node.func.id == name
            or isinstance(node.func, ast.Attribute) and node.func.attr == name
        )
    ]


def test_each_witness_decides_its_closure_question_once():
    # a witness search decides its place itself: no separate existence test
    # before it, and no squarefree part, since the Sturm sequence of (g, g')
    # counts distinct roots
    trees = {p.name: ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))}
    found = [
        f"{name} calls {callee}"
        for name, callees in (
            ("dense.py", ("has_root_in_closure", "squarefree_part")),
            ("squares.py", ("has_root_in_closure",)),
        )
        for callee in callees
        if _calls(trees[name], callee)
    ]
    assert not found, found
    # simultaneous_ball merges local witnesses for ud_witness alone
    callers = []
    for name, tree in trees.items():
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef) and _calls(fn, "simultaneous_ball"):
                callers.append(f"{name}:{fn.name}")
    assert callers == ["dense.py:ud_witness"], callers


def test_one_membership_test_decides_the_denseness_condition():
    # 1 - g(x)^2 a^(-2) in O_P is decided in dense._defining_check alone: no
    # other sign test in dense.py, no ball class, and no error for a local
    # witness failing a second test
    trees = {p.name: ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))}
    dense = trees["dense.py"]
    (fn,) = [f for f in dense.body if getattr(f, "name", None) == "_defining_check"]
    inside = {id(node) for node in ast.walk(fn)}
    signs = [f"dense.py:{node.lineno}" for node in _calls(dense, "sign") if id(node) not in inside]
    assert _calls(fn, "sign") and not signs, signs
    balls = [
        f"{name}:{node.lineno}"
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name == "Ball"
    ]
    assert not balls, balls
    errors = {
        target.id
        for node in trees["errors.py"].body
        for target in (node.targets if isinstance(node, ast.Assign) else [])
        if isinstance(target, ast.Name)
    } | {node.name for node in trees["errors.py"].body if isinstance(node, ast.ClassDef)}
    assert "NonDisjoint" in errors and "LocalWitnessInvalid" not in errors

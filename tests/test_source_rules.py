"""Rules the library source keeps, checked on its syntax tree."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "transferlab"
MODULES = sorted(SRC.glob("*.py"))


def test_modules_found():
    assert any(path.name == "group.py" for path in MODULES)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_assert_statements(path):
    """Invariants are explicit checks (InvariantError, ValueError), which
    survive `python -O`; an assert statement does not."""
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"assert statements in {path.name} at lines {lines}"


GROUP_PRIVATE_FIELDS = {"_chain", "_order", "_element_set", "_elements", "_source", "_memo"}


def _private_field_writes(tree: ast.AST) -> list[int]:
    """Lines that assign or delete a PermGroup private field on any
    object, by attribute or by setattr with a literal name."""
    lines = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, (ast.Store, ast.Del))
            and node.attr in GROUP_PRIVATE_FIELDS
        ):
            lines.append(node.lineno)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("setattr", "delattr")
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and node.args[1].value in GROUP_PRIVATE_FIELDS
        ):
            lines.append(node.lineno)
    return sorted(lines)


def test_private_field_rule_sees_writes():
    source = (
        "g._chain = c\n"
        "h._order, x = 1, 2\n"
        "del g._memo\n"
        "setattr(g, '_elements', [])\n"
        "y = g._chain\n"
        "conj._source = (h, t, t_inv)\n"
    )
    assert _private_field_writes(ast.parse(source)) == [1, 2, 3, 4, 6]


@pytest.mark.parametrize(
    "path", [path for path in MODULES if path.name != "group.py"], ids=lambda path: path.name
)
def test_only_group_writes_group_private_fields(path):
    """A PermGroup's chain, order, element list and set, conjugate source
    and memo are set only in `group`; other modules make subgroups
    through its helpers."""
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = _private_field_writes(tree)
    assert lines == [], f"{path.name} writes a PermGroup private field at lines {lines}"


# In group.py, the class and the one constructor that set a group's facts.
GROUP_FIELD_WRITERS = {"PermGroup", "_subgroup"}


def _writes_outside(tree: ast.Module, owners: set[str]) -> list[int]:
    """Lines of the private-field writes in tree's top-level statements
    other than the classes and functions named in owners."""
    return sorted(
        line
        for node in tree.body
        if getattr(node, "name", None) not in owners
        for line in _private_field_writes(node)
    )


def test_writer_rule_sees_writes_outside_the_owners():
    source = (
        "class PermGroup:\n"
        "    def order(self):\n"
        "        self._order = 1\n"
        "def _subgroup(h, c):\n"
        "    h._chain = c\n"
        "def _from_elements(h):\n"
        "    h._source = None\n"
        "class Transversal:\n"
        "    def __init__(self, h):\n"
        "        h._element_set = frozenset()\n"
        "TRIVIAL._order = 1\n"
    )
    assert _writes_outside(ast.parse(source), GROUP_FIELD_WRITERS) == [7, 10, 11]


def test_group_sets_facts_only_in_permgroup_and_the_constructor():
    """Inside group.py, a group's chain, order, elements, source and memo
    are written only by PermGroup's methods and by `_subgroup`, which
    checks what it is told."""
    path = SRC / "group.py"
    lines = _writes_outside(ast.parse(path.read_text(), filename=str(path)), GROUP_FIELD_WRITERS)
    assert lines == [], f"group.py writes a PermGroup private field at lines {lines}"


def _identity_builds(tree: ast.Module) -> list[int]:
    """Lines that call tuple(range(...)) outside the class _Identities."""
    table = {
        id(node)
        for top in tree.body
        if isinstance(top, ast.ClassDef) and top.name == "_Identities"
        for node in ast.walk(top)
    }
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if id(node) not in table
        and isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "tuple"
        and len(node.args) == 1
        and isinstance(node.args[0], ast.Call)
        and isinstance(node.args[0].func, ast.Name)
        and node.args[0].func.id == "range"
    )


def test_identity_rule_sees_tuple_range():
    source = (
        "class _Identities(dict):\n"
        "    def __missing__(self, degree):\n"
        "        return tuple(range(degree))\n"
        "ident = tuple(range(degree))\n"
        "seen = {tuple(range(len(imgs)))}\n"
        "pts = list(range(degree))\n"
        "gen = tuple(x for x in range(degree))\n"
    )
    assert _identity_builds(ast.parse(source)) == [4, 5]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_identity_tuples_come_from_the_table(path):
    """The identity's image tuple is built once per degree, by
    `perm._IDENTITY`; no other code builds tuple(range(degree))."""
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = _identity_builds(tree)
    assert lines == [], f"{path.name} builds tuple(range(...)) at lines {lines}"


STDLIB_MEMOS = {"cache", "lru_cache"}


def _stdlib_memo_uses(tree: ast.AST) -> list[int]:
    """Lines that name functools.cache or functools.lru_cache, as an
    attribute of functools or imported from it."""
    lines = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "functools"
            and node.attr in STDLIB_MEMOS
        ):
            lines.append(node.lineno)
        elif (
            isinstance(node, ast.ImportFrom)
            and node.module == "functools"
            and any(alias.name in STDLIB_MEMOS for alias in node.names)
        ):
            lines.append(node.lineno)
    return sorted(lines)


def test_stdlib_memo_rule_sees_uses():
    source = (
        "@functools.cache\ndef f(): pass\n"
        "from functools import lru_cache, wraps\n"
        "g = functools.lru_cache(maxsize=None)(f)\n"
        "h = functools.wraps(f)\n"
    )
    assert _stdlib_memo_uses(ast.parse(source)) == [1, 3, 4]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_stdlib_memo(path):
    """`group.memoized` is the one memo on groups: it keys other group
    arguments by element set and keeps results on the group, so they go
    when the group goes.  A functools cache would key groups by identity
    and keep them alive."""
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = _stdlib_memo_uses(tree)
    assert lines == [], f"{path.name} uses a functools cache at lines {lines}"


@pytest.mark.parametrize(
    "path", [path for path in MODULES if path.name != "group.py"], ids=lambda path: path.name
)
def test_only_group_uses_the_chain_orbit_search(path):
    """`_orbit_transversal` also builds a transversal, which only the chain
    build needs; every other orbit comes from `group._orbit`."""
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = sorted(
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == "_orbit_transversal")
        or (isinstance(node, ast.alias) and node.name == "_orbit_transversal")
        or (isinstance(node, ast.Attribute) and node.attr == "_orbit_transversal")
    )
    assert lines == [], f"{path.name} names _orbit_transversal at lines {lines}"


def _transversal_reads(tree: ast.AST) -> list[int]:
    """Lines that read a `.transversal` attribute, directly or by getattr
    with a literal name."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and node.attr == "transversal"
        )
        or (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "getattr"
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and node.args[1].value == "transversal"
        )
    )


def test_transversal_rule_sees_reads():
    source = (
        "reps = quot.transversal.reps\n"
        "quot.transversal = None\n"
        "trans = right_transversal(g, h)\n"
        "f(lvl.transversal)\n"
        "t = getattr(quot, 'transversal', None)\n"
    )
    assert _transversal_reads(ast.parse(source)) == [1, 4, 5]


@pytest.mark.parametrize(
    "path", [path for path in MODULES if path.name != "group.py"], ids=lambda path: path.name
)
def test_only_group_reads_a_transversal_attribute(path):
    """A quotient by the trivial group has no coset transversal (G/1 is G,
    see `QuotientGroup`), so no code outside `group` may depend on one:
    other modules go through the quotient's maps and `right_transversal`."""
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = _transversal_reads(tree)
    assert lines == [], f"{path.name} reads a .transversal attribute at lines {lines}"


def _called_names(node: ast.AST) -> set[str]:
    """The names called in node, by name or as an attribute."""
    names = set()
    for call in ast.walk(node):
        if isinstance(call, ast.Call):
            if isinstance(call.func, ast.Name):
                names.add(call.func.id)
            elif isinstance(call.func, ast.Attribute):
                names.add(call.func.attr)
    return names


def _hand_rolled_partitions(tree: ast.AST) -> list[tuple[str, int]]:
    """The functions that call both `_orbit` and some `.update(...)`, the
    shape of an orbit partition kept in a seen-set, with their lines."""
    return sorted(
        (node.name, node.lineno)
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and {"_orbit", "update"} <= _called_names(node)
    )


def test_partition_rule_sees_hand_rolled_partitions():
    source = (
        "def classes(g):\n"
        "    seen = set()\n"
        "    for x in g.elements():\n"
        "        if x not in seen:\n"
        "            seen.update(group._orbit(x, g.gens, act))\n"
        "def one_orbit(x, gens):\n"
        "    return _orbit(x, gens, act)\n"
        "def merge(d, e):\n"
        "    d.update(e)\n"
        "def blocks(points, gens):\n"
        "    def grow(x):\n"
        "        seen.update(_orbit(x, gens, act))\n"
    )
    assert _hand_rolled_partitions(ast.parse(source)) == [("blocks", 10), ("classes", 1), ("grow", 11)]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_only_orbits_partitions_points_into_orbits(path):
    """Every orbit partition goes through `group._orbits`; no other function
    calls `_orbit` and fills a seen-set with `.update`."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = _hand_rolled_partitions(tree)
    if path.name == "group.py":
        found = [(name, line) for name, line in found if name != "_orbits"]
    assert found == [], f"{path.name} partitions points into orbits by hand: {found}"


CAPS_NAMES = {"Caps", "DEFAULT_CAPS"}
# caps.py defines them, cli.py puts the environment's caps in force,
# __init__.py exports them.
CAPS_OWNERS = {"caps.py", "cli.py", "__init__.py"}


def _caps_parameters(tree: ast.AST) -> list[int]:
    """Lines of the functions, methods and lambdas with a parameter named caps."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
            if any(q is not None and q.arg == "caps" for q in params):
                lines.append(node.lineno)
    return sorted(lines)


def _caps_names(tree: ast.AST) -> list[int]:
    """Lines that name Caps or DEFAULT_CAPS: by name, as an attribute, or
    imported."""
    lines = []
    for node in ast.walk(tree):
        if (
            (isinstance(node, ast.Name) and node.id in CAPS_NAMES)
            or (isinstance(node, ast.Attribute) and node.attr in CAPS_NAMES)
            or (isinstance(node, ast.alias) and node.name in CAPS_NAMES)
        ):
            lines.append(node.lineno)
    return sorted(set(lines))


def test_caps_rules_see_parameters_and_names():
    source = (
        "def f(g, caps): pass\n"
        "def h(g, *, caps=None): pass\n"
        "k = lambda g, p, caps: p\n"
        "def ok(g, in_force): return in_force.element_cap\n"
        "from .caps import DEFAULT_CAPS, check_cap\n"
        "x = caps.Caps(element_cap=1)\n"
        "y = current_caps().element_cap\n"
    )
    tree = ast.parse(source)
    assert _caps_parameters(tree) == [1, 2, 3]
    assert _caps_names(tree) == [5, 6]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_caps_parameter(path):
    """The caps in force are one setting (`caps.limits`, read by
    `caps.current_caps`), never an argument."""
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = _caps_parameters(tree)
    assert lines == [], f"{path.name} takes a caps parameter at lines {lines}"


@pytest.mark.parametrize(
    "path", [path for path in MODULES if path.name not in CAPS_OWNERS], ids=lambda path: path.name
)
def test_only_caps_cli_and_init_name_the_caps_type(path):
    """The library reads the caps in force with `current_caps`; only the
    modules that define, set or export caps name `Caps` or `DEFAULT_CAPS`."""
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = _caps_names(tree)
    assert lines == [], f"{path.name} names Caps or DEFAULT_CAPS at lines {lines}"


def _is_checker_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "_checker"
    )


def _checker_registrations(tree: ast.Module) -> tuple[list[tuple[str, int]], list[int]]:
    """Each `_chk_*` function with its number of `_checker(...)`
    decorators, and the lines that register a checker some other way: a
    `_checker` call that does not decorate a `_chk_*` function, or a write
    into CHECKERS outside `_checker`."""
    counts, decorating = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_chk_"):
            calls = [d for d in node.decorator_list if _is_checker_call(d)]
            counts.append((node.name, len(calls)))
            decorating.update(map(id, calls))
    inside = {
        id(n)
        for top in tree.body
        if isinstance(top, ast.FunctionDef) and top.name == "_checker"
        for n in ast.walk(top)
    }
    stray = []
    for node in ast.walk(tree):
        if _is_checker_call(node) and id(node) not in decorating:
            stray.append(node.lineno)
        elif id(node) in inside:
            continue
        elif (
            isinstance(node, ast.Subscript)
            and isinstance(node.ctx, (ast.Store, ast.Del))
            and isinstance(node.value, ast.Name)
            and node.value.id == "CHECKERS"
        ) or (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "CHECKERS"
            and node.func.attr in ("update", "setdefault")
        ):
            stray.append(node.lineno)
    return sorted(counts), sorted(stray)


def test_checker_rule_sees_other_registrations():
    source = (
        '@_checker("a", "first")\n'
        "def _chk_a(ctx): pass\n"
        "def _chk_b(ctx): pass\n"
        '@_checker("c", "x")\n'
        '@_checker("c2", "y")\n'
        "def _chk_c(ctx): pass\n"
        '_checker("d", "late")(_chk_a)\n'
        'CHECKERS["e"] = spec\n'
        "def _register(i, r):\n"
        "    CHECKERS[i] = r\n"
        "def _checker(i, d):\n"
        "    def register(run):\n"
        "        CHECKERS[i] = run\n"
        "        return run\n"
        "    return register\n"
        "CHECKERS.update(f=spec)\n"
    )
    counts, stray = _checker_registrations(ast.parse(source))
    assert counts == [("_chk_a", 1), ("_chk_b", 0), ("_chk_c", 2)]
    assert stray == [7, 8, 10, 16]


def test_each_checker_is_registered_by_its_own_decorator():
    """A checker's id, description, applicability and notes sit on its
    `_chk_*` function, in one `_checker(...)` decorator; no table or other
    write fills CHECKERS."""
    from transferlab.checkers import CHECKERS

    path = SRC / "checkers.py"
    counts, stray = _checker_registrations(ast.parse(path.read_text(), filename=str(path)))
    assert [name for name, n in counts if n != 1] == [], "a _chk_ function without one _checker"
    assert stray == [], f"checkers.py registers a checker outside a decorator at lines {stray}"
    assert len(counts) == len(CHECKERS) == 23
    assert sorted(spec.run.__name__ for spec in CHECKERS.values()) == [name for name, _ in counts]


def _function_imports(tree: ast.AST) -> list[tuple[str, int]]:
    """(function, line) of each import statement inside a function,
    named by the innermost function around it."""
    found = []

    def visit(node: ast.AST, owner: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if owner is not None and isinstance(child, (ast.Import, ast.ImportFrom)):
                found.append((owner, child.lineno))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
            else:
                visit(child, owner)

    visit(tree, None)
    return sorted(found)


def test_function_import_rule_sees_imports_in_functions():
    source = (
        "import os\n"
        "def f():\n"
        "    from .sylow import sylow_subgroup\n"
        "class C:\n"
        "    from x import y\n"
        "    def m(self):\n"
        "        if self:\n"
        "            import json\n"
        "def outer():\n"
        "    def inner():\n"
        "        import re\n"
        "    return inner\n"
        "if os:\n"
        "    import sys\n"
    )
    assert _function_imports(ast.parse(source)) == [("f", 3), ("inner", 11), ("m", 8)]


# sylow imports series at load time, and o_p needs sylow_subgroup.
FUNCTION_IMPORTS = {"series.py": ["o_p"]}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_imports_sit_at_module_level_unless_a_cycle_forces_them(path):
    """A module imports what it uses at its top, where its dependencies
    are read at a glance; only an import cycle puts one inside a function."""
    tree = ast.parse(path.read_text(), filename=str(path))
    owners = [name for name, _ in _function_imports(tree)]
    assert owners == FUNCTION_IMPORTS.get(path.name, []), f"{path.name} imports inside {owners}"


def _calls_prime_divisors(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and (
        (isinstance(node.func, ast.Name) and node.func.id == "prime_divisors")
        or (isinstance(node.func, ast.Attribute) and node.func.attr == "prime_divisors")
    )


def _prime_divisor_tests(tree: ast.AST) -> list[int]:
    """Lines of the `or` tests that take a remainder and compare
    prime_divisors(...) with something, and of the comparisons of
    prime_divisors(...) with a list: the test that p is a prime dividing
    n, or that x is prime, written out."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.Or):
            parts = [v.left if isinstance(v, ast.Compare) else v for v in node.values]
            has_mod = any(isinstance(v, ast.BinOp) and isinstance(v.op, ast.Mod) for v in parts)
            if has_mod and any(map(_calls_prime_divisors, parts)):
                lines.add(node.lineno)
        elif isinstance(node, ast.Compare) and _calls_prime_divisors(node.left):
            if any(isinstance(c, ast.List) for c in node.comparators):
                lines.add(node.lineno)
    return sorted(lines)


def test_prime_divisor_rule_sees_the_test_written_out():
    source = (
        "if p < 2 or g.order() % p or prime_divisors(p) != [p]:\n    pass\n"
        "ok = not (n % p != 0 or iso.prime_divisors(p) != [p])\n"
        "if q < 3 or prime_divisors(q) != [q]:\n    pass\n"
        "if n % p or p < 2:\n    pass\n"
        "prime = prime_divisors(x) == [x]\n"
        "top = prime_divisors(n)[0]\n"
    )
    assert _prime_divisor_tests(ast.parse(source)) == [1, 3, 4, 8]


def test_the_prime_divisor_test_is_written_once():
    """Whether p is a prime dividing n is `iso.is_prime_divisor`, which
    tests p < 2 and n % p before it factors p; its callers, x's primality
    as is_prime_divisor(x, x) included, keep only their own error
    messages."""
    found = [
        (path.name, line)
        for path in MODULES
        for line in _prime_divisor_tests(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert [name for name, _ in found] == ["iso.py"], f"the prime-divisor test is written at {found}"


def _intersection_orders(tree: ast.AST) -> list[int]:
    """Lines that call .order() on an intersection(...) result."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "order"
        and isinstance(node.func.value, ast.Call)
        and (
            (isinstance(node.func.value.func, ast.Name) and node.func.value.func.id == "intersection")
            or (
                isinstance(node.func.value.func, ast.Attribute)
                and node.func.value.func.attr == "intersection"
            )
        )
    )


def test_intersection_order_rule_sees_the_order_of_a_built_meet():
    source = (
        "n = intersection(a, b).order()\n"
        "m = group.intersection(a, b).order() // 2\n"
        "k = intersection_order(a, b)\n"
        "d = intersection(a, b)\n"
        "e = d.order()\n"
        "f = g.intersection(a).order()\n"
    )
    assert _intersection_orders(ast.parse(source)) == [1, 2, 6]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_the_order_of_a_meet_is_counted_not_built(path):
    """|A cap B| alone is `group.intersection_order`, which counts the
    smaller group's members with no group built; building A cap B to read
    its order builds a chain nobody reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = _intersection_orders(tree)
    assert lines == [], f"{path.name} reads the order of an intersection(...) at lines {lines}"

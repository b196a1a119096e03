import argparse
import ast
import os
import subprocess
import sys
from pathlib import Path

import doubleflag
from doubleflag.cli import build_parser

SOURCES = sorted(Path(doubleflag.__file__).parent.rglob("*.py"))


def test_sources_found():
    assert {path.name for path in SOURCES} >= {"core.py", "hecke.py", "oracle.py", "cli.py"}


def test_no_assert_statements():
    # `python -O` strips assert statements, so a check written as one would
    # silently stop running; every check must raise explicitly instead.
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_global_statements():
    # A function that rebinds module state shares it with every caller in
    # the process, so one call or test can change the next; caches belong
    # to functools.lru_cache, and other state to an object that is passed.
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Global)
    ]
    assert found == []


# Methods that change a list, dict, set or deque in place.
MUTATING_METHODS = frozenset(
    "append extend insert pop remove clear update setdefault popitem add discard sort"
    " reverse difference_update intersection_update symmetric_difference_update"
    " __setitem__ __delitem__ appendleft extendleft popleft rotate".split()
)


def _root_name(node):
    """The name a chain of subscripts and attributes starts from, or None."""
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _bound_names(node):
    """The names a function or lambda binds in its own scope: its
    parameters and every name it stores, not counting nested scopes."""
    args = node.args
    names = {a.arg for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]}
    names.update(a.arg for a in (args.vararg, args.kwarg) if a)
    body = node.body if isinstance(node.body, list) else [node.body]
    stack = list(body)
    while stack:
        child = stack.pop()
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Store):
            names.add(child.id)
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(child.name)
            continue
        elif isinstance(child, ast.Lambda):
            continue
        stack.extend(ast.iter_child_nodes(child))
    return names


def module_state_writes(source):
    """Lines where a function stores into (or deletes) a subscript of a
    module-level name, or calls a mutating method on one, where the
    function and its enclosing functions do not bind that name."""
    tree = ast.parse(source)
    module_names = set()
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            module_names.add(stmt.name)
        elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
            module_names.update((a.asname or a.name).split(".")[0] for a in stmt.names)
        else:
            module_names.update(
                n.id
                for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
            )
    found = []

    def visit(node, shared):
        # shared: the module-level names this scope reads from the module
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                visit(child, shared - _bound_names(child))
                continue
            target = None
            if isinstance(child, ast.Subscript) and isinstance(child.ctx, (ast.Store, ast.Del)):
                target = child
            elif (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr in MUTATING_METHODS
            ):
                target = child.func.value
            if target is not None and _root_name(target) in shared:
                found.append(child.lineno)
            visit(child, shared)

    def outermost_functions(node):
        # module and class statements may build module state; functions may not
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                yield child
            else:
                yield from outermost_functions(child)

    for function in outermost_functions(tree):
        visit(function, module_names - _bound_names(function))
    return sorted(set(found))


def test_module_state_writes_detected():
    source = (
        "import sys\n"
        "_MEMO = {}\n"
        "_SEEN = []\n"
        "def f(x):\n"
        "    _MEMO[x] = 1\n"
        "    _SEEN.append(x)\n"
        "    sys.modules['m'] = None\n"
        "    def g(_MEMO):\n"
        "        _MEMO[x] = 2\n"
        "    return lambda: _MEMO.clear()\n"
        "def h(_SEEN):\n"
        "    _SEEN.append(1)\n"
        "    local = {}\n"
        "    local[1] = _MEMO.get(1)\n"
        "    def inner():\n"
        "        _SEEN.append(2)\n"
        "class C:\n"
        "    def m(self):\n"
        "        del _MEMO[0]\n"
    )
    assert module_state_writes(source) == [5, 6, 7, 10, 19]


def test_no_module_state_written_by_functions():
    # test_no_global_statements keeps functions from rebinding module names;
    # this keeps them from changing module-level objects in place.  A cache
    # belongs to functools.lru_cache, other state to an object that is passed.
    found = [
        f"{path.name}:{line}"
        for path in SOURCES
        for line in module_state_writes(path.read_text(encoding="utf-8"))
    ]
    assert found == []


def _is_modular_inverse(node):
    """Whether the node is a call ``pow(_, -1, _)``."""
    if not (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "pow"
        and len(node.args) == 3
    ):
        return False
    exp = node.args[1]  # -1 parses as unary minus applied to 1
    return (
        isinstance(exp, ast.UnaryOp)
        and isinstance(exp.op, ast.USub)
        and isinstance(exp.operand, ast.Constant)
        and exp.operand.value == 1
    )


def modular_inverse_sites(source, module):
    """The dotted names (module, classes, functions) of the innermost
    functions or classes whose own code calls ``pow(_, -1, _)``."""
    found = set()

    def visit(node, name):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{name}.{child.name}")
                continue
            if _is_modular_inverse(child):
                found.add(name)
            visit(child, name)

    visit(ast.parse(source), module)
    return found


def test_modular_inverse_sites_detected():
    source = (
        "def f(x, p):\n"
        "    return pow(x, -1, p)\n"
        "class C:\n"
        "    def m(self, x, p):\n"
        "        def inner():\n"
        "            return pow(x, -1, p)\n"
        "        return pow(x, 2, p) + pow(x, -1)\n"
        "def g(x, p):\n"
        "    return [pow(y, -1, p) for y in x]\n"
    )
    assert modular_inverse_sites(source, "mod") == {"mod.f", "mod.C.m.inner", "mod.g"}


def test_modular_inverse_only_in_insert_and_transform():
    # The oracle has one elimination routine, _insert; _transform's local
    # fix-up is the one other place that scales a row to a leading 1.  A
    # second copy of the scaling elsewhere would be a second routine.
    found = set().union(
        *(modular_inverse_sites(path.read_text(encoding="utf-8"), path.stem) for path in SOURCES)
    )
    assert found == {"oracle._insert", "oracle._transform"}


def _modules_after_cli_import():
    """Modules a fresh ``python -S`` process holds after importing the CLI."""
    code = "import sys, doubleflag, doubleflag.cli; print(' '.join(sys.modules))"
    env = dict(os.environ, PYTHONPATH=str(Path(doubleflag.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    loaded = set(proc.stdout.split())
    assert "doubleflag.cli" in loaded
    return loaded


def test_import_loads_no_dataclass_machinery():
    # Every CLI run and benchmark worker is a fresh process.  dataclasses
    # pulls in inspect, ast, dis and tokenize, and building a dataclass
    # execs its generated methods: about 35 ms per start-up, more than the
    # work of a small run.  The records are named tuples instead.
    assert _modules_after_cli_import() & {"dataclasses", "inspect", "ast", "typing"} == set()


def test_import_loads_no_csv():
    # The CLI writes its CSV rows itself; only the tests use csv.writer.
    assert _modules_after_cli_import() & {"csv", "_csv"} == set()


PUBLIC_API = [
    "Graph",
    "Invariants",
    "PartialPermutationPair",
    "RankMatrix",
    "Shape",
    "admissible_triples",
    "count_orbits",
    "enumerate_graphs",
    "graph_from_matrix",
    "invariants",
    "make_graph",
    "matrix_from_graph",
    "rank_matrix",
    "weyl_act",
    "GeneratorCase",
    "ModuleVector",
    "OperatorMatrix",
    "apply_generator",
    "classify",
    "generators",
    "operator_matrix",
    "verify_relations",
    "weyl_decompose",
    "certify_theorem",
    "classify_orbits",
    "convolution_action",
    "enumerate_grassmannian",
    "gaussian_binomial",
    "rank_profile",
    "IntPoly",
    "OrbitPoset",
    "build_poset",
    "closure_leq",
    "to_dot",
]


def test_public_api_pinned():
    # a change that drops or renames a public name must say so here
    assert doubleflag.__all__ == PUBLIC_API
    for name in PUBLIC_API:
        assert getattr(doubleflag, name) is not None, name


SHAPE_OPTIONS = ["--p", "--q", "--r", "--out"]

CLI_OPTIONS = {
    "enumerate": SHAPE_OPTIONS,
    "invariants": [*SHAPE_OPTIONS, "--format"],
    "hasse": SHAPE_OPTIONS,
    "hecke-matrix": [*SHAPE_OPTIONS, "--side", "--index"],
    "weyl-decomp": SHAPE_OPTIONS,
    "verify": [*SHAPE_OPTIONS, "--field"],
}


def test_cli_options_pinned():
    # a change that adds, drops or renames a CLI flag must say so here
    actions = build_parser()._actions
    (subparsers,) = [a for a in actions if isinstance(a, argparse._SubParsersAction)]
    declared = {
        name: [
            option
            for action in sub._actions
            if not isinstance(action, argparse._HelpAction)
            for option in action.option_strings
        ]
        for name, sub in subparsers.choices.items()
    }
    assert declared == CLI_OPTIONS
    assert sum(map(len, declared.values())) == 28

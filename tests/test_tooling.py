import argparse
import ast
import os
import subprocess
import sys
from pathlib import Path

import doubleflag
from doubleflag.cli import _subcommand_parsers, build_parser, main

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


def test_modular_inverse_only_in_insert_and_image():
    # The oracle has one elimination routine, _insert; _image's local
    # fix-up is the one other place that scales a row to a leading 1.  A
    # second copy of the scaling elsewhere would be a second routine.
    found = set().union(
        *(modular_inverse_sites(path.read_text(encoding="utf-8"), path.stem) for path in SOURCES)
    )
    assert found == {"oracle._insert", "oracle._image"}


_CACHE_DECORATORS = {"cache", "lru_cache"}


def cached_definitions(source, module):
    """The dotted names (module, classes, functions) of the functions and
    classes decorated with ``functools.cache`` or ``functools.lru_cache``,
    called or not, under any spelling an import gives them: the bare
    names, ``functools.<name>``, and aliases of the names or the module."""
    tree = ast.parse(source)
    names, modules = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            names |= {a.asname or a.name for a in node.names if a.name in _CACHE_DECORATORS}
        elif isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names if a.name == "functools"}

    def is_cache(decorator):
        if isinstance(decorator, ast.Call):
            decorator = decorator.func
        if isinstance(decorator, ast.Name):
            return decorator.id in names
        return (
            isinstance(decorator, ast.Attribute)
            and decorator.attr in _CACHE_DECORATORS
            and isinstance(decorator.value, ast.Name)
            and decorator.value.id in modules
        )

    found = []

    def visit(node, name):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qualified = f"{name}.{child.name}"
                if any(map(is_cache, child.decorator_list)):
                    found.append(qualified)
                visit(child, qualified)
            else:
                visit(child, name)

    visit(tree, module)
    return found


def test_cached_definitions_detected():
    source = (
        "import functools\n"
        "import functools as ft\n"
        "from functools import cache, lru_cache as memo, wraps\n"
        "@cache\n"
        "def a(): pass\n"
        "@memo(maxsize=2)\n"
        "def b(): pass\n"
        "@functools.lru_cache\n"
        "class C:\n"
        "    @ft.cache\n"
        "    def m(self): pass\n"
        "    @wraps(a)\n"
        "    def n(self): pass\n"
        "@staticmethod\n"
        "@functools.lru_cache(maxsize=None, typed=True)\n"
        "def d(): pass\n"
        "@lru_cache\n"
        "def e(): pass\n"
        "@other.cache\n"
        "def f(): pass\n"
    )
    # lru_cache is imported only as memo and `other` is not functools, so
    # neither e nor f is cached
    assert cached_definitions(source, "mod") == ["mod.a", "mod.b", "mod.C", "mod.C.m", "mod.d"]


# Every process-wide cache in src/: each lives as long as the process, so
# each docstring bounds what it holds.  A new one is added here on purpose,
# with its bound; the point values of the Hecke rule need none, since
# _image_terms and _relations take them from their caller.
CACHED_DEFINITIONS = {
    "cli.build_parser",
    "cli._row_template",
    "cli._rank_row_template",
    "cli._rank_row",
    "core.enumerate_graphs",
    "core.count_orbits",
    "core.invariants",
    "core.rank_matrix",
    "hecke.Basis",
    "hecke._block_verdicts",
    "oracle._span_table",
    "oracle.classify_orbits",
    "oracle._transform",
}


def test_process_wide_caches_pinned():
    found = [
        name
        for path in SOURCES
        for name in cached_definitions(path.read_text(encoding="utf-8"), path.stem)
    ]
    assert len(CACHED_DEFINITIONS) == 13
    assert sorted(found) == sorted(CACHED_DEFINITIONS)


def _run_python_S(code):
    """Run ``code`` in a fresh ``python -S`` process that imports this
    checkout's doubleflag, and return the finished process."""
    env = dict(os.environ, PYTHONPATH=str(Path(doubleflag.__file__).parent.parent))
    return subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True)


def _modules_after_cli_import():
    """Modules a fresh ``python -S`` process holds after importing the CLI."""
    proc = _run_python_S("import sys, doubleflag, doubleflag.cli; print(' '.join(sys.modules))")
    assert proc.returncode == 0, proc.stderr
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


def test_only_argparse_calls_load_argparse():
    # argparse and the gettext it imports add about 2.5 ms to every
    # start-up.  An exact call loads neither; a bad flag loads both and
    # gets argparse's usage and error lines, with exit code 2.
    code = (
        "import sys, doubleflag.cli\n"
        "def loaded():\n"
        "    print(sorted({'argparse', 'gettext'} & set(sys.modules)), file=sys.stderr)\n"
        "loaded()\n"
        "shape = ['--p', '1', '--q', '1', '--r', '1']\n"
        "doubleflag.cli.main(['weyl-decomp', *shape])\n"
        "loaded()\n"
        "try:\n"
        "    doubleflag.cli.main(['weyl-decomp', *shape, '--bogus', '1'])\n"
        "finally:\n"
        "    loaded()\n"
    )
    proc = _run_python_S(code)
    assert proc.returncode == 2
    assert proc.stdout.startswith('{\n  "blocks": [')
    assert proc.stderr.splitlines() == [
        "[]",
        "[]",
        "usage: doubleflag weyl-decomp [-h] --p P --q Q --r R [--out OUT]",
        "doubleflag weyl-decomp: error: unrecognized arguments: --bogus 1",
        "['argparse', 'gettext']",
    ]


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
    declared = {
        name: [
            option
            for action in sub._actions
            if not isinstance(action, argparse._HelpAction)
            for option in action.option_strings
        ]
        for name, sub in _subcommand_parsers(build_parser()).items()
    }
    assert declared == CLI_OPTIONS
    assert sum(map(len, declared.values())) == 28


def test_main_parses_each_subcommand_call_once(monkeypatch, tmp_path):
    # A call the strict reader takes builds no parser and makes no argparse
    # parse.  A call it refuses, here for an abbreviated option, is parsed
    # once, by that subcommand's parser.  The full top-level parse scans
    # the same strings twice: once itself, then in the subcommand's parser,
    # which its _SubParsersAction calls.
    parse_known_args = argparse.ArgumentParser.parse_known_args
    parses, builds = [], []

    def counted(self, *args, **kwargs):
        parses.append(self.prog)
        return parse_known_args(self, *args, **kwargs)

    def counted_build():
        builds.append(1)
        return build_parser()

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    monkeypatch.setattr(doubleflag.cli, "build_parser", counted_build)
    extra = {"hecke-matrix": ["--side", "+", "--index", "1"], "verify": ["--field", "3"]}
    for command in CLI_OPTIONS:
        argv = [command, "--p", "2", "--q", "1", "--r", "1", *extra.get(command, [])]
        build_parser().parse_args(argv)
        assert parses == ["doubleflag", f"doubleflag {command}"]
        parses.clear()
        assert main(argv) == 0
        assert parses == [] and builds == []
        assert main([*argv, "--ou", str(tmp_path / command)]) == 0
        assert parses == [f"doubleflag {command}"] and builds == [1]
        parses.clear()
        builds.clear()
    assert main(["verify", "--fi", "3", "--p", "1", "--q", "1", "--r", "1"]) == 0
    assert parses == ["doubleflag verify"] and builds == [1]

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

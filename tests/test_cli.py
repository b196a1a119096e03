import argparse
import csv
import io
import json
import math
import os
import random
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from doubleflag import (
    GeneratorCase,
    Graph,
    ModuleVector,
    Shape,
    admissible_triples,
    cli,
    core,
    enumerate_graphs,
    hecke,
    invariants,
    oracle,
    rank_matrix,
)
from doubleflag.cli import main
from reference import reference_operator_entries


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def shape_flags(shape):
    return ["--p", str(shape.p), "--q", str(shape.q), "--r", str(shape.r)]


def assert_json_bytes(out):
    # the bytes json.dumps writes for the same value
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


# Every shape with p+q <= 7.
SMALL_SHAPES = [Shape(p, n - p, r) for n in range(2, 8) for p in range(1, n) for r in range(n + 1)]

# Every shape with p+q <= 5, and p+q <= 4 for verify.
ROUND_TRIP_SHAPES = [s for s in SMALL_SHAPES if s.n <= 5]


def test_json_outputs_round_trip_through_json_dumps(capsys):
    # Every JSON subcommand writes exactly json.dumps of what it wrote.
    runs = 0
    for shape in ROUND_TRIP_SHAPES:
        jobs = [["enumerate"], ["invariants", "--format", "json"], ["weyl-decomp"]]
        if shape.n <= 4:
            jobs.append(["verify", "--field", "3"])
        for command, *extra in jobs:
            code, out = run(capsys, command, *shape_flags(shape), *extra)
            assert code == 0, (command, shape)
            assert_json_bytes(out)
            runs += 1
    assert runs == 176


# The two subcommands that write one JSON row per orbit, with their flags.
ROW_COMMANDS = {"enumerate": [], "invariants": ["--format", "json"]}


def expected_rows(command, shape):
    """``json.dumps`` of the rows ``command`` writes, built from the public
    records, not from the CLI's templates."""
    graphs = enumerate_graphs(shape)
    if command == "enumerate":
        rows = [g.to_json() for g in graphs]
    else:
        rows = [
            {
                **invariants(g)._asdict(),
                "graph": g.to_json(),
                "rank_matrix": rank_matrix(g).entries,
            }
            for g in graphs
        ]
    return json.dumps(rows, sort_keys=True, indent=2) + "\n"


def test_enumerate_bytes_match_json_dumps(capsys):
    # Past p+q <= 7: the ORBIT_BUDGET ceiling (5,4,5), and r = 0 and r = n,
    # whose types write only empty lists.
    assert len(SMALL_SHAPES) == 133
    assert len(enumerate_graphs(Shape(5, 4, 5))) == 2866
    for shape in [*SMALL_SHAPES, Shape(5, 4, 5), Shape(5, 4, 0), Shape(5, 4, 9)]:
        code, out = run(capsys, "enumerate", *shape_flags(shape))
        assert code == 0
        assert out == expected_rows("enumerate", shape), shape


def test_invariants_json_bytes_match_json_dumps(capsys):
    # The rows are written from one template per orbit type; compare them
    # with json.dumps of rows built from the public records.  Past p+q <= 7:
    # the two shapes the benchmark's closure workload writes.
    for shape in [*SMALL_SHAPES, Shape(4, 4, 4), Shape(5, 3, 4)]:
        code, out = run(capsys, "invariants", *shape_flags(shape), "--format", "json")
        assert code == 0
        assert out == expected_rows("invariants", shape), shape


def test_json_rows_do_not_depend_on_call_order(capsys):
    # The row templates and rank-row texts are cached once per process, by
    # (row kind, orbit type) and by row, whichever shape first needs them;
    # every later shape must still get json.dumps of its own records.
    cli._row_template.cache_clear()
    cli._rank_row.cache_clear()
    cli._rank_row_template.cache_clear()
    shapes = list(SMALL_SHAPES)
    random.Random(34).shuffle(shapes)
    expected = {
        (command, shape): expected_rows(command, shape)
        for command in ROW_COMMANDS
        for shape in shapes
    }
    for order in (shapes, shapes[::-1]):
        for shape in order:
            for command, flags in ROW_COMMANDS.items():
                code, out = run(capsys, command, *shape_flags(shape), *flags)
                assert code == 0
                assert out == expected[command, shape], (command, shape)


def test_hasse_and_invariants_compute_each_orbit_once(capsys):
    # build_poset's dimensions and the invariants rows share one cached
    # computation per orbit.
    flags = shape_flags(Shape(4, 4, 4))
    invariants.cache_clear()
    assert run(capsys, "hasse", *flags)[0] == 0
    assert run(capsys, "invariants", *flags, "--format", "json")[0] == 0
    info = invariants.cache_info()
    assert (info.misses, info.hits) == (1038, 1038)


def test_hasse_and_invariants_build_one_record_per_orbit_type(monkeypatch, capsys):
    # DOT labels and JSON rows are filled from Graph.record_ints.  The one
    # record per orbit type that a JSON row template needs has every int 0,
    # so no orbit's record is built at all.
    calls = []
    to_json = Graph.to_json

    def counted(g):
        calls.append(g)
        return to_json(g)

    monkeypatch.setattr(Graph, "to_json", counted)
    shape = Shape(4, 4, 4)
    assert run(capsys, "hasse", *shape_flags(shape))[0] == 0
    assert run(capsys, "invariants", *shape_flags(shape), "--format", "json")[0] == 0
    assert calls == []


# The subcommands whose text writers cut the orbits into type blocks.
BLOCK_WRITERS = [["hasse"], ["enumerate"], ["invariants", "--format", "json"]]


@pytest.mark.parametrize("command", BLOCK_WRITERS, ids=lambda c: c[0])
def test_writers_refuse_shifted_type_blocks(monkeypatch, capsys, command):
    # triple_count damaged where the writers look it up, one type +1 and
    # the next -1, so the total (and the budget check) still holds: every
    # adjacent pair of (2,2,2)'s types must end the call with exit 1 and
    # nothing on stdout.
    shape = Shape(2, 2, 2)
    triples = admissible_triples(shape)
    exact = core.triple_count
    for a, b in zip(triples, triples[1:]):
        shift = {a: 1, b: -1}
        monkeypatch.setattr(
            core, "triple_count", lambda s, t, shift=shift: exact(s, t) + shift.get(t, 0)
        )
        code = main([command[0], *shape_flags(shape), *command[1:]])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, ""), (command, a)
        assert captured.err.startswith("verification failure: "), captured.err


def test_shifted_type_blocks_refused_under_optimize():
    # ``python -O`` strips asserts; the block check must still end each
    # writer's call with exit 1 and nothing on stdout.
    script = (
        "import contextlib, io\n"
        "from doubleflag import cli, core\n"
        "print(__debug__)\n"
        "exact = core.triple_count\n"
        "shift = {(0, 1, 1): 1, (0, 2, 0): -1}\n"
        "core.triple_count = lambda s, t: exact(s, t) + shift.get(t, 0)\n"
        f"for command in {BLOCK_WRITERS!r}:\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        code = cli.main([command[0], '--p', '2', '--q', '2', '--r', '2', *command[1:]])\n"
        "    print(code, repr(out.getvalue()))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n" + "1 ''\n" * len(BLOCK_WRITERS)
    assert proc.stderr.count("verification failure: ") == len(BLOCK_WRITERS)


def test_hecke_matrix_bytes_match_csv_writer(capsys):
    # every generator of every shape with p+q = 7
    runs = 0
    for shape in SMALL_SHAPES:
        if shape.n != 7:
            continue
        gens = [("+", i) for i in range(1, shape.p)] + [("-", j) for j in range(1, shape.q)]
        for side, i in gens:
            argv = [*shape_flags(shape), "--side", side, "--index", str(i)]
            code, out = run(capsys, "hecke-matrix", *argv)
            buf = io.StringIO()
            csv.writer(buf).writerows(
                [str(e) for e in row] for row in hecke.operator_matrix(shape, side, i).entries
            )
            assert code == 0
            assert out == buf.getvalue(), (shape, side, i)
            runs += 1
    assert runs == 240


def test_hecke_matrix_bytes_match_csv_writer_on_reference_entries(capsys):
    # The CSV from the sparse rows against csv.writer over the dense
    # entries built as before the sparse rows, one generator per side.
    for shape in [Shape(4, 4, 4), Shape(5, 3, 4)]:
        for side in "+-":
            argv = [*shape_flags(shape), "--side", side, "--index", "1"]
            code, out = run(capsys, "hecke-matrix", *argv)
            buf = io.StringIO()
            csv.writer(buf).writerows(
                [str(e) for e in row] for row in reference_operator_entries(shape, side, 1)
            )
            assert code == 0
            assert out == buf.getvalue(), (shape, side)


def test_hecke_matrix_builds_no_dense_row(monkeypatch, capsys):
    # hecke-matrix writes its CSV from the sparse rows' terms alone.
    argv = ["hecke-matrix", "--p", "3", "--q", "3", "--r", "3", "--side", "+", "--index", "2"]
    code, expected = run(capsys, *argv)
    assert code == 0 and expected.count("\r\n") == len(hecke.Basis(Shape(3, 3, 3)))

    def fail(*args):
        raise AssertionError("dense row built")

    monkeypatch.setattr(hecke._SparseRows, "__getitem__", fail)
    monkeypatch.setattr(hecke._SparseRows, "__iter__", fail)
    with pytest.raises(AssertionError):
        hecke.operator_matrix(Shape(3, 3, 3), "+", 2).entries[0]
    assert run(capsys, *argv) == (0, expected)


@pytest.mark.parametrize("text", ["", "a,b", 'q"', "q\r", "1\n"])
def test_hecke_matrix_refuses_entries_csv_would_quote(monkeypatch, capsys, text):
    # Every nonzero entry of the sparse rows, at its own position, is a
    # stub whose text csv.writer would quote; nothing reaches stdout.
    class Entry:
        def __str__(self):
            return text

    op = hecke.operator_matrix(Shape(1, 2, 1), "-", 1)
    terms = tuple(tuple((col, Entry()) for col, _ in row) for row in op.entries.terms)
    entries = hecke._SparseRows(len(op.entries), terms)
    monkeypatch.setattr(cli, "operator_matrix", lambda *args: op._replace(entries=entries))
    argv = ["hecke-matrix", "--p", "1", "--q", "2", "--r", "1", "--side", "-", "--index", "1"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "CSV quoting" in captured.err
    assert captured.out == ""


def test_enumerate_json(capsys):
    code, out = run(capsys, "enumerate", "--p", "2", "--q", "2", "--r", "2")
    assert code == 0
    records = json.loads(out)
    assert len(records) == 16
    assert all(rec["p"] == 2 for rec in records)


def test_enumerate_deterministic(capsys):
    _, first = run(capsys, "enumerate", "--p", "2", "--q", "2", "--r", "2")
    _, second = run(capsys, "enumerate", "--p", "2", "--q", "2", "--r", "2")
    assert first == second


def test_invariants_contains_paper_row(capsys):
    code, out = run(capsys, "invariants", "--p", "5", "--q", "3", "--r", "4",
                    "--format", "json")
    assert code == 0
    rows = json.loads(out)
    target = [
        row
        for row in rows
        if row["graph"]["edges"] == [[2, 3], [4, 1]]
        and row["graph"]["marked_plus"] == [5]
        and row["graph"]["marked_minus"] == [2]
    ]
    assert len(target) == 1
    row = target[0]
    assert (row["a_plus"], row["a_minus"], row["b"], row["c"]) == (7, 1, 2, 1)
    assert row["rank_matrix"] == [
        [0, 0, 1, 1],
        [0, 0, 1, 1],
        [0, 0, 1, 2],
        [0, 0, 1, 2],
        [0, 1, 2, 3],
        [1, 2, 3, 4],
    ]


def invariants_text(rows):
    """Test-local copy of the ``invariants`` text format, from the JSON rows."""
    lines = []
    for row in rows:
        g = row["graph"]
        lines.append(
            f"edges={g['edges']} marked+={g['marked_plus']} marked-={g['marked_minus']}"
            f"  a+={row['a_plus']} a-={row['a_minus']} b={row['b']} c={row['c']}"
            f" dim={row['dim']}"
        )
        lines.extend("    " + " ".join(map(str, mrow)) for mrow in row["rank_matrix"])
    return "\n".join(lines) + "\n"


def test_invariants_text_matches_json_rows(capsys):
    # every shape with p+q <= 6, text being the default format
    for shape in [s for s in SMALL_SHAPES if s.n <= 6]:
        code, text = run(capsys, "invariants", *shape_flags(shape))
        assert code == 0
        _, out = run(capsys, "invariants", *shape_flags(shape), "--format", "json")
        assert text == invariants_text(json.loads(out)), shape


def test_invariants_text_literal(capsys):
    code, out = run(capsys, "invariants", "--p", "1", "--q", "1", "--r", "1")
    assert code == 0
    assert out == (
        "edges=[] marked+=[] marked-=[1]  a+=0 a-=0 b=0 c=0 dim=0\n"
        "    0 1\n"
        "    0 1\n"
        "edges=[] marked+=[1] marked-=[]  a+=0 a-=0 b=0 c=0 dim=0\n"
        "    0 0\n"
        "    1 1\n"
        "edges=[[1, 1]] marked+=[] marked-=[]  a+=0 a-=0 b=1 c=0 dim=1\n"
        "    0 0\n"
        "    0 1\n"
    )


def test_hasse_dot(capsys):
    code, out = run(capsys, "hasse", "--p", "2", "--q", "2", "--r", "2")
    assert code == 0
    assert out.startswith("digraph")
    assert out.endswith("}\n")


def test_hecke_matrix_csv(capsys):
    code, out = run(capsys, "hecke-matrix", "--p", "2", "--q", "2", "--r", "2",
                    "--side", "+", "--index", "1")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()]
    assert len(rows) == 16
    assert all(len(row) == 16 for row in rows)
    cells = {cell for row in rows for cell in row}
    assert cells <= {"0", "1", "q", "q-1"}


def test_weyl_decomp(capsys):
    code, out = run(capsys, "weyl-decomp", "--p", "2", "--q", "2", "--r", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["total_orbits"] == 16
    assert sum(blk["orbit_size"] for blk in payload["blocks"]) == 16


def test_weyl_decomp_builds_no_orbit_table(monkeypatch, capsys):
    # The blocks are read off the types: no orbit is enumerated and no
    # action table built.  Each module holds its own imported name.
    argv = ["weyl-decomp", "--p", "4", "--q", "4", "--r", "4"]
    code, expected = run(capsys, *argv)
    assert code == 0
    for module, name in [(hecke, "Basis"), (hecke, "enumerate_graphs"), (cli, "enumerate_graphs")]:
        def not_reached(*args, _name=name, **kwargs):
            pytest.fail(f"weyl-decomp called {_name}")

        monkeypatch.setattr(module, name, not_reached)
    assert run(capsys, *argv) == (0, expected)


def test_verify_passes(capsys):
    code, out = run(capsys, "verify", "--p", "2", "--q", "2", "--r", "2",
                    "--field", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True


def test_verify_certifies_distinct_fields(capsys):
    # Distinct fields within the budget in all are certified one by one.
    code, out = run(capsys, "verify", "--p", "2", "--q", "2", "--r", "2",
                    "--field", "3", "--field", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True and payload["fields"] == [3, 5]
    assert [entry["field"] for entry in payload["certification"]] == [3, 5]


def test_verify_names_relation_witness(monkeypatch, capsys):
    # Passing relations print only name and ok; a failed one adds the first
    # orbit index whose residue is nonzero.
    def case_ii_partner_one(idx, case, jdx, at=hecke._SYMBOLIC):
        if hecke._CASES[case] is GeneratorCase.CASE_II:
            _, q_minus_one, one = at
            return ((idx, q_minus_one), (jdx, one))
        return image_terms(idx, case, jdx, at)

    image_terms = hecke._image_terms
    argv = ["verify", "--p", "2", "--q", "2", "--r", "2", "--field", "3"]
    _, out = run(capsys, *argv)
    assert all(set(rel) == {"name", "ok"} for rel in json.loads(out)["relations"])

    monkeypatch.setattr(hecke, "_image_terms", case_ii_partner_one)
    code, out = run(capsys, *argv)
    assert code == 1
    assert_json_bytes(out)
    expected = {rc.name: rc.witness for rc in hecke.verify_relations(Shape(2, 2, 2))}
    relations = json.loads(out)["relations"]
    assert any(not rel["ok"] for rel in relations)
    for rel in relations:
        if rel["ok"]:
            assert set(rel) == {"name", "ok"}
        else:
            assert rel["witness"] == expected[rel["name"]] is not None


def test_verify_names_certification_witness(monkeypatch, capsys):
    # Passing certifications print no witness; a failed one names its first
    # mismatching record.  Raise one symbolic coefficient on two records:
    # records run generator by generator, + before -, so the witness is
    # the + record although its orbit index is higher.  The expected
    # coefficients come from ``_image_terms`` of a record's orbit, case and
    # partner, so the two records are picked by those arguments; (+1, 9)
    # and (-1, 6) give arguments that no other record of (2,2,2) gives.
    shape = Shape(2, 2, 2)
    basis = hecke.Basis(shape)
    picked = [(("+", 1), 9), (("-", 1), 6)]
    perturbed = {(k, basis.cases[gen][k], basis.partners[gen][k]) for gen, k in picked}
    argv = ["verify", "--p", "2", "--q", "2", "--r", "2", "--field", "3"]
    _, out = run(capsys, *argv)
    assert all("witness" not in entry for entry in json.loads(out)["certification"])

    def raised(idx, case, jdx, at=hecke._SYMBOLIC):
        terms = sorted(image_terms(idx, case, jdx, at))
        if (idx, case, jdx) in perturbed:
            (k, c), *rest = terms
            terms = [(k, c + at[2]), *rest]
        return tuple(terms)

    image_terms = oracle._image_terms
    monkeypatch.setattr(oracle, "_image_terms", raised)
    code, out = run(capsys, *argv)
    assert code == 1
    assert_json_bytes(out)
    payload = json.loads(out)
    assert all(rel["ok"] for rel in payload["relations"])
    observed = hecke.apply_generator("+", 1, ModuleVector.basis_vector(shape, 9))
    observed = {str(k): c(3) for k, c in sorted(observed.coords.items())}
    expected = dict(observed)
    expected[min(observed, key=int)] += 1
    case = hecke.classify(hecke.Basis(shape).graphs[9], "+", 1).value
    assert payload["certification"] == [
        {
            "field": 3,
            "classification_ok": True,
            "action_ok": False,
            "mismatches": 2,
            "witness": {
                "field": 3,
                "generator": "+1",
                "orbit": 9,
                "case": case,
                "expected": expected,
                "observed": observed,
            },
        }
    ]


def test_verify_fails_on_wrong_orbit_size(monkeypatch, capsys):
    # One more dimension per orbit predicts F times more points than the
    # classification counts, so only classification_ok may fail.
    def dim_plus_one(g):
        inv = invariants(g)
        return inv._replace(dim=inv.dim + 1)

    invariants = oracle.invariants
    monkeypatch.setattr(oracle, "invariants", dim_plus_one)
    code, out = run(capsys, "verify", "--p", "2", "--q", "2", "--r", "2",
                    "--field", "3")
    assert code == 1
    assert_json_bytes(out)
    payload = json.loads(out)
    assert payload["ok"] is False
    assert payload["certification"] == [
        {"field": 3, "classification_ok": False, "action_ok": True, "mismatches": 0}
    ]


def assert_refused(capsys, argv):
    """A refused run exits 2, writes nothing on stdout and one ``error:``
    line on stderr; returns that line."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    return lines[0]


def test_bad_shape_exits_2(capsys):
    assert_refused(capsys, ["enumerate", "--p", "0", "--q", "1", "--r", "0"])


def test_bad_generator_exits_2(capsys):
    assert_refused(capsys, ["hecke-matrix", "--p", "1", "--q", "1", "--r", "1",
                            "--side", "+", "--index", "1"])


def test_bad_field_exits_2(capsys):
    assert_refused(capsys, ["verify", "--p", "1", "--q", "1", "--r", "1", "--field", "2"])


@pytest.mark.parametrize(
    "argv",
    [
        ["--p", "4", "--q", "4", "--r", "4", "--field", "9"],
        # 925,771 points over F_3: over the budget by closed form
        ["--p", "4", "--q", "3", "--r", "3", "--field", "3"],
    ],
)
def test_verify_checks_fields_before_relations(monkeypatch, argv):
    def relations_not_reached(shape):
        pytest.fail("verify_relations ran before the field check")

    monkeypatch.setattr(cli, "verify_relations", relations_not_reached)
    assert main(["verify", *argv]) == 2


def test_out_file(tmp_path, capsys):
    path = tmp_path / "orbits.json"
    code = main(["enumerate", "--p", "1", "--q", "1", "--r", "1", "--out", str(path)])
    assert code == 0
    text = path.read_text()
    assert text.endswith("\n")
    assert len(json.loads(text)) == 3


def exit_of(capsys, argv):
    """The exit code, stdout and stderr of a ``main`` call that argparse
    ends by ``SystemExit``."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


def test_unknown_flag_exits_2(capsys):
    # Reported by the subcommand's own parser: its usage, then its prog
    for command in cli._COMMANDS:
        argv = [command, "--p", "1", "--q", "1", "--r", "1", *SUBCOMMAND_FLAGS[command]]
        code, out, err = exit_of(capsys, [*argv, "--bogus", "1"])
        assert code == 2 and out == ""
        assert err.startswith(f"usage: doubleflag {command} [-h] --p P")
        assert err.endswith(f"\ndoubleflag {command}: error: unrecognized arguments: --bogus 1\n")


def test_main_calls_share_no_parser_state(capsys):
    assert cli.build_parser() is cli.build_parser()
    shape = ["--p", "1", "--q", "1", "--r", "1"]
    code, out = run(capsys, "verify", *shape, "--field", "5")
    assert code == 0 and json.loads(out)["fields"] == [5]
    code, out = run(capsys, "verify", *shape)
    assert code == 0 and json.loads(out)["fields"] == [3]


def test_rejected_call_leaves_parser_usable(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--p", "2", "--bogus", "1"])
    assert exc.value.code == 2
    assert main(["enumerate", "--p", "0", "--q", "1", "--r", "0"]) == 2
    code, out = run(capsys, "enumerate", "--p", "2", "--q", "2", "--r", "2")
    assert code == 0
    assert len(json.loads(out)) == 16


def test_unwritable_out_exits_2(tmp_path, capsys):
    path = tmp_path / "missing" / "orbits.json"
    assert_refused(capsys, ["enumerate", "--p", "1", "--q", "1", "--r", "1", "--out", str(path)])
    assert not path.exists()


# Every call by which a subcommand starts its work; an over-budget run must
# exit before reaching any of them.
WORK_ENTRY_POINTS = [
    "enumerate_graphs",
    "build_poset",
    "operator_matrix",
    "weyl_decompose",
    "verify_relations",
    "_check_fields",
]

SUBCOMMAND_FLAGS = {
    "enumerate": [],
    "invariants": [],
    "hasse": [],
    "hecke-matrix": ["--side", "+", "--index", "1"],
    "weyl-decomp": [],
    "verify": ["--field", "3"],
}


def _forbid_work(monkeypatch):
    for name in WORK_ENTRY_POINTS:
        def not_reached(*args, _name=name, **kwargs):
            pytest.fail(f"{_name} ran before the budget check")

        monkeypatch.setattr(cli, name, not_reached)


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_FLAGS))
def test_orbit_budget_checked_before_work(monkeypatch, capsys, command):
    # (5,5,5) has 10,922 orbits by the closed form, over ORBIT_BUDGET
    assert cli.count_orbits(cli.Shape(5, 5, 5)) > cli.ORBIT_BUDGET
    _forbid_work(monkeypatch)
    argv = [command, "--p", "5", "--q", "5", "--r", "5", *SUBCOMMAND_FLAGS[command]]
    # Refused by the orbit count: for verify that is before the field list,
    # which F_3 would also refuse for its Grassmannian (``_check_fields``
    # is stubbed above)
    assert "10922 orbits, over the budget" in assert_refused(capsys, argv)


@pytest.mark.parametrize(
    "command, p, q, r",
    [
        ("enumerate", 10**6, 1, 1),
        ("hasse", 200000, 1, 0),
        ("verify", 2000, 1, 0),
        ("weyl-decomp", 3000, 1, 0),
    ],
)
def test_huge_shape_refused_before_orbit_count(monkeypatch, capsys, command, p, q, r):
    # The orbit count alone of (10**6, 1, 1) takes over a minute, and the
    # one-orbit shapes (r = 0) are within the orbit budget however large.
    _forbid_work(monkeypatch)
    monkeypatch.setattr(cli, "count_orbits", lambda shape: pytest.fail("orbits counted"))
    argv = [command, "--p", str(p), "--q", str(q), "--r", str(r), *SUBCOMMAND_FLAGS[command]]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_size_bound_starts_past_77_vertices(monkeypatch):
    # n(n-1)/2 <= ORBIT_BUDGET exactly for n <= 77, so no shape with p+q <= 77
    # changes its verdict; the orbit count decides those.
    cli._check_budgets(cli.Shape(76, 1, 0))
    cli._check_budgets(cli.Shape(1, 76, 1))
    monkeypatch.setattr(cli, "count_orbits", lambda shape: pytest.fail("orbits counted"))
    with pytest.raises(ValueError, match="over the budget"):
        cli._check_budgets(cli.Shape(77, 1, 0))


@pytest.mark.parametrize("r", ["1", "0"])
@pytest.mark.parametrize(
    "field",
    [str(10**399), "1000000000000000000000000000057"],
    ids=["400_digits", "31_digit_prime"],
)
def test_huge_field_refused_before_work(monkeypatch, capsys, field, r):
    # Refused by size before trial division, which would not finish on the
    # prime; only the field check itself may run.
    _forbid_work(monkeypatch)
    monkeypatch.setattr(cli, "_check_fields", oracle._check_fields)
    assert main(["verify", "--p", "1", "--q", "1", "--r", r, "--field", field]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--p", "1", "--q", "1", "--r", "1", "--field", "3", "--field", "3"], "more than once"),
        (["--p", "2", "--q", "2", "--r", "2", "--field", "5", "--field", "3", "--field", "5"],
         "more than once"),
        # 31,110 + 89,030 = 120,140 points: each field fits the budget alone
        (["--p", "2", "--q", "2", "--r", "2", "--field", "13", "--field", "17"], "120140 points"),
    ],
    ids=["field_twice", "field_twice_apart", "fields_over_budget_in_all"],
)
def test_field_list_refused_before_work(monkeypatch, capsys, flags, message):
    # Only the field check itself may run, as for a single bad field.
    sizes = [oracle.grassmannian_size(Shape(2, 2, 2), field) for field in (13, 17)]
    assert sizes == [31110, 89030] and max(sizes) <= oracle.ENUMERATION_BUDGET < sum(sizes)
    _forbid_work(monkeypatch)
    monkeypatch.setattr(cli, "_check_fields", oracle._check_fields)
    assert message in assert_refused(capsys, ["verify", *flags])


@pytest.mark.parametrize(
    "shape_flags",
    [["--p", "2", "--q", "1", "--r", "4"], ["--p", "-1", "--q", "2", "--r", "1"]],
    ids=["r_over_p_plus_q", "negative_p"],
)
@pytest.mark.parametrize("command", sorted(SUBCOMMAND_FLAGS))
def test_malformed_shape_exits_2(monkeypatch, capsys, command, shape_flags):
    _forbid_work(monkeypatch)
    assert_refused(capsys, [command, *shape_flags, *SUBCOMMAND_FLAGS[command]])


@pytest.mark.parametrize(
    "argv", [[], ["bogus"], ["hass", "--p", "1"]], ids=["empty", "unknown_word", "prefix"]
)
def test_top_level_parser_refuses_argv_without_subcommand(capsys, argv):
    # No subcommand's parser can take these, so the top-level one does
    code, out, err = exit_of(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith("usage: doubleflag [-h]")
    assert "\ndoubleflag: error: " in err


def test_top_level_help_lists_every_subcommand(capsys):
    code, out, err = exit_of(capsys, ["-h"])
    assert code == 0 and err == ""
    assert "{" + ",".join(cli._COMMANDS) + "}" in out


def outcome(capsys, argv):
    """The exit code, stdout and stderr of a ``main`` call, whether it
    returns its code or argparse ends it by ``SystemExit``."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_leading_double_dash_is_dropped(capsys):
    # On every Python: one leading "--" is dropped before dispatch, so the
    # call has the outcome of the same call without it, whether it runs,
    # prints help or is refused.  argparse would take the "--" for the
    # subcommand's name and refuse it.
    calls = [
        ["hasse", "--p", "2", "--q", "1", "--r", "1"],
        ["weyl-decomp", "--p", "2", "--q", "2", "--r", "2"],
        ["hasse", "--p", "2", "--q", "1", "--r", "1", "--bogus", "1"],
        ["hass", "--p", "1"],
        ["-h"],
    ]
    codes = []
    for argv in calls:
        expected = outcome(capsys, argv)
        assert outcome(capsys, ["--", *argv]) == expected, argv
        codes.append(expected[0])
    assert codes == [0, 0, 2, 2, 0]


def test_double_dash_alone_goes_to_the_top_level_parser(capsys):
    # Nothing is left once the "--" is dropped, so the top-level parser
    # refuses the call for want of a subcommand.  A second "--" is kept,
    # and the top-level parser refuses it as it refuses an unknown word.
    for argv in (["--"], ["--", "--"], ["--", "--", "hasse", "--p", "2", "--q", "1", "--r", "1"]):
        code, out, err = exit_of(capsys, argv)
        assert code == 2 and out == "", argv
        assert err.startswith("usage: doubleflag [-h]"), argv
        assert "\ndoubleflag: error: " in err, argv


def test_main_reads_sys_argv_by_default(monkeypatch, capsys):
    argv = ["enumerate", "--p", "2", "--q", "1", "--r", "1"]
    expected = run(capsys, *argv)
    assert expected[0] == 0 and len(json.loads(expected[1])) == 5
    monkeypatch.setattr(sys, "argv", ["doubleflag", *argv])
    assert (main(), capsys.readouterr().out) == expected
    assert (main(tuple(argv)), capsys.readouterr().out) == expected


def _golden_job_ids():
    golden = Path(__file__).resolve().parents[1] / "bench" / "golden.json"
    return list(json.loads(golden.read_text())["jobs"])


def _readme_calls():
    """Each ``doubleflag`` call in README.md's examples, as argv."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    calls = []
    for line in readme.read_text(encoding="utf-8").splitlines():
        if line.startswith("doubleflag "):
            words = shlex.split(line, comments=True)[1:]
            calls.append(words[: words.index(">")] if ">" in words else words)
    return calls


# A value for every pinned option; (2,2,1) has a generator 1 on each side.
OPTION_VALUES = {
    "--p": "2",
    "--q": "2",
    "--r": "1",
    "--out": "orbits.out",
    "--format": "json",
    "--side": "-",
    "--index": "1",
    "--field": "5",
}


def _option_calls():
    """Each subcommand with each of its pinned options, given once as two
    words and once as one ``--option=value`` word, after the subcommand's
    other required options."""
    calls = []
    for command, sub in cli._subcommand_parsers(cli.build_parser()).items():
        actions = [a for a in sub._actions if not isinstance(a, argparse._HelpAction)]
        for action in actions:
            (option,) = action.option_strings
            value = OPTION_VALUES[option]
            required = [
                word
                for other in actions
                if other.required and other is not action
                for word in (*other.option_strings, OPTION_VALUES[other.option_strings[0]])
            ]
            calls += [[command, *required, option, value], [command, *required, f"{option}={value}"]]
    return calls


def test_dispatched_namespace_equals_full_parse(monkeypatch):
    # The argv forms of every benchmark job and README example, and each
    # pinned option in both spellings, give the command the namespace the
    # full top-level parse gives.
    dispatched = []
    for command in cli._COMMANDS:
        monkeypatch.setitem(cli._COMMANDS, command, lambda args, shape: dispatched.append(args))
    benchmark = [job.split() for job in _golden_job_ids() if job.split()[0] in cli._COMMANDS]
    readme = _readme_calls()
    options = _option_calls()
    assert len(benchmark) == 515 and len(options) == 56
    assert [argv[0] for argv in readme] == list(cli._COMMANDS)
    extra = [
        ["invariants", "--format", "text", "--fo=json", "--p", "1", "--q", "1", "--r", "0"],
        ["verify", "--fi", "3", "--p", "1", "--q", "1", "--r", "1", "--field=5"],
    ]
    for argv in [*benchmark, *readme, *options, *extra]:
        main(argv)
        assert vars(dispatched.pop()) == vars(cli.build_parser().parse_args(argv)), argv
    assert not dispatched


def test_strict_reader_takes_every_benchmark_and_readme_call():
    # So the benchmark's calls, and the README's, never build a parser
    benchmark = [job.split() for job in _golden_job_ids() if job.split()[0] in cli._COMMANDS]
    assert len(benchmark) == 515
    for argv in [*benchmark, *_readme_calls()]:
        assert cli._read_exact(argv) is not None, argv


# Every flag of every subcommand, each abbreviation of one, and words that
# are no flag of any subcommand.
FLAGS = sorted(
    {flag[:end] for _, options in cli._SUBCOMMANDS.values() for flag in options for end in range(3, len(flag) + 1)}
    | {"-h", "--help", "--bogus", "-p", "--", "-"}
)
# Values argparse reads in more ways than one: signed, spaced, underscored,
# empty, flag-like and holding "=", with valid values of every option.
VALUES = ["-1", "+2", " 3", "3_0", "", "-", "--p", "x=y", *OPTION_VALUES.values(), "0", "text", "+"]


def _spelled(flag, value):
    """One option given as two words or as one ``--option=value`` word."""
    return st.sampled_from([[flag, value], [f"{flag}={value}"]])


@st.composite
def subcommand_argv(draw):
    """A subcommand, its required options with valid values but at most
    one, and up to three more pieces, in any order.  A piece is one of the
    subcommand's options with a valid value, or a flag of the subcommand
    or from ``FLAGS`` with a value from ``VALUES``, alone or both, as two
    words or one."""
    command = draw(st.sampled_from(list(cli._COMMANDS)))
    options = cli._SUBCOMMANDS[command][1]
    required = [flag for flag, opt in options.items() if opt.required]
    dropped = draw(st.one_of(st.none(), st.sampled_from(required)))
    pieces = [draw(_spelled(flag, OPTION_VALUES[flag])) for flag in required if flag != dropped]
    valid = st.sampled_from(list(options)).flatmap(lambda flag: _spelled(flag, OPTION_VALUES[flag]))
    flag = st.one_of(st.sampled_from(list(options)), st.sampled_from(FLAGS))
    value = st.sampled_from(VALUES)
    odd = st.one_of(
        st.tuples(flag, value).flatmap(lambda words: _spelled(*words)),
        flag.map(lambda word: [word]),
        value.map(lambda word: [word]),
    )
    pieces += draw(st.lists(st.one_of(valid, odd), max_size=3))
    return [command, *(word for words in draw(st.permutations(pieces)) for word in words)]


@settings(max_examples=1000, deadline=None)
@given(subcommand_argv())
@example(["verify", "--p", "1", "--q", "1", "--r", "1", "--field", "3", "--field=5"])
@example(["invariants", "--p", "1", "--q", "1", "--r", "1", "--format", "xml"])
@example(["hasse", "--p", "1", "--q", "1", "--out", "--r", "--r", "1"])
def test_strict_reader_agrees_with_argparse(argv):
    # Whatever argv the strict reader takes, the subcommand's parser reads
    # to the same namespace, on the argparse of the Python that runs this.
    args = cli._read_exact(argv)
    if args is not None:
        sub = cli._subcommand_parsers(cli.build_parser())[argv[0]]
        assert vars(args) == {**vars(sub.parse_args(argv[1:])), "command": argv[0]}


@pytest.mark.parametrize("p, q, r", [(7, 2, 0), (8, 1, 1)])
def test_weyl_decomp_admits_every_orbit_budget_shape(capsys, p, q, r):
    # p! * q! is 10,080 and 40,320 here; the orbit count alone decides what
    # weyl-decomp accepts
    assert cli.count_orbits(cli.Shape(p, q, r)) <= cli.ORBIT_BUDGET
    code, out = run(capsys, "weyl-decomp", "--p", str(p), "--q", str(q), "--r", str(r))
    assert code == 0
    blocks = json.loads(out)["blocks"]
    assert blocks
    for blk in blocks:
        assert blk["stabilizer_order"] * blk["orbit_size"] == math.factorial(p) * math.factorial(q)


def test_budgets_admit_every_benchmark_job():
    for job_id in _golden_job_ids():
        argv = job_id.split()
        shape = cli.Shape(*(int(argv[argv.index(flag) + 1]) for flag in ("--p", "--q", "--r")))
        cli._check_budgets(shape)  # raises ValueError if refused

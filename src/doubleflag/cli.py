"""Command-line front end.

Subcommands: enumerate, invariants, hasse, hecke-matrix, weyl-decomp,
verify.  Their options are declared once, in ``_SUBCOMMANDS``.  ``main``
reads a subcommand given only its exact long options, with values its
types and choices take and every required option, by ``_read_exact``,
which follows the steps argparse takes on such an argv; so every
benchmark and README call runs with argparse neither imported nor built.
argparse, built from the same table on first need, owns ``-h``, usage
and every error message.  It reads any other call that starts with a
subcommand by that subcommand's parser alone, so a bad flag after it
gets that parser's usage (``usage: doubleflag hasse ...``) and a
``doubleflag hasse: error: ...`` line, with exit code 2; any other argv
goes to the top-level parser, whose usage and error lines start
``doubleflag``.  ``tests/test_cli.py`` compares ``_read_exact`` with
argparse on generated argvs, on whatever Python runs the tests, so it
catches a later argparse that reads one of them differently.

Output is deterministic: fixed enumeration order, sorted JSON keys,
newline-terminated files.  Every JSON output is
``json.dumps(obj, sort_keys=True, indent=2)``: ``weyl-decomp`` and
``verify`` call it on their payload, and ``enumerate`` and ``invariants
--format json`` write one row per orbit through ``_json_rows``, which fills
a template that it builds once per process and orbit type by calling
``json.dumps`` on a record of that layout with every int 0.  It takes the
orbits of each type as one block, cut from the enumeration by the closed
forms ``core._type_blocks`` reads (``triple_count`` orbits per type, in
``admissible_triples`` order, as ``core.enumerate_graphs``'s docstring
proves), so no orbit's type is computed; ``hasse``'s ``poset.to_dot``
writes its nodes the same way.  CSV is
written directly, byte-identical to ``csv.writer``'s default dialect.
``tests/test_cli.py`` checks both byte for byte on small shapes, and
``tests/test_golden.py`` against the benchmark digests.
"""

from __future__ import annotations

import json
import re
import sys
from collections import namedtuple
from functools import cache, lru_cache
from types import SimpleNamespace

from .core import (
    Invariants,
    Shape,
    _type_blocks,
    count_orbits,
    enumerate_graphs,
    invariants,
    rank_matrix,
)
from .hecke import operator_matrix, verify_relations, weyl_decompose
from .oracle import _check_fields, certify_theorem, classification_ok, classify_orbits
from .polynomial import ZERO
from .poset import build_poset, to_dot

# Largest orbit count any subcommand accepts.  It admits every shape with
# p+q <= 9 (at most 2,866 orbits); the ``hecke-matrix`` CSV, which writes
# all n x n entries though it builds only the nonzero ones, is what grows
# fastest past it.  It also bounds n = p+q by
# n(n-1)/2 <= ORBIT_BUDGET, so n <= 77, before the orbit count is computed.
# ``weyl-decomp`` reads its blocks off the admissible triples by closed
# forms, with no orbit enumerated or walked and no pass over the p! * q!
# group elements, so it would fit a far larger budget; it keeps this one
# until the budgets are set per subcommand.
ORBIT_BUDGET = 3000


def _check_budgets(shape: Shape) -> None:
    """Refuse an oversized run by a closed form, before any enumeration.

    Raises ValueError if n(n-1)/2 is over ``ORBIT_BUDGET`` for n = p+q, and
    otherwise if ``count_orbits(shape)`` is.  The first test is cheap, so a
    huge shape never reaches the factorials of ``count_orbits``.  It refuses
    no shape the second would admit with 2 <= r <= n-2: there the orbits
    with no edges alone number sum_s C(p, s) C(q, r-s) = C(n, r) >= C(n, 2)
    (Vandermonde).  So it adds only shapes with r in {0, 1, n-1, n} and
    n >= 78: few orbits, but work and output that still grow with n.
    """
    n = shape.n
    if n * (n - 1) // 2 > ORBIT_BUDGET:
        raise ValueError(f"p+q = {n} is over the budget: n(n-1)/2 > {ORBIT_BUDGET}")
    orbits = count_orbits(shape)
    if orbits > ORBIT_BUDGET:
        raise ValueError(f"shape has {orbits} orbits, over the budget of {ORBIT_BUDGET}")


# One option of a subcommand: the type its value is converted by (None
# keeps the string), its choices, its default, whether it is required,
# whether it may repeat (each value appended to a list) and its help text.
_Option = namedtuple(
    "_Option", "type choices default required repeat help", defaults=(None,) * 3 + (False, False, None)
)

_SHAPE_OPTIONS = {
    "--p": _Option(int, required=True),
    "--q": _Option(int, required=True),
    "--r": _Option(int, required=True),
    "--out": _Option(help="output path (default: stdout)"),
}

# Each subcommand's help line and options by flag, in the order ``--help``
# lists them: the one grammar that ``build_parser`` and ``_read_exact`` read.
_SUBCOMMANDS = {
    "enumerate": ("list all orbit graphs as JSON", _SHAPE_OPTIONS),
    "invariants": (
        "orbital invariants and dimensions",
        {**_SHAPE_OPTIONS, "--format": _Option(choices=("text", "json"), default="text")},
    ),
    "hasse": ("closure order as a DOT diagram", _SHAPE_OPTIONS),
    "hecke-matrix": (
        "matrix of one Hecke generator as CSV",
        {
            **_SHAPE_OPTIONS,
            "--side": _Option(choices=("+", "-"), required=True),
            "--index": _Option(int, required=True, help="generator index i"),
        },
    ),
    "weyl-decomp": ("Weyl group decomposition at q=1 as JSON", _SHAPE_OPTIONS),
    "verify": (
        "relations + finite-field certification as JSON",
        {
            **_SHAPE_OPTIONS,
            "--field": _Option(
                int, repeat=True, help="odd prime field size (repeatable, each field once; default 3)"
            ),
        },
    ),
}


def _dest(flag: str) -> str:
    """The namespace attribute of a long option, as argparse names it."""
    return flag[2:].replace("-", "_")


@cache
def build_parser():
    """The ``argparse.ArgumentParser`` of ``_SUBCOMMANDS``, built once per
    process and shared by every ``main`` call that needs it.  argparse is
    imported here, not with the module, so a call that ``_read_exact``
    takes loads neither it nor the ``gettext`` it imports."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="doubleflag",
        description="K-orbit combinatorics and Hecke module structure "
        "of the (p,q|r) double flag variety",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, options) in _SUBCOMMANDS.items():
        sub = subs.add_parser(command, help=help_text)
        for flag, opt in options.items():
            sub.add_argument(
                flag,
                action="append" if opt.repeat else "store",
                type=opt.type,
                choices=opt.choices,
                default=opt.default,
                required=opt.required,
                help=opt.help,
            )
    return parser


def _read_exact(argv):
    """The namespace of a subcommand call read without argparse, or None.

    It reads a subcommand followed only by its exact long options, each
    as ``--opt value`` with a value that does not start with ``-``, or as
    one ``--opt=value`` word, split at its first ``=``.  Each value is
    converted by the option's type and must be one of its choices; a
    repeatable option appends each value to a list, any other keeps its
    last; every required option must be given.  On such an argv argparse
    takes the same steps: it looks an exact flag up before any prefix
    match, it takes a word that does not start with ``-`` as a value, and
    the type, choices, defaults and required options are the table's.  So
    the namespace equals the one the subcommand's parser returns, with
    ``command`` added.  Any other argv gets None, and argparse reads it:
    ``-h``, an abbreviated, unknown or missing option, a value that starts
    with ``-`` or that the type or choices refuse, and no subcommand.
    """
    if not argv or argv[0] not in _SUBCOMMANDS:
        return None
    options = _SUBCOMMANDS[argv[0]][1]
    args = {_dest(flag): opt.default for flag, opt in options.items()}
    missing = {flag for flag, opt in options.items() if opt.required}
    words = iter(argv[1:])
    for word in words:
        flag, eq, value = word.partition("=")
        if not eq:
            value = next(words, None)
            if value is None or value.startswith("-"):
                return None
        opt = options.get(flag)
        if opt is None:
            return None
        if opt.type is not None:
            try:
                value = opt.type(value)
            except ValueError:
                return None
        if opt.choices is not None and value not in opt.choices:
            return None
        dest = _dest(flag)
        args[dest] = [*(args[dest] or ()), value] if opt.repeat else value
        missing.discard(flag)
    if missing:
        return None
    return SimpleNamespace(**args, command=argv[0])


def _emit(text: str, out_path):
    if not text.endswith("\n"):
        text += "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# The characters for which csv.writer's default dialect quotes a field.
_CSV_QUOTED = frozenset(',"\r\n')


class _CsvFields(dict):
    """Per-matrix cache of CSV fields: an entry maps to its text, and each
    distinct entry is checked once, on its miss."""

    def __missing__(self, entry) -> str:
        """Cache ``str(entry)`` and return it.  Raises ValueError if
        csv.writer would quote it: empty (alone on its row it is written
        ``""``), or holding a delimiter, quote or line break."""
        self[entry] = field = str(entry)
        if not field or not _CSV_QUOTED.isdisjoint(field):
            raise ValueError(f"matrix entry {field!r} would need CSV quoting")
        return field


@lru_cache(maxsize=None)
def _row_template(kind: str, triple: tuple) -> str:
    """The template of every ``kind`` row ("graph" or "invariants") of an
    orbit of type (k, s, t): ``json.dumps(..., sort_keys=True, indent=2)``
    of a record of that layout with every int 0, indented one level for
    the output list, with its closing text cut off and each digit run
    turned into ``%d``; see ``_json_rows``.  A graph record's closing
    text is empty, and an invariants record's is the ``_rank_block`` of
    its one-entry rank matrix [[0]]."""
    k, s, t = triple
    record = {"edges": [[0, 0]] * k, "marked_minus": [0] * t, "marked_plus": [0] * s}
    record |= dict.fromkeys(Shape._fields, 0)
    closing = ""
    if kind == "invariants":
        record = {**dict.fromkeys(Invariants._fields, 0), "graph": record, "rank_matrix": [[0]]}
        closing = _rank_block(((0,),))
    text = json.dumps(record, sort_keys=True, indent=2).replace("\n", "\n  ")
    return re.sub("[0-9]+", "%d", text[: len(text) - len(closing)]) + "%s"


def _json_rows(graphs, kind: str) -> str:
    """``json.dumps(rows, sort_keys=True, indent=2)`` for one ``kind`` row
    per orbit, each row written by one ``%`` of its type's template.

    The row's values (``_graph_row`` or ``_invariants_row``) are its ints
    in sorted-key order, then its closing text: the text that the row
    ends with and that the template takes whole by ``%s``.

    The templates are exact for three reasons.  ``json.dumps`` writes a
    list of ints from those ints alone, each as ``%d`` writes a
    non-negative int, and no key holds a digit or a ``%``; so each digit
    run is exactly one value.  Its indentation depends only on nesting
    depth: inside the list a row is indented two more spaces, and
    ``.replace("\\n", "\\n  ")`` does that exactly, because ``json.dumps``
    escapes every newline inside a string, so each newline it writes starts
    one of its lines.  And one orbit type (k, s, t) means one layout: k
    edges, t marked- and s marked+ vertices.  The shape enters a row only
    as p, q and r, which are digit runs, and for ``invariants`` as the
    (p+1) x (q+1) rank matrix, which is the closing text.  So every row of
    a kind and type, of any shape, has the same bytes apart from its digit
    runs and closing text, and ``_row_template`` builds the template from
    a record of that layout with every int 0 and no orbit at all.

    The rows are written block by block, one block per orbit type, from
    ``core._type_blocks``: the enumeration lists the orbits type by type
    with ``triple_count`` of each (the proof of the order by type in
    ``core.enumerate_graphs``'s docstring), so no orbit's type is computed
    and each template is looked up once per type and call.
    ``_row_template`` is an ``lru_cache`` keyed by (kind, type), so each
    template is built once per process, however many shapes and calls
    share it.  It stays bounded: every key is an admissible type of a
    shape that ``enumerate_graphs``, itself cached per shape, has already
    listed, so it holds at most two templates per type that cache holds.
    A shape has at least one orbit, so the list is never empty.
    """
    row = _invariants_row if kind == "invariants" else _graph_row
    rows = []
    for triple, block in _type_blocks(graphs):
        template = _row_template(kind, triple)
        rows += [template % row(g) for g in block]
    return "[\n  " + ",\n  ".join(rows) + "\n]"


def _graph_row(g) -> tuple:
    """The template values of g's graph record, for ``_json_rows``.  The
    closing text is empty: the template is the whole record."""
    return (*g.record_ints(), *g.shape, "")


@lru_cache(maxsize=None)
def _rank_row_template(width: int) -> str:
    """The JSON text of every rank-matrix row of ``width`` ints, as
    ``invariants --format json`` writes it: ``json.dumps`` of ``width``
    zeros, indented six more spaces (a matrix row is three lists and
    objects deep: the output list, the orbit's row, its ``rank_matrix``),
    with each 0 turned into ``%d``.  ``json.dumps(..., indent=2)`` writes a
    list of ints from those ints alone and indents by nesting depth alone,
    so one template per width serves every row."""
    text = json.dumps([0] * width, indent=2).replace("\n", "\n      ")
    return text.replace("0", "%d")


@lru_cache(maxsize=None)
def _rank_row(row: tuple) -> str:
    """The JSON text of one rank-matrix row, written once per process.
    Every key is a row of a matrix that ``core.rank_matrix``, itself
    cached per orbit, has already returned, so this cache holds no more
    entries than that one holds rows."""
    return _rank_row_template(len(row)) % row


def _rank_block(entries) -> str:
    """The closing text of an ``invariants`` row: its ``rank_matrix``
    rows, the last sorted key, and the two closing brackets."""
    return ",\n      ".join(map(_rank_row, entries)) + "\n    ]\n  }"


def _invariants_row(g) -> tuple:
    """The template values of g's ``invariants`` row, for ``_json_rows``:
    one ``invariants`` and one ``rank_matrix`` call."""
    a_plus, a_minus, b, c, dim = invariants(g)
    block = _rank_block(rank_matrix(g).entries)
    return (a_minus, a_plus, b, c, dim, *g.record_ints(), *g.shape, block)


def _cmd_enumerate(args, shape) -> int:
    _emit(_json_rows(enumerate_graphs(shape), "graph"), args.out)
    return 0


def _cmd_invariants(args, shape) -> int:
    graphs = enumerate_graphs(shape)
    if args.format == "json":
        _emit(_json_rows(graphs, "invariants"), args.out)
        return 0
    lines = []
    for g in graphs:
        (edges, marked_minus, marked_plus), inv = g.record_lists(), invariants(g)
        lines.append(
            f"edges={edges} marked+={marked_plus} marked-={marked_minus}"
            f"  a+={inv.a_plus} a-={inv.a_minus} b={inv.b} c={inv.c} dim={inv.dim}"
        )
        lines.extend("    " + " ".join(map(str, mrow)) for mrow in rank_matrix(g).entries)
    _emit("\n".join(lines), args.out)
    return 0


def _cmd_hasse(args, shape) -> int:
    _emit(to_dot(build_poset(shape)), args.out)
    return 0


def _csv_text(rows) -> str:
    """The CSV text of a matrix kept as sparse rows (``hecke._SparseRows``).
    Every field of the zero row is the text of ``ZERO``, so field c starts
    at c * (len(zero) + 1), and each row is the zero row with its nonzero
    fields spliced in at their columns, in the increasing order
    ``rows.terms`` keeps them in."""
    # At most four distinct entries (0, 1, q, q-1): format each once.
    fields = _CsvFields()
    zero = fields[ZERO]
    blank = ",".join([zero] * len(rows)) + "\r\n"
    width = len(zero) + 1
    pieces = []
    for terms in rows.terms:
        end = 0
        for col, entry in terms:
            start = col * width
            pieces += (blank[end:start], fields[entry])
            end = start + len(zero)
        pieces.append(blank[end:])
    return "".join(pieces)


def _cmd_hecke_matrix(args, shape) -> int:
    # The whole text is built before it is written, so a refused entry
    # writes nothing.
    _emit(_csv_text(operator_matrix(shape, args.side, args.index).entries), args.out)
    return 0


def _cmd_weyl_decomp(args, shape) -> int:
    blocks = weyl_decompose(shape)
    payload = {
        "shape": shape._asdict(),
        "total_orbits": count_orbits(shape),
        "blocks": [blk._asdict() for blk in blocks],
    }
    _emit(json.dumps(payload, sort_keys=True, indent=2), args.out)
    return 0


def _cmd_verify(args, shape) -> int:
    # A bad, repeated or oversized field fails before any work starts, and
    # so does a list whose Grassmannians hold more points in all than the
    # budget each one must fit.
    fields = _check_fields(shape, args.field or [3])
    ok = True
    payload = {"shape": shape._asdict(), "fields": fields}

    n_graphs = len(enumerate_graphs(shape))
    formula = count_orbits(shape)
    payload["orbit_count"] = {
        "enumerated": n_graphs,
        "formula": formula,
        "ok": n_graphs == formula,
    }
    ok &= payload["orbit_count"]["ok"]

    relations = verify_relations(shape)
    payload["relations"] = []
    for rc in relations:
        entry = {"name": rc.name, "ok": rc.ok}
        if not rc.ok:
            entry["witness"] = rc.witness
        payload["relations"].append(entry)
    ok &= all(rc.ok for rc in relations)

    payload["certification"] = []
    for field_size in fields:
        sizes_ok = classification_ok(classify_orbits(shape, field_size))
        report = certify_theorem(shape, [field_size])
        mismatches = report.mismatches
        entry = {
            "field": field_size,
            "classification_ok": sizes_ok,
            "action_ok": not mismatches,
            "mismatches": len(mismatches),
        }
        if mismatches:
            entry["witness"] = mismatches[0].to_json()
        payload["certification"].append(entry)
        ok &= sizes_ok and not mismatches

    payload["ok"] = bool(ok)
    _emit(json.dumps(payload, sort_keys=True, indent=2), args.out)
    return 0 if ok else 1


_COMMANDS = {
    "enumerate": _cmd_enumerate,
    "invariants": _cmd_invariants,
    "hasse": _cmd_hasse,
    "hecke-matrix": _cmd_hecke_matrix,
    "weyl-decomp": _cmd_weyl_decomp,
    "verify": _cmd_verify,
}


def _subcommand_parsers(parser) -> dict:
    """The parser of each subcommand by name: the ``choices`` of the one
    ``_SubParsersAction`` that ``build_parser`` adds."""
    import argparse

    (subs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return subs.choices


def main(argv=None) -> int:
    """Run one CLI call and return its exit code.

    One leading ``--`` is dropped first, so ``doubleflag -- hasse ...``
    runs as ``doubleflag hasse ...``: the top-level parser would take the
    ``--`` for the subcommand's name and refuse it.  ``_read_exact`` then
    reads a subcommand given only its exact long options, each with a
    value that passes the option's type and choices, and every required
    option: every benchmark job and README example is such a call, and
    it imports, builds and runs no argparse.  Any other argv goes to
    argparse, which owns ``-h``, usage and every error message.  If it
    starts with a subcommand, that subcommand's parser alone reads the
    rest of argv: the top-level parser would scan every argument once and
    then pass the same strings to that parser, which parses them again.
    So such a call makes one parse, with the namespace of the full parse,
    and a bad flag gets that subcommand's usage and error line.  Every
    other argv (none, ``-h``, an unknown word, a ``--`` alone) goes to
    the top-level parser, as no subcommand's parser can take it.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["--"]:
        del argv[0]
    args = _read_exact(argv)
    if args is None:
        parser = build_parser()
        subparser = _subcommand_parsers(parser).get(argv[0]) if argv else None
        if subparser is None:
            args = parser.parse_args(argv)
        else:
            args = subparser.parse_args(argv[1:])
            args.command = argv[0]
    try:
        shape = Shape(args.p, args.q, args.r)
        _check_budgets(shape)
        return _COMMANDS[args.command](args, shape)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

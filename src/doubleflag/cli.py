"""Command-line front end.

Subcommands: enumerate, invariants, hasse, hecke-matrix, weyl-decomp,
verify.  Output is deterministic: fixed enumeration order, sorted JSON
keys, newline-terminated files.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from functools import cache

from .core import Shape, count_orbits, enumerate_graphs, invariants, rank_matrix
from .hecke import operator_matrix, verify_relations, weyl_decompose
from .oracle import (
    certify_theorem,
    classification_ok,
    classify_orbits,
    grassmannian_size,
)
from .poset import build_poset, to_dot

# Largest orbit count any subcommand accepts.  It admits every shape with
# p+q <= 9 (at most 2,866 orbits); the dense n x n ``hecke-matrix`` output
# is what grows fastest past it.  It also bounds n = p+q by
# n(n-1)/2 <= ORBIT_BUDGET, so n <= 77, before the orbit count is computed.
# ``weyl-decomp`` needs no budget of its own: it reads stabilizer orders off
# the orbit sizes by orbit-stabilizer, with no pass over the p! * q! group
# elements.
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


def _shape_args(sub):
    sub.add_argument("--p", type=int, required=True)
    sub.add_argument("--q", type=int, required=True)
    sub.add_argument("--r", type=int, required=True)
    sub.add_argument("--out", help="output path (default: stdout)")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process and shared by every ``main`` call."""
    parser = argparse.ArgumentParser(
        prog="doubleflag",
        description="K-orbit combinatorics and Hecke module structure "
        "of the (p,q|r) double flag variety",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("enumerate", help="list all orbit graphs")
    _shape_args(sub)
    sub.add_argument("--format", choices=["json"], default="json")

    sub = subs.add_parser("invariants", help="orbital invariants and dimensions")
    _shape_args(sub)
    sub.add_argument("--format", choices=["text", "json"], default="text")

    sub = subs.add_parser("hasse", help="closure order as a DOT diagram")
    _shape_args(sub)
    sub.add_argument("--format", choices=["dot"], default="dot")

    sub = subs.add_parser("hecke-matrix", help="matrix of one Hecke generator")
    _shape_args(sub)
    sub.add_argument("--side", choices=["+", "-"], required=True)
    sub.add_argument("--index", type=int, required=True, help="generator index i")
    sub.add_argument("--format", choices=["csv"], default="csv")

    sub = subs.add_parser("weyl-decomp", help="Weyl group decomposition at q=1")
    _shape_args(sub)
    sub.add_argument("--format", choices=["json"], default="json")

    sub = subs.add_parser("verify", help="relations + finite-field certification")
    _shape_args(sub)
    sub.add_argument(
        "--field",
        type=int,
        action="append",
        default=None,
        help="odd prime field size (repeatable; default 3)",
    )
    sub.add_argument("--format", choices=["json"], default="json")

    return parser


def _emit(text: str, out_path):
    if not text.endswith("\n"):
        text += "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_enumerate(args, shape) -> int:
    records = [g.to_json() for g in enumerate_graphs(shape)]
    _emit(json.dumps(records, sort_keys=True, indent=2), args.out)
    return 0


def _cmd_invariants(args, shape) -> int:
    rows = []
    for g in enumerate_graphs(shape):
        inv = invariants(g)
        rows.append(
            {
                "graph": g.to_json(),
                "a_plus": inv.a_plus,
                "a_minus": inv.a_minus,
                "b": inv.b,
                "c": inv.c,
                "dim": inv.dim,
                "rank_matrix": [list(row) for row in rank_matrix(g).entries],
            }
        )
    if args.format == "json":
        _emit(json.dumps(rows, sort_keys=True, indent=2), args.out)
    else:
        lines = []
        for row in rows:
            g = row["graph"]
            desc = (
                f"edges={g['edges']} marked+={g['marked_plus']} "
                f"marked-={g['marked_minus']}"
            )
            lines.append(
                f"{desc}  a+={row['a_plus']} a-={row['a_minus']} "
                f"b={row['b']} c={row['c']} dim={row['dim']}"
            )
            for mrow in row["rank_matrix"]:
                lines.append("    " + " ".join(str(x) for x in mrow))
        _emit("\n".join(lines), args.out)
    return 0


def _cmd_hasse(args, shape) -> int:
    _emit(to_dot(build_poset(shape)), args.out)
    return 0


def _cmd_hecke_matrix(args, shape) -> int:
    op = operator_matrix(shape, args.side, args.index)
    buf = io.StringIO()
    writer = csv.writer(buf)
    # At most four distinct entries (0, 1, q, q-1): format each once.
    text = {}
    writer.writerows(
        [text.get(e) or text.setdefault(e, str(e)) for e in row] for row in op.entries
    )
    _emit(buf.getvalue(), args.out)
    return 0


def _cmd_weyl_decomp(args, shape) -> int:
    blocks = weyl_decompose(shape)
    payload = {
        "shape": {"p": shape.p, "q": shape.q, "r": shape.r},
        "total_orbits": count_orbits(shape),
        "blocks": [
            {
                "k": blk.triple[0],
                "s": blk.triple[1],
                "t": blk.triple[2],
                "orbit_size": blk.orbit_size,
                "stabilizer_order": blk.stabilizer_order,
            }
            for blk in blocks
        ],
    }
    _emit(json.dumps(payload, sort_keys=True, indent=2), args.out)
    return 0


def _cmd_verify(args, shape) -> int:
    fields = args.field or [3]
    # A bad or oversized field fails before any work starts.
    for field_size in fields:
        grassmannian_size(shape, field_size)
    ok = True
    payload = {"shape": {"p": shape.p, "q": shape.q, "r": shape.r}, "fields": fields}

    n_graphs = len(enumerate_graphs(shape))
    payload["orbit_count"] = {
        "enumerated": n_graphs,
        "formula": count_orbits(shape),
        "ok": n_graphs == count_orbits(shape),
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        shape = Shape(args.p, args.q, args.r)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
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

"""Spans and work counts around the calls into each doubleflag layer.

The CLI looks the library functions up in its own module namespace, so
replacing them there records every public call it makes, in its order,
without changing the program.  Two nested calls are wrapped in their own
modules: the Grassmannian enumeration inside ``classify_orbits`` and the
q=1 check inside ``weyl_decompose``.  Internal calls, such as the
enumeration inside ``build_poset``, count toward the caller's span.

Work counts are taken in both modes; spans and clock reads only when
``timed`` is true.  Most counts come from a wrapped call's arguments and
result.  The two that a layer could lower by checking less while printing
the same output are counted as the work is done instead (``WORK_CALLS``).
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from math import factorial
from time import perf_counter

from doubleflag import cli, count_orbits, hecke, oracle


def _no_counts(args, result):
    return {}


def _one_orbit(args, result):
    return {"orbits": 1}


def _poset(args, poset):
    n = len(poset.orbits)
    return {
        "pairs": n * n,
        "comparable": sum(bin(mask).count("1") for mask in poset.leq),
        "covers": len(poset.covers),
    }


def _weyl(args, blocks):
    shape = args[0]
    return {
        "blocks": len(blocks),
        "group_elements": len(blocks) * factorial(shape.p) * factorial(shape.q),
    }


def _certify(args, report):
    records = report.records
    return {
        "records": len(records),
        # records x orbits: the denominator of support_frac, not a work count
        "cells": len(records) * count_orbits(args[0]),
        "support": sum(len(rec.observed) for rec in records),
    }


# (module, attribute, span name, counts from the call's arguments and result)
LAYER_CALLS = [
    (cli, "enumerate_graphs", "core.enumerate", lambda a, r: {"orbits": len(r)}),
    (cli, "rank_matrix", "core.rank_matrix", _one_orbit),
    (cli, "invariants", "core.invariants", _one_orbit),
    (cli, "build_poset", "poset.build", _poset),
    (cli, "to_dot", "poset.to_dot", _no_counts),
    (cli, "verify_relations", "hecke.relations", _no_counts),
    (
        cli,
        "operator_matrix",
        "hecke.operator_matrix",
        lambda a, r: {"entries": len(r.entries) ** 2},
    ),
    (cli, "weyl_decompose", "hecke.weyl", _weyl),
    (hecke, "q1_action_is_permutation", "hecke.q1_check", _no_counts),
    (cli, "classify_orbits", "oracle.classify", lambda a, r: {"points": len(r.orbit_of)}),
    (
        oracle,
        "enumerate_grassmannian",
        "oracle.grassmannian",
        lambda a, r: {"points": len(r)},
    ),
    (cli, "certify_theorem", "oracle.certify", _certify),
]

# Calls that are one unit of a layer's work, counted only while that layer's
# call is open: (owner, attribute, layer, count name).  verify_relations
# builds one basis vector per relation and orbit it checks;
# convolution_action transforms one point per sampled point and field
# element.  A layer that stopped early or sampled fewer points would print
# the same lines but give a different count.
WORK_CALLS = [
    (hecke.ModuleVector, "basis_vector", "hecke.relations", "checks"),
    (oracle, "_transform", "oracle.certify", "transforms"),
]


class Tracer:
    """Spans are ``[name, job id, parent index, start, end]``, times from
    ``perf_counter``; the root span of each job is named ``job``.  The
    worker appends each span's duration at the reference speed."""

    def __init__(self, timed: bool):
        self.timed = timed
        self.spans = []
        self._stack = []
        self.job = None
        self.counts = defaultdict(int)
        # names of the wrapped layer calls now running, timed or not
        self._open = []

    def install(self) -> None:
        for module, attr, name, count in LAYER_CALLS:
            setattr(module, attr, self._wrap(name, getattr(module, attr), count))
        for owner, attr, layer, key in WORK_CALLS:
            wrapper = self._count_work(getattr(owner, attr), layer, f"{layer}.{key}")
            if isinstance(owner, type):
                wrapper = staticmethod(wrapper)
            setattr(owner, attr, wrapper)

    def _wrap(self, name, fn, count):
        def wrapper(*args, **kwargs):
            self._open.append(name)
            try:
                if self.timed:
                    with self.span(name):
                        result = fn(*args, **kwargs)
                else:
                    result = fn(*args, **kwargs)
            finally:
                self._open.pop()
            for key, value in count(args, result).items():
                self.counts[f"{name}.{key}"] += value
            return result

        return wrapper

    def _count_work(self, fn, layer, key):
        def wrapper(*args, **kwargs):
            if layer in self._open:
                self.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def start_job(self, job_id: str) -> None:
        self.job = job_id
        self.counts = defaultdict(int)

    @contextmanager
    def span(self, name):
        if not self.timed:
            yield
            return
        record = [name, self.job, self._stack[-1] if self._stack else None, perf_counter(), None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[4] = perf_counter()
            self._stack.pop()

    def nesting_violations(self) -> int:
        """Spans that are not inside their parent's interval and job, plus
        layer spans with no parent."""
        bad = 0
        for name, job, parent, start, end, *_ in self.spans:
            if parent is None:
                bad += name != "job"
                continue
            _, pjob, _, pstart, pend, *_ = self.spans[parent]
            bad += not (pjob == job and pstart <= start <= end <= pend)
        return bad


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, counts) -> dict:
    """Per-layer totals for one traced run: seconds per span name, self time
    where a layer span has children, counts and per-unit costs.  Each span
    carries its duration at the reference speed as a sixth field."""
    total = defaultdict(float)
    covered = [0.0] * len(spans)
    for name, _, parent, _, _, seconds in spans:
        total[name] += seconds
        if parent is not None:
            covered[parent] += seconds
    own = defaultdict(float)
    for (name, *_, seconds), child_time in zip(spans, covered):
        own[name] += seconds - child_time
    return {
        "core.enumerate.s": total["core.enumerate"],
        "core.enumerate.orbits": counts["core.enumerate.orbits"],
        "core.rank_matrix.s": total["core.rank_matrix"],
        "core.rank_matrix.us_per_orbit": 1e6
        * _ratio(total["core.rank_matrix"], counts["core.rank_matrix.orbits"]),
        "core.invariants.s": total["core.invariants"],
        "poset.build.s": total["poset.build"],
        "poset.build.pairs": counts["poset.build.pairs"],
        "poset.comparable_frac": _ratio(
            counts["poset.build.comparable"], counts["poset.build.pairs"]
        ),
        "poset.covers": counts["poset.build.covers"],
        "poset.to_dot.s": total["poset.to_dot"],
        "hecke.relations.s": total["hecke.relations"],
        "hecke.relations.checks": counts["hecke.relations.checks"],
        "hecke.relations.us_per_orbit_check": 1e6
        * _ratio(total["hecke.relations"], counts["hecke.relations.checks"]),
        "hecke.operator_matrix.s": total["hecke.operator_matrix"],
        "hecke.operator_matrix.entries": counts["hecke.operator_matrix.entries"],
        "hecke.q1_check.s": total["hecke.q1_check"],
        "hecke.weyl.s": total["hecke.weyl"],
        "hecke.weyl.self_s": own["hecke.weyl"],
        "hecke.weyl.blocks": counts["hecke.weyl.blocks"],
        "hecke.weyl.group_elements": counts["hecke.weyl.group_elements"],
        "oracle.grassmannian.s": total["oracle.grassmannian"],
        "oracle.grassmannian.points": counts["oracle.grassmannian.points"],
        "oracle.classify.s": total["oracle.classify"],
        "oracle.classify.self_s": own["oracle.classify"],
        "oracle.classify.us_per_point": 1e6
        * _ratio(own["oracle.classify"], counts["oracle.classify.points"]),
        "oracle.certify.s": total["oracle.certify"],
        "oracle.certify.records": counts["oracle.certify.records"],
        "oracle.certify.transforms": counts["oracle.certify.transforms"],
        "oracle.certify.us_per_record": 1e6
        * _ratio(total["oracle.certify"], counts["oracle.certify.records"]),
        "oracle.certify.support_frac": _ratio(
            counts["oracle.certify.support"], counts["oracle.certify.cells"]
        ),
        "cli.self_s": own["job"],
        "trace.spans": len(spans),
    }

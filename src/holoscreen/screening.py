"""Per-order screening: rule out solvable partners for insolvable groups.

For a fixed order n, ask whether some insolvable group G of order n could
be a regular subgroup of the holomorph of a solvable group N of order n.
Several necessary conditions depend only on N and on subgroup orders of
the insolvable groups, so candidates N can be discarded wholesale.  They
are the rows of ``STAGES``, run cheapest first:

* fitting: a regular embedding forces a solvable subgroup of G whose
  order is |Fit(N)|, the order of the Fitting subgroup of N;
* aut: if Aut(N) is solvable the whole holomorph is solvable and
  contains no insolvable subgroup at all;
* half-index: a characteristic subgroup of index two would force an
  index-two, hence insolvable, subgroup of G of order n/2, reducing the
  question to n/2;
* char-orders: every characteristic subgroup order of N must occur among
  the subgroup orders of some insolvable G;
* outer-gcd: gcd(n, |Out(N)|) must be a non-solvable number.

A verdict of ``holds`` means no solvable N survives the unconditional
tests; the index-two reduction yields ``holds-conditional-on(n/2)``;
anything else, including any cap violation, is ``undecided``.  Corpus
completeness is a recorded claim that the report repeats; it is never
proven here.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from typing import Callable

from .automorphisms import (automorphism_group, characteristic_subgroups,
                            inner_and_outer)
from .corpus import CorpusManifest, GroupRecord, corpus_hash, load_manifest
from .errors import CapExceeded
from .lattice import SUBGROUP_CAP, all_subgroups, fitting_subgroup
from .numbers import default_table, is_solvable_number

__all__ = [
    "SubgroupOrderSets",
    "build_order_sets",
    "Stage",
    "STAGES",
    "get_stage",
    "Candidate",
    "GroupTrace",
    "ScreenReport",
    "screen_order",
    "render_report",
]

REPORT_SCHEMA = "holoscreen.screen/2"


@dataclass(frozen=True)
class SubgroupOrderSets:
    """Subgroup orders collected from the insolvable groups of order n.

    ``solvable_orders`` collects |H| over solvable subgroups H of any
    insolvable group of order n; ``all_orders`` drops the solvability
    restriction.
    """

    n: int
    solvable_orders: frozenset[int]
    all_orders: frozenset[int]

    def __post_init__(self) -> None:
        if not self.solvable_orders <= self.all_orders:
            raise ValueError("solvable orders must be a subset of all orders")


def build_order_sets(records, n: int, *,
                     cap: int = SUBGROUP_CAP) -> SubgroupOrderSets:
    """Exhaustively enumerate subgroups of each insolvable record.

    The records must all be insolvable and of order n.  An empty sequence
    is legal (solvable orders have no insolvable groups) and yields empty
    sets for n.
    """
    records = list(records)
    orders = sorted({rec.order for rec in records})
    if len(orders) > 1:
        raise ValueError(f"mixed orders in input: {orders}")
    if orders and orders[0] != n:
        raise ValueError(f"records have order {orders[0]}, not {n}")
    solvable: set[int] = set()
    every: set[int] = set()
    for rec in records:
        if rec.is_solvable():
            raise ValueError(f"{rec.name} is solvable; expected insolvable input")
        try:
            subs = all_subgroups(rec.table, cap=cap)
        except CapExceeded as exc:
            raise CapExceeded(f"subgroup enumeration for {rec.name}: {exc}")
        for sub in subs:
            every.add(sub.order)
            if sub.is_solvable():
                solvable.add(sub.order)
    sets = SubgroupOrderSets(n, frozenset(solvable), frozenset(every))
    if records and (1 not in sets.solvable_orders or n not in sets.all_orders):
        raise RuntimeError("subgroup enumeration missed a trivial subgroup")
    return sets


@dataclass
class Candidate:
    """A solvable N under screening; the Fitting order, Aut(N) and the
    characteristic orders are computed once, and only if a stage asks for
    them.  ``seconds`` is the time already spent on N before its trace
    began, which the trace's own time adds to."""

    record: GroupRecord
    sets: SubgroupOrderSets | None = None
    seconds: float = 0.0

    @cached_property
    def fitting_order(self) -> int:
        return fitting_subgroup(self.record.table).order

    @cached_property
    def aut(self):
        """Aut(N), listed under the default bound on n * |Aut(N)|."""
        return automorphism_group(self.record.table)

    @cached_property
    def char_orders(self) -> tuple[int, ...]:
        subs = characteristic_subgroups(self.record.table, self.aut)
        return tuple(sorted({sub.order for sub in subs}))


@dataclass
class GroupTrace:
    """Stage-by-stage outcome for one solvable group; see ``STAGES``.

    Later fields are None when an earlier stage already dropped the
    group, or when an error occurred.
    """

    name: str
    fitting_order: int | None = None
    passed_fitting: bool | None = None
    aut_order: int | None = None
    aut_insolvable: bool | None = None
    char_orders: tuple[int, ...] | None = None
    passed_half_index: bool | None = None
    passed_char_orders: bool | None = None
    outer_order: int | None = None
    passed_outer_gcd: bool | None = None
    seconds: float | None = None
    error: str | None = None


@dataclass(frozen=True)
class Stage:
    """One necessary condition on N, as a row of ``STAGES``.

    ``test(candidate, measure(candidate))`` decides whether N survives.
    Traces record the value under ``value_key`` and the outcome under
    ``passed_key``; text reports show ``label=value`` and, for a stage
    without ``drop``, ``name=yes/no``.  Failing a stage with a ``drop``
    reason ends the trace.  Failing a ``conditional`` stage reduces the
    question to order n/2.
    """

    name: str
    value_key: str | None
    passed_key: str
    label: str | None
    measure: Callable
    test: Callable
    drop: str | None = None
    conditional: bool = False

    def evaluate(self, candidate: Candidate) -> tuple[object, bool]:
        """(value, whether N survives) for ``candidate``."""
        value = self.measure(candidate)
        return value, self.test(candidate, value)


STAGES = (
    Stage("fitting", "fitting_order", "passed_fitting", "fit",
          lambda c: c.fitting_order,
          lambda c, fit: fit in c.sets.solvable_orders,
          drop="fitting order not a solvable subgroup order"),
    Stage("aut", "aut_order", "aut_insolvable", "|Aut|",
          lambda c: c.aut.order,
          lambda c, _: not c.aut.is_solvable(),
          drop="Aut solvable"),
    Stage("half-index", "char_orders", "passed_half_index", "char orders",
          lambda c: c.char_orders,
          lambda c, char: all(2 * k != c.record.order for k in char),
          conditional=True),
    Stage("char-orders", None, "passed_char_orders", None,
          lambda c: sorted(set(c.char_orders) - c.sets.all_orders),
          lambda c, missing: not missing),
    Stage("outer-gcd", "outer_order", "passed_outer_gcd", "|Out|",
          lambda c: inner_and_outer(c.record.table, c.aut)[1],
          lambda c, outer: not is_solvable_number(
              math.gcd(c.record.order, outer))),
)


# The JSON keys of a trace entry, between "name" and "error".
TRACE_KEYS = tuple(key for s in STAGES for key in (s.value_key, s.passed_key)
                   if key)


def get_stage(name: str) -> Stage:
    for entry in STAGES:
        if entry.name == name:
            return entry
    raise ValueError(f"unknown stage {name!r}")


def _past_fitting(candidate: Candidate) -> bool:
    """Whether N passes the Fitting stage, timed into ``seconds``."""
    start = time.monotonic()
    passed = STAGES[0].evaluate(candidate)[1]
    candidate.seconds += time.monotonic() - start
    return passed


def _trace_one(args) -> GroupTrace:
    candidate, timed = args
    start = time.monotonic() if timed else None
    trace = GroupTrace(name=candidate.record.name)
    try:
        for entry in STAGES:
            value, passed = entry.evaluate(candidate)
            if entry.value_key:
                setattr(trace, entry.value_key, value)
            setattr(trace, entry.passed_key, passed)
            if entry.drop and not passed:
                break
    except (CapExceeded, ValueError) as exc:
        trace.error = str(exc)
    if timed:
        trace.seconds = candidate.seconds + time.monotonic() - start
    return trace


@dataclass
class ScreenReport:
    """Everything screen_order computed, in corpus order."""

    n: int
    corpus_dir: str
    corpus_hash: str
    complete: bool
    solvable_number: bool | None
    insolvable_names: tuple[str, ...]
    order_sets: SubgroupOrderSets | None
    traces: tuple[GroupTrace, ...]
    verdict: str
    problems: tuple[str, ...] = ()
    seconds: float | None = None

    def stage_names(self, stage: str) -> tuple[str, ...]:
        """Names past one stage of ``STAGES`` and the gates before it, or
        past every stage (``conditional``) or every unconditional one
        (``unconditional``)."""
        if stage in ("unconditional", "conditional"):
            wanted = [s for s in STAGES
                      if stage == "conditional" or not s.conditional]
        else:
            last = STAGES.index(get_stage(stage))
            wanted = [s for s in STAGES[:last] if s.drop] + [STAGES[last]]
        return tuple(t.name for t in self.traces if not t.error
                     and all(getattr(t, s.passed_key) for s in wanted))

    def to_json_dict(self) -> dict:
        doc = {
            "schema": REPORT_SCHEMA,
            "order": self.n,
            "corpus": self.corpus_dir,
            "corpus_sha256": self.corpus_hash,
            "complete_claim": self.complete,
            "solvable_number": self.solvable_number,
            "insolvable_groups": list(self.insolvable_names),
            "order_sets": None,
            "traces": [],
            "survivors_unconditional": list(self.stage_names("unconditional")),
            "survivors_conditional": list(self.stage_names("conditional")),
            "verdict": self.verdict,
            "problems": list(self.problems),
        }
        if self.order_sets is not None:
            doc["order_sets"] = {
                "solvable_subgroup_orders": sorted(self.order_sets.solvable_orders),
                "subgroup_orders": sorted(self.order_sets.all_orders),
            }
        for t in self.traces:
            entry = {"name": t.name}
            for key in TRACE_KEYS:
                value = getattr(t, key)
                entry[key] = list(value) if isinstance(value, tuple) else value
            entry["error"] = t.error
            if t.seconds is not None:
                entry["seconds"] = round(t.seconds, 6)
            doc["traces"].append(entry)
        if self.seconds is not None:
            doc["seconds"] = round(self.seconds, 6)
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"


def screen_order(corpus, n: int | None = None, *, jobs: int = 1,
                 subgroup_cap: int = SUBGROUP_CAP,
                 timings: bool = False) -> ScreenReport:
    """Run the screening pipeline over a complete corpus of order n.

    ``corpus`` is a directory or a loaded manifest whose completeness
    claim must be true, since the verdict quantifies over all groups of
    the order.  ``jobs`` runs the stages after Fitting in a process pool
    without affecting the output; the Fitting stage runs in process, and
    the pool starts only when at least two groups pass it.  Every stage of
    ``STAGES`` runs on every group that reaches it.
    """
    start = time.monotonic() if timings else None
    manifest = corpus if isinstance(corpus, CorpusManifest) else load_manifest(corpus)
    if n is None:
        n = manifest.order
    elif n != manifest.order:
        raise ValueError(f"corpus has order {manifest.order}, requested {n}")
    if not manifest.complete:
        raise ValueError(
            "screening needs a corpus that claims completeness; "
            f"{manifest.directory} does not")

    digest = corpus_hash(manifest)
    solvable_groups = [r for r in manifest.records if r.is_solvable()]
    insolvable_groups = [r for r in manifest.records if not r.is_solvable()]
    solvable_number = (is_solvable_number(n) if n <= default_table().bound
                       else None)

    problems: list[str] = []
    if not solvable_groups:  # every order has a cyclic group
        problems.append("corpus claims completeness but lists no solvable "
                        "group")
    try:
        sets = build_order_sets(insolvable_groups, n, cap=subgroup_cap)
    except CapExceeded as exc:
        sets = None
        problems.append(str(exc))

    if sets is None:
        traces = tuple(GroupTrace(name=r.name, error="order sets unavailable")
                       for r in solvable_groups)
    else:
        candidates = [Candidate(r, sets) for r in solvable_groups]
        work = [(c, timings) for c in candidates]
        # Only a group past Fitting reaches Aut(N), the one stage worth a
        # process; the pool starts all its workers at once, so no more
        # than those groups.
        deep = [_past_fitting(c) for c in candidates]
        workers = min(jobs, sum(deep))
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=workers) as pool:
                pooled = pool.map(_trace_one, compress(work, deep),
                                  chunksize=1)
                traces = tuple(next(pooled) if d else _trace_one(w)
                               for w, d in zip(work, deep))
        else:
            traces = tuple(map(_trace_one, work))

    for t in traces:
        if t.error:
            problems.append(f"{t.name}: {t.error}")

    report = ScreenReport(
        n=n, corpus_dir=str(manifest.directory), corpus_hash=digest,
        complete=manifest.complete, solvable_number=solvable_number,
        insolvable_names=tuple(r.name for r in insolvable_groups),
        order_sets=sets, traces=traces, verdict="undecided",
        problems=tuple(problems))
    if not problems:
        if not report.stage_names("unconditional"):
            report.verdict = "holds"
        elif not report.stage_names("conditional"):
            report.verdict = f"holds-conditional-on({n // 2})"
    if timings:
        report.seconds = time.monotonic() - start
    return report


def render_report(report: ScreenReport) -> str:
    """Deterministic human-readable rendering of a ScreenReport."""
    lines = [f"screen: order {report.n}"]
    lines.append(f"corpus: {report.corpus_dir} "
                 f"({len(report.traces) + len(report.insolvable_names)} groups, "
                 f"complete={'yes' if report.complete else 'no'})")
    lines.append(f"corpus sha256: {report.corpus_hash}")
    lines.append("note: the verdict relies on the corpus completeness claim")
    if report.solvable_number is not None:
        lines.append("solvable number: "
                     + ("yes" if report.solvable_number else "no"))
    names = ", ".join(report.insolvable_names) or "none"
    lines.append(f"insolvable groups ({len(report.insolvable_names)}): {names}")
    if report.order_sets is not None:
        solv = " ".join(str(k) for k in sorted(report.order_sets.solvable_orders))
        allo = " ".join(str(k) for k in sorted(report.order_sets.all_orders))
        lines.append(f"solvable subgroup orders: {solv or '-'}")
        lines.append(f"subgroup orders: {allo or '-'}")
    lines.append("trace (solvable groups, corpus order):")
    width = max((len(t.name) for t in report.traces), default=4)
    for t in report.traces:
        if t.error:
            lines.append(f"  {t.name:<{width}} error: {t.error}")
            continue
        parts = []
        for entry in STAGES:
            passed = getattr(t, entry.passed_key)
            if passed is None:
                break
            if entry.label:
                value = getattr(t, entry.value_key)
                if isinstance(value, tuple):
                    value = ",".join(str(k) for k in value)
                parts.append(f"{entry.label}={value}")
            if not entry.drop:
                parts.append(f"{entry.name}={'yes' if passed else 'no'}")
            elif not passed:
                parts.append(f"dropped: {entry.drop}")
        if t.seconds is not None:
            parts.append(f"t={t.seconds:.3f}s")
        lines.append(f"  {t.name:<{width}} " + "  ".join(parts))
    for entry in STAGES:
        names = report.stage_names(entry.name)
        lines.append(f"past {entry.name} ({len(names)}): "
                     + (", ".join(names) or "-"))
    for path in ("unconditional", "conditional"):
        names = report.stage_names(path)
        lines.append(f"survivors, {path} path ({len(names)}): "
                     + (", ".join(names) or "-"))
    for problem in report.problems:
        lines.append(f"problem: {problem}")
    if report.seconds is not None:
        lines.append(f"elapsed: {report.seconds:.3f}s")
    lines.append(f"verdict: {report.verdict}")
    return "\n".join(lines) + "\n"


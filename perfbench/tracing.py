"""Span recorders around holoscreen's public functions, and layer metrics.

A span is (name, start, end, parent) plus optional counts.  The tracer
wraps functions from outside the package: each wrapped name is replaced
in every ``holoscreen`` module that holds it, because callers look names
up in their own module globals (``cli.holomorph``,
``holomorph.are_isomorphic``).  Methods are replaced on their class, and a
``cached_property`` is replaced by a new ``cached_property`` around the
wrapped function.  Modules are reached through ``sys.modules``: the
package attribute ``holoscreen.holomorph`` is the function, not the module.

Spans finished in a forked child (the screening process pool) are
appended to a file per process under the spill directory and merged by
``collect``.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import sys
import time
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path


@dataclass
class Span:
    id: str
    name: str
    start: float
    end: float
    parent: str | None
    counts: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Hook:
    """One traced callable: ``qualname`` inside ``module``, recorded as
    span ``name``; ``count`` maps the result to counts for the span."""

    module: str
    qualname: str
    name: str
    count: object = None
    cpu: bool = False


def _aut_elements(aut):
    return {"elements": aut.order}


def _search_counts(result):
    subgroups, nodes, _ = result
    return {"nodes": nodes, "records": len(subgroups)}


def _iso_hits(result):
    return {"hits": int(bool(result[0]))}


HOOKS = (
    Hook("holoscreen.cli", "main", "cli.main", cpu=True),
    Hook("holoscreen.corpus", "load_manifest", "corpus.load"),
    Hook("holoscreen.corpus", "validate_corpus", "corpus.validate"),
    Hook("holoscreen.automorphisms", "automorphism_group", "automorphisms.enum",
         count=_aut_elements),
    Hook("holoscreen.automorphisms", "AutGroup.table", "automorphisms.table"),
    Hook("holoscreen.holomorph", "holomorph", "holomorph.build"),
    Hook("holoscreen.holomorph", "HolomorphGroup.element_orders",
         "holomorph.orders"),
    Hook("holoscreen.holomorph", "RegularEnumeration.classify",
         "holomorph.classify"),
    Hook("holoscreen.holomorph", "subgroup_table", "holomorph.subtable"),
    Hook("holoscreen._kernel", "search_regular", "kernel.search",
         count=_search_counts),
    Hook("holoscreen.isomorphism", "are_isomorphic", "isomorphism.iso",
         count=_iso_hits),
    Hook("holoscreen.tables", "GroupTable.is_solvable", "tables.solvable"),
    Hook("holoscreen.lattice", "fitting_subgroup", "lattice.fitting"),
    Hook("holoscreen.lattice", "all_subgroups", "lattice.subgroups"),
    Hook("holoscreen.screening", "screen_order", "screening.screen"),
    Hook("holoscreen.screening", "build_order_sets", "screening.order_sets"),
    Hook("holoscreen.screening", "_trace_one", "screening.trace_one"),
    Hook("holoscreen.numbers", "suzuki_exponent_check", "numbers.suzuki"),
    Hook("holoscreen.numbers", "square_free_status", "numbers.square_free"),
    Hook("holoscreen.numbers", "classify_order", "numbers.classify"),
)


def _cpu_seconds() -> float:
    """CPU time of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Tracer:
    """Keeps spans in memory; forked children spill theirs to files."""

    def __init__(self, spill_dir: Path):
        self.pid = os.getpid()
        self.spill_dir = Path(spill_dir)
        self.spans: list[Span] = []
        self._stack: list[str] = []
        self._serial = 0
        self._undo: list[tuple[object, str, object]] = []

    def _finish(self, span: Span) -> None:
        if os.getpid() == self.pid:
            self.spans.append(span)
            return
        path = self.spill_dir / f"spans-{os.getpid()}.jsonl"
        with open(path, "a") as handle:
            handle.write(json.dumps(span.__dict__) + "\n")

    def wrap(self, fn, hook: Hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._serial += 1
            span = Span(f"{os.getpid()}.{tracer._serial}", hook.name, 0.0, 0.0,
                        tracer._stack[-1] if tracer._stack else None)
            tracer._stack.append(span.id)
            cpu = _cpu_seconds() if hook.cpu else 0.0
            returned = False
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                returned = True
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
                if hook.cpu:
                    span.counts["cpu_s"] = _cpu_seconds() - cpu
                if returned and hook.count is not None:
                    span.counts.update(hook.count(result))
                # Counts go in first: a forked child writes the span out here.
                tracer._finish(span)
            return result

        return traced

    def install(self) -> None:
        """Patch every hook; raise if a hook finds nothing to patch."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "holoscreen" or name.startswith("holoscreen."))
                   and m is not None]
        for hook in HOOKS:
            module = sys.modules[hook.module]
            owner_name, _, attr = hook.qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, cached_property):
                    new = cached_property(self.wrap(raw.func, hook))
                    new.__set_name__(owner, attr)
                else:
                    new = self.wrap(raw, hook)
                self._patch(owner, attr, new)
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(original, hook)
            sites = [(m, name) for m in modules
                     for name, value in list(vars(m).items())
                     if value is original]
            if not sites:
                raise RuntimeError(f"{hook.module}.{attr} is referenced nowhere")
            for site, name in sites:
                self._patch(site, name, wrapped)

    def _patch(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def restore(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def collect(self) -> list[Span]:
        """This process's spans plus those spilled by forked children."""
        spans = list(self.spans)
        for path in sorted(self.spill_dir.glob("spans-*.jsonl")):
            for line in path.read_text().splitlines():
                spans.append(Span(**json.loads(line)))
            path.unlink()
        self.spans.clear()
        return spans


# -- metrics from spans ----------------------------------------------------


def _union_length(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class SpanIndex:
    """Per-name totals over a list of spans."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.by_id = {s.id: s for s in spans}
        self.children: dict[str, list[Span]] = {}
        for s in spans:
            if s.parent is not None:
                self.children.setdefault(s.parent, []).append(s)

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def calls(self, name: str) -> int:
        return len(self.named(name))

    def _nested_in_same(self, span: Span) -> bool:
        parent = self.by_id.get(span.parent)
        while parent is not None:
            if parent.name == span.name:
                return True
            parent = self.by_id.get(parent.parent)
        return False

    def inclusive(self, name: str) -> float:
        """Wall time inside ``name``, counting nested calls of it once."""
        return sum(s.end - s.start for s in self.named(name)
                   if not self._nested_in_same(s))

    def self_time(self, name: str) -> float:
        """Wall time inside ``name`` not covered by any of its child spans."""
        total = 0.0
        for s in self.named(name):
            covered = [(max(c.start, s.start), min(c.end, s.end))
                       for c in self.children.get(s.id, ())]
            covered = [(a, b) for a, b in covered if b > a]
            total += (s.end - s.start) - _union_length(covered)
        return total

    def count(self, name: str, key: str) -> float:
        return sum(s.counts.get(key, 0) for s in self.named(name))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# (metric, unit, better) in the order the benchmark reports them.
LAYER_METRICS = (
    ("isomorphism.iso_s", "s", "lower"),
    ("isomorphism.iso_calls", "count", "lower"),
    ("isomorphism.iso_hit_ratio", "ratio", "higher"),
    ("holomorph.subtable_s", "s", "lower"),
    ("holomorph.subtable_calls", "count", "lower"),
    ("tables.solvable_s", "s", "lower"),
    ("tables.solvable_calls", "count", "lower"),
    ("holomorph.classify_self_s", "s", "lower"),
    ("kernel.search_s", "s", "lower"),
    ("kernel.nodes", "count", "lower"),
    ("kernel.records", "count", "lower"),
    ("kernel.yield", "ratio", "higher"),
    ("automorphisms.table_s", "s", "lower"),
    ("automorphisms.enum_s", "s", "lower"),
    ("automorphisms.elements", "count", "lower"),
    ("holomorph.build_s", "s", "lower"),
    ("holomorph.orders_s", "s", "lower"),
    ("corpus.load_s", "s", "lower"),
    ("corpus.validate_s", "s", "lower"),
    ("lattice.fitting_s", "s", "lower"),
    ("lattice.subgroups_s", "s", "lower"),
    ("screening.screen_s", "s", "lower"),
    ("screening.order_sets_s", "s", "lower"),
    ("numbers.suzuki_s", "s", "lower"),
    ("numbers.square_free_s", "s", "lower"),
    ("numbers.square_free_calls", "count", "lower"),
    ("numbers.classify_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.cpu_s", "s", "lower"),
)


def layer_values(spans: list[Span], passes: int) -> dict[str, float]:
    """Every LAYER_METRICS value, per pass, from the spans of ``passes``."""
    ix = SpanIndex(spans)
    iso_calls = ix.calls("isomorphism.iso")
    nodes = ix.count("kernel.search", "nodes")
    records = ix.count("kernel.search", "records")
    totals = {
        "isomorphism.iso_s": ix.inclusive("isomorphism.iso"),
        "isomorphism.iso_calls": iso_calls,
        "holomorph.subtable_s": ix.inclusive("holomorph.subtable"),
        "holomorph.subtable_calls": ix.calls("holomorph.subtable"),
        "tables.solvable_s": ix.inclusive("tables.solvable"),
        "tables.solvable_calls": ix.calls("tables.solvable"),
        "holomorph.classify_self_s": ix.self_time("holomorph.classify"),
        "kernel.search_s": ix.inclusive("kernel.search"),
        "kernel.nodes": nodes,
        "kernel.records": records,
        "automorphisms.table_s": ix.inclusive("automorphisms.table"),
        "automorphisms.enum_s": ix.inclusive("automorphisms.enum"),
        "automorphisms.elements": ix.count("automorphisms.enum", "elements"),
        "holomorph.build_s": ix.self_time("holomorph.build"),
        "holomorph.orders_s": ix.inclusive("holomorph.orders"),
        "corpus.load_s": ix.inclusive("corpus.load"),
        "corpus.validate_s": ix.inclusive("corpus.validate"),
        "lattice.fitting_s": ix.inclusive("lattice.fitting"),
        "lattice.subgroups_s": ix.inclusive("lattice.subgroups"),
        "screening.screen_s": ix.inclusive("screening.screen"),
        "screening.order_sets_s": ix.inclusive("screening.order_sets"),
        "numbers.suzuki_s": ix.inclusive("numbers.suzuki"),
        "numbers.square_free_s": ix.inclusive("numbers.square_free"),
        "numbers.square_free_calls": ix.calls("numbers.square_free"),
        "numbers.classify_s": ix.inclusive("numbers.classify"),
        "cli.self_s": ix.self_time("cli.main"),
        "cli.cpu_s": ix.count("cli.main", "cpu_s"),
    }
    values = {k: v / passes for k, v in totals.items()}
    values["isomorphism.iso_hit_ratio"] = _ratio(
        ix.count("isomorphism.iso", "hits"), iso_calls)
    values["kernel.yield"] = _ratio(records, nodes)
    return {name: values[name] for name, _, _ in LAYER_METRICS}


# Spans each workload must record in every traced pass.
REQUIRED_SPANS = {
    "direct-o60": ("cli.main", "corpus.load", "automorphisms.enum",
                   "automorphisms.table", "holomorph.build",
                   "holomorph.orders", "kernel.search", "holomorph.classify",
                   "holomorph.subtable", "tables.solvable", "isomorphism.iso"),
    "wide-aut": ("cli.main", "automorphisms.enum", "automorphisms.table",
                 "holomorph.build", "holomorph.orders", "kernel.search",
                 "holomorph.classify", "isomorphism.iso"),
    "screen-corpora": ("cli.main", "corpus.load", "corpus.validate",
                       "screening.screen", "screening.order_sets",
                       "screening.trace_one", "lattice.fitting",
                       "lattice.subgroups", "isomorphism.iso"),
    "numtheory": ("numbers.classify", "numbers.suzuki", "numbers.square_free"),
}


def missing_spans(workload: str, spans: list[Span], passes: int) -> list[str]:
    """Required span names recorded fewer than once per traced pass."""
    ix = SpanIndex(spans)
    return [name for name in REQUIRED_SPANS[workload]
            if ix.calls(name) < passes]

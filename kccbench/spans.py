"""Per-module spans and counts, recorded around calls into kcc's modules.

`Tracer.install` wraps kcc's public functions and methods by name, in every
loaded kcc module that refers to them, so calls made inside kcc are seen
too.  A name that no longer exists is skipped and its metrics are reported
as absent.  A span's self time is its duration minus the time of the spans
it contains.  Counting (such as walking an explanation tree) happens after
a span closes and is kept out of every span.

Spans are timed on the tracer's clock, which runs at reference CPU speed:
the raw time since the benchmark's last speed probe, times the speed that
probe measured.  The clock stands still while a probe runs, so a probe made
inside a kcc call (as between replay's pulls of batches) is in no span.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple


def _explain_nodes(tree) -> int:
    nodes, todo = 0, [tree]
    while todo:
        node = todo.pop()
        nodes += 1
        todo.extend(node.children)
    return nodes


def _one(args, result) -> int:
    return 1


# metric -> how much one outermost call adds, from its arguments and result
_ON_CALL = {
    "scenario.batches": lambda a, r: len(r.batches),
    "rules.fixpoint_calls": _one,
    "rules.epochs": lambda a, r: r.epochs,
    "rules.derived": lambda a, r: r.derived,
    "correlator.indicator_facts": lambda a, r: len(r),
    "correlator.alerts": lambda a, r: len(r),
    "ingest.lines": _one,
    "vocab.coerce_calls": _one,
    "facts.insert_calls": _one,
    "facts.query_calls": _one,
    "facts.query_results": lambda a, r: len(r),
    "facts.explain_calls": _one,
    "facts.explain_nodes": lambda a, r: _explain_nodes(r),
    "facts.dump_bytes": lambda a, r: sum(len(line) + 1 for line in r),
}

# metric -> the store a call works on, for the largest store seen
_STORE = {
    "rules.fixpoint": lambda a, r: a[1],
    "facts.load": lambda a, r: r,
    "facts.dump": lambda a, r: a[0],
}

# (module, attribute path, span, counted metrics).  Span `x` reports `x_s`.
TARGETS: List[Tuple[str, str, str, Tuple[str, ...]]] = [
    ("kcc.scenario", "load_scenario", "scenario.load", ()),
    ("kcc.scenario", "replay", "scenario.replay_self", ("scenario.batches",)),
    ("kcc.rules", "run_to_fixpoint", "rules.fixpoint",
     ("rules.fixpoint_calls", "rules.epochs", "rules.derived", "rules.store_facts_at_call")),
    ("kcc.correlator", "extract_indicators", "correlator.indicators", ("correlator.indicator_facts",)),
    ("kcc.correlator", "assemble_alerts", "correlator.alerts", ("correlator.alerts",)),
    ("kcc.ingest", "parse_snort_line", "ingest.parse", ("ingest.lines",)),
    ("kcc.ingest", "parse_host_event", "ingest.parse", ("ingest.lines",)),
    ("kcc.ingest", "extract_intel_from_text", "ingest.parse", ("ingest.lines",)),
    ("kcc.ingest", "parse_intel_document", "ingest.parse", ("ingest.lines",)),
    ("kcc.ingest", "commit_event", "ingest.commit", ()),
    ("kcc.ingest", "commit_intel", "ingest.commit", ()),
    ("kcc.vocab", "Vocabulary.coerce", "vocab.coerce", ("vocab.coerce_calls",)),
    ("kcc.facts", "FactStore.insert", "facts.insert", ("facts.insert_calls",)),
    ("kcc.facts", "FactStore.query", "facts.query", ("facts.query_calls", "facts.query_results")),
    ("kcc.facts", "FactStore.explain", "facts.explain", ("facts.explain_calls", "facts.explain_nodes")),
    ("kcc.facts", "FactStore.load", "facts.load", ()),
    ("kcc.facts", "FactStore.load_lines", "facts.load", ("facts.facts_final",)),
    ("kcc.facts", "FactStore.dump_lines", "facts.dump", ("facts.dump_bytes", "facts.facts_final")),
]


class Tracer:
    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self.facts_final = 0
        self.present: Dict[str, bool] = {}
        self._stack: List[float] = []  # per open span: time of its child spans
        self._open: Dict[str, int] = defaultdict(int)  # open spans per name
        self._ref = 0.0  # the clock at the end of the last probe
        self._raw = perf_counter()  # the raw time then
        self._scale = 1.0  # the speed that probe measured

    def now(self) -> float:
        """Seconds on the clock: reference-speed time, probes left out."""
        return self._ref + (perf_counter() - self._raw) * self._scale

    def probe(self, speed: Callable[[], float]) -> Callable[[], float]:
        """`speed` with the clock stopped while it runs and set to the
        speed it returns."""

        def probed() -> float:
            self._ref = self.now()
            self._scale = speed()
            self._raw = perf_counter()
            return self._scale

        return probed

    def _wrap(self, fn: Callable, span: str, counted: Tuple[str, ...]) -> Callable:
        stack, self_s, open_, counts, now = self._stack, self.self_s, self._open, self.counts, self.now
        on_call = [(name, _ON_CALL[name]) for name in counted if name in _ON_CALL]
        store_of = _STORE.get(span)

        def traced(*args, **kwargs):
            outer = open_[span] == 0
            if outer and span == "rules.fixpoint":
                counts["rules.store_facts_at_call"] += len(args[1])
            open_[span] += 1
            stack.append(0.0)
            start = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = now() - start
                self_s[span] += elapsed - stack.pop()
                open_[span] -= 1
            if outer:
                count_start = now()
                for name, add in on_call:
                    counts[name] += add(args, result)
                if store_of is not None:
                    self.facts_final = max(self.facts_final, len(store_of(args, result)))
                elapsed += now() - count_start
            if stack:
                stack[-1] += elapsed
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target that exists; record which metrics are present."""
        kcc_modules = [m for name, m in sys.modules.items() if name == "kcc" or name.startswith("kcc.")]
        for module_name, path, span, counted in TARGETS:
            owner: Any = sys.modules.get(module_name)
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part, None)
            raw = vars(owner).get(attr) if owner is not None else None
            found = callable(getattr(raw, "__func__", raw))
            for name in (span + "_s",) + counted:
                self.present[name] = self.present.get(name, False) or found
            if not found:
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                setattr(owner, attr, type(raw)(self._wrap(raw.__func__, span, counted)))
            elif owner_path:
                setattr(owner, attr, self._wrap(raw, span, counted))
            else:
                wrapped = self._wrap(raw, span, counted)
                for module in kcc_modules:
                    for name, value in list(vars(module).items()):
                        if value is raw:
                            setattr(module, name, wrapped)

    def self_total(self) -> float:
        return sum(self.self_s.values())

    def metrics(self, passes: int) -> Dict[str, Optional[float]]:
        """Per-pass means of every time and count, the largest store seen,
        and None for each absent metric."""
        out: Dict[str, Optional[float]] = {}
        for name, found in sorted(self.present.items()):
            if not found:
                out[name] = None
            elif name == "facts.facts_final":
                out[name] = self.facts_final
            elif name.endswith("_s"):
                out[name] = self.self_s.get(name[:-2], 0.0) / passes
            else:
                out[name] = self.counts.get(name, 0) / passes
        return out

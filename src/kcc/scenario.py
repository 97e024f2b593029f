"""Deterministic scenario replay: timestamped sensor/intel inputs -> alerts.

Scenario file format, one input per line:
    <ISO-ts> <snort|host|intel-doc|intel-text> <payload>
where the payload is the raw input line (snort/host/intel-text) or a path to
an intel document, resolved relative to the scenario file.  Events replay in
timestamp order (ties broken by file order); after each same-timestamp batch
the indicators are re-extracted and the rule engine re-run to fixpoint.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from datetime import datetime
from itertools import groupby
from operator import itemgetter
from pathlib import Path
from typing import Any, Dict, List, Tuple

from kcc.correlator import (
    Alert,
    IndicatorConfig,
    IndicatorState,
    assemble_alerts,
    extract_indicators,
)
from kcc.facts import FactStore
from kcc.ingest import (
    IngestError,
    SidMap,
    TechniqueTable,
    commit_event,
    commit_intel,
    extract_intel_from_text,
    make_event_id,
    parse_host_event,
    parse_intel_document,
    parse_snort_line,
)
from kcc.rules import RuleSet, run_to_fixpoint
from kcc.vocab import (
    Vocabulary,
    VocabularyError,
    open_input,
    parse_timestamp,
    read_text,
    render_timestamp,
)

SOURCE_TAGS = ("snort", "host", "intel-doc", "intel-text")
_TAGS = {tag: tag for tag in SOURCE_TAGS}  # every line keeps its tag's constant, not a copy


class MalformedScenario(Exception):
    def __init__(self, message: str, lineno: int = 0):
        self.lineno = lineno
        if lineno:
            message = f"line {lineno}: {message}"
        super().__init__(message)


# (ts, tag, payload, lineno): an exact tuple of untracked items, which the
# garbage collector stops tracking, where it tracks a named tuple for life
ScenarioLine = Tuple[datetime, str, str, int]


@dataclass
class Scenario:
    name: str
    lines: List[ScenarioLine]
    base_dir: Path

    def batches(self) -> List[Tuple[datetime, List[ScenarioLine]]]:
        """The runs of lines with equal times, in order."""
        return [(ts, list(run)) for ts, run in groupby(self.lines, itemgetter(0))]


@dataclass
class EngineConfig:
    vocab: Vocabulary
    rules: RuleSet
    sidmap: SidMap
    techniques: TechniqueTable
    indicators: IndicatorConfig = field(default_factory=IndicatorConfig)


def load_scenario(path) -> Scenario:
    """Parse, validate, and time-sort a scenario file, in one pass over its
    lines.  The sort is stable, so lines at one instant keep their file
    order."""
    path = Path(path)
    lines: List[ScenarioLine] = []
    append, tags = lines.append, _TAGS
    stamps: Dict[str, datetime] = {}  # each distinct time text, parsed once
    with open_input(path, MalformedScenario) as fh:
        for lineno, raw in enumerate(fh, start=1):
            parts = raw.split(None, 2)
            if not parts or parts[0][0] == "#":
                continue
            if len(parts) != 3:
                raise MalformedScenario(f"expected '<ts> <tag> <payload>'", lineno)
            ts_text, tag, payload = parts
            if tag not in tags:
                raise MalformedScenario(f"unknown source tag {tag!r}", lineno)
            ts = stamps.get(ts_text)
            if ts is None:
                try:
                    ts = stamps[ts_text] = parse_timestamp(ts_text)
                except ValueError as exc:
                    raise MalformedScenario(f"bad timestamp: {exc}", lineno) from exc
            append((ts, tags[tag], payload.rstrip(), lineno))
    lines.sort(key=itemgetter(0))
    return Scenario(path.stem, lines, path.parent)


def _parse_payload(line: ScenarioLine, base_dir: Path, config: EngineConfig):
    ts, tag, payload, _ = line
    if tag == "snort":
        return parse_snort_line(payload, config.sidmap, year=ts.year)
    if tag == "host":
        return parse_host_event(payload)
    if tag == "intel-text":
        return extract_intel_from_text(payload, config.techniques)
    doc_path = base_dir / payload  # replay names it on any error of the line
    try:
        text = read_text(doc_path, IngestError)
    except OSError as exc:  # not a regular file, a name too long, no permission
        raise IngestError(exc.strerror) from exc
    return parse_intel_document(text, config.techniques)


@dataclass
class Transcript:
    scenario: str
    batches: List[Dict[str, Any]]
    alerts: List[Alert]
    alert_timeline: List[Dict[str, str]]
    store: FactStore

    def to_json(self) -> str:
        doc = {
            "scenario": self.scenario,
            "batches": self.batches,
            "alert_timeline": self.alert_timeline,
            "final_alerts": [a.to_json_dict() for a in self.alerts],
            "final_fact_count": len(self.store),
        }
        return json.dumps(doc, sort_keys=True, indent=2)


def replay(scenario: Scenario, config: EngineConfig) -> Transcript:
    """Replay a scenario on a logical clock; fully deterministic.

    After each same-timestamp batch: commit facts, extract indicators, run
    rules to fixpoint, and re-assemble alerts.  While a fixpoint derives a
    fact and the indicator checks then assert one, the fixpoint runs again
    on those, so the batch ends closed under both.  Each stage works on the
    batch, the facts above the store's watermark taken when the batch
    starts; the store is at fixpoint up to that watermark.  Indicator
    extraction keeps one running `IndicatorState` for the run, so a batch
    tests only the windows its own records touch.  A host's alert is
    re-assembled only when it gains phase evidence or a detection.  Only
    the fixpoint derives those (no input may assert one), so a batch whose
    fixpoint derived nothing assembles none.
    """
    store = FactStore(config.vocab)
    batches: List[Dict[str, Any]] = []
    first_seen: Dict[Tuple[str, str], str] = {}
    occurrences: Dict[Tuple[str, str], int] = {}
    # host -> its current alert and that alert's rendering
    alerts: Dict[str, Tuple[Alert, Dict[str, Any]]] = {}
    rows: List[Dict[str, Any]] = []  # the renderings, sorted by host
    indicator_state = IndicatorState(config.indicators)

    for ts, lines in scenario.batches():
        since = store.watermark
        asserted = 0
        for line in lines:
            _, tag, payload, lineno = line
            try:
                parsed = _parse_payload(line, scenario.base_dir, config)
                if tag in ("snort", "host"):
                    key = (tag, payload)
                    n = occurrences.get(key, 0)
                    occurrences[key] = n + 1
                    asserted += len(commit_event(store, parsed, make_event_id(tag, payload, n)))
                else:
                    asserted += len(commit_intel(store, parsed))
            except (IngestError, VocabularyError) as exc:
                # an intel document's error, in its parse or its commit, names it
                where = f"{scenario.base_dir / payload}: " if tag == "intel-doc" else ""
                raise MalformedScenario(f"{where}{exc}", lineno) from exc
        indicator_facts = len(extract_indicators(store, indicator_state))
        epochs, derived = run_to_fixpoint(config.rules, store, since=since)
        more = derived
        while more:  # a derived fact can make an indicator qualify: another round
            mark = store.watermark
            found = extract_indicators(store, indicator_state)
            if not found:
                break
            indicator_facts += len(found)
            round_epochs, more = run_to_fixpoint(config.rules, store, since=mark)
            epochs, derived = epochs + round_epochs, derived + more
        ts_text = render_timestamp(ts)
        assembled = assemble_alerts(store, since=since) if derived else []
        for alert in assembled:
            alerts[alert.host] = (alert, alert.to_json_dict())
            first_seen.setdefault(alert.key, ts_text)
        if assembled:  # else the rows of the batch before still hold
            rows = [alerts[host][1] for host in sorted(alerts)]
        batches.append(
            {
                "ts": ts_text,
                "inputs": len(lines),
                "facts_asserted": asserted,
                "indicator_facts": indicator_facts,
                "epochs": epochs,
                "facts_derived": derived,
                "alerts": rows,
            }
        )

    timeline = [
        {"host": host, "tier": tier, "first_ts": ts_text}
        for (host, tier), ts_text in sorted(first_seen.items())
    ]
    final = [alerts[host][0] for host in sorted(alerts)]
    return Transcript(scenario.name, batches, final, timeline, store)

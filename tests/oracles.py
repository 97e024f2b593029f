"""Independent brute-force oracles used to cross-check the engine.

Deliberately naive implementations: full scans, re-evaluate-everything
fixpoints, O(n^2) window counting, and indicator checks that walk every
host's whole history after every batch.  They share no code with the package's
indexed/semi-naive paths, except eight copies of earlier package code kept as
references: the chained `coerce`; the `render_timestamp` that went through
`isoformat`; the generic semi-naive fixpoint, whose ids and premises the
compiled rule plans must reproduce; the derivation
tree `explain` built before premises were shared, with a copy of every
premise at every use; the rule tokenizer that read one character at a time;
the Snort parser that matched its stages (the package's own
`_SNORT_STAGES`) one at a time; and the scenario reader that stripped each
line it iterated and kept named-tuple lines, with the `parse_timestamp` it
called.
"""

from __future__ import annotations

import math
from collections import defaultdict
from datetime import datetime, timezone
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Tuple

from kcc.facts import Derived, Fact, FactStore, Pattern, render_triple
from kcc.ingest import _SNORT_STAGES, MalformedLine, SensorEvent, SidMap
from kcc.rules import (
    Atom,
    Builtin,
    FixpointResult,
    Rule,
    RuleError,
    RuleSet,
    Term,
    Var,
    _PUNCT,
    _Token,
)
from kcc.scenario import SOURCE_TAGS, MalformedScenario
from kcc.vocab import (
    EventKind,
    IndicatorKind,
    VocabularyError,
    has_whitespace,
    is_encodable,
    is_writable_int,
    parse_timestamp,
)


def full_scan_query(triples, s, p, o, o_wild):
    """Reference query over a plain set of (s, p, o) triples."""
    out = set()
    for ts, tp, to in triples:
        if s is not None and ts != s:
            continue
        if p is not None and tp != p:
            continue
        if not o_wild and to != o:
            continue
        out.add((ts, tp, to))
    return out


def _term_value(term, binding):
    if isinstance(term, Var):
        return binding[term.name]
    return term


def _match_body(body, triples, binding):
    if not body:
        yield binding
        return
    item, rest = body[0], body[1:]
    if isinstance(item, Builtin):
        left = _term_value(item.left, binding)
        right = _term_value(item.right, binding)
        if item.op == "=":
            ok = left == right
        elif item.op == "!=":
            ok = left != right
        elif not _comparable(left, right):
            ok = False
        elif item.op == "<":
            ok = left < right
        elif item.op == "<=":
            ok = left <= right
        elif item.op == ">":
            ok = left > right
        else:
            ok = left >= right
        if ok:
            yield from _match_body(rest, triples, binding)
        return
    for s, p, o in triples:
        if p != item.predicate:
            continue
        new = dict(binding)
        if isinstance(item.subject, Var):
            if item.subject.name in new:
                if new[item.subject.name] != s:
                    continue
            else:
                new[item.subject.name] = s
        elif item.subject != s:
            continue
        if isinstance(item.obj, Var):
            if item.obj.name in new:
                if new[item.obj.name] != o:
                    continue
            else:
                new[item.obj.name] = o
        elif item.obj != o:
            continue
        yield from _match_body(rest, triples, new)


def _comparable(a, b):
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return True
    return type(a) is type(b) and isinstance(a, (str, datetime))


def naive_fixpoint(rules, triples):
    """Re-evaluate every rule against everything until nothing changes."""
    facts = set(triples)
    changed = True
    while changed:
        changed = False
        for rule in rules:
            for binding in list(_match_body(list(rule.body), list(facts), {})):
                for atom in rule.head:
                    s = _term_value(atom.subject, binding)
                    o = _term_value(atom.obj, binding)
                    if (s, atom.predicate, o) not in facts:
                        facts.add((s, atom.predicate, o))
                        changed = True
    return facts


def brute_force_sliding_hit(timestamps, window, threshold):
    """True iff some window [t_i, t_i + window] contains >= threshold events."""
    for i in range(len(timestamps)):
        count = 0
        for j in range(len(timestamps)):
            dt = (timestamps[j] - timestamps[i]).total_seconds()
            if 0 <= dt <= window:
                count += 1
        if count >= threshold:
            return True
    return False


def brute_force_tumbling_counts(timestamps, window):
    """Event count per consecutive window starting at the first timestamp."""
    if not timestamps:
        return []
    t0 = min(timestamps)
    last = max(int((ts - t0).total_seconds() // window) for ts in timestamps)
    counts = [0] * (last + 1)
    for ts in timestamps:
        counts[int((ts - t0).total_seconds() // window)] += 1
    return counts


def brute_force_first_spike(timestamps, window, factor, min_count):
    """Index of the first window whose count is >= min_count and >= factor
    times the mean count of all windows before it, or None."""
    counts = brute_force_tumbling_counts(timestamps, window)
    for k in range(1, len(counts)):
        mean = sum(counts[:k]) / k
        if counts[k] >= min_count and counts[k] >= factor * mean:
            return k
    return None


# -- whole-history indicator checks ----------------------------------------------


def sliding_window_hit(timestamps, window, threshold):
    """First window [t_i, t_i + window] holding >= threshold events.

    Input must be sorted.  Returns (start_index, end_index_exclusive) of the
    earliest qualifying window, or None.
    """
    j = 0
    for i in range(len(timestamps)):
        if j < i:
            j = i
        while (
            j < len(timestamps)
            and (timestamps[j] - timestamps[i]).total_seconds() <= window
        ):
            j += 1
        if j - i >= threshold:
            return (i, j)
    return None


def tumbling_window_counts(timestamps, window):
    """Indices of sorted timestamps bucketed into consecutive windows of
    `window` seconds starting at the first timestamp."""
    if not timestamps:
        return []
    buckets = []
    t0 = timestamps[0]
    for i, ts in enumerate(timestamps):
        k = int((ts - t0).total_seconds() // window)
        while len(buckets) <= k:
            buckets.append([])
        buckets[k].append(i)
    return buckets


def whole_history_indicators(store, config):
    """The four indicator checks over every host's whole history, with no
    running state: each check walks the host's records of its kind, read
    afresh from the store, and the spike check builds every bucket of the
    host's time span.  Asserts what qualifies, kind by kind and hosts in
    sorted order, as `extract_indicators` must; returns the new facts.

    A record is (ts, event, kind fact id) for an event with a kind fact, an
    eventTs fact and a host fact (onHost for hostKind, dstIp for snortKind);
    the first fact of each predicate counts.
    """
    first = {}
    for pred in ("eventTs", "onHost", "dstIp", "sensitive", "cpuPercent"):
        for fact in store.query(Pattern.of(None, pred)):
            first.setdefault((fact.subject, pred), fact.obj)
    records = defaultdict(list)
    for kind_pred, host_pred in (("hostKind", "onHost"), ("snortKind", "dstIp")):
        for fact in store.query(Pattern.of(None, kind_pred)):
            ts = first.get((fact.subject, "eventTs"))
            host = first.get((fact.subject, host_pred))
            if ts is not None and host is not None:
                records[(kind_pred, fact.obj, host)].append((ts, fact.subject, fact.fact_id))
    for recs in records.values():
        recs.sort()
    hosts = sorted({host for _, _, host in records})
    new_facts = []

    def assert_indicator(host, kind, premises):
        derived = Derived(f"indicator:{kind.value}", tuple(sorted(set(premises))))
        for fid in store.insert([(host, "hasIndicator", kind.entity_id)], derived):
            new_facts.append(store.get(fid))

    def of_kind(kind_pred, kind, host):
        return records.get((kind_pred, kind.token, host), [])

    # mass modification of sensitive files in a sliding window
    for host in hosts:
        mods = [
            r
            for r in of_kind("hostKind", EventKind.FILE_MODIFIED, host)
            if first.get((r[1], "sensitive")) == 1
        ]
        hit = sliding_window_hit(
            [r[0] for r in mods],
            config.mass_file_mod_window,
            config.mass_file_mod_threshold,
        )
        if hit:
            assert_indicator(
                host,
                IndicatorKind.MASS_FILE_MODIFICATION,
                [r[2] for r in mods[hit[0] : hit[1]]],
            )

    # repeated process samples above the CPU threshold
    for host in hosts:
        hot = []
        for r in of_kind("hostKind", EventKind.PROCESS_STAT, host):
            cpu = first.get((r[1], "cpuPercent"))
            if isinstance(cpu, (int, float)) and cpu > config.high_cpu_threshold:
                hot.append(r)
        if len(hot) >= config.high_cpu_min_samples:
            assert_indicator(host, IndicatorKind.HIGH_CPU_USAGE, [r[2] for r in hot])

    # any download flagged by the network sensor
    for host in hosts:
        downloads = of_kind("snortKind", EventKind.SUSPICIOUS_DOWNLOAD, host)
        if downloads:
            assert_indicator(
                host,
                IndicatorKind.DOWNLOAD_FROM_UNKNOWN_SOURCE,
                [r[2] for r in downloads],
            )

    # inbound-blocked count spiking over the trailing per-window mean
    for host in hosts:
        blocked = of_kind("snortKind", EventKind.INBOUND_CONNECTION_BLOCKED, host)
        buckets = tumbling_window_counts([r[0] for r in blocked], config.spike_window)
        earlier = len(buckets[0]) if buckets else 0
        for k in range(1, len(buckets)):
            count = len(buckets[k])
            if count >= config.spike_min_count and count >= config.spike_factor * (earlier / k):
                assert_indicator(
                    host,
                    IndicatorKind.INBOUND_ACCESS_SPIKE,
                    [blocked[i][2] for i in buckets[k]],
                )
                break
            earlier += count
    return new_facts


def chain_is_entity_id(text):
    """`is_entity_id` as three nested checks, with no fast path."""
    return (
        isinstance(text, str)
        and bool(text)
        and not has_whitespace(text)
        and is_encodable(text)
    )


def chain_coerce(vocab, predicate, obj):
    """`Vocabulary.coerce` as one chain of isinstance tests, with no fast
    path: the reference for the canonical value or the error it gives."""
    is_entity_id = chain_is_entity_id
    schema = vocab.predicates.get(predicate)
    if schema is None:
        raise VocabularyError(f"unregistered predicate: {predicate}")
    if schema == "entity":
        if is_entity_id(obj):
            return obj
    elif schema == "string":
        if isinstance(obj, str) and obj and is_encodable(obj):
            return obj
    elif schema == "integer":
        if isinstance(obj, bool):
            return int(obj)
        if isinstance(obj, int):
            if is_writable_int(obj):
                return obj
            raise VocabularyError(
                f"integer of {obj.bit_length()} bits is too long to write, "
                f"for {predicate}"
            )
    elif schema == "decimal":
        if isinstance(obj, bool):
            pass
        elif isinstance(obj, (int, float)):
            try:
                value = float(obj)
            except OverflowError:  # an int beyond the largest float
                value = math.inf
            if math.isfinite(value):
                return value
    elif schema == "timestamp":
        if isinstance(obj, datetime):
            if obj.tzinfo is None:
                obj = obj.replace(tzinfo=timezone.utc)
            try:
                return obj.astimezone(timezone.utc)
            except OverflowError:  # outside years 1-9999 in UTC
                pass
        elif isinstance(obj, str):
            try:
                return parse_timestamp(obj)
            except ValueError:
                pass
    raise VocabularyError(
        f"object {obj!r} does not match schema {schema} of {predicate}"
    )


# -- the generic semi-naive fixpoint -------------------------------------------
#
# `run_to_fixpoint` before rules were compiled into join plans, copied as it
# was: every epoch visits every rule and body atom, and each join step builds
# a `Pattern` and a binding dict.  The reference for the facts, ids and
# premises the compiled engine derives.

Binding = Dict[str, Any]


def _resolve(term: Term, binding: Binding) -> Any:
    if isinstance(term, Var):
        return binding[term.name]
    return term


def _bind(atom: Atom, fact: Fact, binding: Binding) -> Optional[Binding]:
    """`binding` extended so that `atom` matches `fact`, or None."""
    new = dict(binding)
    subj = atom.subject
    if isinstance(subj, Var):
        if subj.name in new:
            if new[subj.name] != fact.subject:
                return None
        else:
            new[subj.name] = fact.subject
    elif subj != fact.subject:
        return None
    o = atom.obj
    if isinstance(o, Var):
        if o.name in new:
            if new[o.name] != fact.obj:
                return None
        else:
            new[o.name] = fact.obj
    elif o != fact.obj:
        return None
    return new


def _pattern(atom: Atom, binding: Binding) -> Pattern:
    subj = atom.subject
    s_const = subj if not isinstance(subj, Var) else binding.get(subj.name)
    o = atom.obj
    if isinstance(o, Var):
        if o.name in binding:
            return Pattern.of(s_const, atom.predicate, binding[o.name])
        return Pattern.of(s_const, atom.predicate)
    return Pattern.of(s_const, atom.predicate, o)


def _eval_builtin(b: Builtin, binding: Binding) -> bool:
    left = _resolve(b.left, binding)
    right = _resolve(b.right, binding)
    if b.op == "=":
        return left == right
    if b.op == "!=":
        return left != right
    # ordering only over comparable literals of the same family
    if isinstance(left, (int, float)) and isinstance(right, (int, float)):
        pass
    elif isinstance(left, datetime) and isinstance(right, datetime):
        pass
    elif isinstance(left, str) and isinstance(right, str):
        pass
    else:
        return False
    if b.op == "<":
        return left < right
    if b.op == "<=":
        return left <= right
    if b.op == ">":
        return left > right
    if b.op == ">=":
        return left >= right
    raise RuleError(f"unknown builtin op {b.op}")


def _join(
    rule: Rule, store: FactStore, pos: int, seeds: Iterable[Fact], lo: int
) -> List[Tuple[Binding, Tuple[int, ...]]]:
    """Body matches whose `pos`-th atom matches one of `seeds`, with every
    atom before it matching a fact with id <= lo.

    The seed atom is bound first; the other atoms then join in body order
    through the store's indexes.  Premises are returned in body-atom order.
    With pos 0 the matches come in lexicographic order of their premises.
    """
    atoms = rule.body_atoms
    rows: List[Tuple[Binding, Tuple[int, ...]]] = []
    for fact in seeds:
        binding = _bind(atoms[pos], fact, {})
        if binding is not None:
            rows.append((binding, (fact.fact_id,)))
    atom_idx = 0
    for item in rule.body:
        if not rows:
            break
        if isinstance(item, Builtin):
            rows = [row for row in rows if _eval_builtin(item, row[0])]
            continue
        idx = atom_idx
        atom_idx += 1
        if idx == pos:
            continue
        joined = []
        for binding, premises in rows:
            for fact in store.query(_pattern(item, binding)):
                if idx < pos and fact.fact_id > lo:
                    break
                new = _bind(item, fact, binding)
                if new is not None:
                    joined.append((new, premises + (fact.fact_id,)))
        rows = joined
    return [(b, p[1 : pos + 1] + p[:1] + p[pos + 1 :]) for b, p in rows]


def _instantiate_head(rule: Rule, binding: Binding) -> List[Tuple[str, str, Any]]:
    out = []
    for atom in rule.head:
        subject = _resolve(atom.subject, binding)
        obj = _resolve(atom.obj, binding)
        out.append((subject, atom.predicate, obj))
    return out


def generic_fixpoint(
    rules: RuleSet, store: FactStore, *, since: int = 0
) -> FixpointResult:
    """Semi-naive forward chaining until no rule derives a new fact.

    The first epoch's delta is every fact with an id above `since` (all of
    them by default); the store must already be at fixpoint for the facts
    up to `since`, so that every new derivation uses at least one fact of
    the delta.  Each later epoch's delta is the facts the epoch before it
    derived.  A delta atom is bound from the delta facts of its predicate;
    atoms before it match only facts older than the delta, so each match is
    found once, at its first delta atom.

    A new fact records the premises of the first rule (in rule order) that
    derives it.  In the first epoch that rule's lexicographically smallest
    premise tuple wins, in later epochs the smallest (delta atom position,
    premise tuple) - the choice a whole-store first epoch would make, so
    the result does not depend on `since`.

    Derived facts carry Derived(rule_id, premises) provenance.
    """
    lo = since
    epochs = 0
    derived_total = 0
    while True:
        epochs += 1
        delta: Dict[str, List[Fact]] = {}
        for fact in facts_above(store, lo):
            delta.setdefault(fact.predicate, []).append(fact)
        pending: Dict[Tuple[str, str, Any], Tuple[str, Tuple[int, ...]]] = {}
        for rule in rules.rules:
            best: Dict[Tuple[str, str, Any], Tuple[Any, Tuple[int, ...]]] = {}
            atoms = rule.body_atoms
            for pos, atom in enumerate(atoms):
                seeds = delta.get(atom.predicate)
                if not seeds or not all(
                    _has_fact_upto(store, before.predicate, lo) for before in atoms[:pos]
                ):
                    continue
                for binding, premises in _join(rule, store, pos, seeds, lo):
                    rank = premises if epochs == 1 else (pos, premises)
                    for s, p, o in _instantiate_head(rule, binding):
                        key = (s, p, store.vocab.coerce(p, o))
                        if key in pending or store.contains(*key):
                            continue
                        if key not in best or rank < best[key][0]:
                            best[key] = (rank, premises)
            for key, (_, premises) in best.items():
                pending[key] = (rule.rule_id, premises)
        if not pending:
            return FixpointResult(epochs, derived_total)
        lo = store.watermark
        for triple, (rule_id, premises) in sorted(
            pending.items(), key=lambda kv: (kv[0][1], kv[0][0], str(kv[0][2]))
        ):
            derived_total += len(store.insert([triple], Derived(rule_id, premises)))


def _has_fact_upto(store: FactStore, predicate: str, lo: int) -> bool:
    facts = store.lookup(None, predicate)
    return bool(facts) and facts[0].fact_id <= lo


# -- derivation trees, every premise copied at every use ----------------------


class TreeNode:
    """Derivation tree node: leaves are Asserted facts."""

    def __init__(self, fact: Fact) -> None:
        self.fact = fact
        self.rule_id: Optional[str] = None
        self.children: List["TreeNode"] = []


def tree_explain(store: FactStore, fact_id: int) -> TreeNode:
    """Derivation tree rooted at fact_id, exponential in the depth of
    shared premises."""
    root = TreeNode(store.get(fact_id))
    todo = [root]
    while todo:
        node = todo.pop()
        provenance = node.fact.provenance
        if isinstance(provenance, Derived):
            node.rule_id = provenance.rule_id
            node.children = [TreeNode(store.get(pid)) for pid in provenance.premises]
            todo.extend(node.children)
    return root


def tree_leaves(tree: TreeNode) -> List[Fact]:
    """Every leaf use of the tree, in preorder, repeats included."""
    out: List[Fact] = []
    todo = [tree]
    while todo:
        node = todo.pop()
        if node.children:
            todo.extend(reversed(node.children))
        else:
            out.append(node.fact)
    return out


def tree_render(tree: TreeNode) -> str:
    """Every node of the tree on its own line, indented by its depth."""
    lines = []
    todo = [(tree, 0)]
    while todo:
        node, depth = todo.pop()
        via = f"  [via {node.rule_id}]" if node.rule_id else ""
        lines.append("  " * depth + f"f{node.fact.fact_id} {render_triple(node.fact)}{via}")
        todo.extend((child, depth + 1) for child in reversed(node.children))
    return "\n".join(lines)


def tree_timespan(
    store: FactStore, roots: Iterable[int]
) -> Tuple[Optional[datetime], Optional[datetime]]:
    """The earliest and latest event time (the object of the subject's first
    eventTs fact) over the tree leaves of every root."""
    stamps = []
    for root in roots:
        for leaf in tree_leaves(tree_explain(store, root)):
            found = full_scan_facts(store, leaf.subject, "eventTs")
            if found and isinstance(found[0].obj, datetime):
                stamps.append(found[0].obj)
    return (min(stamps), max(stamps)) if stamps else (None, None)


def facts_above(store: FactStore, watermark: int) -> List[Fact]:
    """The store's facts with an id above `watermark`, in id order, by a full scan."""
    return [f for f in store.query(Pattern.of()) if f.fact_id > watermark]


def full_scan_facts(store: FactStore, subject: str, predicate: str) -> List[Fact]:
    """The store's facts of (subject, predicate) in id order, by a full scan."""
    return sorted(
        (f for f in store.query(Pattern.of()) if f.subject == subject and f.predicate == predicate),
        key=lambda f: f.fact_id,
    )


# -- the character-at-a-time rule tokenizer ------------------------------------


def charwise_tokenize(text: str) -> List[_Token]:
    """`rules._tokenize` before it became one regex, copied as it was: one
    character at a time.  The reference for its tokens and errors.  Since
    copied, a newline inside a string counts as a line here too."""
    tokens: List[_Token] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":  # a comment runs to the end of its line
            end = text.find("\n", i)
            i = n if end < 0 else end
            continue
        start_line, start_col = line, col
        if text.startswith("=>", i):
            tokens.append(_Token("ARROW", "=>", line, col))
            i += 2
            col += 2
            continue
        if text.startswith("!=", i) or text.startswith("<=", i) or text.startswith(">=", i):
            tokens.append(_Token("OP", text[i : i + 2], line, col))
            i += 2
            col += 2
            continue
        if ch in "=<>":
            tokens.append(_Token("OP", ch, line, col))
            i += 1
            col += 1
            continue
        if ch in _PUNCT:
            tokens.append(_Token(_PUNCT[ch], ch, line, col))
            i += 1
            col += 1
            continue
        if ch == "?":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            if j == i + 1:
                raise RuleError("bare '?'", line, col)
            tokens.append(_Token("VAR", text[i + 1 : j], line, col))
            col += j - i
            i = j
            continue
        if ch == '"':
            j = i + 1
            buf = []
            while j < n and text[j] != '"':
                if text[j] == "\\" and j + 1 < n:
                    buf.append(text[j + 1])
                    j += 2
                else:
                    buf.append(text[j])
                    j += 1
            if j >= n:
                raise RuleError("unterminated string", start_line, start_col)
            tokens.append(_Token("STRING", "".join(buf), start_line, start_col))
            newlines = text.count("\n", i, j)
            if newlines:
                line += newlines
                col = j + 1 - text.rindex("\n", i, j)
            else:
                col += j + 1 - i
            i = j + 1
            continue
        if ch.isdigit() or (ch == "-" and i + 1 < n and text[i + 1].isdigit()):
            j = i + 1
            seen_dot = False
            while j < n and (text[j].isdigit() or (text[j] == "." and not seen_dot and j + 1 < n and text[j + 1].isdigit())):
                if text[j] == ".":
                    seen_dot = True
                j += 1
            lexeme = text[i:j]
            value: Any = float(lexeme) if seen_dot else int(lexeme)
            tokens.append(_Token("NUMBER", value, start_line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            # entity ids look like ns:name (colon with no space around it)
            if j < n and text[j] == ":" and j + 1 < n and (text[j + 1].isalnum() or text[j + 1] == "_"):
                k = j + 1
                while k < n and (text[k].isalnum() or text[k] in "_.:-"):
                    k += 1
                tokens.append(_Token("ENTITY", text[i:k], start_line, start_col))
                col += k - i
                i = k
                continue
            tokens.append(_Token("ID", word, start_line, start_col))
            col += j - i
            i = j
            continue
        raise RuleError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("EOF", None, line, col))
    return tokens


# -- the staged Snort parser -----------------------------------------------------


def staged_snort_line(line: str, sidmap: SidMap, year: int) -> SensorEvent:
    """`ingest.parse_snort_line` before its stages became one pattern,
    copied as it was: one match per stage.  The reference for its events and
    its errors' messages and columns.

    Parse one Snort "fast" alert line.

    The fast format carries no year; `year` anchors the timestamp.  Unmapped
    gid:sid pairs yield kind Unclassified with all fields still extracted.
    """
    pos = 0
    groups: Dict[str, Tuple[str, ...]] = {}
    starts: Dict[str, int] = {}
    for name, stage in _SNORT_STAGES:
        m = stage.match(line, pos)
        if not m:
            raise MalformedLine(f"expected {name}", pos + 1)
        groups[name] = m.groups()
        starts[name] = pos + 1
        pos = m.end()
    if pos != len(line.rstrip()):
        raise MalformedLine("trailing garbage", pos + 1)

    mo, day, hh, mm, ss, us = (int(g) for g in groups["timestamp"])
    try:
        ts = datetime(year, mo, day, hh, mm, ss, us, tzinfo=timezone.utc)
    except ValueError as exc:
        raise MalformedLine(str(exc), 1) from exc
    gid, sid, rev = (_staged_number(g, "signature", starts) for g in groups["signature"])
    src_ip, src_port = groups["source"]
    dst_ip, dst_port = groups["destination"]
    return SensorEvent(
        kind=sidmap.kind_for(gid, sid),
        ts=ts,
        src_ip=src_ip,
        dst_ip=dst_ip,
        src_port=_staged_number(src_port, "source", starts) if src_port else None,
        dst_port=_staged_number(dst_port, "destination", starts) if dst_port else None,
        proto=groups["protocol"][0],
        signature=(gid, sid, rev),
        message=groups["message"][0],
        classification=groups["classification"][0],
        priority=_staged_number(groups["priority"][0], "priority", starts),
        source="snort",
    )


def _staged_number(digits: str, stage: str, starts: Dict[str, int]) -> int:
    try:
        return int(digits)
    except ValueError:  # more digits than CPython's int/str conversion limit
        raise MalformedLine(f"{stage} number too long", starts[stage]) from None


# -- the per-line scenario reader ------------------------------------------------


def astimezone_parse_timestamp(text: str) -> datetime:
    """`vocab.parse_timestamp` before it returned a UTC result at once,
    copied as it was.

    Parse an ISO-8601 timestamp and normalize it to UTC."""
    ts = datetime.fromisoformat(text.replace("Z", "+00:00"))
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc)


def isoformat_render_timestamp(ts: datetime) -> str:
    """`vocab.render_timestamp` before it formatted the fields itself,
    copied as it was.  It reads a naive time as local time, so it is the
    reference for aware times only."""
    if ts.tzinfo is not timezone.utc:
        ts = ts.astimezone(timezone.utc)
    # isoformat pads the year to four digits, which strftime("%Y") does not;
    # its "+00:00" becomes "Z"
    text = ts.isoformat(timespec="microseconds" if ts.microsecond else "seconds")
    return text[:-6] + "Z"


class NamedScenarioLine(NamedTuple):
    ts: datetime
    tag: str
    payload: str
    lineno: int


def per_line_load_scenario(path) -> List[NamedScenarioLine]:
    """The lines `scenario.load_scenario` read before it read a file in one
    pass into exact tuples, copied as it was: the file iterated line by line,
    each line stripped, and a sort on (ts, lineno).  The reference for its
    rows and for its first error's class, message and line."""
    lines: List[NamedScenarioLine] = []
    stamps: Dict[str, datetime] = {}  # each distinct time text, parsed once
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            stripped = raw.strip()
            if not stripped or stripped.startswith("#"):
                continue
            parts = stripped.split(None, 2)
            if len(parts) != 3:
                raise MalformedScenario(f"expected '<ts> <tag> <payload>'", lineno)
            ts_text, tag, payload = parts
            if tag not in SOURCE_TAGS:
                raise MalformedScenario(f"unknown source tag {tag!r}", lineno)
            ts = stamps.get(ts_text)
            if ts is None:
                try:
                    ts = stamps[ts_text] = astimezone_parse_timestamp(ts_text)
                except ValueError as exc:
                    raise MalformedScenario(f"bad timestamp: {exc}", lineno) from exc
            lines.append(NamedScenarioLine(ts, tag, payload, lineno))
    lines.sort(key=lambda l: (l.ts, l.lineno))
    return lines

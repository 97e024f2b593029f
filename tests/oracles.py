"""Independent brute-force oracles used to cross-check the engine.

Deliberately naive implementations: full scans, re-evaluate-everything
fixpoints, O(n^2) window counting.  They share no code with the package's
indexed/semi-naive paths.
"""

from datetime import datetime

from kcc.rules import Atom, Builtin, Var


def full_scan_query(triples, s, p, o, o_wild):
    """Reference query over a plain set of (s, p, o) triples."""
    out = set()
    for ts, tp, to in triples:
        if s is not None and ts != s:
            continue
        if p is not None and tp != p:
            continue
        if not o_wild and not _eq(to, o):
            continue
        out.add((ts, tp, to))
    return out


def _eq(a, b):
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return float(a) == float(b)
    return a == b


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
            ok = _eq(left, right)
        elif item.op == "!=":
            ok = not _eq(left, right)
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
                if not _eq(new[item.obj.name], o):
                    continue
            else:
                new[item.obj.name] = o
        elif not _eq(item.obj, o):
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

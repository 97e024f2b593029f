"""Conjunctive rule language and forward-chaining evaluation to fixpoint.

Rules are positive conjunctions of triple patterns plus comparison builtins;
heads are fact templates over variables bound in the body.  Evaluation is
semi-naive: each epoch only recomputes joins that touch the previous epoch's
delta.  Positive rules over finite constants always terminate.

Grammar:
    ruleset := rule*
    rule    := "rule" ID ":" body "=>" head "."
    body    := atom ("," (atom | builtin))*
    atom    := PRED "(" term ("," term)* ")"
    builtin := term OP term          OP in = != < <= > >=
    term    := "?"ID | constant
Constants are quoted strings, integers, decimals, or namespaced entity ids
(`phase:Reconnaissance`).  `#` starts a line comment.
"""

from __future__ import annotations

import dataclasses
import re
import sys
from dataclasses import dataclass, field
from datetime import datetime
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Sequence, Set, Tuple, Union

from kcc.facts import Derived, Fact, FactStore
from kcc.vocab import Vocabulary, VocabularyViolation


class RuleError(Exception):
    def __init__(self, message: str, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        if line:
            message = f"{line}:{col}: {message}"
        super().__init__(message)


class RuleSyntaxError(RuleError):
    pass


class RangeRestrictionViolation(RuleError):
    """A head variable does not occur in any body atom."""


class UnknownPredicate(RuleError):
    """A rule atom uses a predicate absent from the vocabulary."""


class EpochLimitExceeded(Exception):
    """Fixpoint not reached within max_epochs; indicates an engine bug."""


@dataclass(frozen=True)
class Var:
    name: str

    def __repr__(self):
        return f"?{self.name}"


Term = Union[Var, str, int, float]


@dataclass(frozen=True)
class Atom:
    predicate: str
    subject: Term
    obj: Term
    line: int = 0
    col: int = 0

    def variables(self) -> Set[str]:
        return {t.name for t in (self.subject, self.obj) if isinstance(t, Var)}


@dataclass(frozen=True)
class Builtin:
    op: str
    left: Term
    right: Term
    line: int = 0
    col: int = 0

    def variables(self) -> Set[str]:
        return {t.name for t in (self.left, self.right) if isinstance(t, Var)}


@dataclass(frozen=True)
class Rule:
    rule_id: str
    body: Tuple[Union[Atom, Builtin], ...]
    head: Tuple[Atom, ...]
    # the body's atoms in body order, builtins left out; built once, for
    # validation and plan compilation, the only readers
    body_atoms: Tuple[Atom, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        atoms = tuple(item for item in self.body if isinstance(item, Atom))
        object.__setattr__(self, "body_atoms", atoms)


class RuleSet:
    """Rules in rule order, compiled once, at construction, into the
    trigger table: each body atom's join plan under its trigger (see
    `_Plan`)."""

    def __init__(self, rules: Iterable[Rule]):
        self.rules: Tuple[Rule, ...] = tuple(rules)
        self.triggers: Dict[Any, List[_Plan]] = _compile(self.rules)

    def __len__(self):
        return len(self.rules)

    def __iter__(self):
        return iter(self.rules)


# -- tokenizer / parser ------------------------------------------------------

_PUNCT = {":": "COLON", ",": "COMMA", "(": "LPAREN", ")": "RPAREN", ".": "DOT"}


@dataclass
class _Token:
    kind: str
    value: Any
    line: int
    col: int


# one alternative per token kind, tried in order.  A word is an ENTITY or
# an ID only if it starts with a letter or "_"; a newline, a run of blanks or
# a comment makes no token, and BAD is any character nothing else takes.
_TOKEN = re.compile(
    r"""(?P<NEWLINE>\n) | (?P<SKIP>[ \t\r]+) | (?P<COMMENT>\#[^\n]*)
      | (?P<ARROW>=>) | (?P<OP>[!<>]=|[=<>]) | (?P<PUNCT>[:,().])
      | \?(?P<VAR>\w*) | "(?P<STRING>(?:\\.|[^"\\])*)" | (?P<UNTERMINATED>")
      | (?P<NUMBER>-?\d+(?:\.\d+)?) | (?P<ENTITY>\w+:\w[\w.:-]*) | (?P<ID>\w+)
      | (?P<BAD>.)""",
    re.VERBOSE | re.DOTALL,
)
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)


def _tokenize(text: str) -> List[_Token]:
    """The tokens of `text`, each at its line and column, then EOF.  A
    newline inside a string starts a new line too."""
    tokens: List[_Token] = []
    line, line_start, end = 1, 0, 0
    for m in _TOKEN.finditer(text):
        kind, start, value = m.lastgroup, m.start(), m.group(m.lastgroup)
        col = start - line_start + 1
        end = m.end()
        if kind == "NEWLINE":
            line, line_start = line + 1, end
        elif kind == "COMMENT":
            end = start  # EOF after a comment sits where the comment starts
        elif kind == "BAD" or kind in ("ENTITY", "ID") and not (value[0].isalpha() or value[0] == "_"):
            raise RuleSyntaxError(f"unexpected character {value[0]!r}", line, col)
        elif kind == "UNTERMINATED":
            raise RuleSyntaxError("unterminated string", line, col)
        elif kind == "VAR" and not value:
            raise RuleSyntaxError("bare '?'", line, col)
        elif kind == "STRING":
            tokens.append(_Token(kind, _ESCAPE.sub(r"\1", value), line, col))
            if "\n" in value:
                line, line_start = line + value.count("\n"), text.rindex("\n", start, end) + 1
        elif kind != "SKIP":
            if kind == "NUMBER":
                try:
                    value = float(value) if "." in value else int(value)
                except ValueError:  # more digits than int() may read
                    raise RuleSyntaxError("number too long", line, col) from None
            elif kind == "PUNCT":
                kind = _PUNCT[value]
            tokens.append(_Token(kind, value, line, col))
    tokens.append(_Token("EOF", None, line, end - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, tokens: List[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.next()
        if tok.kind != kind:
            raise RuleSyntaxError(
                f"expected {what}, got {tok.value!r}", tok.line, tok.col
            )
        return tok

    def parse_ruleset(self) -> List[Rule]:
        rules = []
        while self.peek().kind != "EOF":
            rules.append(self.parse_rule())
        return rules

    def parse_rule(self) -> Rule:
        kw = self.expect("ID", "'rule'")
        if kw.value != "rule":
            raise RuleSyntaxError("expected 'rule'", kw.line, kw.col)
        rid = self.expect("ID", "rule id").value
        self.expect("COLON", "':'")
        body = self.parse_list(self.parse_body_item)
        self.expect("ARROW", "'=>'")
        head = self.parse_list(self.parse_atom)
        self.expect("DOT", "'.'")
        return Rule(rid, tuple(body), tuple(head))

    def parse_list(self, parse_item: Callable[[], Any]) -> List[Any]:
        """One or more items, separated by commas."""
        items = [parse_item()]
        while self.peek().kind == "COMMA":
            self.next()
            items.append(parse_item())
        return items

    def parse_body_item(self) -> Union[Atom, Builtin]:
        tok = self.peek()
        if tok.kind == "ID" and self.tokens[self.pos + 1].kind == "LPAREN":
            return self.parse_atom()
        left = self.parse_term()
        op_tok = self.expect("OP", "comparison operator")
        right = self.parse_term()
        return Builtin(op_tok.value, left, right, op_tok.line, op_tok.col)

    def parse_atom(self) -> Atom:
        pred = self.expect("ID", "predicate name")
        self.expect("LPAREN", "'('")
        terms = self.parse_list(self.parse_term)
        self.expect("RPAREN", "')'")
        if len(terms) != 2:
            raise RuleSyntaxError(
                f"atom {pred.value} must have exactly 2 terms (subject, object)",
                pred.line,
                pred.col,
            )
        return Atom(pred.value, terms[0], terms[1], pred.line, pred.col)

    def parse_term(self) -> Term:
        tok = self.next()
        if tok.kind == "VAR":
            return Var(tok.value)
        if tok.kind in ("STRING", "NUMBER", "ENTITY"):
            return tok.value
        raise RuleSyntaxError(f"expected term, got {tok.value!r}", tok.line, tok.col)


def _validate_rule(rule: Rule, vocab: Vocabulary) -> Rule:
    """`rule`, checked, with each atom's constant object coerced to its
    predicate's canonical value, so that joins can compare objects by ==."""
    atoms = rule.body_atoms
    if not atoms:
        first = rule.body[0]
        raise RuleSyntaxError(
            f"rule {rule.rule_id}: body needs at least one atom",
            first.line,
            first.col,
        )
    # builtins evaluate only on bound arguments (static binding analysis)
    bound: Set[str] = set()
    for item in rule.body:
        if isinstance(item, Atom):
            bound |= item.variables()
        else:
            unbound = item.variables() - bound
            if unbound:
                raise RuleSyntaxError(
                    f"rule {rule.rule_id}: builtin uses unbound variable "
                    f"?{sorted(unbound)[0]}",
                    item.line,
                    item.col,
                )
    body_vars = set().union(*(a.variables() for a in atoms))
    for atom in rule.head:
        loose = atom.variables() - body_vars
        if loose:
            raise RangeRestrictionViolation(
                f"rule {rule.rule_id}: head variable ?{sorted(loose)[0]} "
                "not bound by any body atom",
                atom.line,
                atom.col,
            )

    def checked(atom: Atom) -> Atom:
        schema = vocab.schema_of(atom.predicate)
        if schema is None:
            raise UnknownPredicate(
                f"rule {rule.rule_id}: unknown predicate {atom.predicate}",
                atom.line,
                atom.col,
            )
        if isinstance(atom.obj, Var):
            return atom
        try:
            obj = vocab.coerce(atom.predicate, atom.obj)
        except VocabularyViolation:
            raise RuleSyntaxError(
                f"rule {rule.rule_id}: constant {atom.obj!r} does not "
                f"match schema {schema} of {atom.predicate}",
                atom.line,
                atom.col,
            ) from None
        return atom if obj is atom.obj else dataclasses.replace(atom, obj=obj)

    body = tuple(checked(item) if isinstance(item, Atom) else item for item in rule.body)
    return Rule(rule.rule_id, body, tuple(map(checked, rule.head)))


def parse_ruleset(text: str, vocab: Vocabulary) -> RuleSet:
    """Parse and statically validate a ruleset.

    Every atom predicate must be registered in `vocab`, and each constant
    object is coerced to its predicate's schema, or rejected.
    """
    rules = _Parser(_tokenize(text)).parse_ruleset()
    seen: Set[str] = set()
    for rule in rules:
        if rule.rule_id in seen:
            raise RuleSyntaxError(f"duplicate rule id {rule.rule_id}")
        seen.add(rule.rule_id)
    return RuleSet(_validate_rule(rule, vocab) for rule in rules)


def load_ruleset(path, vocab: Vocabulary) -> RuleSet:
    with open(path, encoding="utf-8") as fh:
        return parse_ruleset(fh.read(), vocab)


# -- evaluation ---------------------------------------------------------------
#
# A ruleset is compiled once into join plans, one per body atom: the plan an
# epoch runs when that atom, the seed, is bound to a fact of the epoch's
# delta.  Every row that reaches a step of a plan has bound the same
# variables, so each variable has a fixed slot in the row's tuple of values,
# and each step knows at compile time which index it reads, what it tests
# and which slots it fills.

# what an atom step requires of a fact's object
_BIND = 0  # nothing: the object binds a new variable
_SAME = 1  # equal to the fact's subject: both bind the same new variable
_EQ = 2  # equal to a constant, coerced at parse like every stored object
_SLOT = 3  # equal to the value of a bound variable

# a fact id above every other: the cutoff of a step after the seed
_NO_CUTOFF = sys.maxsize


class _Match(NamedTuple):
    """Atom step: the facts of `predicate` with subject `subject` (a
    constant, or the value in slot `subject` if `subject_slot`), or with
    any subject if `subject` is None, which then binds a new slot."""

    predicate: str
    subject: Any
    subject_slot: bool
    test: int  # _BIND, _SAME, _EQ or _SLOT
    obj: Any  # the constant or the slot `test` reads
    older: bool  # before the seed atom: only facts with id <= lo match


class _Test(NamedTuple):
    """Builtin step: a comparison of slots or constants, placed right after
    the step that binds the last of its variables."""

    op: str
    left: Any
    left_slot: bool
    right: Any
    right_slot: bool


class _Plan(NamedTuple):
    """The join a rule runs when its `pos`-th body atom, the seed, is bound
    to a delta fact.  Plans sort in rule order, then body-atom order."""

    rule_index: int
    pos: int
    rule_id: str
    # the seed atom's predicate, or (predicate, object) if its object is a
    # constant: the key of the plan and of its seeds in an epoch
    trigger: Union[str, Tuple[str, Any]]
    subject: Any  # the seed atom's constant subject, or None
    older: Tuple[str, ...]  # the predicates of the atoms before the seed
    steps: Tuple[Union[_Match, _Test], ...]  # the seed's step first
    head: Tuple[Tuple[Any, bool, str, Any, bool], ...]  # (s, slot?, p, o, slot?)


def _ref(term: Term, slots: Dict[str, int]) -> Tuple[Any, bool]:
    """(slot, True) for a bound variable, (constant, False) for a constant."""
    if not isinstance(term, Var):
        return term, False
    if term.name not in slots:
        raise RuleError(f"variable ?{term.name} is not bound by a body atom")
    return slots[term.name], True


def _compile_match(atom: Atom, slots: Dict[str, int], older: bool) -> _Match:
    """`atom`'s step, binding its new variables to the next slots."""
    subject, obj = atom.subject, atom.obj
    subject_slot = False
    if isinstance(subject, Var):
        if subject.name in slots:
            subject, subject_slot = slots[subject.name], True
        else:
            slots[subject.name] = len(slots)
            subject = None
    if not isinstance(obj, Var):
        test = _EQ
    elif obj.name not in slots:
        slots[obj.name] = len(slots)
        test, obj = _BIND, None
    elif subject is None and obj == atom.subject:
        test, obj = _SAME, None
    else:
        test, obj = _SLOT, slots[obj.name]
    return _Match(atom.predicate, subject, subject_slot, test, obj, older)


def _compile_plan(rule: Rule, index: int, pos: int) -> _Plan:
    atoms = rule.body_atoms
    seed = atoms[pos]
    slots: Dict[str, int] = {}
    tests = [item for item in rule.body if isinstance(item, Builtin)]
    steps: List[Union[_Match, _Test]] = []
    for idx in [pos] + [i for i in range(len(atoms)) if i != pos]:
        steps.append(_compile_match(atoms[idx], slots, idx < pos))
        waiting = []
        for test in tests:
            if test.variables() <= slots.keys():
                steps.append(_Test(test.op, *_ref(test.left, slots), *_ref(test.right, slots)))
            else:
                waiting.append(test)
        tests = waiting
    if tests:
        raise RuleError(f"rule {rule.rule_id}: builtin uses an unbound variable")
    head = tuple(
        (*_ref(atom.subject, slots), atom.predicate, *_ref(atom.obj, slots))
        for atom in rule.head
    )
    return _Plan(
        index,
        pos,
        rule.rule_id,
        seed.predicate if isinstance(seed.obj, Var) else (seed.predicate, seed.obj),
        None if isinstance(seed.subject, Var) else seed.subject,
        tuple(dict.fromkeys(atom.predicate for atom in atoms[:pos])),
        tuple(steps),
        head,
    )


def _compile(rules: Sequence[Rule]) -> Dict[Any, List[_Plan]]:
    """The trigger table: every body atom's join plan under its trigger."""
    triggers: Dict[Any, List[_Plan]] = {}
    for index, rule in enumerate(rules):
        for pos in range(len(rule.body_atoms)):
            plan = _compile_plan(rule, index, pos)
            triggers.setdefault(plan.trigger, []).append(plan)
    return triggers


def _compare(op: str, left: Any, right: Any) -> bool:
    if op == "=":
        return left == right
    if op == "!=":
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
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    raise RuleError(f"unknown builtin op {op}")


_Row = Tuple[Tuple[Any, ...], Tuple[int, ...]]  # (slot values, premise ids)


def _join(
    plan: _Plan, lookup: Callable[[Any, str], List[Fact]], seeds: List[Fact], lo: int
) -> List[_Row]:
    """Body matches whose seed atom matches one of `seeds`, with every atom
    before it matching a fact with id <= lo.

    The seed step reads `seeds`, which the caller has filtered by the seed
    atom's constant subject; each later atom step reads its index lookup
    for each row.  Premises are returned in body-atom order.  With pos 0
    the matches come in lexicographic order of their premises.
    """
    rows: List[_Row] = [((), ())]
    facts = seeds
    seeded = False  # whether the seed step is done and steps look up facts
    for step in plan.steps:
        if type(step) is _Test:
            op, left, left_slot, right, right_slot = step
            rows = [
                row
                for row in rows
                if _compare(
                    op,
                    row[0][left] if left_slot else left,
                    row[0][right] if right_slot else right,
                )
            ]
            if not rows:
                return rows
            continue
        predicate, subject, subject_slot, test, obj, older = step
        cutoff = lo if older else _NO_CUTOFF
        binds = subject is None
        out = []
        for values, premises in rows:
            if seeded:
                key = None if binds else values[subject] if subject_slot else subject
                facts = lookup(key, predicate)
            for fid, s, _, o, _ in facts:
                if fid > cutoff:
                    break
                if test == _BIND:
                    out.append((values + (s, o) if binds else values + (o,), premises + (fid,)))
                    continue
                if test == _EQ:
                    if o != obj:
                        continue
                elif test == _SLOT:
                    if o != values[obj]:
                        continue
                elif s != o:  # _SAME
                    continue
                out.append((values + (s,) if binds else values, premises + (fid,)))
        if not out:
            return out
        rows = out
        seeded = True
    pos = plan.pos
    if pos:
        return [(values, p[1 : pos + 1] + p[:1] + p[pos + 1 :]) for values, p in rows]
    return rows


@dataclass
class FixpointResult:
    epochs: int
    derived: int


def run_to_fixpoint(
    rules: RuleSet, store: FactStore, max_epochs: int = 1000, *, since: int = 0
) -> FixpointResult:
    """Semi-naive forward chaining until no rule derives a new fact.

    The first epoch's delta is every fact with an id above `since` (all of
    them by default); the store must already be at fixpoint for the facts
    up to `since`, so that every new derivation uses at least one fact of
    the delta.  Each later epoch's delta is the facts the epoch before it
    derived.  An epoch runs only the join plans whose seed atom's predicate
    is in its delta (the ruleset's trigger table).  A seed atom is bound
    from the delta facts of its predicate that pass its constant subject
    and object; atoms before it match only facts older than the
    delta, so each match is found once, at its first delta atom.

    A new fact records the premises of the first rule (in rule order) that
    derives it.  In the first epoch that rule's lexicographically smallest
    premise tuple wins, in later epochs the smallest (delta atom position,
    premise tuple) - the choice a whole-store first epoch would make, so
    the result does not depend on `since`.

    Derived facts carry Derived(rule_id, premises) provenance.  Raises
    EpochLimitExceeded if max_epochs rounds do not reach the fixpoint.
    """
    if max_epochs < 1:
        raise ValueError("max_epochs must be >= 1")
    triggers = rules.triggers
    lookup, contains, coerce = store.lookup, store.contains, store.vocab.coerce
    lo = since
    old: Set[str] = set()  # predicates with a fact at or below lo

    def has_old(predicate: str) -> bool:
        if predicate not in old:
            first = store.first_id(predicate)
            if first is None or first > lo:
                return False
            old.add(predicate)
        return True

    epochs = 0
    derived_total = 0
    while True:
        epochs += 1
        if epochs > max_epochs:
            raise EpochLimitExceeded(f"no fixpoint after {max_epochs} epochs")
        # the delta's facts under each trigger they can seed
        delta: Dict[Any, List[Fact]] = {}
        for fact in store.facts_since(lo):
            delta.setdefault(fact.predicate, []).append(fact)
            key = (fact.predicate, fact.obj)
            if key in triggers:
                delta.setdefault(key, []).append(fact)
        plans = [plan for key in delta for plan in triggers.get(key, ())]
        plans.sort()
        # head -> (rule index, rank, rule id, premises) of its best derivation
        pending: Dict[Tuple[str, str, Any], Tuple[int, Any, str, Tuple[int, ...]]] = {}
        for plan in plans:
            seeds = delta[plan.trigger]
            if plan.subject is not None:
                seeds = [fact for fact in seeds if fact.subject == plan.subject]
            if not seeds or not all(map(has_old, plan.older)):
                continue
            index = plan.rule_index
            for values, premises in _join(plan, lookup, seeds, lo):
                rank = premises if epochs == 1 else (plan.pos, premises)
                for s, s_slot, p, o, o_slot in plan.head:
                    key = (
                        values[s] if s_slot else s,
                        p,
                        coerce(p, values[o] if o_slot else o),
                    )
                    found = pending.get(key)
                    if found is None:
                        if contains(*key):
                            continue
                    elif found[0] != index or rank >= found[1]:
                        continue  # an earlier rule, or a better rank, wins
                    pending[key] = (index, rank, plan.rule_id, premises)
        if not pending:
            return FixpointResult(epochs, derived_total)
        lo = store.watermark
        for (s, p, o), (_, _, rule_id, premises) in sorted(
            pending.items(), key=lambda kv: (kv[0][1], kv[0][0], str(kv[0][2]))
        ):
            inserted, _ = store.insert(s, p, o, Derived(rule_id, premises))
            derived_total += inserted

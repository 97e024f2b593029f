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

import operator
import re
import string
import sys
from datetime import datetime
from typing import Any, Callable, Container, Dict, Iterable, List, NamedTuple, Sequence, Set, Tuple, Union

from kcc.facts import Derived, Fact, FactStore, _new_tuple
from kcc.vocab import Vocabulary, VocabularyError, is_entity_id, read_text


class RuleError(Exception):
    def __init__(self, message: str, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        if line:
            message = f"{line}:{col}: {message}"
        super().__init__(message)


class Var(NamedTuple):
    name: str

    def __repr__(self):
        return f"?{self.name}"


Term = Union[Var, str, int, float]


class Atom(NamedTuple):
    predicate: str
    subject: Term
    obj: Term
    line: int = 0
    col: int = 0


class Builtin(NamedTuple):
    op: str
    left: Term
    right: Term
    line: int = 0
    col: int = 0


class Rule(NamedTuple):
    rule_id: str
    body: Tuple[Union[Atom, Builtin], ...]
    head: Tuple[Atom, ...]

    @property
    def body_atoms(self) -> Tuple[Atom, ...]:
        """The body's atoms in body order, builtins left out."""
        return tuple([item for item in self.body if isinstance(item, Atom)])


class RuleSet:
    """Rules in rule order, compiled once, at construction, into the
    trigger table: each body atom's join plan under the atom's predicate
    (see `_Plan`), in the seed groups of `_compile`."""

    def __init__(self, rules: Iterable[Rule]):
        self.rules: Tuple[Rule, ...] = tuple(rules)
        self.triggers: Dict[str, Tuple[_SeedGroup, ...]] = _compile(self.rules)
        # the predicates an epoch reads of its delta, in an order no hash seed moves
        self.trigger_predicates = tuple(self.triggers)

    def __len__(self):
        return len(self.rules)


# -- tokenizer / parser ------------------------------------------------------

_PUNCT = {":": "COLON", ",": "COMMA", "(": "LPAREN", ")": "RPAREN", ".": "DOT"}


class _Token(NamedTuple):
    kind: str
    value: Any
    line: int
    col: int


# one match per token: the blanks and comments before it, which make no token,
# then the token, its alternatives tried in order; the end of the text is EOF,
# which a comment at the end belongs to; then a run of characters none of which
# starts a token, as one bad token, and "." any other character
_TOKEN = re.compile(
    r"""((?:[ \t\r]+|\#[^\n]*(?=\n))*)(
        \n | => | [!<>]=|[=<>] | [:,().] | \?\w* | "(?:\\.|[^"\\])*" | "
      | -?\d+(?:\.\d+)? | \w+:\w[\w.:-]* | \w+ | (?:\#[^\n]*)?\Z
      | [^\w\s"?\#:,().=!<>-]+ | .)""",
    re.VERBOSE | re.DOTALL,
)
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)

# a token's kind, by its first character; outside ASCII, see `_tokenize`
_KIND = {
    **_PUNCT, **dict.fromkeys(string.ascii_letters + "_", "ID"), **dict.fromkeys(string.digits + "-", "NUMBER"),
    **dict.fromkeys("=!<>", "OP"), "?": "VAR", '"': "STRING", "\n": "NEWLINE", "#": "EOF", "": "EOF",
}
_KEPT = frozenset(_PUNCT.values())  # kinds whose text is their value, with nothing to check
_LONE = {"?": "bare '?'", '"': "unterminated string"}  # a lone "-" or "!" is unexpected too


def _tokenize(text: str) -> List[_Token]:
    """The tokens of `text`, each at its line and column, then EOF.  A
    newline inside a string starts a new line too."""
    tokens: List[_Token] = []
    append = tokens.append
    line, line_start, end = 1, 0, 0
    for skipped, value in _TOKEN.findall(text):
        start = end + len(skipped)
        end = start + len(value)
        col = start - line_start + 1
        kind = _KIND.get(value[:1])
        if kind in _KEPT:
            append(_new_tuple(_Token, (kind, value, line, col)))
            continue
        if kind is None:  # a word starts with a letter, a number with a digit
            kind = "NUMBER" if value[0].isdecimal() else "ID" if value[0].isalpha() else "BAD"
        if kind == "VAR" and value != "?":
            value = value[1:]
        elif kind == "ID":
            kind = "ENTITY" if ":" in value else kind
        elif kind == "NEWLINE":
            line, line_start = line + 1, end
            continue
        elif kind == "OP" and value != "!":
            kind = "ARROW" if value == "=>" else kind
        elif kind == "STRING" and value != '"':
            append(_new_tuple(_Token, (kind, _ESCAPE.sub(r"\1", value[1:-1]), line, col)))
            if "\n" in value:
                line, line_start = line + value.count("\n"), text.rindex("\n", start, end) + 1
            continue
        elif kind == "NUMBER" and value != "-":
            try:
                value = float(value) if "." in value else int(value)
            except ValueError:  # more digits than int() may read
                raise RuleError("number too long", line, col) from None
        elif kind == "EOF":
            break
        else:
            raise RuleError(_LONE.get(value, f"unexpected character {value[0]!r}"), line, col)
        append(_new_tuple(_Token, (kind, value, line, col)))
    append(_new_tuple(_Token, ("EOF", None, line, col)))
    return tokens


class _Parser:
    """Recursive descent over `_tokenize`'s tokens: each method parses from
    token `pos` on and leaves `pos` after what it parsed, never past EOF."""

    def __init__(self, tokens: List[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.variables: Dict[str, Var] = {}  # one Var per name, for the whole parse
        self.rule_ids: Set[str] = set()  # the ids of the rules parsed so far

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != kind:
            raise RuleError(f"expected {what}, got {tok.value!r}", tok.line, tok.col)
        self.pos += 1
        return tok

    def parse_ruleset(self) -> List[Rule]:
        rules = []
        while self.tokens[self.pos].kind != "EOF":
            rules.append(self.parse_rule())
        return rules

    def parse_rule(self) -> Rule:
        kw = self.expect("ID", "'rule'")
        if kw.value != "rule":
            raise RuleError("expected 'rule'", kw.line, kw.col)
        rid = self.expect("ID", "rule id")
        if rid.value in self.rule_ids:
            raise RuleError(f"duplicate rule id {rid.value}", rid.line, rid.col)
        self.rule_ids.add(rid.value)
        self.expect("COLON", "':'")
        body = self.parse_list(self.parse_body_item)
        self.expect("ARROW", "'=>'")
        head = self.parse_list(self.parse_atom)
        self.expect("DOT", "'.'")
        return Rule(rid.value, tuple(body), tuple(head))

    def parse_list(self, parse_item: Callable[[], Any]) -> List[Any]:
        """One or more items, separated by commas."""
        items = [parse_item()]
        while self.tokens[self.pos].kind == "COMMA":
            self.pos += 1
            items.append(parse_item())
        return items

    def parse_body_item(self) -> Union[Atom, Builtin]:
        if self.tokens[self.pos].kind == "ID" and self.tokens[self.pos + 1].kind == "LPAREN":
            return self.parse_atom()
        left = self.parse_term()
        op = self.expect("OP", "comparison operator")
        return Builtin(op.value, left, self.parse_term(), op.line, op.col)

    def parse_atom(self) -> Atom:
        pred = self.expect("ID", "predicate name")
        self.expect("LPAREN", "'('")
        terms = self.parse_list(self.parse_term)
        self.expect("RPAREN", "')'")
        if len(terms) != 2:
            raise RuleError(
                f"atom {pred.value} must have exactly 2 terms (subject, object)",
                pred.line,
                pred.col,
            )
        return Atom(pred.value, terms[0], terms[1], pred.line, pred.col)

    def parse_term(self) -> Term:
        tok = self.tokens[self.pos]
        self.pos += 1
        if tok.kind == "VAR":
            var = self.variables.get(tok.value)
            if var is None:
                var = self.variables[tok.value] = Var(tok.value)
            return var
        if tok.kind in ("STRING", "NUMBER", "ENTITY"):
            return tok.value
        raise RuleError(f"expected term, got {tok.value!r}", tok.line, tok.col)


def _validate_rule(rule: Rule, vocab: Vocabulary) -> Rule:
    """`rule`, checked, with each atom's constant object coerced to its
    predicate's canonical value, so that joins can compare objects by ==."""
    atoms = rule.body_atoms
    if not atoms:
        raise _rule_error(rule, rule.body[0], "body needs at least one atom")
    # builtins evaluate only on bound arguments (static binding analysis)
    bound: Set[str] = set()
    for item in rule.body:
        if isinstance(item, Atom):
            bound.update(_unbound((item.subject, item.obj), bound))  # the atom binds them
            continue
        unbound = _unbound((item.left, item.right), bound)
        if unbound:
            raise _rule_error(rule, item, f"builtin uses unbound variable ?{min(unbound)}")
    for atom in rule.head:
        loose = _unbound((atom.subject, atom.obj), bound)
        if loose:
            message = f"head variable ?{min(loose)} not bound by any body atom"
            raise _rule_error(rule, atom, message)

    def checked(atom: Atom) -> Atom:
        schema = vocab.schema_of(atom.predicate)
        if schema is None:
            raise _rule_error(rule, atom, f"unknown predicate {atom.predicate}")
        if not isinstance(atom.subject, Var) and not is_entity_id(atom.subject):
            raise _rule_error(rule, atom, f"subject {atom.subject!r} is not an entity id")
        if isinstance(atom.obj, Var):
            return atom
        try:
            obj = vocab.coerce(atom.predicate, atom.obj)
        except VocabularyError:
            message = f"constant {atom.obj!r} does not match schema {schema} of {atom.predicate}"
            raise _rule_error(rule, atom, message) from None
        return atom if obj is atom.obj else atom._replace(obj=obj)

    body = tuple([checked(item) if isinstance(item, Atom) else item for item in rule.body])
    head = tuple(map(checked, rule.head))
    if all(map(operator.is_, body, rule.body)) and all(map(operator.is_, head, rule.head)):
        return rule  # no constant changed
    return Rule(rule.rule_id, body, head)


def _unbound(terms: Iterable[Term], bound: Container[str]) -> List[str]:
    """The names of the variables among `terms` that `bound` lacks."""
    return [t.name for t in terms if isinstance(t, Var) and t.name not in bound]


def _rule_error(rule: Rule, item: Union[Atom, Builtin], message: str) -> RuleError:
    return RuleError(f"rule {rule.rule_id}: {message}", item.line, item.col)


def parse_ruleset(text: str, vocab: Vocabulary) -> RuleSet:
    """Parse and statically validate a ruleset.

    Every atom predicate must be registered in `vocab`, each constant
    subject must be an entity id, and each constant object is coerced to
    its predicate's schema, or rejected.
    """
    rules = _Parser(_tokenize(text)).parse_ruleset()
    return RuleSet(_validate_rule(rule, vocab) for rule in rules)


def load_ruleset(path, vocab: Vocabulary) -> RuleSet:
    return parse_ruleset(read_text(path, RuleError), vocab)


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
_ANY = 4  # nothing: a seed step's constant, which the seeds were filtered on

# a fact id above every other: the cutoff of a step after the seed
_NO_CUTOFF = sys.maxsize


class _Match(NamedTuple):
    """Atom step: the facts of `predicate` with subject `subject` (a
    constant, or the value in slot `subject` if `subject_slot`), or with
    any subject if `subject` is None, which then binds a new slot."""

    predicate: str
    subject: Any
    subject_slot: bool
    test: int  # _BIND, _SAME, _EQ, _SLOT or _ANY
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
    """A rule's join with its `pos`-th body atom, the seed, bound to a delta
    fact, earlier atoms to older facts."""

    rule_index: int
    pos: int
    rule_id: str
    steps: Tuple[Union[_Match, _Test], ...]  # the seed's step first
    head: Tuple[Tuple[Any, bool, str, Any, bool], ...]  # (s, slot?, p, o, slot?)


def _ref(term: Term, slots: Dict[str, int]) -> Tuple[Any, bool]:
    """(slot, True) for a bound variable, (constant, False) for a constant."""
    if not isinstance(term, Var):
        return term, False
    if term.name not in slots:
        raise RuleError(f"variable ?{term.name} is not bound by a body atom")
    return slots[term.name], True


def _compile_match(atom: Atom, slots: Dict[str, int], older: bool, seed: bool) -> _Match:
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
        test = _ANY if seed else _EQ
    elif obj.name not in slots:
        slots[obj.name] = len(slots)
        test, obj = _BIND, None
    elif subject is None and obj == atom.subject:
        test, obj = _SAME, None
    else:
        test, obj = _SLOT, slots[obj.name]
    return _new_tuple(_Match, (atom.predicate, subject, subject_slot, test, obj, older))


def _compile_plan(rule: Rule, atoms: Tuple[Atom, ...], index: int, pos: int, tests: List[Builtin]) -> _Plan:
    """`rule`'s plan for seed atom `pos` of `atoms`, its body atoms; `tests`
    are the rule's builtins."""
    slots: Dict[str, int] = {}
    steps: List[Union[_Match, _Test]] = []
    for idx in (pos, *range(pos), *range(pos + 1, len(atoms))):
        steps.append(_compile_match(atoms[idx], slots, idx < pos, idx == pos))
        if tests:
            waiting = []
            for test in tests:
                if _unbound((test.left, test.right), slots):
                    waiting.append(test)
                else:
                    steps.append(_new_tuple(_Test, (test.op, *_ref(test.left, slots), *_ref(test.right, slots))))
            tests = waiting
    if tests:
        raise RuleError(f"rule {rule.rule_id}: builtin uses an unbound variable")
    head = tuple([(*_ref(atom.subject, slots), atom.predicate, *_ref(atom.obj, slots)) for atom in rule.head])
    return _new_tuple(_Plan, (index, pos, rule.rule_id, tuple(steps), head))


# (constant subject, constant object, linked predicate, plans): the plans of
# one predicate whose seed atoms keep the same seeds, so an epoch filters
# those seeds once for all of them.  The linked predicate is that of the
# first atom before the seed atom on the seed's subject variable: a seed
# whose subject has no fact of it at or below the watermark is dropped.
_SeedGroup = Tuple[Any, Any, Any, Tuple[_Plan, ...]]


def _compile(rules: Sequence[Rule]) -> Dict[str, Tuple[_SeedGroup, ...]]:
    """The trigger table: every body atom's join plan under the atom's
    predicate, in seed groups keyed by the atom's constants and linked
    predicate (None where there is none)."""
    table: Dict[str, Dict[Tuple[Any, Any, Any], List[_Plan]]] = {}
    for index, rule in enumerate(rules):
        atoms = rule.body_atoms
        tests = [item for item in rule.body if isinstance(item, Builtin)]
        for pos, seed in enumerate(atoms):
            subject, obj = seed.subject, seed.obj
            if isinstance(subject, Var):
                linked = next((a.predicate for a in atoms[:pos] if a.subject == subject), None) if pos else None
                subject = None
            else:
                linked = None
            key = (subject, None if isinstance(obj, Var) else obj, linked)
            plan = _compile_plan(rule, atoms, index, pos, tests)
            table.setdefault(seed.predicate, {}).setdefault(key, []).append(plan)
    return {p: tuple((*key, tuple(ps)) for key, ps in groups.items()) for p, groups in table.items()}


# the builtin ops; an ordering (< <= > >=) holds only between two literals
# of one family, and is false between any others
_OPS = {
    "=": operator.eq, "!=": operator.ne,
    "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}
_FAMILY = {int: "number", float: "number", datetime: "time", str: "string"}


def _compare(op: str, left: Any, right: Any) -> bool:
    if op[0] in "<>":
        family = _FAMILY.get(type(left))
        if family is None or family != _FAMILY.get(type(right)):
            return False
    return _OPS[op](left, right)


_Row = Tuple[Tuple[Any, ...], Tuple[int, ...]]  # (slot values, premise ids)


def _join(
    plan: _Plan, lookup: Callable[[Any, str], List[Fact]], seeds: List[Fact], lo: int
) -> List[_Row]:
    """Body matches whose seed atom matches one of `seeds`, with every atom
    before it matching a fact with id <= lo.

    The seed step reads `seeds`, which the caller has filtered by the seed
    atom's constants; each later atom step reads its index lookup
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
                elif test == _SAME and s != o:
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


class FixpointResult(NamedTuple):
    epochs: int
    derived: int


def run_to_fixpoint(
    rules: RuleSet, store: FactStore, *, since: int = 0
) -> FixpointResult:
    """Semi-naive forward chaining until no rule derives a new fact.

    The first epoch's delta is every fact with an id above `since` (all of
    them by default), and the store must be at fixpoint up to `since`; each
    later epoch's delta is the facts the epoch before it derived (see
    README "Engine").  A new fact carries Derived(rule_id, premises) of the
    first rule, in rule order, that derives it: in the first epoch its
    lexicographically smallest premise tuple, later the smallest (delta
    atom position, premise tuple), as a whole-store first epoch would
    choose, so the result depends neither on `since` nor on plan order.
    It needs no epoch limit: an epoch's delta is exactly what the epoch
    before it inserted, an epoch that inserts nothing is the last, and every
    derived subject and object is a rule constant or the coercion of a
    stored value, so only finitely many facts can be derived and the loop
    runs at most one epoch more than the facts it derives.  A head whose
    subject or object the vocabulary refuses raises VocabularyError, named
    by its rule.
    """
    triggers, first = rules.triggers, store.first
    lo = since
    epochs = 0
    derived_total = 0
    while True:
        epochs += 1
        # (plans, seeds) of each seed group that the delta gives a seed: a
        # fact that matches its constants and whose subject has a fact of
        # its linked predicate at or below lo
        filed: List[Tuple[Tuple[_Plan, ...], List[Fact]]] = []
        for predicate, facts in store.new_facts(lo, rules.trigger_predicates).items():
            for subject, obj, linked, plans in triggers[predicate]:
                seeds = []
                for fact in facts:
                    if (
                        (subject is None or fact[1] == subject)
                        and (obj is None or fact[3] == obj)
                        and (linked is None or not lo or ((h := first(fact[1], linked)) and h[0] <= lo))
                    ):
                        seeds.append(fact)
                if seeds:
                    filed.append((plans, seeds))
        if not filed:
            return FixpointResult(epochs, derived_total)
        lookup, contains, coerce = store.lookup, store.contains, store.vocab.coerce
        # head -> ((rule index, *rank), rule id, premises) of its best derivation
        pending: Dict[Tuple[str, str, Any], Tuple[Tuple[Any, ...], str, Tuple[int, ...]]] = {}
        try:  # `rule_id` is the rule whose head is being built or inserted
            for plans, seeds in filed:
                for plan in plans:
                    index, pos, rule_id, _, head = plan
                    if pos and not lo:
                        continue  # no fact is old enough for an atom before the seed
                    for values, premises in _join(plan, lookup, seeds, lo):
                        order = (index, premises) if epochs == 1 else (index, pos, premises)
                        for s, s_slot, p, o, o_slot in head:
                            key = (values[s] if s_slot else s, p, coerce(p, values[o] if o_slot else o))
                            found = pending.get(key)
                            if found is None:
                                if contains(*key):
                                    continue
                            elif order >= found[0]:
                                continue  # an earlier rule, or a better rank, wins
                            pending[key] = (order, rule_id, premises)
            if not pending:
                return FixpointResult(epochs, derived_total)
            lo = store.watermark
            for triple, (_, rule_id, premises) in sorted(
                pending.items(), key=lambda kv: (kv[0][1], kv[0][0], str(kv[0][2]))
            ):
                derived_total += len(store.insert((triple,), Derived(rule_id, premises)))
        except VocabularyError as exc:  # a bound value the head's subject or object cannot take
            raise VocabularyError(f"rule {rule_id}: {exc}") from exc

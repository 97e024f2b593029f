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

import hashlib
from dataclasses import dataclass, field
from datetime import datetime
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple, Union

from kcc.facts import Derived, Fact, FactStore, Pattern, _obj_eq
from kcc.vocab import Vocabulary


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


BUILTIN_OPS = ("=", "!=", "<", "<=", ">", ">=")


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
    # the body's atoms in body order, builtins left out; built once, since
    # the fixpoint reads them for every rule in every epoch
    body_atoms: Tuple[Atom, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        atoms = tuple(item for item in self.body if isinstance(item, Atom))
        object.__setattr__(self, "body_atoms", atoms)


@dataclass
class RuleSet:
    rules: List[Rule]
    source_hash: str

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


def _tokenize(text: str) -> List[_Token]:
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
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
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
                raise RuleSyntaxError("bare '?'", line, col)
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
                raise RuleSyntaxError("unterminated string", start_line, start_col)
            tokens.append(_Token("STRING", "".join(buf), start_line, start_col))
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
        raise RuleSyntaxError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("EOF", None, line, col))
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
        body: List[Union[Atom, Builtin]] = [self.parse_body_item()]
        while self.peek().kind == "COMMA":
            self.next()
            body.append(self.parse_body_item())
        self.expect("ARROW", "'=>'")
        head: List[Atom] = [self.parse_atom()]
        while self.peek().kind == "COMMA":
            self.next()
            head.append(self.parse_atom())
        self.expect("DOT", "'.'")
        return Rule(rid, tuple(body), tuple(head))

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
        terms = [self.parse_term()]
        while self.peek().kind == "COMMA":
            self.next()
            terms.append(self.parse_term())
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


def _validate_rule(rule: Rule, vocab: Optional[Vocabulary]) -> None:
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
    if vocab is not None:
        for atom in rule.body_atoms + rule.head:
            schema = vocab.schema_of(atom.predicate)
            if schema is None:
                raise UnknownPredicate(
                    f"rule {rule.rule_id}: unknown predicate {atom.predicate}",
                    atom.line,
                    atom.col,
                )
            if not isinstance(atom.obj, Var):
                if not vocab.validate_fact("x:x", atom.predicate, atom.obj):
                    raise RuleSyntaxError(
                        f"rule {rule.rule_id}: constant {atom.obj!r} does not "
                        f"match schema {schema} of {atom.predicate}",
                        atom.line,
                        atom.col,
                    )


def parse_ruleset(text: str, vocab: Optional[Vocabulary] = None) -> RuleSet:
    """Parse and statically validate a ruleset.

    When a vocabulary is given, every atom predicate must be registered and
    constant objects must match the predicate's schema.
    """
    rules = _Parser(_tokenize(text)).parse_ruleset()
    seen: Set[str] = set()
    for rule in rules:
        if rule.rule_id in seen:
            raise RuleSyntaxError(f"duplicate rule id {rule.rule_id}")
        seen.add(rule.rule_id)
        _validate_rule(rule, vocab)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return RuleSet(rules, digest)


def load_ruleset(path, vocab: Optional[Vocabulary] = None) -> RuleSet:
    with open(path, encoding="utf-8") as fh:
        return parse_ruleset(fh.read(), vocab)


# -- evaluation ---------------------------------------------------------------

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
            if not _obj_eq(new[o.name], fact.obj):
                return None
        else:
            new[o.name] = fact.obj
    elif not _obj_eq(o, fact.obj):
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
        return _obj_eq(left, right)
    if b.op == "!=":
        return not _obj_eq(left, right)
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


def apply_rule(rule: Rule, store: FactStore) -> List[Tuple[str, str, Any, Tuple[int, ...]]]:
    """Head instantiations derivable now and absent from the store.

    Returns (subject, predicate, object, premise_ids) tuples; the store is
    not modified.
    """
    out = []
    seen: Set[Tuple[str, str, Any]] = set()
    seeds = store.query(Pattern.of(None, rule.body_atoms[0].predicate))
    for binding, premises in _join(rule, store, 0, seeds, 0):
        for s, p, o in _instantiate_head(rule, binding):
            if (s, p, o) in seen or store.contains(s, p, o):
                continue
            seen.add((s, p, o))
            out.append((s, p, o, premises))
    return out


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
    derived.  A delta atom is bound from the delta facts of its predicate;
    atoms before it match only facts older than the delta, so each match is
    found once, at its first delta atom.

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
    lo = since
    epochs = 0
    derived_total = 0
    while True:
        epochs += 1
        if epochs > max_epochs:
            raise EpochLimitExceeded(f"no fixpoint after {max_epochs} epochs")
        delta: Dict[str, List[Fact]] = {}
        for fact in store.facts_since(lo):
            delta.setdefault(fact.predicate, []).append(fact)
        pending: Dict[Tuple[str, str, Any], Tuple[str, Tuple[int, ...]]] = {}
        for rule in rules:
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
        for (s, p, o), (rule_id, premises) in sorted(
            pending.items(), key=lambda kv: (kv[0][1], kv[0][0], str(kv[0][2]))
        ):
            inserted, _ = store.insert(s, p, o, Derived(rule_id, premises))
            derived_total += inserted


def _has_fact_upto(store: FactStore, predicate: str, lo: int) -> bool:
    first = store.first_id(predicate)
    return first is not None and first <= lo

"""Seeded random stores and rulesets for engine equivalence testing."""

import random

from kcc.facts import Asserted, FactStore
from kcc.rules import Atom, Builtin, Rule, RuleSet, Var

from conftest import make_test_vocab

ENTITIES = [f"n:{c}" for c in "abcde"]
ENTITY_PREDS = ["p0", "p1", "p2", "p3"]
INT_PREDS = ["q0", "q1"]
ENTITY_VARS = ["x", "y", "z"]
INT_VARS = ["u", "v"]


def random_store(rng: random.Random, max_facts: int = 200) -> FactStore:
    store = FactStore(make_test_vocab())
    for _ in range(rng.randrange(0, max_facts)):
        if rng.random() < 0.3:
            triple = (rng.choice(ENTITIES), rng.choice(INT_PREDS), rng.randrange(0, 5))
        else:
            triple = (rng.choice(ENTITIES), rng.choice(ENTITY_PREDS), rng.choice(ENTITIES))
        store.insert([triple], Asserted("gen"))
    return store


def random_rule(rng: random.Random, rule_id: str) -> Rule:
    body = []
    bound_entity = set()
    bound_int = set()
    for _ in range(rng.randrange(1, 4)):
        subj = Var(rng.choice(ENTITY_VARS)) if rng.random() < 0.8 else rng.choice(ENTITIES)
        if isinstance(subj, Var):
            bound_entity.add(subj.name)
        if rng.random() < 0.35:
            obj = Var(rng.choice(INT_VARS)) if rng.random() < 0.7 else rng.randrange(0, 5)
            if isinstance(obj, Var):
                bound_int.add(obj.name)
            body.append(Atom(rng.choice(INT_PREDS), subj, obj))
        else:
            obj = Var(rng.choice(ENTITY_VARS)) if rng.random() < 0.7 else rng.choice(ENTITIES)
            if isinstance(obj, Var):
                bound_entity.add(obj.name)
            body.append(Atom(rng.choice(ENTITY_PREDS), subj, obj))
    if bound_int and rng.random() < 0.5:
        left = Var(rng.choice(sorted(bound_int)))
        right = rng.choice(
            [rng.randrange(0, 5)]
            + [Var(v) for v in sorted(bound_int)]
        )
        op = rng.choice(["=", "!=", "<", "<=", ">", ">="])
        body.append(Builtin(op, left, right))
    head = []
    for _ in range(rng.randrange(1, 3)):
        subj = (
            Var(rng.choice(sorted(bound_entity)))
            if bound_entity and rng.random() < 0.8
            else rng.choice(ENTITIES)
        )
        if rng.random() < 0.3 and bound_int:
            obj = (
                Var(rng.choice(sorted(bound_int)))
                if rng.random() < 0.7
                else rng.randrange(0, 5)
            )
            head.append(Atom(rng.choice(INT_PREDS), subj, obj))
        else:
            obj = (
                Var(rng.choice(sorted(bound_entity)))
                if bound_entity and rng.random() < 0.7
                else rng.choice(ENTITIES)
            )
            head.append(Atom(rng.choice(ENTITY_PREDS), subj, obj))
    return Rule(rule_id, tuple(body), tuple(head))


def random_ruleset(rng: random.Random, max_rules: int = 20) -> RuleSet:
    n = rng.randrange(0, max_rules + 1)
    return RuleSet([random_rule(rng, f"G{i}") for i in range(n)])


def random_batches(rng: random.Random, items: list, max_batch: int) -> list:
    """`items` cut into consecutive batches of 1 to `max_batch` items."""
    out = []
    i = 0
    while i < len(items):
        n = rng.randrange(1, max_batch + 1)
        out.append(items[i : i + n])
        i += n
    return out

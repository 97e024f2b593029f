"""Operator command line: run scenarios, ingest logs, query and explain facts.

Exit codes are a stable contract: 0 clean, 1 input/config error, 2 when a
run emitted at least one Confirmed alert.
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime, timezone
from importlib import resources
from pathlib import Path
from typing import Any, Dict, List, Optional

from kcc.correlator import IndicatorConfig, render_report
from kcc.facts import (
    FactStore, FactStoreError, Pattern, _parse_object, parse_fact_id, render_object, render_triple,
    undecodable_line,
)
from kcc.ingest import IngestError, SidMap, TechniqueTable
from kcc.rules import RuleError, load_ruleset
from kcc.scenario import (
    SOURCE_TAGS, EngineConfig, MalformedScenario, Scenario, load_scenario, replay,
)
from kcc.vocab import Vocabulary, VocabularyError, load_vocabulary

_PATH_KEYS = ("vocab", "rules", "sidmap", "techniques")

# the time of `kcc ingest`'s one batch; Snort fast alerts carry no year,
# and take this one's
_INGEST_TIME = datetime(2017, 1, 1, tzinfo=timezone.utc)


class CliError(Exception):
    pass


def _data_path(name: str) -> Path:
    return Path(resources.files("kcc").joinpath("data", name))


def _parse_config_file(path: str) -> Dict[str, str]:
    out: Dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected key=value")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def build_engine_config(args) -> EngineConfig:
    settings: Dict[str, str] = {}
    if args.config:
        settings.update(_parse_config_file(args.config))
    for key in _PATH_KEYS:
        flag = getattr(args, key, None)
        if flag:
            settings[key] = flag
    defaults = {
        "vocab": _data_path("vocab.kcv"),
        "rules": _data_path("rules/default.kcr"),
        "sidmap": _data_path("sidmap.kcm"),
        "techniques": _data_path("techniques.kct"),
    }
    paths = {}
    for key, default in defaults.items():
        chosen = Path(settings.pop(key, default))
        if not chosen.is_file():
            raise CliError(f"required file missing: {key} -> {chosen}")
        paths[key] = chosen
    indicators = IndicatorConfig.from_mapping(settings)
    vocab = load_vocabulary(paths["vocab"])
    return EngineConfig(
        vocab=vocab,
        rules=load_ruleset(paths["rules"], vocab),
        sidmap=SidMap.load(paths["sidmap"]),
        techniques=TechniqueTable.load(paths["techniques"]),
        indicators=indicators,
    )


def cmd_run(args) -> int:
    config = build_engine_config(args)
    if not Path(args.scenario).is_file():
        raise CliError(f"scenario not found: {args.scenario}")
    scenario = load_scenario(args.scenario)
    transcript = replay(scenario, config)
    if args.format == "jsonl":
        for batch in transcript.batches:
            print(json.dumps(batch, sort_keys=True))
        for alert in transcript.alerts:
            print(json.dumps(alert.to_json_dict(), sort_keys=True))
    else:
        print(f"scenario: {transcript.scenario}")
        print(f"batches:  {len(transcript.batches)}")
        print(f"facts:    {len(transcript.store)}")
        for entry in transcript.alert_timeline:
            print(
                f"first {entry['tier']} on {entry['host']} at {entry['first_ts']}"
            )
        print(render_report(transcript.alerts), end="")
    if args.output:
        Path(args.output).write_text(transcript.to_json() + "\n", encoding="utf-8")
    if args.dump:
        transcript.store.dump(args.dump)
    if any(a.tier == "Confirmed" for a in transcript.alerts):
        return 2
    return 0


def cmd_ingest(args) -> int:
    """Replay the file as one batch of a scenario: its non-blank lines, or
    the intel document itself, under the tag `--type`."""
    config = build_engine_config(args)
    path = Path(args.path)
    if not path.is_file():
        raise CliError(f"input not found: {path}")
    if args.type == "intel-doc":
        lines = [(_INGEST_TIME, args.type, path.name, 0)]
    else:
        try:
            text = path.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            message, lineno = undecodable_line(path, exc)
            raise CliError(f"{path}:{lineno}: {message}") from exc
        # split as the scenario reader splits, not at U+2028 and the like
        lines = [
            (_INGEST_TIME, args.type, line, lineno)
            for lineno, line in enumerate(text.split("\n"), 1)
            if line.strip()
        ]
    try:
        store = replay(Scenario(path.stem, lines, path.parent), config).store
    except MalformedScenario as exc:
        where = f"{path}:{exc.lineno}" if exc.lineno else str(path)
        raise CliError(f"{where}: {exc.__cause__}") from exc
    store.dump(args.dump)
    print(f"{len(store)} facts -> {args.dump}")
    return 0


def _load_store(args) -> FactStore:
    config = build_engine_config(args)
    if not args.store or not Path(args.store).is_file():
        raise CliError(f"store dump not found: {args.store}")
    return FactStore.load(args.store, config.vocab)


def _parse_pattern(text: str, vocab: Vocabulary) -> Pattern:
    """A pattern of three words, `*` for a wildcard.  Under a named
    predicate the object is read as a dump writes it for that predicate's
    schema, so any object `query` prints can be queried back; under `*` it
    is an int, a float, a quoted string or a bare string."""
    parts = text.split()
    if len(parts) != 3:
        raise CliError(f"pattern must be '<s> <p> <o>' (use * for wildcard): {text!r}")
    s = None if parts[0] == "*" else parts[0]
    p = None if parts[1] == "*" else parts[1]
    if parts[2] == "*":
        return Pattern.of(s, p)
    o: Any = parts[2]
    if p is not None:
        o = vocab.coerce(p, _parse_object(o, vocab.schema_of(p)))
    elif o.startswith('"') and o.endswith('"'):
        o = o[1:-1]
    else:
        try:
            o = int(o)
        except ValueError:
            try:
                o = float(o)
            except ValueError:
                pass
    return Pattern.of(s, p, o)


def cmd_query(args) -> int:
    store = _load_store(args)
    for fact in store.query(_parse_pattern(args.pattern, store.vocab)):
        if args.format == "jsonl":
            row = {"fact_id": fact.fact_id, "subject": fact.subject,
                   "predicate": fact.predicate, "object": render_object(fact.obj)}
            print(json.dumps(row, sort_keys=True))
        else:
            print(f"f{fact.fact_id} {render_triple(fact)}")
    return 0


def cmd_explain(args) -> int:
    fact_id = parse_fact_id(args.fact_id)
    print(_load_store(args).explain(fact_id).render())
    return 0


def cmd_check_rules(args) -> int:
    config = build_engine_config(args)
    print(f"{len(config.rules)} rules ok")
    return 0


class _Parser(argparse.ArgumentParser):
    """A usage error exits 1, like every other input error; argparse's 2
    is the code of a Confirmed alert."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="kcc", description="kill-chain correlation engine")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--vocab", help="vocabulary file (.kcv)")
        p.add_argument("--rules", help="ruleset file (.kcr)")
        p.add_argument("--sidmap", help="snort sid map (.kcm)")
        p.add_argument("--techniques", help="technique synonym table (.kct)")

    p_run = sub.add_parser("run", help="replay a scenario file")
    p_run.add_argument("scenario")
    p_run.add_argument("--output", help="write transcript JSON to this path")
    p_run.add_argument("--dump", help="write final fact-store dump to this path")
    common(p_run)
    p_run.add_argument("--format", choices=("human", "jsonl"), default="human")
    p_run.set_defaults(func=cmd_run)

    p_ingest = sub.add_parser("ingest", help="parse a log/intel file into a dump")
    p_ingest.add_argument("--type", required=True, choices=SOURCE_TAGS)
    p_ingest.add_argument("path")
    p_ingest.add_argument("--dump", required=True, help="output dump path")
    common(p_ingest)
    p_ingest.set_defaults(func=cmd_ingest)

    p_query = sub.add_parser("query", help="pattern query over a store dump")
    p_query.add_argument("pattern")
    p_query.add_argument("--store", required=True, help="store dump to load")
    common(p_query)
    p_query.add_argument("--format", choices=("human", "jsonl"), default="human")
    p_query.set_defaults(func=cmd_query)

    p_explain = sub.add_parser(
        "explain", help="print a fact's derivation, each premise in full once"
    )
    p_explain.add_argument("fact_id")
    p_explain.add_argument("--store", required=True, help="store dump to load")
    common(p_explain)
    p_explain.set_defaults(func=cmd_explain)

    p_check = sub.add_parser("check-rules", help="parse and validate a ruleset")
    common(p_check)
    p_check.set_defaults(func=cmd_check_rules)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CliError, IngestError, RuleError, VocabularyError, FactStoreError,
            MalformedScenario, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

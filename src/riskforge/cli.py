"""Command-line front end: validate, propagate, analyze, synergy, simulate, export."""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import analysis, dsl, oracle, synergy
from .calculus import CalculusError, propagate
from .engine import joined
from .model import RiskModel, known_diagnostics

EXIT_OK = 0
EXIT_MODEL_ERROR = 1
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3


def _load(args) -> RiskModel:
    text = Path(args.file).read_text(encoding="utf-8-sig")  # with or without a byte-order mark
    if args.file.endswith(".json") or text.lstrip().startswith("{"):
        return dsl.from_json(text, coras=args.coras)
    return dsl.parse(text, coras=args.coras)


@functools.cache  # parse_args keeps no state between calls
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riskforge",
        description="Countermeasure selection over annotated risk models.",
    )
    parser.add_argument(
        "--coras", action="store_true", help="treat likelihoods above 1 as errors"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a model file")
    p.set_defaults(handler=_cmd_validate)
    p.add_argument("file")

    p = sub.add_parser("propagate", help="residual frequencies under an alternative")
    p.set_defaults(handler=_cmd_propagate)
    p.add_argument("file")
    p.add_argument("--with", dest="with_cms", default="", metavar="CM1,CM2,...")
    p.add_argument("--format", choices=("json", "table"), default="table")

    p = sub.add_parser("analyze", help="per-risk states and decision diagram")
    p.set_defaults(handler=_cmd_analyze)
    p.add_argument("file")
    p.add_argument("--risk", required=True)
    p.add_argument("--format", choices=("csv", "dot", "json"), default="csv")
    p.add_argument("--out", default=None)

    p = sub.add_parser("synergy", help="rank global alternatives and recommend")
    p.set_defaults(handler=_cmd_synergy)
    p.add_argument("file")
    p.add_argument("--budget", type=float, default=None)
    p.add_argument("--pessimistic", action="store_true")
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("simulate", help="validate a calculus rule by simulation")
    p.set_defaults(handler=_cmd_simulate)
    p.add_argument("file")
    p.add_argument("--rule", required=True, choices=oracle.RULES)
    p.add_argument("--runs", type=int, default=100)
    p.add_argument("--horizon", type=float, default=10000.0)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("export", help="re-emit the model as JSON or canonical DSL")
    p.set_defaults(handler=_cmd_export)
    p.add_argument("file")
    p.add_argument("--to", required=True, choices=("json", "dsl"))
    return parser


def _cmd_validate(args) -> int:
    for d in known_diagnostics(_load(args)):  # warnings: a model with errors does not load
        print(d, file=sys.stderr)
    return EXIT_OK


def _cmd_propagate(args) -> int:
    model = _load(args)
    alternative = frozenset(c for c in args.with_cms.split(",") if c)
    results = propagate(model, alternative)
    if args.format == "json":
        doc = {
            vid: {
                "frequency": dsl._value_to_json(r.frequency),
                "consequence": dsl._value_to_json(r.consequence),
            }
            for vid, r in results.items()
        }
        print(dsl._indented_json(doc))
    else:
        period = model.base_period
        rows = [("vertex", f"freq [/{period}]", "consequence")]
        rows += [(vid, str(r.frequency), str(r.consequence)) for vid, r in results.items()]
        widths = [max(len(row[i]) for row in rows) for i in range(3)]
        for row in rows:
            print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return EXIT_OK


def _cmd_analyze(args) -> int:
    model = _load(args)
    states = analysis.enumerate_states(model, args.risk)
    if args.format == "csv":
        out = analysis.export_csv(states)
    elif args.format == "dot":
        out = analysis.export_dot(analysis.build_decision_diagram(states))
    else:
        out = _states_json(states) + "\n"
    if args.out:
        Path(args.out).write_text(out, encoding="utf-8")
    else:
        sys.stdout.write(out)
    return EXIT_OK


def _states_json(states: analysis.States) -> str:
    """What dsl._indented_json writes for analyze's list of states, one format per entry."""
    # Ids are ASCII identifiers in a valid model, and values finite, as enumerate_states checks.
    ids = joined(states.ids, states.masks, ',\n      "{}"'.format)
    alternatives = (f"[{t[1:]}\n    ]" if t else "[]" for t in ids)
    values = states.texts("%r", "[\n      %s,\n      %s\n    ]")
    entry = '\n  {{\n    "state": "S{}",\n    "alternative": {},'
    entry += '\n    "frequency": {},\n    "consequence": {}\n  }}'
    entries = map(entry.format, states.indices.tolist(), alternatives, *values)
    return "[" + ",".join(entries) + "\n]"


def _cmd_synergy(args) -> int:
    model = _load(args)
    rec = synergy.recommend(model, budget=args.budget, pessimistic=args.pessimistic)
    if args.format == "csv":
        sys.stdout.write(synergy.export_ranking_csv(rec.ranking))
    else:
        doc = {
            "outcome": rec.outcome,
            "budget": rec.budget,
            "best": None
            if rec.best is None
            else {
                "countermeasures": sorted(rec.best.countermeasures),
                "overall_cost": rec.best.overall_cost,
            },
            "ranking": None,  # written from the ranking's arrays below
            "report": [
                {
                    "risk": g.risk,
                    "best_frequency": g.best_frequency,
                    "best_risk_cost": g.best_risk_cost,
                    "max_frequency": g.max_frequency,
                    "max_risk_cost": g.max_risk_cost,
                }
                for g in rec.report
            ],
        }
        # What dsl._indented_json(doc) writes, one top-level value at a time.
        texts = {key: dsl._indented_json(value, "\n  ") for key, value in doc.items()}
        texts["ranking"] = _ranking_json(rec.ranking)
        print("{" + ",".join(f'\n  "{key}": {text}' for key, text in texts.items()) + "\n}")
    if rec.outcome != "recommended":
        print(f"outcome: {rec.outcome}", file=sys.stderr)
        return EXIT_INFEASIBLE
    return EXIT_OK


def _ranking_json(ranking) -> str:
    """The ranking's JSON at the indent of a top-level value, one format per entry."""
    if not ranking:
        return "[]"
    # A valid model's ids are ASCII identifiers, which JSON quotes as they are.
    ids = joined(ranking.compiled.countermeasures, ranking.masks, ',\n        "{}"'.format)
    costs = map(float.__repr__, ranking.costs.tolist())  # finite, as recommend checks
    entry = '\n    {{\n      "countermeasures": {},\n      "overall_cost": {}\n    }}'
    entries = (entry.format(f"[{t[1:]}\n      ]" if t else "[]", c) for t, c in zip(ids, costs))
    return "[" + ",".join(entries) + "\n  ]"


def _cmd_simulate(args) -> int:
    model = _load(args)
    verdict = oracle.check_rule(
        args.rule, model, runs=args.runs, horizon=args.horizon, seed=args.seed
    )
    print(dsl._indented_json(verdict.to_json()))
    return EXIT_OK


def _cmd_export(args) -> int:
    model = _load(args)
    sys.stdout.write(dsl.to_json(model) if args.to == "json" else dsl.serialize(model))
    return EXIT_OK


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code else EXIT_OK
    try:
        return args.handler(args)
    except (
        dsl.DslError,
        CalculusError,
        analysis.AnalysisError,
        synergy.SynergyError,
        oracle.OracleError,
        OSError,
        UnicodeDecodeError,  # a model file that is not UTF-8
    ) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_MODEL_ERROR


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

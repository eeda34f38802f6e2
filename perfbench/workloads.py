"""The four benchmark workloads: seeded corpora of CLI requests.

Each workload is one cycle of ``CYCLE`` requests that the benchmark repeats
in a closed loop (one client, one request at a time). The cycle length is an
odd multiple of five, so that in any whole number of cycles the median and
the 90th percentile fall in the middle of one request's copies and not on
the boundary between two requests of different size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from riskforge import RiskModel, dsl, oracle, propagate

import models
from models import OUTCOMES, Shape

CYCLE = 45
WORKLOADS = ("select", "analyze", "simulate", "author")

# select: (countermeasures, [core vertex counts]); 45 slots. Fewer requests
# at large n keep a cycle near five seconds while every n from 6 to 12 runs.
SELECT_GROUPS = (
    (12, [20]),
    (11, [24]),
    (10, [28, 36]),
    (9, [20, 26, 32, 40]),
    (8, [20, 24, 28, 32, 36, 40]),
    (7, [20, 22, 24, 27, 29, 31, 33, 36, 38, 40]),
    (6, list(range(20, 41))),
)
# analyze: (applicable countermeasures, requests); 45 slots.
ANALYZE_GROUPS = ((11, 2), (10, 3), (9, 5), (8, 8), (7, 11), (6, 16))
SIMULATE_RUNS = 3
SIMULATE_HORIZON = 10000
SIMULATE_CANDIDATES = 256
# Expected events per history that the chosen rule instances aim at, per
# rule: a geometric grid between these bounds, so every seed draws instances
# of the same sizes.
SIMULATE_EVENTS = {
    "leads_to": (10e3, 45e3),
    "separate": (25e3, 90e3),
    "exclusive": (18e3, 70e3),
    "cm_effect": (7e3, 27e3),
    "cm_dependency": (7e3, 27e3),
}
CONCLUSION = {
    "leads_to": "B",
    "separate": "C",
    "exclusive": "C",
    "cm_effect": "A",
    "cm_dependency": "A",
}
AUTHOR_MODELS = 15
AUTHOR_KINDS = ("validate", "export_json", "export_dsl", "propagate")


@dataclass(frozen=True)
class Request:
    """One CLI request and what its answer is checked against."""

    key: str  # stable id within the workload
    argv: tuple[str, ...]
    expect: frozenset  # exit codes that count as an answer
    # 2**n countermeasure subsets the request asks for: n countermeasures for
    # synergy, n applicable ones for analyze; one fixed alternative (simulate,
    # propagate) is 2**0 = 1, and validate or export evaluate none.
    subsets: int
    kind: str  # answer checker
    model: RiskModel
    info: dict = field(default_factory=dict)


@dataclass
class Corpus:
    workload: str
    requests: list[Request]
    properties: dict


def _rng(seed: int, workload: str, slot: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload), slot])


def _write(path: Path, text: str) -> str:
    # Truncating an existing file can make ext4 flush it to disk on close,
    # which would put disk latency into the set-up time; a new file does not.
    path.unlink(missing_ok=True)
    path.write_text(text, encoding="utf-8")
    return str(path)


def select_corpus(seed: int, workdir: Path) -> Corpus:
    """`synergy FILE --format json`, sometimes with --budget or --pessimistic."""
    requests = []
    slots = [(n_cms, n_core) for n_cms, cores in SELECT_GROUPS for n_core in cores]
    for slot, (n_cms, n_core) in enumerate(slots):
        if n_cms >= 11:
            outcome = OUTCOMES[n_cms - 11]
        else:
            outcome = OUTCOMES[slot % 3]
        pessimistic = slot % 4 == 3
        shape = Shape(n_core, n_cms, interval=slot % 2 == 1, exclusive=slot % 4 < 2)
        rng = _rng(seed, "select", slot)
        model = models.risk_graph(rng, shape, f"select-{seed}-{slot:02d}")
        model, budget = models.calibrate(model, outcome, pessimistic)
        path = _write(workdir / f"s{slot:02d}.riskdsl", dsl.serialize(model))
        argv = ["synergy", path, "--format", "json"]
        if outcome == "recommended" and slot % 2 == 0:
            budget = None
        if budget is not None:
            argv += ["--budget", repr(budget)]
        if pessimistic:
            argv.append("--pessimistic")
        requests.append(
            Request(
                key=f"{slot:02d}",
                argv=tuple(argv),
                expect=frozenset({0, 3}),
                subsets=2**n_cms,
                kind="select",
                model=model,
                info={"outcome": outcome, "budget": budget, "pessimistic": pessimistic},
            )
        )
    props = models.properties([r.model for r in requests])
    props["outcome_mix"] = {
        o: sum(r.info["outcome"] == o for r in requests) / len(requests) for o in OUTCOMES
    }
    props["pessimistic_share"] = sum(r.info["pessimistic"] for r in requests) / len(requests)
    return Corpus("select", requests, props)


def analyze_corpus(seed: int, workdir: Path) -> Corpus:
    """`analyze FILE --risk R --format dot`, with some csv and json requests."""
    requests = []
    slots = [(n_app, k) for n_app, count in ANALYZE_GROUPS for k in range(count)]
    for slot, (n_app, k) in enumerate(slots):
        rng = _rng(seed, "analyze", slot)
        model, risk = models.funnel_model(
            rng,
            n_app,
            n_side=2 + slot % 2,
            width=4 + slot % 3,
            interval=slot % 2 == 0,
            name=f"analyze-{seed}-{slot:02d}",
        )
        fmt = "dot"
        if n_app < 11 and k % 5 == 3:
            fmt = "csv"
        elif n_app < 11 and k % 5 == 4:
            fmt = "json"
        path = _write(workdir / f"f{slot:02d}.riskdsl", dsl.serialize(model))
        applicable = sorted(c.id for c in model.countermeasures if c.id.startswith("C"))
        requests.append(
            Request(
                key=f"{slot:02d}",
                argv=("analyze", path, "--risk", risk, "--format", fmt),
                expect=frozenset({0}),
                subsets=2**n_app,
                kind="analyze",
                model=model,
                info={"risk": risk, "format": fmt, "applicable": applicable},
            )
        )
    props = models.properties([r.model for r in requests])
    props["format_mix"] = {
        f: sum(r.info["format"] == f for r in requests) / len(requests)
        for f in ("dot", "csv", "json")
    }
    props["applicable_countermeasures"] = [ANALYZE_GROUPS[-1][0], ANALYZE_GROUPS[0][0]]
    return Corpus("analyze", requests, props)


def _expected_events(instance: RiskModel) -> float:
    res = propagate(instance, frozenset())
    return SIMULATE_HORIZON * sum(r.frequency.lo for r in res.values())


def simulate_corpus(seed: int, workdir: Path) -> Corpus:
    """`simulate FILE --rule R --horizon 10000` over all five rules."""
    per_rule = CYCLE // len(oracle.RULES)
    chosen: dict[str, list[tuple[RiskModel, float]]] = {}
    for r_idx, rule in enumerate(oracle.RULES):
        rng = _rng(seed, "simulate", r_idx)
        pool = []
        for _ in range(SIMULATE_CANDIDATES):
            inst = oracle.random_rule_instance(rule, rng)
            pool.append((inst, _expected_events(inst)))
        lo, hi = SIMULATE_EVENTS[rule]
        picks = []
        for t in range(per_rule):
            target = lo * (hi / lo) ** ((t + 0.5) / per_rule)
            best = min(range(len(pool)), key=lambda i: abs(math.log(pool[i][1] / target)))
            picks.append(pool.pop(best))
        chosen[rule] = picks
    requests = []
    for slot in range(CYCLE):
        rule = oracle.RULES[slot % len(oracle.RULES)]
        inst, events = chosen[rule][slot // len(oracle.RULES)]
        path = _write(workdir / f"r{slot:02d}.riskdsl", dsl.serialize(inst))
        argv = (
            "simulate", path, "--rule", rule, "--runs", str(SIMULATE_RUNS),
            "--horizon", str(SIMULATE_HORIZON), "--seed", str(seed * CYCLE + slot),
        )
        requests.append(
            Request(
                key=f"{slot:02d}",
                argv=argv,
                expect=frozenset({0}),
                subsets=1,
                kind="simulate",
                model=inst,
                info={
                    "rule": rule,
                    "runs": SIMULATE_RUNS,
                    "events": events,
                    "vertex": CONCLUSION[rule],
                },
            )
        )
    props = models.properties([r.model for r in requests])
    props["runs"] = SIMULATE_RUNS
    props["horizon"] = SIMULATE_HORIZON
    props["expected_events_per_history"] = [
        round(min(r.info["events"] for r in requests)),
        round(max(r.info["events"] for r in requests)),
    ]
    return Corpus("simulate", requests, props)


def author_corpus(seed: int, workdir: Path) -> Corpus:
    """validate, export --to json, export --to dsl (from JSON), and
    propagate --with ... --format json, each loading one large model."""
    built = []
    for m in range(AUTHOR_MODELS):
        n_core = 80 + round(120 * m / (AUTHOR_MODELS - 1))
        rng = _rng(seed, "author", m)
        shape = Shape(n_core, n_core // 8, interval=m % 2 == 1, exclusive=True)
        model = models.risk_graph(rng, shape, f"author-{seed}-{m:02d}")
        model, _ = models.calibrate(model, "recommended", pessimistic=False)
        dsl_path = _write(workdir / f"a{m:02d}.riskdsl", dsl.serialize(model))
        json_path = _write(workdir / f"a{m:02d}.json", dsl.to_json(model))
        cms = sorted(c.id for c in model.countermeasures)
        chosen = [c for c in cms if rng.random() < 0.5]
        built.append((model, dsl_path, json_path, chosen))
    requests = []
    for slot in range(CYCLE):
        model, dsl_path, json_path, chosen = built[slot % AUTHOR_MODELS]
        kind = AUTHOR_KINDS[slot % len(AUTHOR_KINDS)]
        argv = {
            "validate": ("validate", dsl_path),
            "export_json": ("export", dsl_path, "--to", "json"),
            "export_dsl": ("export", json_path, "--to", "dsl"),
            "propagate": ("propagate", dsl_path, "--with", ",".join(chosen), "--format", "json"),
        }[kind]
        requests.append(
            Request(
                key=f"{slot:02d}",
                argv=argv,
                expect=frozenset({0}),
                subsets=1 if kind == "propagate" else 0,
                kind="author",
                model=model,
                info={"request": kind, "with": chosen},
            )
        )
    props = models.properties([b[0] for b in built])
    props["request_mix"] = {
        k: sum(r.info["request"] == k for r in requests) / len(requests) for k in AUTHOR_KINDS
    }
    return Corpus("author", requests, props)


BUILDERS = {
    "select": select_corpus,
    "analyze": analyze_corpus,
    "simulate": simulate_corpus,
    "author": author_corpus,
}


def build(workload: str, seed: int, workdir: Path) -> Corpus:
    workdir.mkdir(parents=True, exist_ok=True)
    return BUILDERS[workload](seed, workdir)

"""Answer checks and answer digests, run outside the timed region.

Each checker returns None for a correct answer or a one-line reason. The
reference values come from the scalar calculus (``propagate``,
``synergy.overall_cost``, ``synergy.acceptable``) and from the generator's
own knowledge of each model, never from the command's output alone.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import warnings

import numpy as np

from riskforge import dsl, propagate, synergy

from workloads import Request

SAMPLED_SUBSETS = 12
SAMPLED_STATES = 8
REL_TOL = 1e-9


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1.0)


def _ranking_key(entry: dict) -> tuple:
    return (entry["overall_cost"], len(entry["countermeasures"]), tuple(entry["countermeasures"]))


def check_select(req: Request, out: str, code: int) -> str | None:
    model, info = req.model, req.info
    doc = json.loads(out)
    outcome = doc["outcome"]
    if outcome != info["outcome"]:
        return f"outcome {outcome}, built for {info['outcome']}"
    if (code == 0) != (outcome == "recommended"):
        return f"exit code {code} with outcome {outcome}"
    ranking = doc["ranking"]
    keys = [_ranking_key(e) for e in ranking]
    if keys != sorted(keys):
        return "ranking not sorted"
    pess = info["pessimistic"]
    best = doc["best"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if outcome == "no_feasible":
            if best is not None or ranking:
                return "no_feasible with a best alternative"
            if len(doc["report"]) != len(model.incidents):
                return "gap report does not cover every risk"
            best_cost = math.inf
        else:
            alt = frozenset(best["countermeasures"])
            best_cost = synergy.overall_cost(model, alt, pess)
            if not _close(best_cost, best["overall_cost"]):
                return f"best cost {best['overall_cost']} != recomputed {best_cost}"
            if not all(synergy.acceptable(model, alt, pess).values()):
                return "best alternative is not acceptable"
            if not ranking or ranking[0]["countermeasures"] != best["countermeasures"]:
                return "best alternative is not ranked first"
            budget = info["budget"]
            if outcome == "over_budget" and not best_cost > budget:
                return "over_budget within budget"
            if outcome == "recommended" and budget is not None and best_cost > budget:
                return "recommended over budget"
        ranked = {tuple(e["countermeasures"]): e["overall_cost"] for e in ranking}
        cms = sorted(c.id for c in model.countermeasures)
        rng = np.random.default_rng(int(req.key))
        masks = {0, 2 ** len(cms) - 1}
        masks |= {int(m) for m in rng.integers(0, 2 ** len(cms), SAMPLED_SUBSETS)}
        for mask in sorted(masks):
            alt = frozenset(c for i, c in enumerate(cms) if mask >> i & 1)
            if not all(synergy.acceptable(model, alt, pess).values()):
                if tuple(sorted(alt)) in ranked:
                    return f"unacceptable {sorted(alt)} is ranked"
                continue
            cost = synergy.overall_cost(model, alt, pess)
            if cost < best_cost and not _close(cost, best_cost):
                return f"acceptable {sorted(alt)} costs {cost} < best {best_cost}"
            listed = ranked.get(tuple(sorted(alt)))
            if listed is None or not _close(listed, cost):
                return f"acceptable {sorted(alt)} missing from the ranking"
    return None


_DOT_NODE = re.compile(r'^  S(\d+) \[label="S\d+\\n\((.*), (.*)\)" pos="[^"]*"\];$')
_DOT_EDGE = re.compile(r'^  S(\d+) -> S(\d+) \[label="([^"]*)"\];$')
# Interval values "[lo,hi]" carry a comma of their own.
_CSV_ROW = re.compile(r"^S(\d+),([^,]*),(\[[^\]]*\]|[^,]*),(\[[^\]]*\]|[^,]*)$")


def check_analyze(req: Request, out: str, code: int) -> str | None:
    model, info = req.model, req.info
    cms = info["applicable"]
    risk = info["risk"]
    n_states = 2 ** len(cms)

    def alt_of(index: int) -> frozenset:
        return frozenset(c for i, c in enumerate(cms) if index >> i & 1)

    states: dict[int, tuple] = {}
    edges: set[tuple] = set()
    if info["format"] == "dot":
        for line in out.splitlines()[2:-1]:
            m = _DOT_NODE.match(line)
            if m:
                states[int(m[1])] = (m[2], m[3])
                continue
            m = _DOT_EDGE.match(line)
            if m is None:
                return f"unreadable DOT line {line!r}"
            edges.add((int(m[1]), int(m[2]), m[3]))
    elif info["format"] == "csv":
        for line in out.splitlines()[1:]:
            m = _CSV_ROW.match(line)
            if m is None:
                return f"unreadable CSV line {line!r}"
            index = int(m[1])
            if m[2] != "+".join(sorted(alt_of(index))):
                return f"state S{index} lists alternative {m[2]}"
            states[index] = (m[3], m[4])
        if len(states) != n_states:
            return f"{len(states)} states, expected {n_states}"
    else:
        for entry in json.loads(out):
            index = int(entry["state"][1:])
            if entry["alternative"] != sorted(alt_of(index)):
                return f"state {entry['state']} lists alternative {entry['alternative']}"
            states[index] = (entry["frequency"], entry["consequence"])
        if len(states) != n_states:
            return f"{len(states)} states, expected {n_states}"

    if 0 not in states or any(not 0 <= i < n_states for i in states):
        return "state indices outside the enumeration"
    untreated = propagate(model, frozenset())[risk]
    rng = np.random.default_rng(int(req.key))
    sample = {0, n_states - 1} | {int(i) for i in rng.integers(0, n_states, SAMPLED_STATES)}
    for index in sorted(sample):
        ref = propagate(model, alt_of(index))[risk]
        if index not in states:
            worse = (
                ref.frequency.midpoint > untreated.frequency.midpoint
                and ref.consequence.midpoint > untreated.consequence.midpoint
            )
            if not worse:
                return f"state S{index} missing but not pruned"
            continue
        freq, cons = states[index]
        if info["format"] == "json":
            ok = _json_value(freq) == (ref.frequency.lo, ref.frequency.hi) and _json_value(
                cons
            ) == (ref.consequence.lo, ref.consequence.hi)
        else:
            ok = (freq, cons) == (str(ref.frequency), str(ref.consequence))
        if not ok:
            return f"state S{index} reads ({freq}, {cons}), calculus gives ({ref.frequency}, {ref.consequence})"

    if info["format"] == "dot":
        expected = {
            (a, a | 1 << i, c)
            for a in states
            for i, c in enumerate(cms)
            if not a >> i & 1 and a | 1 << i in states
        }
        if edges != expected:
            return f"{len(edges)} edges, {len(edges ^ expected)} differ from the one-step supersets"
    return None


def _json_value(v) -> tuple[float, float]:
    return (v[0], v[1]) if isinstance(v, list) else (v, v)


def check_simulate(req: Request, out: str, code: int) -> str | None:
    doc = json.loads(out)
    info = req.info
    alt = frozenset(c.id for c in req.model.countermeasures)
    calc = propagate(req.model, alt)[info["vertex"]].frequency.lo
    if doc["calculus_value"] != calc:
        return f"calculus_value {doc['calculus_value']} != propagate {calc}"
    if doc["rule"] != info["rule"] or doc["runs"] != info["runs"]:
        return "verdict echoes the wrong rule or run count"
    if not (math.isfinite(doc["z"]) and doc["std_error"] > 0):
        return f"degenerate statistics z={doc['z']} se={doc['std_error']}"
    if doc["pass"] != (abs(doc["z"]) <= 3.0):
        return "pass flag disagrees with z"
    return None


def check_author(req: Request, out: str, code: int) -> str | None:
    model, kind = req.model, req.info["request"]
    if kind == "validate":
        return None if out == "" else "validate printed to stdout"
    if kind == "export_json":
        return None if dsl.from_json(out) == model else "JSON export does not load back"
    if kind == "export_dsl":
        return None if dsl.parse(out) == model else "DSL export does not parse back"
    doc = json.loads(out)
    ref = propagate(model, frozenset(req.info["with"]))
    if set(doc) != set(ref):
        return "propagate output covers the wrong vertices"
    for vid, r in ref.items():
        got = doc[vid]
        if _json_value(got["frequency"]) != (r.frequency.lo, r.frequency.hi):
            return f"frequency of {vid} differs"
        if _json_value(got["consequence"]) != (r.consequence.lo, r.consequence.hi):
            return f"consequence of {vid} differs"
    return None


CHECKERS = {
    "select": check_select,
    "analyze": check_analyze,
    "simulate": check_simulate,
    "author": check_author,
}


def check(req: Request, out: str, code: int | None) -> str | None:
    """None when the answer is right, otherwise why it is not."""
    if code not in req.expect:
        return f"exit code {code}, expected one of {sorted(req.expect)}"
    try:
        return CHECKERS[req.kind](req, out, code)
    except (ValueError, KeyError, TypeError, IndexError) as e:
        return f"unreadable answer: {type(e).__name__}: {e}"


_FLOAT = re.compile(r"(?<![\w.])-?\d+\.\d+(?:[eE][+-]?\d+)?|(?<![\w.])-?\d+[eE][+-]?\d+")


def digest(out: str, code: int | None) -> str:
    """Digest of an answer with every decimal rounded to nine significant
    digits, so that a change in summation order does not alter it but a
    change in the answer, or in the oracle's random draws, does."""
    text = _FLOAT.sub(lambda m: format(float(m[0]), ".9g"), out)
    return hashlib.sha256(f"{code}\n{text}".encode()).hexdigest()[:16]

"""Monte Carlo history semantics: sample timed-event histories from a point
model and check each propagation rule against its empirical frequency."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .calculus import Alternative, effective_effect, evaluation_plan, propagate
from .intervals import Interval
from .model import (
    Countermeasure,
    DependsRel,
    Frequency,
    InitiateRel,
    LeadsToRel,
    MergePolicy,
    Period,
    RiskModel,
    TreatsRel,
    Vertex,
    VertexKind,
    is_known_valid,
    mark_valid,
    validate,
)

RNG_ALGORITHM = "numpy-pcg64"

RULES = ("leads_to", "separate", "exclusive", "cm_effect", "cm_dependency")


class OracleError(Exception):
    pass


class ImpactMap:
    """Consequence of one event class as a function of the applied countermeasures.

    Realizes the declared consequence-reduction effects multiplicatively, in
    countermeasure-id order. Each effect lies in [0,1] and rounding is monotone,
    so the map is antitone: more countermeasures never increase the consequence.
    """

    def __init__(self, base: float, effects: dict[str, float]):
        for c, e in effects.items():
            if not 0.0 <= e <= 1.0:
                raise OracleError(
                    f"impact map not antitone: effect {e:g} of {c!r} is outside [0,1]"
                )
        self.base = base
        self.effects = dict(sorted(effects.items()))

    def __call__(self, cs: frozenset) -> float:
        value = self.base
        for c, e in self.effects.items():
            if c in cs:
                value *= 1.0 - e
        return value


@dataclass(frozen=True, slots=True)
class TimedEvent:
    event_class: str
    time: float
    countermeasures: frozenset
    impact: ImpactMap


@dataclass(frozen=True)
class History:
    """Finite time-ordered record of events up to a horizon."""

    events: tuple[TimedEvent, ...]
    horizon: float

    def __post_init__(self):
        if self.horizon < 0:
            raise OracleError("horizon must be nonnegative")
        last = 0.0
        for e in self.events:
            if e.time < last:
                raise OracleError("events out of time order")
            if e.time > self.horizon:
                raise OracleError("event beyond the horizon")
            last = e.time


def truncate(history: History, t: float) -> History:
    """Keep events with time <= t; the horizon shrinks to t."""
    if not 0 <= t <= history.horizon:
        raise OracleError(f"truncation point {t} outside [0, {history.horizon}]")
    return History(tuple(e for e in history.events if e.time <= t), t)


def filter_events(history: History, predicate: Callable[[TimedEvent], bool]) -> History:
    """Keep events matching the predicate, preserving order."""
    return History(tuple(e for e in history.events if predicate(e)), history.horizon)


def empirical_frequency(history: History, event_class: str, cs: Alternative) -> float:
    """Events of the class untreated by any countermeasure in cs, per time unit."""
    if history.horizon == 0:
        return 0.0
    n = sum(
        1
        for e in history.events
        if e.event_class == event_class and not (e.countermeasures & cs)
    )
    return n / history.horizon


def empirical_consequence(history: History, event_class: str, cs: Alternative) -> float:
    """Mean impact under cs over the class's untreated events; 0 when none."""
    impacts = [
        e.impact(frozenset(cs))
        for e in history.events
        if e.event_class == event_class and not (e.countermeasures & cs)
    ]
    if not impacts:
        return 0.0
    return sum(impacts) / len(impacts)


def _check_point_model(model: RiskModel):
    if not is_known_valid(model):
        errors = [d for d in validate(model) if d.is_error]
        if errors:
            raise OracleError("invalid model: " + "; ".join(d.message for d in errors))
        mark_valid(model)
    if not model.is_point_valued():
        raise OracleError("the history sampler runs on point-valued models only")
    for v in model.core_vertices:
        if v.merge_policy is MergePolicy.OVERLAPPING:
            raise OracleError(
                f"vertex {v.id!r}: no generative model for overlapping event classes"
            )


def generate_history(
    model: RiskModel, alternative: Alternative, horizon: float, seed: int
) -> History:
    """Sample one history of the model under the given alternative.

    Initiate relations emit Poisson processes at their declared rates (one time
    unit = the model's base period). Each leads-to relation spawns, per
    surviving source event, a Poisson-distributed number of target events at
    the source's timestamp. Events at treated vertices are tagged with each
    selected countermeasure independently, with probability equal to its
    effective frequency effect, so filtering out tagged events reproduces the
    calculus residual. Deterministic for a fixed (seed, parameters) pair.
    """
    _check_point_model(model)
    if horizon <= 0:
        raise OracleError("horizon must be positive")
    rng = np.random.default_rng(seed)

    all_times: list[np.ndarray] = []
    all_classes: list[np.ndarray] = []
    all_tags: list[list[frozenset]] = []
    surviving: dict[str, np.ndarray] = {}
    impact_maps: dict[str, ImpactMap] = {}

    for v, initiates, leadsto, treats in evaluation_plan(model):
        base = v.consequence.lo if v.consequence is not None else 0.0
        impact_maps[v.id] = ImpactMap(base, {t.countermeasure: t.cons_effect.lo for t in treats})
        incoming: list[np.ndarray] = []
        for r in initiates:
            rate = r.frequency.per_period(model.base_period).lo
            n = rng.poisson(rate * horizon)
            incoming.append(np.sort(rng.uniform(0.0, horizon, size=n)))
        for r in leadsto:
            src = surviving[r.source]
            counts = rng.poisson(r.likelihood.lo, size=len(src))
            incoming.append(np.repeat(src, counts))
        if not incoming:
            times = np.empty(0)
        elif v.merge_policy is MergePolicy.EXCLUSIVE:
            # Mutually exclusive contributions denote the same event class
            # reached along different paths: realize the identical-set case.
            times = incoming[0]
        else:
            times = np.sort(np.concatenate(incoming))

        treats_here = [t for t in treats if t.countermeasure in alternative]
        tagged = np.zeros(len(times), dtype=bool)
        tags: list[frozenset] = [frozenset()] * len(times)
        if treats_here:
            tag_matrix = np.zeros((len(treats_here), len(times)), dtype=bool)
            for i, t in enumerate(treats_here):
                e_f, _ = effective_effect(t, alternative, model.depends)
                tag_matrix[i] = rng.random(len(times)) < e_f.lo
            tagged = tag_matrix.any(axis=0)
            cms = [t.countermeasure for t in treats_here]
            cache: dict[tuple, frozenset] = {}
            for j in range(len(times)):
                key = tuple(tag_matrix[:, j])
                if key not in cache:
                    cache[key] = frozenset(c for c, on in zip(cms, key) if on)
                tags[j] = cache[key]

        surviving[v.id] = times[~tagged]
        all_times.append(times)
        all_classes.append(np.full(len(times), v.id, dtype=object))
        all_tags.append(tags)

    times = np.concatenate(all_times) if all_times else np.empty(0)
    classes = np.concatenate(all_classes) if all_classes else np.empty(0, dtype=object)
    tags_flat = [t for ts in all_tags for t in ts]
    order = np.argsort(times, kind="stable")
    events = tuple(
        TimedEvent(classes[i], float(times[i]), tags_flat[i], impact_maps[classes[i]])
        for i in order
    )
    return History(events, horizon)


@dataclass(frozen=True)
class Verdict:
    rule: str
    runs: int
    horizon: float
    calculus_value: float
    empirical_mean: float
    std_error: float
    z: float
    passed: bool

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "runs": self.runs,
            "horizon": self.horizon,
            "calculus_value": self.calculus_value,
            "empirical_mean": self.empirical_mean,
            "std_error": self.std_error,
            "z": self.z,
            "pass": self.passed,
            "rng": RNG_ALGORITHM,
        }


def conclusion_vertex(model: RiskModel) -> str:
    """The sink core vertex where a rule instance's conclusion is read off."""
    sources = {r.source for r in model.leadsto}
    sinks = [v.id for v in model.core_vertices if v.id not in sources]
    if len(sinks) != 1:
        raise OracleError(f"rule instance must have exactly one sink, found {sinks}")
    return sinks[0]


def random_rule_instance(rule: str, rng: np.random.Generator) -> RiskModel:
    """A small randomized point model exercising one propagation rule."""
    period = Period(1, "y")

    def point(x: float) -> Interval:
        return Interval.point(round(float(x), 3))

    def freq(x: float) -> Frequency:
        return Frequency(point(x), period)

    f = rng.uniform(0.5, 3.0)
    r = rng.uniform(0.2, 1.2)
    if rule == "leads_to":
        return RiskModel(
            name="leads_to",
            base_period=period,
            vertices=(
                Vertex("T", VertexKind.THREAT),
                Vertex("A", VertexKind.THREAT_SCENARIO),
                Vertex("B", VertexKind.UNWANTED_INCIDENT, consequence=point(1.0)),
            ),
            initiates=(InitiateRel("T", "A", freq(f)),),
            leadsto=(LeadsToRel("A", "B", point(r)),),
        )
    if rule == "separate":
        f2, r2 = rng.uniform(0.5, 3.0), rng.uniform(0.2, 1.2)
        return RiskModel(
            name="separate",
            base_period=period,
            vertices=(
                Vertex("T1", VertexKind.THREAT),
                Vertex("T2", VertexKind.THREAT),
                Vertex("A", VertexKind.THREAT_SCENARIO),
                Vertex("B", VertexKind.THREAT_SCENARIO),
                Vertex("C", VertexKind.UNWANTED_INCIDENT, consequence=point(1.0)),
            ),
            initiates=(InitiateRel("T1", "A", freq(f)), InitiateRel("T2", "B", freq(f2))),
            leadsto=(LeadsToRel("A", "C", point(r)), LeadsToRel("B", "C", point(r2))),
        )
    if rule == "exclusive":
        # Both paths must contribute the same frequency to the exclusive vertex.
        return RiskModel(
            name="exclusive",
            base_period=period,
            vertices=(
                Vertex("T1", VertexKind.THREAT),
                Vertex("T2", VertexKind.THREAT),
                Vertex("A", VertexKind.THREAT_SCENARIO),
                Vertex("B", VertexKind.THREAT_SCENARIO),
                Vertex(
                    "C",
                    VertexKind.UNWANTED_INCIDENT,
                    consequence=point(1.0),
                    merge_policy=MergePolicy.EXCLUSIVE,
                ),
            ),
            initiates=(InitiateRel("T1", "A", freq(f)), InitiateRel("T2", "B", freq(f))),
            leadsto=(LeadsToRel("A", "C", point(r)), LeadsToRel("B", "C", point(r))),
        )
    e = rng.uniform(0.1, 0.9)
    if rule == "cm_effect":
        return RiskModel(
            name="cm_effect",
            base_period=period,
            vertices=(
                Vertex("T", VertexKind.THREAT),
                Vertex("A", VertexKind.UNWANTED_INCIDENT, consequence=point(1.0)),
            ),
            initiates=(InitiateRel("T", "A", freq(f)),),
            countermeasures=(Countermeasure("c", expenditure=0.0, per=period),),
            treats=(TreatsRel("c", "A", point(e), point(0.0)),),
        )
    if rule == "cm_dependency":
        d = rng.uniform(0.1, 0.9)
        return RiskModel(
            name="cm_dependency",
            base_period=period,
            vertices=(
                Vertex("T", VertexKind.THREAT),
                Vertex("A", VertexKind.UNWANTED_INCIDENT, consequence=point(1.0)),
            ),
            initiates=(InitiateRel("T", "A", freq(f)),),
            countermeasures=(
                Countermeasure("c", expenditure=0.0, per=period),
                Countermeasure("cdep", expenditure=0.0, per=period),
            ),
            treats=(TreatsRel("c", "A", point(e), point(0.0)),),
            depends=(DependsRel("cdep", "c", "A", point(d), point(0.0)),),
        )
    raise OracleError(f"unknown rule {rule!r}; expected one of {RULES}")


def check_rule(
    rule: str,
    instance: RiskModel,
    runs: int = 100,
    horizon: float = 10000.0,
    seed: int = 0,
) -> Verdict:
    """Compare the calculus against the empirical frequency at the conclusion
    vertex over independent histories; pass iff within 3 standard errors."""
    if rule not in RULES:
        raise OracleError(f"unknown rule {rule!r}; expected one of {RULES}")
    _check_point_model(instance)
    if len(instance.core_vertices) > 6:
        raise OracleError("rule instances are limited to 6 core vertices")
    alternative = frozenset(c.id for c in instance.countermeasures)
    vertex = conclusion_vertex(instance)
    calc = propagate(instance, alternative)[vertex].frequency.lo

    seeds = np.random.SeedSequence(seed).generate_state(runs)
    estimates = np.array(
        [
            empirical_frequency(
                generate_history(instance, alternative, horizon, int(s)), vertex, alternative
            )
            for s in seeds
        ]
    )
    mean = float(estimates.mean())
    se = float(estimates.std(ddof=1) / math.sqrt(runs)) if runs > 1 else 0.0
    if se == 0.0:
        z = 0.0 if mean == calc else math.inf
    else:
        z = (mean - calc) / se
    return Verdict(rule, runs, horizon, calc, mean, se, float(z), abs(z) <= 3.0)

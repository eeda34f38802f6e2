"""Monte Carlo history semantics: sample timed-event histories from a point
model and check each propagation rule against its empirical frequency."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from itertools import compress
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
    known_diagnostics,
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
    if known_diagnostics(model) is None:
        diagnostics = validate(model)
        errors = [d for d in diagnostics if d.is_error]
        if errors:
            raise OracleError("invalid model: " + "; ".join(d.message for d in errors))
        mark_valid(model, diagnostics)
    if not model.is_point_valued():
        raise OracleError("the history sampler runs on point-valued models only")
    for v in model.core_vertices:
        if v.merge_policy is MergePolicy.OVERLAPPING:
            raise OracleError(
                f"vertex {v.id!r}: no generative model for overlapping event classes"
            )


# numpy's Poisson sampler refuses a larger mean. A mean below it also keeps
# the draws and their sums inside int64.
_POISSON_MAX = float(np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10)


def _drawable(relation: InitiateRel | LeadsToRel, expected: float, per: str) -> float:
    if not expected <= _POISSON_MAX:
        kind = "initiate" if isinstance(relation, InitiateRel) else "leadsto"
        raise OracleError(
            f"{kind} {relation.source}->{relation.target}: expected {expected:g} events"
            f" {per}, above numpy's Poisson limit {_POISSON_MAX:.4g}"
        )
    return expected


def _sample(model: RiskModel, alternative: Alternative, horizon: float, seeds, counts=False):
    """Per seed, the sampled events of every core vertex and those that survive.

    Checks and compiles the model once (the plan, expected initiate counts,
    likelihoods and the effective effects of the selected treats relations),
    then yields ``(samples, surviving)`` per seed: ``samples`` lists ``(vertex,
    treats, events, tags)`` in plan order, one boolean row of ``tags`` per
    selected treats relation; ``surviving`` maps vertex ids to the untagged
    events. The events are sorted times, or with ``counts`` only their number.
    Both modes make the same draws, so their counts and tags are equal.
    """
    _check_point_model(model)
    if not 0 < horizon < math.inf:  # also NaN
        raise OracleError(f"horizon must be finite and positive, not {horizon}")
    compiled = [
        (
            v,
            treats,
            [
                _drawable(
                    r, r.frequency.per_period(model.base_period).lo * horizon, "over the horizon"
                )
                for r in initiates
            ],
            [(r, _drawable(r, r.likelihood.lo, "per source event")) for r in leadsto],
            np.reshape(
                [
                    effective_effect(t, alternative, model.depends)[0].lo
                    for t in treats
                    if t.countermeasure in alternative
                ],
                (-1, 1),
            ),
        )
        for v, initiates, leadsto, treats in evaluation_plan(model)
    ]
    for seed in seeds:
        rng = np.random.default_rng(seed)
        samples = []
        surviving: dict[str, np.ndarray | int] = {}
        for v, treats, expected, sources, effects in compiled:
            incoming = []
            for n in expected:
                k = rng.poisson(n)
                if counts:
                    # Skip the k uniforms of the times: Generator.uniform takes
                    # one 64-bit draw per double, and PCG64 jumps ahead.
                    rng.bit_generator.advance(k)
                    incoming.append(k)
                else:
                    incoming.append(np.sort(rng.uniform(0.0, horizon, size=k)))
            for r, likelihood in sources:
                src = surviving[r.source]
                n = src if counts else len(src)
                _drawable(r, likelihood * n, f"from {n} source events")
                spawned = rng.poisson(likelihood, size=n)
                incoming.append(int(spawned.sum()) if counts else np.repeat(src, spawned))
            if not incoming:
                events = 0 if counts else np.empty(0)
            elif v.merge_policy is MergePolicy.EXCLUSIVE:
                # Mutually exclusive contributions denote the same event class
                # reached along different paths: realize the identical-set case.
                events = incoming[0]
            else:
                events = sum(incoming) if counts else np.sort(np.concatenate(incoming))
            # rng.random fills row by row: the draws of one call per selected
            # treats relation, in plan order.
            tags = rng.random((len(effects), events if counts else len(events))) < effects
            if not counts:
                surviving[v.id] = events[~tags.any(axis=0)]
            elif len(tags):  # without a row, tags.any would allocate one bool per event
                surviving[v.id] = events - np.count_nonzero(tags.any(axis=0))
            else:
                surviving[v.id] = events
            samples.append((v, treats, events, tags))
        yield samples, surviving


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
    # The sampler keeps a mutually exclusive vertex's first contribution, so
    # check first that they agree: propagate raises CalculusError otherwise.
    propagate(model, alternative)
    ((samples, _),) = _sample(model, alternative, horizon, [seed])
    events = []
    for v, treats, times, tags in samples:
        base = v.consequence.lo if v.consequence is not None else 0.0
        impact = ImpactMap(base, {t.countermeasure: t.cons_effect.lo for t in treats})
        cms = [t.countermeasure for t in treats if t.countermeasure in alternative]
        for time, column in zip(times, tags.T):
            events.append(TimedEvent(v.id, float(time), frozenset(compress(cms, column)), impact))
    events.sort(key=lambda e: e.time)
    return History(tuple(events), horizon)


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
        doc = asdict(self)
        doc["pass"] = doc.pop("passed")
        if not math.isfinite(self.z):  # no z at zero spread: strict JSON has no inf
            doc["z"] = None
        return doc | {"rng": RNG_ALGORITHM}


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
    if rule in ("separate", "exclusive"):
        # Two paths into C; both must contribute the same frequency to an exclusive C.
        if rule == "separate":
            f2, r2 = rng.uniform(0.5, 3.0), rng.uniform(0.2, 1.2)
        else:
            f2, r2 = f, r
        merge = MergePolicy.EXCLUSIVE if rule == "exclusive" else MergePolicy.SEPARATE
        return RiskModel(
            name=rule,
            base_period=period,
            vertices=(
                Vertex("T1", VertexKind.THREAT),
                Vertex("T2", VertexKind.THREAT),
                Vertex("A", VertexKind.THREAT_SCENARIO),
                Vertex("B", VertexKind.THREAT_SCENARIO),
                Vertex(
                    "C", VertexKind.UNWANTED_INCIDENT, consequence=point(1.0), merge_policy=merge
                ),
            ),
            initiates=(InitiateRel("T1", "A", freq(f)), InitiateRel("T2", "B", freq(f2))),
            leadsto=(LeadsToRel("A", "C", point(r)), LeadsToRel("B", "C", point(r2))),
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
    if runs < 2:  # the standard error needs two runs
        raise OracleError(f"runs must be at least 2, not {runs}")
    if seed < 0:
        raise OracleError(f"seed must be nonnegative, not {seed}")
    _check_point_model(instance)
    if len(instance.core_vertices) > 6:
        raise OracleError("rule instances are limited to 6 core vertices")
    alternative = frozenset(c.id for c in instance.countermeasures)
    vertex = conclusion_vertex(instance)
    calc = propagate(instance, alternative)[vertex].frequency.lo

    # Every tag comes from a selected countermeasure, so the survivors are the
    # untreated events that empirical_frequency counts.
    seeds = map(int, np.random.SeedSequence(seed).generate_state(runs))
    samples = _sample(instance, alternative, horizon, seeds, counts=True)
    estimates = np.array([surviving[vertex] / horizon for _, surviving in samples])
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        mean = float(estimates.mean())
        se = float(estimates.std(ddof=1) / math.sqrt(runs))
    if not math.isfinite(mean + se):
        raise OracleError(
            f"vertex {vertex!r}: the empirical frequency overflows (mean {mean:g},"
            f" standard error {se:g})"
        )
    if se == 0.0:
        z = 0.0 if mean == calc else math.copysign(math.inf, mean - calc)
    else:
        z = (mean - calc) / se
    return Verdict(rule, runs, horizon, calc, mean, se, float(z), abs(z) <= 3.0)

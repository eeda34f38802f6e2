"""Domain types for annotated risk graphs, validation, and period normalization."""

from __future__ import annotations

import enum
import heapq
import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Optional

from .intervals import Interval

# Calendar convention: 30-day months, 360-day years, so 12 months == 1 year.
_UNIT_DAYS = {"d": 1.0, "m": 30.0, "y": 360.0}


class VertexKind(enum.Enum):
    THREAT = "threat"
    THREAT_SCENARIO = "scenario"
    UNWANTED_INCIDENT = "incident"
    ASSET = "asset"


class MergePolicy(enum.Enum):
    SEPARATE = "separate"
    EXCLUSIVE = "exclusive"
    OVERLAPPING = "overlapping"


CORE_KINDS = (VertexKind.THREAT_SCENARIO, VertexKind.UNWANTED_INCIDENT)


@dataclass(frozen=True)
class Period:
    """A span of time, e.g. 10 years; the denominator of every rate."""

    magnitude: int
    unit: str  # "d", "m" or "y"

    def __post_init__(self):
        if self.magnitude <= 0:
            raise ValueError("period magnitude must be positive")
        if self.unit not in _UNIT_DAYS:
            raise ValueError(f"unknown period unit {self.unit!r}")
        try:
            finite = math.isfinite(self.days)
        except OverflowError:  # a magnitude beyond the float range
            finite = False
        if not finite:
            raise ValueError("period too long: its length in days is not a finite float")

    @property
    def days(self) -> float:
        return self.magnitude * _UNIT_DAYS[self.unit]

    def rescale(self, value: float, target: Period) -> float:
        """``value`` per this period as a value per ``target``: the product with
        the target's days first, and the ratio of the days first only where that
        product is not finite, so that every finite result keeps its bits."""
        scaled = value * target.days / self.days
        return scaled if math.isfinite(scaled) else value * (target.days / self.days)

    def __str__(self) -> str:
        return f"{self.magnitude}{self.unit}"


@dataclass(frozen=True)
class Frequency:
    """Occurrence count per period, e.g. 30:10y."""

    occurrences: Interval
    per: Period

    def __post_init__(self):
        if self.occurrences.lo < 0:
            raise ValueError("frequency must be nonnegative")

    def per_period(self, target: Period) -> Interval:
        """Occurrence interval rescaled to the target period."""
        return self.occurrences.scale(target.days / self.per.days)

    def __str__(self) -> str:
        return f"{self.occurrences}:{self.per}"


@dataclass(frozen=True)
class Vertex:
    id: str
    kind: VertexKind
    label: str = ""
    consequence: Optional[Interval] = None  # incidents only, money per occurrence
    merge_policy: MergePolicy = MergePolicy.SEPARATE


@dataclass(frozen=True)
class InitiateRel:
    source: str  # threat
    target: str  # core vertex
    frequency: Frequency
    via: str = ""  # exploited vulnerability, informational only


@dataclass(frozen=True)
class LeadsToRel:
    source: str
    target: str
    likelihood: Interval  # conditional, nonnegative; > 1 allowed outside CORAS mode
    via: str = ""


@dataclass(frozen=True)
class Countermeasure:
    id: str
    label: str = ""
    expenditure: float = 0.0
    per: Period = Period(1, "y")

    def __post_init__(self):
        if self.expenditure < 0:
            raise ValueError("expenditure must be nonnegative")

    def expenditure_per(self, target: Period) -> float:
        return self.per.rescale(self.expenditure, target)


@dataclass(frozen=True)
class TreatsRel:
    countermeasure: str
    target: str
    freq_effect: Interval  # within [0,1]
    cons_effect: Interval  # within [0,1]

    @property
    def key(self) -> tuple:
        return (self.countermeasure, self.target)


@dataclass(frozen=True)
class DependsRel:
    countermeasure: str  # the depending countermeasure
    treats_countermeasure: str
    treats_target: str
    freq_dep: Interval  # within [0,1]
    cons_dep: Interval  # within [0,1]

    @property
    def treats_key(self) -> tuple:
        return (self.treats_countermeasure, self.treats_target)


@dataclass(frozen=True)
class ImpactRel:
    source: str  # incident
    target: str  # asset


@dataclass(frozen=True)
class AcceptanceCriterion:
    risk: str  # incident id
    max_frequency: Optional[Frequency] = None
    max_risk_cost: Optional[float] = None  # money per max_risk_cost_per
    max_risk_cost_per: Optional[Period] = None

    def bounds(self, base: Period) -> tuple[Optional[float], Optional[float]]:
        """(max frequency midpoint, max risk cost) per base period; None if unbounded."""
        return (
            None if self.max_frequency is None else self.max_frequency.per_period(base).midpoint,
            None
            if self.max_risk_cost is None
            else self.max_risk_cost_per.rescale(self.max_risk_cost, base),
        )


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" or "warning"
    message: str
    subject: object = field(default=None, compare=False, repr=False)  # the record at fault

    @property
    def is_error(self) -> bool:
        return self.severity == "error"

    def __str__(self) -> str:
        return f"{self.severity}: {self.message}"


@dataclass(frozen=True)
class RiskModel:
    """An annotated risk graph: vertices, relations, countermeasures and criteria."""

    name: str
    base_period: Period
    # Collections in the order both the DSL and its JSON mirror write them.
    vertices: tuple[Vertex, ...] = ()
    initiates: tuple[InitiateRel, ...] = ()
    leadsto: tuple[LeadsToRel, ...] = ()
    impacts: tuple[ImpactRel, ...] = ()
    countermeasures: tuple[Countermeasure, ...] = ()
    treats: tuple[TreatsRel, ...] = ()
    depends: tuple[DependsRel, ...] = ()
    criteria: tuple[AcceptanceCriterion, ...] = ()

    def vertex(self, vid: str) -> Vertex:
        for v in self.vertices:
            if v.id == vid:
                return v
        raise KeyError(f"unknown vertex {vid!r}")

    def countermeasure(self, cid: str) -> Countermeasure:
        for c in self.countermeasures:
            if c.id == cid:
                return c
        raise KeyError(f"unknown countermeasure {cid!r}")

    def has_vertex(self, vid: str) -> bool:
        return any(v.id == vid for v in self.vertices)

    @property
    def core_vertices(self) -> tuple[Vertex, ...]:
        return tuple(v for v in self.vertices if v.kind in CORE_KINDS)

    @property
    def incidents(self) -> tuple[Vertex, ...]:
        return tuple(v for v in self.vertices if v.kind is VertexKind.UNWANTED_INCIDENT)

    def intervals(self) -> Iterator[tuple[object, str, Interval]]:
        """(record, description, value) of every interval annotation: frequencies
        per base period, likelihoods, effects, dependencies and consequences."""
        base = self.base_period
        for r in self.initiates:
            yield r, f"initiate {r.source}->{r.target} frequency", r.frequency.per_period(base)
        for r in self.leadsto:
            yield r, f"leadsto {r.source}->{r.target} likelihood", r.likelihood
        for t in self.treats:
            yield t, f"treats {t.countermeasure}->{t.target} frequency effect", t.freq_effect
            yield t, f"treats {t.countermeasure}->{t.target} consequence effect", t.cons_effect
        for d in self.depends:
            yield d, f"depends {d.countermeasure} frequency dependency", d.freq_dep
            yield d, f"depends {d.countermeasure} consequence dependency", d.cons_dep
        for v in self.vertices:
            if v.consequence is not None:
                yield v, f"consequence of {v.id!r}", v.consequence

    def is_point_valued(self) -> bool:
        """True when every interval annotation is a point (width-0) interval."""
        return all(iv.is_point for _, _, iv in self.intervals())


def topological_order(
    nodes: Iterable[str], edges: Iterable[tuple[str, str]]
) -> tuple[list[str], dict[str, list[str]]]:
    """Kahn's algorithm (Kahn, 1962) with ties broken by the smallest id.

    Returns the smallest topological order of ``nodes`` and each node's
    successors, one entry per edge; edges with an endpoint outside ``nodes``
    are ignored. The order leaves out exactly the nodes on a cycle or reachable
    from one, so it holds every node iff the graph is acyclic.
    """
    succ: dict[str, list[str]] = {n: [] for n in nodes}
    indeg = dict.fromkeys(succ, 0)
    for a, b in edges:
        if a in succ and b in succ:
            succ[a].append(b)
            indeg[b] += 1
    ready = [n for n, d in indeg.items() if d == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        n = heapq.heappop(ready)
        order.append(n)
        for m in succ[n]:
            indeg[m] -= 1
            if indeg[m] == 0:
                heapq.heappush(ready, m)
    return order, succ


def validate(model: RiskModel, coras: bool = False) -> list[Diagnostic]:
    """Check all structural invariants; returns diagnostics, never raises.

    With coras=True, leads-to likelihoods above 1 are errors instead of
    warnings (the CORAS reading restricts them to [0,1]).
    """
    diags: list[Diagnostic] = []

    def err(msg: str, subject: object):
        diags.append(Diagnostic("error", msg, subject))

    def warn(msg: str, subject: object):
        diags.append(Diagnostic("warning", msg, subject))

    seen: set[str] = set()
    for v in model.vertices:
        if v.id in seen:
            err(f"duplicate id {v.id!r}", v)
        seen.add(v.id)
        if v.kind is VertexKind.UNWANTED_INCIDENT:
            if v.consequence is None:
                err(f"incident {v.id!r} has no consequence", v)
            elif v.consequence.lo < 0:
                err(f"incident {v.id!r} has negative consequence", v)
        elif v.consequence is not None:
            err(f"{v.kind.value} {v.id!r} must not carry a consequence", v)
    cm_seen: set[str] = set()
    for c in model.countermeasures:
        if c.id in seen or c.id in cm_seen:
            err(f"duplicate id {c.id!r}", c)
        cm_seen.add(c.id)
    declared = (*model.vertices, *model.countermeasures)
    for x in declared:
        if not (x.id.isascii() and x.id.isidentifier()):  # [A-Za-z_][A-Za-z0-9_]*, as in the DSL
            err(f"id {x.id!r} is not an identifier", x)
    texts = [(None, model.name), *((x, x.label) for x in declared)]
    texts += [(r, r.via) for r in (*model.initiates, *model.leadsto)]
    for subject, text in texts:
        # The DSL quotes a text on one line. No line break is printable, and
        # str.splitlines knows every one.
        if '"' in text or (not text.isprintable() and "".join(text.splitlines()) != text):
            err(f"text {text!r} contains a double quote or a line break", subject)

    kinds: dict[str, VertexKind] = {}
    for v in model.vertices:
        kinds.setdefault(v.id, v.kind)  # the first declaration, as model.vertex finds it
    core_ids = {v.id for v in model.core_vertices}

    for r in model.initiates:
        if r.source not in kinds or r.target not in kinds:
            err(f"initiate {r.source}->{r.target} references an undeclared vertex", r)
            continue
        if kinds[r.source] is not VertexKind.THREAT:
            err(f"initiate source {r.source!r} is not a threat", r)
        if r.target not in core_ids:
            err(f"initiate target {r.target!r} is not a scenario or incident", r)

    for r in model.leadsto:
        if r.source not in kinds or r.target not in kinds:
            err(f"leadsto {r.source}->{r.target} references an undeclared vertex", r)
            continue
        if r.source not in core_ids or r.target not in core_ids:
            err(f"leadsto {r.source}->{r.target} must connect core vertices", r)
        if r.likelihood.lo < 0:
            err(f"leadsto {r.source}->{r.target} likelihood must be >= 0", r)
        elif r.likelihood.hi > 1:
            if coras:
                err(f"leadsto {r.source}->{r.target} likelihood exceeds 1 (CORAS mode)", r)
            else:
                warn(f"leadsto {r.source}->{r.target} likelihood exceeds 1", r)

    for r in model.impacts:
        if r.source not in kinds or r.target not in kinds:
            err(f"impact {r.source}->{r.target} references an undeclared vertex", r)
            continue
        if kinds[r.source] is not VertexKind.UNWANTED_INCIDENT:
            err(f"impact source {r.source!r} is not an incident", r)
        if kinds[r.target] is not VertexKind.ASSET:
            err(f"impact target {r.target!r} is not an asset", r)

    unit_box = Interval(0.0, 1.0)
    treat_keys: set[tuple] = set()
    for t in model.treats:
        if t.countermeasure not in cm_seen:
            err(f"treats references undeclared countermeasure {t.countermeasure!r}", t)
        if t.target not in kinds:
            err(f"treats references undeclared vertex {t.target!r}", t)
        elif t.target not in core_ids:
            # The calculus only defines treatment of scenarios and incidents.
            err(f"treats target {t.target!r} is not a scenario or incident", t)
        for iv, what in ((t.freq_effect, "frequency"), (t.cons_effect, "consequence")):
            if not unit_box.contains(iv):
                err(f"treats {t.countermeasure}->{t.target} {what} effect outside [0,1]", t)
        if t.key in treat_keys:
            err(f"duplicate treats relation {t.countermeasure}->{t.target}", t)
        treat_keys.add(t.key)

    for d in model.depends:
        if d.countermeasure not in cm_seen:
            err(f"depends references undeclared countermeasure {d.countermeasure!r}", d)
        if d.treats_key not in treat_keys:
            err(
                f"depends references missing treats relation "
                f"{d.treats_countermeasure}->{d.treats_target}",
                d,
            )
        if d.countermeasure == d.treats_countermeasure:
            err(f"countermeasure {d.countermeasure!r} cannot depend on its own effect", d)
        for iv, what in ((d.freq_dep, "frequency"), (d.cons_dep, "consequence")):
            if not unit_box.contains(iv):
                err(f"depends {d.countermeasure} {what} dependency outside [0,1]", d)

    # Numbers are checked as the calculus uses them, rescaled to the base period.
    numbers = list(model.intervals()) + [
        (c, f"expenditure of {c.id!r}", Interval.point(c.expenditure_per(model.base_period)))
        for c in model.countermeasures
    ]
    risks: set[str] = set()
    for a in model.criteria:
        if a.risk in risks:
            err(f"duplicate acceptance criterion for {a.risk!r}", a)
        risks.add(a.risk)
        if a.risk not in kinds:
            err(f"acceptance criterion references undeclared vertex {a.risk!r}", a)
        elif kinds[a.risk] is not VertexKind.UNWANTED_INCIDENT:
            err(f"acceptance criterion target {a.risk!r} is not an incident", a)
        if a.max_frequency is None and a.max_risk_cost is None:
            err(f"acceptance criterion for {a.risk!r} has no bound", a)
        if a.max_risk_cost is not None and a.max_risk_cost_per is None:
            err(f"cost bound for {a.risk!r} has no period", a)
            continue
        for what, bound in zip(("frequency", "cost"), a.bounds(model.base_period)):
            if bound is not None:
                numbers.append((a, f"{what} bound for {a.risk!r}", Interval.point(bound)))
    for subject, what, iv in numbers:
        if not (math.isfinite(iv.lo) and math.isfinite(iv.hi)):
            err(f"{what} is not a finite number", subject)

    relations = (*model.initiates, *model.leadsto)
    edges = [(r.source, r.target) for r in relations]
    order, succ = topological_order(kinds, edges)
    if len(order) < len(kinds):
        # Every node left out has a predecessor left out; walking back through
        # them repeats a vertex, and the walk since its first visit is a cycle.
        left = kinds.keys() - order
        pred = {b: a for a, b in reversed(edges) if a in left and b in left}  # first edge wins
        walk: dict[str, int] = {}
        v = min(left)
        while v not in walk:
            walk[v] = len(walk)
            v = pred[v]
        cycle = list(walk)[walk[v] :][::-1]  # in edge direction
        start = cycle.index(min(cycle))
        cycle = cycle[start:] + cycle[:start]
        closing = next(r for r in relations if (r.source, r.target) == (cycle[-1], cycle[0]))
        err("cycle: " + ",".join(cycle), closing)
    elif not any(d.is_error for d in diags):
        # Reachability only makes sense on a DAG with resolved endpoints.
        reachable = {vid for vid, kind in kinds.items() if kind is VertexKind.THREAT}
        for a in order:
            if a in reachable:
                reachable.update(succ[a])
        for v in model.incidents:
            if v.id not in reachable:
                err(f"incident {v.id!r} is unreachable from every threat", v)

    overlapping = [v for v in model.core_vertices if v.merge_policy is MergePolicy.OVERLAPPING]
    if overlapping and model.is_point_valued():
        for v in overlapping:
            warn(
                f"vertex {v.id!r} merges overlapping contributions but the model is "
                f"point-valued; combined results will still be intervals",
                v,
            )

    return diags


def mark_valid(model: RiskModel, diagnostics: Iterable[Diagnostic] = ()) -> RiskModel:
    """Remember on the model that ``validate`` found no errors, and keep the
    diagnostics (warnings) it gave.

    Models are immutable, so the verdict holds for the object's lifetime;
    ``dataclasses.replace`` yields a new, unmarked model. A pass in CORAS mode
    implies a pass without it, so the mark means "valid outside CORAS mode".
    """
    object.__setattr__(model, "_diagnostics", tuple(diagnostics))
    return model


def known_diagnostics(model: RiskModel) -> Optional[tuple[Diagnostic, ...]]:
    """The diagnostics ``mark_valid`` kept, or None for a model not known valid."""
    return getattr(model, "_diagnostics", None)


def normalize(model: RiskModel, target: Period) -> RiskModel:
    """Rescale every rate and expenditure to the target period.

    Relative quantities (likelihoods, effects, dependencies) are untouched.
    """

    def freq(f: Frequency) -> Frequency:
        return Frequency(f.per_period(target), target)

    return replace(
        model,
        base_period=target,
        initiates=tuple(replace(r, frequency=freq(r.frequency)) for r in model.initiates),
        countermeasures=tuple(
            replace(c, expenditure=c.expenditure_per(target), per=target)
            for c in model.countermeasures
        ),
        criteria=tuple(
            replace(
                a,
                max_frequency=None if a.max_frequency is None else freq(a.max_frequency),
                max_risk_cost=a.bounds(target)[1],
                max_risk_cost_per=None if a.max_risk_cost is None else target,
            )
            for a in model.criteria
        ),
    )

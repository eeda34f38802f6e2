"""Seeded synthetic risk models for the benchmark workloads.

The generator lives beside the benchmark, not in the test suite, so that test
edits cannot change the benchmark's inputs. Every structural count (core
vertices, relations, countermeasures, treats, depends) is fixed by the
caller; only the wiring and the numbers come from the seed. The work a
request does therefore depends on its stated input size and not on the seed,
which keeps the run-to-run spread small.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from riskforge import (
    AcceptanceCriterion,
    Countermeasure,
    DependsRel,
    Frequency,
    InitiateRel,
    Interval,
    LeadsToRel,
    MergePolicy,
    Period,
    RiskModel,
    TreatsRel,
    Vertex,
    VertexKind,
    propagate,
    validate,
)
from riskforge.dsl import canonical

PERIOD = Period(1, "y")
DEPENDS_SHARE = 0.3
# Where a feasible outcome's bounds sit between the full-set and the
# untreated residual: low enough that most subsets fail, high enough that
# the ranking is never trivially short.
TIGHTNESS = 0.35
OUTCOMES = ("recommended", "over_budget", "no_feasible")


class GeneratorError(Exception):
    pass


def _num(rng: np.random.Generator, lo: float, hi: float) -> float:
    return round(float(rng.uniform(lo, hi)), 4)


def _value(
    rng: np.random.Generator, lo: float, hi: float, interval: bool, cap: float = math.inf
) -> Interval:
    a = _num(rng, lo, hi)
    if interval and rng.random() < 0.6:
        b = min(round(a * float(rng.uniform(1.05, 1.3)), 4), cap)
        if b > a:
            return Interval(a, b)
    return Interval.point(a)


def _freq(x: Interval) -> Frequency:
    return Frequency(x, PERIOD)


def _pick(rng: np.random.Generator, items: list, k: int) -> list:
    idx = rng.choice(len(items), size=k, replace=False)
    return [items[int(i)] for i in sorted(idx)]


@dataclass(frozen=True)
class Shape:
    """Structural counts of one generated model."""

    n_core: int
    n_cms: int
    interval: bool
    exclusive: bool  # include one exclusive fan-in whose contributions agree


def risk_graph(rng: np.random.Generator, shape: Shape, name: str) -> RiskModel:
    """A valid layered DAG with the exact counts of ``shape`` and no criteria.

    A third of the scenarios have two incoming relations (separate or
    overlapping fan-in), every incident has two, and with ``shape.exclusive``
    one scenario X has exclusive fan-in from two untreated scenarios A and B
    that both copy one source S with one likelihood, so the two contributions
    agree under every countermeasure subset.
    """
    iv = shape.interval
    n_inc = max(2, shape.n_core // 10)
    n_thr = max(2, shape.n_core // 8)
    n_scen = shape.n_core - n_inc
    if n_scen < n_thr + 4:
        raise GeneratorError(f"too few core vertices: {shape.n_core}")
    threats = [f"T{i:02d}" for i in range(n_thr)]
    scen = [f"V{i:03d}" for i in range(n_scen)]
    incs = [f"R{i:02d}" for i in range(n_inc)]

    policy: dict[str, MergePolicy] = {}
    initiates: list[InitiateRel] = []
    leadsto: list[LeadsToRel] = []
    untreatable: set[str] = set()

    gadget_at = None
    if shape.exclusive:
        gadget_at = n_thr + int(rng.integers(1, max(2, n_scen - n_thr - 3)))
    i = 0
    while i < n_scen:
        v = scen[i]
        if i < n_thr:
            initiates.append(InitiateRel(threats[i], v, _freq(_value(rng, 2.0, 20.0, iv))))
            i += 1
            continue
        if i == gadget_at:
            s = scen[int(rng.integers(max(0, i - 6), i))]
            a, b, x = scen[i], scen[i + 1], scen[i + 2]
            lik1 = _value(rng, 0.4, 0.9, iv)
            lik2 = _value(rng, 0.4, 0.9, iv)
            leadsto += [LeadsToRel(s, a, lik1), LeadsToRel(s, b, lik1)]
            leadsto += [LeadsToRel(a, x, lik2), LeadsToRel(b, x, lik2)]
            policy[x] = MergePolicy.EXCLUSIVE
            untreatable |= {a, b}
            i += 3
            continue
        src = scen[int(rng.integers(max(0, i - 8), i))]
        leadsto.append(LeadsToRel(src, v, _value(rng, 0.3, 0.95, iv)))
        i += 1

    # Fan-in: a fixed number of single-input scenarios get a second source.
    single = [
        v
        for k, v in enumerate(scen)
        if k >= n_thr + 1 and v not in policy and v not in untreatable
    ]
    fan = _pick(rng, single, min(len(single), n_scen // 3))
    for k, v in enumerate(fan):
        pos = scen.index(v)
        have = {r.source for r in leadsto if r.target == v}
        options = [u for u in scen[:pos] if u not in have]
        src = options[int(rng.integers(0, len(options)))]
        leadsto.append(LeadsToRel(src, v, _value(rng, 0.3, 0.95, iv)))
        if k % 3 == 2:
            policy[v] = MergePolicy.OVERLAPPING

    tail = scen[n_scen // 2 :]
    for k, r in enumerate(incs):
        for src in _pick(rng, tail, 2):
            leadsto.append(LeadsToRel(src, r, _value(rng, 0.3, 0.95, iv)))
        if k == 0 and iv:
            policy[r] = MergePolicy.OVERLAPPING

    vertices = [Vertex(t, VertexKind.THREAT) for t in threats]
    vertices += [
        Vertex(v, VertexKind.THREAT_SCENARIO, merge_policy=policy.get(v, MergePolicy.SEPARATE))
        for v in scen
    ]
    vertices += [
        Vertex(
            r,
            VertexKind.UNWANTED_INCIDENT,
            consequence=_value(rng, 1000.0, 50000.0, iv),
            merge_policy=policy.get(r, MergePolicy.SEPARATE),
        )
        for r in incs
    ]
    treatable = [v for v in scen + incs if v not in untreatable]
    model = RiskModel(
        name=name,
        base_period=PERIOD,
        vertices=tuple(vertices),
        initiates=tuple(initiates),
        leadsto=tuple(leadsto),
    )
    return with_countermeasures(rng, model, treatable, shape.n_cms, iv)


def with_countermeasures(
    rng: np.random.Generator,
    model: RiskModel,
    targets: list[str],
    n_cms: int,
    interval: bool,
    prefix: str = "C",
) -> RiskModel:
    """Add ``n_cms`` countermeasures treating ``targets``: every one treats one
    vertex, half of them a second one, and ``DEPENDS_SHARE`` of the treats
    relations are weakened by a depends relation from another countermeasure."""
    cms = [f"{prefix}{i:02d}" for i in range(n_cms)]
    countermeasures = [
        Countermeasure(c, expenditure=_num(rng, 200.0, 5000.0), per=PERIOD) for c in cms
    ]
    treats: list[TreatsRel] = []
    for k, c in enumerate(cms):
        for target in _pick(rng, targets, 2 if k % 2 == 0 else 1):
            treats.append(
                TreatsRel(
                    c,
                    target,
                    _value(rng, 0.2, 0.8, interval, cap=0.9),
                    _value(rng, 0.0, 0.4, interval, cap=0.9),
                )
            )
    depends: list[DependsRel] = []
    if n_cms >= 2:
        for t in _pick(rng, treats, round(DEPENDS_SHARE * len(treats))):
            others = [c for c in cms if c != t.countermeasure]
            dep = others[int(rng.integers(0, len(others)))]
            depends.append(
                DependsRel(
                    dep,
                    t.countermeasure,
                    t.target,
                    _value(rng, 0.1, 0.5, interval, cap=0.9),
                    _value(rng, 0.0, 0.3, interval, cap=0.9),
                )
            )
    return replace(
        model,
        countermeasures=model.countermeasures + tuple(countermeasures),
        treats=model.treats + tuple(treats),
        depends=model.depends + tuple(depends),
    )


def _checked(model: RiskModel) -> RiskModel:
    """The canonical form of a generated model, which must be valid."""
    model = canonical(model)
    errors = [d for d in validate(model) if d.is_error]
    if errors:
        raise GeneratorError(f"generated an invalid model: {errors}")
    return model


def _risk_values(
    model: RiskModel, alternative: frozenset, pessimistic: bool
) -> dict[str, tuple[float, float]]:
    """(frequency, risk cost) per incident as the acceptance check reads them."""
    res = propagate(model, alternative)
    out = {}
    for v in model.incidents:
        f, c = res[v.id].frequency, res[v.id].consequence
        if pessimistic:
            out[v.id] = (f.hi, f.hi * c.hi)
        else:
            out[v.id] = (f.midpoint, f.midpoint * c.midpoint)
    return out


def _strongest(model: RiskModel) -> RiskModel:
    """Every effect at its upper endpoint and no depends: no countermeasure
    subset of ``model`` leaves any residual below this model's full set."""
    return replace(
        model,
        treats=tuple(
            replace(
                t,
                freq_effect=Interval.point(t.freq_effect.hi),
                cons_effect=Interval.point(t.cons_effect.hi),
            )
            for t in model.treats
        ),
        depends=(),
    )


def _sig(x: float, up: bool) -> float:
    """Round to four significant digits, away from the side that matters."""
    if x <= 0:
        return 0.0
    scale = 10 ** (math.floor(math.log10(x)) - 3)
    return (math.ceil(x / scale) if up else math.floor(x / scale)) * scale


def calibrate(
    model: RiskModel, outcome: str, pessimistic: bool
) -> tuple[RiskModel, float | None]:
    """Attach acceptance criteria, and pick a budget, that force ``outcome``.

    For a feasible outcome every bound sits a ``TIGHTNESS`` share of the way
    from the full-set residual (which therefore always passes) up to the
    untreated one. For ``no_feasible`` one risk's bound is half of what even
    the strongest reading of every countermeasure reaches. For
    ``over_budget`` the budget is half the lowest overall cost any subset can
    have. Returns the model and the ``--budget`` value (or None).
    """
    all_cms = frozenset(c.id for c in model.countermeasures)
    none = _risk_values(model, frozenset(), pessimistic)
    full = _risk_values(model, all_cms, pessimistic)
    floor = _risk_values(_strongest(model), all_cms, pessimistic)
    criteria = []
    for k, risk in enumerate(sorted(none)):
        use_cost = k % 3 == 1
        axis = 1 if use_cost else 0
        lo, hi = full[risk][axis], none[risk][axis]
        bound = _sig(lo + TIGHTNESS * (hi - lo), up=True)
        if outcome == "no_feasible" and k == 0:
            bound = _sig(0.5 * floor[risk][axis], up=False)
        if use_cost:
            criteria.append(
                AcceptanceCriterion(risk, max_risk_cost=bound, max_risk_cost_per=PERIOD)
            )
        else:
            criteria.append(AcceptanceCriterion(risk, max_frequency=_freq(Interval.point(bound))))
    model = _checked(replace(model, criteria=tuple(criteria)))
    budget = None
    if outcome == "over_budget":
        budget = _sig(0.5 * sum(c for _, c in floor.values()), up=False)
    elif outcome == "recommended":
        spend = sum(c.expenditure_per(model.base_period) for c in model.countermeasures)
        budget = _sig(2.0 * (spend + sum(c for _, c in none.values())), up=True)
    return model, budget


def funnel_model(
    rng: np.random.Generator, n_app: int, n_side: int, width: int, interval: bool, name: str
) -> tuple[RiskModel, str]:
    """A funnel converging on risk ``R00`` with ``n_app`` countermeasures on
    its ancestors, plus a side branch to ``R01`` treated by ``n_side`` others.

    The funnel has layers of ``width``, ``width - 1``, ... scenarios; every
    vertex below the top layer takes two inputs from the layer above. Returns
    the model and the analysed risk.
    """
    iv = interval
    threats = [f"T{i:02d}" for i in range(width + 1)]
    layers: list[list[str]] = []
    initiates: list[InitiateRel] = []
    leadsto: list[LeadsToRel] = []
    policy: dict[str, MergePolicy] = {}
    for w in range(width, 1, -1):
        layer = [f"F{len(layers)}{j:02d}" for j in range(w)]
        for j, v in enumerate(layer):
            if not layers:
                initiates.append(InitiateRel(threats[j], v, _freq(_value(rng, 2.0, 20.0, iv))))
            else:
                above = layers[-1]
                for u in (above[j], above[j + 1]):
                    leadsto.append(LeadsToRel(u, v, _value(rng, 0.4, 0.95, iv)))
                if iv and j == 0:
                    policy[v] = MergePolicy.OVERLAPPING
        layers.append(layer)
    risk = "R00"
    for u in layers[-1]:
        leadsto.append(LeadsToRel(u, risk, _value(rng, 0.4, 0.95, iv)))
    side = [f"G{j:02d}" for j in range(3)]
    initiates.append(InitiateRel(threats[-1], side[0], _freq(_value(rng, 2.0, 20.0, iv))))
    leadsto += [
        LeadsToRel(side[0], side[1], _value(rng, 0.4, 0.95, iv)),
        LeadsToRel(side[1], side[2], _value(rng, 0.4, 0.95, iv)),
        LeadsToRel(side[2], "R01", _value(rng, 0.4, 0.95, iv)),
    ]
    funnel = [v for layer in layers for v in layer]
    vertices = [Vertex(t, VertexKind.THREAT) for t in threats]
    vertices += [
        Vertex(v, VertexKind.THREAT_SCENARIO, merge_policy=policy.get(v, MergePolicy.SEPARATE))
        for v in funnel + side
    ]
    vertices += [
        Vertex(r, VertexKind.UNWANTED_INCIDENT, consequence=_value(rng, 1000.0, 50000.0, iv))
        for r in (risk, "R01")
    ]
    model = RiskModel(
        name=name,
        base_period=PERIOD,
        vertices=tuple(vertices),
        initiates=tuple(initiates),
        leadsto=tuple(leadsto),
    )
    model = with_countermeasures(rng, model, funnel + [risk], n_app, iv, prefix="C")
    model = with_countermeasures(rng, model, side + ["R01"], n_side, iv, prefix="S")
    return _checked(model), risk


def properties(models: list[RiskModel]) -> dict:
    """Input properties recorded with every result."""
    core = [len(m.core_vertices) for m in models]
    cms = [len(m.countermeasures) for m in models]
    merges: dict[str, int] = {p.value: 0 for p in MergePolicy}
    for m in models:
        for v in m.core_vertices:
            merges[v.merge_policy.value] += 1
    return {
        "models": len(models),
        "core_vertices": [min(core), max(core)],
        "countermeasures": [min(cms), max(cms)],
        "interval_share": sum(not m.is_point_valued() for m in models) / len(models),
        "treats": sum(len(m.treats) for m in models),
        "depends": sum(len(m.depends) for m in models),
        "merge_policies": merges,
    }

"""Random valid risk models for property and acceptance tests."""

from __future__ import annotations

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
    parse,
    validate,
)
from riskforge.dsl import canonical
from riskforge.synergy import SynergyError

PERIODS = [Period(1, "y"), Period(10, "y"), Period(1, "m")]


def _value(rng: np.random.Generator, lo: float, hi: float, interval: bool) -> Interval:
    a = round(float(rng.uniform(lo, hi)), 4)
    if interval and rng.random() < 0.6:
        b = round(float(rng.uniform(a, hi)), 4)
        return Interval(a, b)
    return Interval.point(a)


def random_model(
    rng: np.random.Generator,
    interval: bool = False,
    max_scenarios: int = 4,
    max_incidents: int = 2,
    max_cms: int = 4,
    allow_overlapping: bool = False,
    allow_depends: bool = True,
    with_criteria: bool = True,
    exclusive: bool = False,
) -> RiskModel:
    """A random valid DAG-shaped model; every incident reachable from a threat.

    ``exclusive`` adds a mutually exclusive fan-in whose contributions agree
    under every alternative (see ``_exclusive_gadget``). It is off by default
    and draws nothing from ``rng`` when off.
    """
    n_threats = int(rng.integers(1, 3))
    n_scen = int(rng.integers(1, max_scenarios + 1))
    n_inc = int(rng.integers(1, max_incidents + 1))
    threats = [f"T{i}" for i in range(n_threats)]
    scenarios = [f"V{i}" for i in range(n_scen)]
    incidents = [f"R{i}" for i in range(n_inc)]

    vertices = [Vertex(t, VertexKind.THREAT) for t in threats]
    for s in scenarios:
        policy = MergePolicy.SEPARATE
        if allow_overlapping and rng.random() < 0.25:
            policy = MergePolicy.OVERLAPPING
        vertices.append(Vertex(s, VertexKind.THREAT_SCENARIO, merge_policy=policy))
    for r in incidents:
        vertices.append(
            Vertex(
                r,
                VertexKind.UNWANTED_INCIDENT,
                consequence=_value(rng, 100.0, 10000.0, interval),
            )
        )

    base = PERIODS[int(rng.integers(0, len(PERIODS)))]
    initiates = []
    leadsto = []
    # Every scenario gets one incoming edge from a threat or an earlier scenario.
    for i, s in enumerate(scenarios):
        if i == 0 or rng.random() < 0.5:
            t = threats[int(rng.integers(0, n_threats))]
            initiates.append(InitiateRel(t, s, Frequency(_value(rng, 0.1, 5.0, interval), base)))
        else:
            src = scenarios[int(rng.integers(0, i))]
            leadsto.append(LeadsToRel(src, s, _value(rng, 0.1, 1.0, interval)))
    # Extra forward edges for fan-in.
    for i, s in enumerate(scenarios):
        if i > 0 and rng.random() < 0.4:
            src = scenarios[int(rng.integers(0, i))]
            if not any(r.source == src and r.target == s for r in leadsto):
                leadsto.append(LeadsToRel(src, s, _value(rng, 0.1, 1.0, interval)))
    for r in incidents:
        src = scenarios[int(rng.integers(0, n_scen))]
        leadsto.append(LeadsToRel(src, r, _value(rng, 0.1, 1.0, interval)))

    n_cms = int(rng.integers(0, max_cms + 1))
    cms = [f"C{i}" for i in range(n_cms)]
    countermeasures = [
        Countermeasure(c, expenditure=round(float(rng.uniform(0, 5000)), 2), per=base)
        for c in cms
    ]
    core = scenarios + incidents
    treats = []
    for c in cms:
        target = core[int(rng.integers(0, len(core)))]
        if any(t.countermeasure == c and t.target == target for t in treats):
            continue
        treats.append(
            TreatsRel(
                c,
                target,
                _value(rng, 0.0, 1.0, interval),
                _value(rng, 0.0, 1.0, interval),
            )
        )
    depends = []
    if allow_depends and len(treats) >= 1 and n_cms >= 2:
        for t in treats:
            if rng.random() < 0.3:
                others = [c for c in cms if c != t.countermeasure]
                dep = others[int(rng.integers(0, len(others)))]
                depends.append(
                    DependsRel(
                        dep,
                        t.countermeasure,
                        t.target,
                        _value(rng, 0.0, 1.0, interval),
                        _value(rng, 0.0, 1.0, interval),
                    )
                )

    if exclusive:
        _exclusive_gadget(
            rng, interval, scenarios, incidents, cms, vertices, leadsto, treats, depends
        )

    criteria = []
    if with_criteria:
        for r in incidents:
            roll = rng.random()
            if roll < 0.4:
                criteria.append(
                    AcceptanceCriterion(
                        r, max_frequency=Frequency(_value(rng, 0.5, 6.0, False), base)
                    )
                )
            elif roll < 0.6:
                criteria.append(
                    AcceptanceCriterion(
                        r,
                        max_risk_cost=round(float(rng.uniform(100, 50000)), 2),
                        max_risk_cost_per=base,
                    )
                )

    model = canonical(
        RiskModel(
            name=f"random-{rng.integers(0, 10**9)}",
            base_period=base,
            vertices=tuple(vertices),
            initiates=tuple(initiates),
            leadsto=tuple(leadsto),
            countermeasures=tuple(countermeasures),
            treats=tuple(treats),
            depends=tuple(depends),
            criteria=tuple(criteria),
        )
    )
    assert not any(d.is_error for d in validate(model)), validate(model)
    return model


def _exclusive_gadget(rng, interval, scenarios, incidents, cms, vertices, leadsto, treats, depends):
    """Twin scenarios XA and XB fed alike from one scenario, merged at the
    mutually exclusive XE, which leads to an incident.

    A countermeasure may treat both twins with the same effect, weakened by
    the same dependency, so the two contributions at XE stay bit-identical
    under every alternative; another may treat XE itself.
    """
    src = scenarios[int(rng.integers(0, len(scenarios)))]
    into_twins = _value(rng, 0.1, 1.0, interval)
    into_xe = _value(rng, 0.1, 1.0, interval)
    vertices += [
        Vertex("XA", VertexKind.THREAT_SCENARIO),
        Vertex("XB", VertexKind.THREAT_SCENARIO),
        Vertex("XE", VertexKind.THREAT_SCENARIO, merge_policy=MergePolicy.EXCLUSIVE),
    ]
    leadsto += [
        LeadsToRel(src, "XA", into_twins),
        LeadsToRel(src, "XB", into_twins),
        LeadsToRel("XA", "XE", into_xe),
        LeadsToRel("XB", "XE", into_xe),
        LeadsToRel(
            "XE", incidents[int(rng.integers(0, len(incidents)))], _value(rng, 0.1, 1.0, interval)
        ),
    ]
    if not cms:
        return
    twin_cm = cms[int(rng.integers(0, len(cms)))]
    f_eff, c_eff = _value(rng, 0.0, 1.0, interval), _value(rng, 0.0, 1.0, interval)
    treats += [TreatsRel(twin_cm, "XA", f_eff, c_eff), TreatsRel(twin_cm, "XB", f_eff, c_eff)]
    if len(cms) >= 2:
        others = [c for c in cms if c != twin_cm]
        dep = others[int(rng.integers(0, len(others)))]
        f_dep, c_dep = _value(rng, 0.0, 1.0, interval), _value(rng, 0.0, 1.0, interval)
        depends += [
            DependsRel(dep, twin_cm, "XA", f_dep, c_dep),
            DependsRel(dep, twin_cm, "XB", f_dep, c_dep),
        ]
    xe_cm = cms[int(rng.integers(0, len(cms)))]
    treats.append(
        TreatsRel(xe_cm, "XE", _value(rng, 0.0, 1.0, interval), _value(rng, 0.0, 1.0, interval))
    )


def sample_point_model(model: RiskModel, rng: np.random.Generator) -> RiskModel:
    """A point model whose every value is drawn inside the interval model's ranges."""
    from dataclasses import replace

    def pick(iv: Interval) -> Interval:
        return Interval.point(float(rng.uniform(iv.lo, iv.hi)))

    return replace(
        model,
        vertices=tuple(
            v if v.consequence is None else replace(v, consequence=pick(v.consequence))
            for v in model.vertices
        ),
        initiates=tuple(
            replace(
                r,
                frequency=Frequency(pick(r.frequency.occurrences), r.frequency.per),
            )
            for r in model.initiates
        ),
        leadsto=tuple(replace(r, likelihood=pick(r.likelihood)) for r in model.leadsto),
        treats=tuple(
            replace(t, freq_effect=pick(t.freq_effect), cons_effect=pick(t.cons_effect))
            for t in model.treats
        ),
        depends=tuple(
            replace(d, freq_dep=pick(d.freq_dep), cons_dep=pick(d.cons_dep))
            for d in model.depends
        ),
    )


def random_alternative(model: RiskModel, rng: np.random.Generator) -> frozenset:
    return frozenset(c.id for c in model.countermeasures if rng.random() < 0.5)


def _all_subsets(model: RiskModel, cap: int) -> list[frozenset]:
    """Every countermeasure subset, in the engine's mask order: bit i of the
    mask selects the i-th countermeasure id in sorted order."""
    cms = sorted(c.id for c in model.countermeasures)
    if len(cms) > cap:
        raise SynergyError(
            f"{len(cms)} countermeasures exceed the enumeration cap of {cap}"
        )
    return [
        frozenset(cms[i] for i in range(len(cms)) if mask >> i & 1)
        for mask in range(2 ** len(cms))
    ]


def unreached_scenario_model() -> RiskModel:
    """A treated scenario S with no incoming relation, feeding the incident R:
    valid, with no warning, and S's frequency is 0 under every alternative."""
    return parse(
        'riskmodel "unreached" timeunit 1y\n'
        "threat T\nscenario S\nincident R consequence 10\n"
        "initiate T -> R frequency 2:1y\nleadsto S -> R likelihood 0.5\n"
        "countermeasure c cost 1:1y\ntreats c -> S effect 0.5L 0C\n"
    )

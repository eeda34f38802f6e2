from collections import deque

import numpy as np
import pytest

from riskforge import (
    AcceptanceCriterion,
    CalculusError,
    Countermeasure,
    DslSemanticError,
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
    normalize,
    parse,
    recommend,
    validate,
)
from dataclasses import replace
from riskforge.intervals import midpoint

from genmodels import random_model


def test_interval_invariant():
    with pytest.raises(ValueError):
        Interval(2.0, 1.0)
    assert Interval.point(3.0).is_point


def test_interval_complement_and_product():
    assert Interval(0.2, 0.5).complement() == Interval(0.5, 0.8)
    assert Interval(1.0, 2.0) * Interval(3.0, 4.0) == Interval(3.0, 8.0)
    with pytest.raises(ValueError):
        Interval(1.5, 2.0).complement()


def test_midpoint_is_the_plain_one_unless_that_overflows():
    rng = np.random.default_rng(11)
    pairs = rng.integers(0, 2**64, size=(2, 100_000), dtype=np.uint64).view(float)
    pairs = pairs[:, np.isfinite(pairs).all(axis=0)]  # every finite float is as likely
    big = rng.uniform(0.25, 1.0, (2, 10_000)) * np.finfo(float).max * rng.choice([-1.0, 1.0], 10_000)
    lo, hi = np.sort(np.concatenate([pairs, big], axis=1), axis=0)
    with np.errstate(over="ignore"):
        plain = 0.5 * (lo + hi)
    mid = midpoint(lo, hi)
    finite = np.isfinite(plain)
    assert 1_000 < (~finite).sum() < 10_000
    assert (mid[finite].view(np.int64) == plain[finite].view(np.int64)).all()  # bit for bit
    assert np.isfinite(mid).all() and (lo <= mid).all() and (mid <= hi).all()
    some = np.flatnonzero(~finite)[:50].tolist() + np.flatnonzero(finite)[:50].tolist()
    assert [Interval(*pair).midpoint for pair in zip(lo[some].tolist(), hi[some].tolist())] == (
        mid[some].tolist()
    )


def test_period_rates():
    f = Frequency(Interval.point(30.0), Period(10, "y"))
    assert f.per_period(Period(1, "y")) == Interval.point(3.0)
    # 12 months make a year in this calendar.
    assert f.per_period(Period(12, "m")) == Interval.point(3.0)


@pytest.mark.parametrize("magnitude", [10**400, 10**306])  # beyond the float range; inf days
def test_period_length_in_days_must_be_a_finite_float(magnitude):
    with pytest.raises(ValueError, match="finite float"):
        Period(magnitude, "y")
    assert Period(10**306, "d").days == 1e306


def test_ehealth_fixture_validates_clean(ehealth):
    assert [d for d in validate(ehealth) if d.is_error] == []


def test_validate_reports_cycle(ehealth):
    cyclic = replace(
        ehealth,
        leadsto=ehealth.leadsto + (LeadsToRel("TDI", "NCD", Interval.point(0.5)),),
    )
    messages = [d.message for d in validate(cyclic) if d.is_error]
    assert any(m.startswith("cycle:") for m in messages)
    assert any("NCD" in m and "TDI" in m for m in messages)


def test_validate_rejects_effect_outside_unit_range(ehealth):
    bad = replace(
        ehealth,
        treats=ehealth.treats
        + (TreatsRel("IRN", "HGD", Interval.point(1.3), Interval.point(0.0)),),
    )
    msgs = [d.message for d in validate(bad) if d.is_error]
    assert any("outside [0,1]" in m for m in msgs)


def test_validate_warns_on_high_likelihood(ehealth):
    hot = replace(
        ehealth,
        leadsto=ehealth.leadsto + (LeadsToRel("NCD", "LMD", Interval.point(1.5)),),
    )
    diags = validate(hot)
    assert not any(d.is_error for d in diags)
    assert any("exceeds 1" in d.message for d in diags if d.severity == "warning")
    # CORAS mode upgrades the warning to an error.
    assert any("exceeds 1" in d.message for d in validate(hot, coras=True) if d.is_error)


def test_validate_rejects_treats_on_threat(ehealth):
    bad = replace(
        ehealth,
        treats=ehealth.treats + (TreatsRel("IRN", "NF", Interval.point(0.5), Interval.point(0.0)),),
    )
    assert any("not a scenario or incident" in d.message for d in validate(bad) if d.is_error)


@pytest.mark.parametrize(
    "field, index, changes, message",
    [
        ("vertices", 5, {"consequence": None}, "incident 'LMD' has no consequence"),
        (
            "vertices",
            5,
            {"consequence": Interval.point(-1.0)},
            "incident 'LMD' has negative consequence",
        ),
        ("initiates", 0, {"source": "HGD"}, "initiate source 'HGD' is not a threat"),
        ("initiates", 0, {"target": "PMS"}, "initiate target 'PMS' is not a scenario or incident"),
        ("leadsto", 0, {"source": "NF"}, "leadsto NF->TDI must connect core vertices"),
        (
            "leadsto",
            0,
            {"likelihood": Interval.point(-0.5)},
            "leadsto HGD->TDI likelihood must be >= 0",
        ),
        ("impacts", 0, {"source": "TDI"}, "impact source 'TDI' is not an incident"),
        ("impacts", 0, {"target": "HGD"}, "impact target 'HGD' is not an asset"),
        ("treats", 3, {}, "duplicate treats relation IRN->NCD"),
        (
            "depends",
            0,
            {"freq_dep": Interval(0.5, 1.5)},
            "depends EQS frequency dependency outside [0,1]",
        ),
        ("criteria", 0, {"risk": "TDI"}, "acceptance criterion target 'TDI' is not an incident"),
        ("criteria", 0, {"max_frequency": None}, "acceptance criterion for 'LMD' has no bound"),
    ],
)
def test_a_validate_error_names_the_record_at_fault(ehealth, field, index, changes, message):
    records = getattr(ehealth, field)
    # An index past the end adds a changed copy of the last record.
    subject = replace(records[min(index, len(records) - 1)], **changes)
    model = replace(ehealth, **{field: records[:index] + (subject,) + records[index + 1 :]})
    faults = [d for d in validate(model) if d.message == message]
    assert len(faults) == 1 and faults[0].is_error and faults[0].subject is subject


def test_validate_unreachable_incident():
    model = RiskModel(
        name="x",
        base_period=Period(1, "y"),
        vertices=(
            Vertex("T", VertexKind.THREAT),
            Vertex("R", VertexKind.UNWANTED_INCIDENT, consequence=Interval.point(1.0)),
        ),
    )
    assert any("unreachable" in d.message for d in validate(model) if d.is_error)


def test_validate_is_pure(ehealth):
    first = validate(ehealth)
    second = validate(ehealth)
    assert first == second


def test_normalize_rescales_linearly(ehealth):
    m = normalize(ehealth, Period(1, "y"))
    nf = next(r for r in m.initiates if r.source == "NF")
    assert nf.frequency.occurrences == Interval.point(3.0)
    irn = m.countermeasure("IRN")
    assert irn.expenditure == pytest.approx(500.0)
    crit = m.criteria[0]
    assert crit.max_frequency.occurrences == Interval.point(1.0)


def test_normalize_identity_on_own_period(ehealth):
    assert normalize(ehealth, ehealth.base_period) == ehealth


def test_normalize_idempotent_and_commuting(ehealth):
    a, b = Period(1, "m"), Period(7, "y")
    once = normalize(ehealth, a)
    assert normalize(once, a) == once
    direct = normalize(ehealth, b)
    via = normalize(once, b)
    for r1, r2 in zip(direct.initiates, via.initiates):
        assert r1.frequency.occurrences.lo == pytest.approx(
            r2.frequency.occurrences.lo, rel=1e-12
        )


def test_validate_checks_point_values_once(ehealth, monkeypatch):
    overlapping = replace(
        ehealth,
        vertices=tuple(
            replace(v, merge_policy=MergePolicy.OVERLAPPING)
            if v.kind is VertexKind.THREAT_SCENARIO
            else v
            for v in ehealth.vertices
        ),
    )
    calls = []
    point_valued = RiskModel.is_point_valued
    monkeypatch.setattr(
        RiskModel, "is_point_valued", lambda m: calls.append(m) or point_valued(m)
    )
    diags = validate(overlapping)
    assert len(calls) == 1
    assert sum("merges overlapping" in d.message for d in diags) > 1


def test_validate_rejects_non_finite_expenditure(ehealth):
    cm = ehealth.countermeasures[0]
    nan_cost = (replace(cm, expenditure=float("nan")),) + ehealth.countermeasures[1:]
    broken = replace(ehealth, countermeasures=nan_cost)
    assert [str(d) for d in validate(broken) if d.is_error] == [
        f"error: expenditure of {cm.id!r} is not a finite number"
    ]


def test_criterion_bounds_per_base_period():
    crit = AcceptanceCriterion(
        "R",
        max_frequency=Frequency(Interval(2.0, 4.0), Period(10, "y")),
        max_risk_cost=1200.0,
        max_risk_cost_per=Period(1, "y"),
    )
    # The frequency bound counts by its midpoint: 3 per 10 years is 0.025 a month.
    assert crit.bounds(Period(1, "m")) == pytest.approx((0.025, 100.0))
    assert replace(crit, max_frequency=None).bounds(Period(1, "y")) == (None, 1200.0)
    normalized = normalize(RiskModel("m", Period(1, "y"), criteria=(crit,)), Period(1, "m"))
    assert normalized.criteria[0].max_risk_cost == crit.bounds(Period(1, "m"))[1]


def test_validate_rejects_cost_bound_without_period(ehealth):
    broken = replace(ehealth, criteria=(AcceptanceCriterion("LMD", max_risk_cost=5.0),))
    assert [str(d) for d in validate(broken) if d.is_error] == [
        "error: cost bound for 'LMD' has no period"
    ]
    with pytest.raises(CalculusError, match="has no period"):
        recommend(broken)


def _huge_per_day(model: RiskModel, slot: str) -> RiskModel:
    """The model with one number at 1e308 per day, finite as declared."""
    huge = Frequency(Interval.point(1e308), Period(1, "d"))
    if slot == "rate":
        nf = next(r for r in model.initiates if r.source == "NF")
        return replace(model, initiates=(replace(nf, frequency=huge),))
    if slot == "expenditure":
        irn = Countermeasure("IRN", expenditure=1e308, per=huge.per)
        return replace(model, countermeasures=(irn,))
    if slot == "frequency-bound":
        return replace(model, criteria=(AcceptanceCriterion("LMD", max_frequency=huge),))
    crit = AcceptanceCriterion("LMD", max_risk_cost=1e308, max_risk_cost_per=huge.per)
    return replace(model, criteria=(crit,))


@pytest.mark.parametrize(
    "slot,message",
    [
        ("rate", "initiate NF->NCD frequency is not a finite number"),
        ("expenditure", "expenditure of 'IRN' is not a finite number"),
        ("frequency-bound", "frequency bound for 'LMD' is not a finite number"),
        ("cost-bound", "cost bound for 'LMD' is not a finite number"),
    ],
    ids=["rate", "expenditure", "frequency-bound", "cost-bound"],
)
def test_validate_rejects_numbers_infinite_per_base_period(ehealth, slot, message):
    broken = _huge_per_day(replace(ehealth, treats=(), depends=()), slot)
    assert [d.message for d in validate(broken) if d.is_error] == [message]


@pytest.mark.parametrize("unit, loads", [("1y", True), ("10y", False)])
def test_an_expenditure_rescales_without_a_spurious_overflow(unit, loads):
    text = (
        f'riskmodel "m" timeunit {unit}\nthreat T\nincident A consequence 1\n'
        "initiate T -> A frequency 1:1y\ncountermeasure d cost 1e308:1y\n"
    )
    if loads:  # 1e308 * 360 overflows, 1e308 per year does not
        assert parse(text).countermeasure("d").expenditure_per(Period(1, "y")) == 1e308
    else:
        with pytest.raises(DslSemanticError, match="expenditure of 'd' is not a finite number"):
            parse(text)


@pytest.mark.parametrize("unit, loads", [("1y", True), ("10y", False)])
def test_a_cost_bound_rescales_without_a_spurious_overflow(unit, loads):
    text = (
        f'riskmodel "m" timeunit {unit}\nthreat T\nincident A consequence 1\n'
        "initiate T -> A frequency 1:1y\naccept A cost <= 1e308:1y\n"
    )
    if loads:  # as for an expenditure: 1e308 * 360 overflows, 1e308 per year does not
        assert parse(text).criteria[0].bounds(Period(1, "y")) == (None, 1e308)
    else:
        with pytest.raises(DslSemanticError, match="cost bound for 'A' is not a finite number"):
            parse(text)


def test_a_finite_rescale_multiplies_before_it_divides():
    # The two orders round 0.3 per year to different values per month.
    assert 0.3 * 30.0 / 360.0 != 0.3 * (30.0 / 360.0)
    assert Period(1, "y").rescale(0.3, Period(1, "m")) == 0.3 * 30.0 / 360.0
    criterion = AcceptanceCriterion("A", max_risk_cost=0.3, max_risk_cost_per=Period(1, "y"))
    assert criterion.bounds(Period(1, "m")) == (None, 0.3 * 30.0 / 360.0)
    spend = Countermeasure("d", expenditure=0.3, per=Period(1, "y"))
    assert spend.expenditure_per(Period(1, "m")) == 0.3 * 30.0 / 360.0


def _bfs(edges, starts):
    """Every vertex reached from ``starts`` by one or more edges."""
    out = {}
    for a, b in edges:
        out.setdefault(a, []).append(b)
    seen, todo = set(), deque(starts)
    while todo:
        for b in out.get(todo.popleft(), ()):
            if b not in seen:
                seen.add(b)
                todo.append(b)
    return seen


def test_validate_cycles_and_reachability_match_brute_force():
    rng = np.random.default_rng(31)
    rate = Frequency(Interval.point(1.0), Period(1, "y"))
    cycles = unreachable = 0
    for _ in range(300):
        m = random_model(rng, max_scenarios=6, max_incidents=3)
        threats = [v.id for v in m.vertices if v.kind is VertexKind.THREAT]
        core = [v.id for v in m.core_vertices]
        # Drop some relations and add random ones: cycles and unreachable incidents.
        initiates = [r for r in m.initiates if rng.random() < 0.8]
        initiates += [
            InitiateRel(str(rng.choice(threats)), str(rng.choice(core)), rate)
            for _ in range(rng.integers(0, 2))
        ]
        leadsto = [r for r in m.leadsto if rng.random() < 0.8]
        leadsto += [
            LeadsToRel(str(rng.choice(core)), str(rng.choice(core)), Interval.point(0.5))
            for _ in range(rng.integers(0, 3))
        ]
        m = replace(m, initiates=tuple(initiates), leadsto=tuple(leadsto))
        edges = {(r.source, r.target) for r in (*initiates, *leadsto)}
        errors = [d for d in validate(m) if d.is_error]
        if any(v in _bfs(edges, [v]) for v in core):
            cycles += 1
            (error,) = errors
            cycle = error.message.removeprefix("cycle: ").split(",")
            assert len(set(cycle)) == len(cycle) and cycle[0] == min(cycle)
            assert all((a, b) in edges for a, b in zip(cycle, cycle[1:] + cycle[:1]))
            assert (error.subject.source, error.subject.target) == (cycle[-1], cycle[0])
        else:
            reached = _bfs(edges, threats)
            expected = [
                f"incident {v.id!r} is unreachable from every threat"
                for v in m.incidents
                if v.id not in reached
            ]
            assert [d.message for d in errors] == expected
            unreachable += bool(expected)
    assert cycles > 50 and unreachable > 20, (cycles, unreachable)

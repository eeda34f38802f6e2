from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskforge import (
    CalculusError,
    Countermeasure,
    DependsRel,
    Frequency,
    History,
    InitiateRel,
    Interval,
    LeadsToRel,
    MergePolicy,
    Period,
    RiskModel,
    TimedEvent,
    TreatsRel,
    Vertex,
    VertexKind,
    check_rule,
    empirical_consequence,
    empirical_frequency,
    filter_events,
    generate_history,
    propagate,
    random_rule_instance,
    truncate,
    validate,
)
from riskforge.oracle import RULES, ImpactMap, OracleError, conclusion_vertex

from genmodels import unreached_scenario_model

pt = Interval.point
YEAR = Period(1, "y")


def _chain(f: float, r: float, treats=(), countermeasures=(), depends=()) -> RiskModel:
    return RiskModel(
        name="chain",
        base_period=YEAR,
        vertices=(
            Vertex("T", VertexKind.THREAT),
            Vertex("A", VertexKind.THREAT_SCENARIO),
            Vertex("B", VertexKind.UNWANTED_INCIDENT, consequence=pt(1.0)),
        ),
        initiates=(InitiateRel("T", "A", Frequency(pt(f), YEAR)),),
        leadsto=(LeadsToRel("A", "B", pt(r)),),
        countermeasures=tuple(countermeasures),
        treats=tuple(treats),
        depends=tuple(depends),
    )


def _event(cls: str, t: float, cms=frozenset()) -> TimedEvent:
    return TimedEvent(cls, t, frozenset(cms), ImpactMap(1.0, {}))


def test_history_rejects_disorder():
    with pytest.raises(OracleError, match="order"):
        History((_event("A", 2.0), _event("A", 1.0)), 5.0)


def test_history_rejects_event_beyond_horizon():
    with pytest.raises(OracleError, match="horizon"):
        History((_event("A", 7.0),), 5.0)


def test_truncate():
    h = History((_event("A", 1.0), _event("A", 3.0), _event("B", 4.0)), 5.0)
    cut = truncate(h, 3.5)
    assert cut.horizon == 3.5
    assert [e.time for e in cut.events] == [1.0, 3.0]
    with pytest.raises(OracleError):
        truncate(h, 6.0)


def test_truncate_composes():
    h = History(tuple(_event("A", float(t)) for t in range(1, 10)), 10.0)
    assert truncate(truncate(h, 8.0), 4.0) == truncate(h, 4.0)


def test_filter_events():
    h = History((_event("A", 1.0), _event("B", 2.0)), 5.0)
    only_a = filter_events(h, lambda e: e.event_class == "A")
    assert [e.event_class for e in only_a.events] == ["A"]
    assert only_a.horizon == 5.0
    assert filter_events(h, lambda e: False).events == ()


def test_empirical_frequency_counts_untreated():
    h = History(
        (_event("A", 1.0), _event("A", 2.0, {"c"}), _event("B", 3.0)), 10.0
    )
    assert empirical_frequency(h, "A", frozenset()) == pytest.approx(0.2)
    assert empirical_frequency(h, "A", frozenset({"c"})) == pytest.approx(0.1)
    assert empirical_frequency(History((), 0.0), "A", frozenset()) == 0.0


def test_empirical_consequence():
    imp = ImpactMap(10.0, {"c": 0.4})
    h = History((TimedEvent("A", 1.0, frozenset(), imp),), 5.0)
    assert empirical_consequence(h, "A", frozenset()) == pytest.approx(10.0)
    assert empirical_consequence(h, "A", frozenset({"c"})) == pytest.approx(6.0)
    assert empirical_consequence(h, "B", frozenset()) == 0.0


def test_impact_map_is_antitone():
    imp = ImpactMap(100.0, {"x": 0.5, "y": 0.2})
    assert imp(frozenset()) == pytest.approx(100.0)
    assert imp(frozenset({"x"})) == pytest.approx(50.0)
    assert imp(frozenset({"x", "y"})) == pytest.approx(40.0)
    assert imp(frozenset({"unrelated"})) == pytest.approx(100.0)


def test_generate_history_deterministic():
    m = _chain(2.0, 0.8)
    a = generate_history(m, frozenset(), 50.0, seed=42)
    b = generate_history(m, frozenset(), 50.0, seed=42)
    assert [(e.event_class, e.time) for e in a.events] == [
        (e.event_class, e.time) for e in b.events
    ]
    c = generate_history(m, frozenset(), 50.0, seed=43)
    assert [e.time for e in a.events] != [e.time for e in c.events]


def test_generate_history_zero_rate_is_empty():
    assert generate_history(_chain(0.0, 0.8), frozenset(), 100.0, seed=1).events == ()


def test_generate_history_poisson_count():
    h = generate_history(_chain(2.0, 0.0), frozenset(), 1000.0, seed=7)
    n = sum(1 for e in h.events if e.event_class == "A")
    assert abs(n - 2000) < 5 * np.sqrt(2000)


def test_generate_history_rejects_interval_model():
    m = _chain(2.0, 0.8)
    wide = RiskModel(
        name=m.name,
        base_period=m.base_period,
        vertices=m.vertices,
        initiates=(InitiateRel("T", "A", Frequency(Interval(1.0, 3.0), YEAR)),),
        leadsto=m.leadsto,
    )
    with pytest.raises(OracleError, match="point"):
        generate_history(wide, frozenset(), 10.0, seed=0)


def test_generate_history_rejects_overlapping():
    m = _chain(2.0, 0.8)
    overlapped = RiskModel(
        name=m.name,
        base_period=m.base_period,
        vertices=tuple(
            Vertex(v.id, v.kind, v.label, v.consequence, MergePolicy.OVERLAPPING)
            if v.id == "B"
            else v
            for v in m.vertices
        ),
        initiates=m.initiates,
        leadsto=m.leadsto,
    )
    with pytest.raises(OracleError, match="overlapping"):
        generate_history(overlapped, frozenset(), 10.0, seed=0)


def test_check_rule_leads_to_value():
    v = check_rule("leads_to", _chain(3.0, 0.8), runs=30, horizon=500.0, seed=5)
    assert v.calculus_value == pytest.approx(2.4)
    assert v.passed
    assert abs(v.empirical_mean - 2.4) <= 3 * v.std_error + 1e-12


def test_check_rule_cm_effect_value():
    m = _chain(
        2.0,
        1.0,
        countermeasures=(Countermeasure("c", per=YEAR),),
        treats=(TreatsRel("c", "B", pt(0.9), pt(0.0)),),
    )
    v = check_rule("cm_effect", m, runs=30, horizon=500.0, seed=5)
    assert v.calculus_value == pytest.approx(0.2)
    assert v.passed


def test_check_rule_cm_dependency_value():
    m = _chain(
        2.0,
        1.0,
        countermeasures=(Countermeasure("c", per=YEAR), Countermeasure("d", per=YEAR)),
        treats=(TreatsRel("c", "B", pt(0.7), pt(0.0)),),
        depends=(DependsRel("d", "c", "B", pt(0.3), pt(0.0)),),
    )
    v = check_rule("cm_dependency", m, runs=30, horizon=500.0, seed=5)
    assert v.calculus_value == pytest.approx(2.0 * (1 - 0.49))
    assert v.passed


def test_check_rule_rejects_unknown_rule():
    with pytest.raises(OracleError, match="unknown rule"):
        check_rule("nonsense", _chain(1.0, 1.0))


def test_random_instances_have_single_conclusion():
    rng = np.random.default_rng(31)
    for rule in RULES:
        for _ in range(5):
            m = random_rule_instance(rule, rng)
            sink = conclusion_vertex(m)
            assert m.vertex(sink).kind is VertexKind.UNWANTED_INCIDENT


def test_verdict_json_shape():
    v = check_rule("leads_to", _chain(1.0, 1.0), runs=5, horizon=100.0, seed=1)
    doc = v.to_json()
    assert doc["rule"] == "leads_to"
    assert doc["rng"] == "numpy-pcg64"
    assert isinstance(doc["pass"], bool)


def test_z_scores_centered_over_seeds():
    m = _chain(2.0, 0.7)
    zs = [
        check_rule("leads_to", m, runs=20, horizon=300.0, seed=s).z for s in range(8)
    ]
    assert abs(float(np.mean(zs))) < 1.0


def test_impact_map_rejects_a_consequence_increase():
    # A negative effect raises the consequence; the check must survive python -O.
    with pytest.raises(OracleError, match="not antitone"):
        ImpactMap(100.0, {"A": 0.5, "B": -0.25})


def test_check_rule_validates_once(monkeypatch):
    from riskforge import calculus, oracle

    calls = []

    def counting(model, *args, **kwargs):
        calls.append(model)
        return validate(model, *args, **kwargs)

    monkeypatch.setattr(oracle, "validate", counting)
    monkeypatch.setattr(calculus, "validate", counting)
    instance = random_rule_instance("separate", np.random.default_rng(3))
    check_rule("separate", instance, runs=5, horizon=100.0)
    assert len(calls) == 1


@pytest.mark.parametrize("effect", [1.5, float("nan")])
def test_impact_map_rejects_an_effect_outside_unit_range(effect):
    with pytest.raises(OracleError, match="not antitone"):
        ImpactMap(100.0, {"B": effect})


def test_impact_map_is_antitone_over_every_subset():
    # Products of these effects round differently in different orders.
    effects = {"C1": 0.1, "C2": 0.3, "C3": 0.0, "C4": 0.37, "C5": 0.113}
    imp = ImpactMap(123456.789, effects)
    subsets = [frozenset(c for i, c in enumerate(effects) if m >> i & 1) for m in range(32)]
    for cs in subsets:
        expected = 123456.789
        for c in sorted(cs):
            expected *= 1.0 - effects[c]
        assert imp(cs) == expected
        assert all(imp(cs | {c}) <= imp(cs) for c in effects)


def test_check_rule_builds_no_events(monkeypatch):
    from riskforge import oracle

    def forbidden(*args, **kwargs):
        raise AssertionError("check_rule built a history")

    monkeypatch.setattr(oracle, "TimedEvent", forbidden)
    monkeypatch.setattr(oracle, "History", forbidden)
    rng = np.random.default_rng(8)
    for rule in RULES:
        assert check_rule(rule, random_rule_instance(rule, rng), runs=3, horizon=50.0).runs == 3


def _assert_modes_agree(instance, alternative, horizon, seeds):
    """The count mode draws what the times mode draws, vertex by vertex."""
    from riskforge.oracle import _sample

    by_time = _sample(instance, alternative, horizon, seeds)
    by_count = _sample(instance, alternative, horizon, seeds, counts=True)
    counts = []
    for (times_samples, times_left), (count_samples, count_left) in zip(by_time, by_count):
        assert {s[0].id for s in count_samples} == {v.id for v in instance.core_vertices}
        for (v, _, times, tags), (_, _, n, count_tags) in zip(times_samples, count_samples):
            assert n == len(times)
            assert np.array_equal(count_tags, tags)
            assert count_left[v.id] == len(times_left[v.id])
        counts.append(count_left)
    return counts


def _survivors_per_alternative(instance, runs: int, horizon: float, seed: int):
    """(alternative, histories) for the alternatives none, all and the first
    countermeasure, after checking that the survivors the sampler counts, in
    either mode, are what empirical_frequency reads off each public history at
    every core vertex."""
    cms = sorted(c.id for c in instance.countermeasures)
    seeds = [int(s) for s in np.random.SeedSequence(seed).generate_state(runs)]
    for alternative in (frozenset(), frozenset(cms), frozenset(cms[:1])):
        histories = [generate_history(instance, alternative, horizon, s) for s in seeds]
        counts = _assert_modes_agree(instance, alternative, horizon, seeds)
        for h, left in zip(histories, counts):
            for v in instance.core_vertices:
                assert left[v.id] / horizon == empirical_frequency(h, v.id, alternative)
        yield alternative, histories


@pytest.mark.parametrize("rule", RULES)
def test_sampler_survivors_are_the_history_frequency(rule):
    # check_rule and generate_history share one sampler.
    rng = np.random.default_rng(RULES.index(rule))
    instance = random_rule_instance(rule, rng)
    vertex = conclusion_vertex(instance)
    cms = sorted(c.id for c in instance.countermeasures)
    runs, horizon = 4, 60.0
    for seed in range(5):
        for alternative, histories in _survivors_per_alternative(instance, runs, horizon, seed):
            if alternative == frozenset(cms):
                from_history = [empirical_frequency(h, vertex, alternative) for h in histories]
                verdict = check_rule(rule, instance, runs=runs, horizon=horizon, seed=seed)
                assert verdict.empirical_mean == float(np.mean(from_history))


def test_sampler_survivors_at_a_vertex_with_no_incoming_relation():
    model = unreached_scenario_model()
    assert validate(model) == []
    assert propagate(model, frozenset())["S"].frequency == pt(0.0)
    for seed in range(3):
        for alternative, histories in _survivors_per_alternative(model, 4, 60.0, seed):
            assert all(empirical_frequency(h, "S", alternative) == 0.0 for h in histories)


@settings(max_examples=80, deadline=None, database=None)
@given(
    rule=st.sampled_from(RULES),
    instance_seed=st.integers(0, 2**32 - 1),
    seed=st.integers(0, 2**63 - 1),
    horizon=st.floats(1e-3, 1000.0),
    subset=st.integers(0, 3),
)
def test_count_mode_draws_the_times_mode_stream(rule, instance_seed, seed, horizon, subset):
    instance = random_rule_instance(rule, np.random.default_rng(instance_seed))
    ids = sorted(c.id for c in instance.countermeasures)
    alternative = frozenset(c for i, c in enumerate(ids) if subset >> i & 1)
    _assert_modes_agree(instance, alternative, horizon, [seed, seed + 1])


def test_count_mode_counts_an_event_once_under_several_tags():
    # No rule instance treats one vertex twice: two rows of tags at B, one at A.
    m = _chain(
        4.0,
        1.5,
        countermeasures=[Countermeasure(c, per=YEAR) for c in ("c", "d", "e")],
        treats=[
            TreatsRel("c", "A", pt(0.3), pt(0.0)),
            TreatsRel("d", "B", pt(0.4), pt(0.0)),
            TreatsRel("e", "B", pt(0.5), pt(0.0)),
        ],
    )
    for mask in range(8):
        alternative = frozenset(c for i, c in enumerate("cde") if mask >> i & 1)
        _assert_modes_agree(m, alternative, 50.0, range(6))


def _seven_core_vertices() -> RiskModel:
    ids = [f"S{i}" for i in range(6)]
    return RiskModel(
        name="seven",
        base_period=YEAR,
        vertices=(
            Vertex("T", VertexKind.THREAT),
            *(Vertex(s, VertexKind.THREAT_SCENARIO) for s in ids),
            Vertex("R", VertexKind.UNWANTED_INCIDENT, consequence=pt(1.0)),
        ),
        initiates=(InitiateRel("T", "S0", Frequency(pt(1.0), YEAR)),),
        leadsto=tuple(LeadsToRel(a, b, pt(0.5)) for a, b in zip(ids, ids[1:] + ["R"])),
    )


def _undeclared_target() -> RiskModel:
    model = unreached_scenario_model()  # parsed, so marked valid; the copy is not
    return replace(model, leadsto=model.leadsto + (LeadsToRel("S", "X", pt(0.5)),))


INVALID = "invalid model: leadsto S->X references an undeclared vertex"
RUNNERS = {
    "check_rule": lambda model: check_rule("leads_to", model, runs=3, horizon=10.0),
    "generate_history": lambda model: generate_history(model, frozenset(), 10.0, seed=0),
}


@pytest.mark.parametrize(
    "make, runner, message",
    [
        (_undeclared_target, "check_rule", INVALID),
        (_undeclared_target, "generate_history", INVALID),
        (_seven_core_vertices, "check_rule", "rule instances are limited to 6 core vertices"),
    ],
)
def test_the_oracle_rejects_a_model_it_cannot_run(make, runner, message):
    with pytest.raises(OracleError) as exc:
        RUNNERS[runner](make())
    assert str(exc.value) == message


def test_check_rule_needs_two_runs():
    with pytest.raises(OracleError, match="^runs must be at least 2, not 1$"):
        check_rule("leads_to", _chain(3.0, 0.8), runs=1, horizon=100.0)


def test_a_zero_spread_away_from_the_calculus_has_no_z():
    # No event falls into so short a horizon: every run reads 0, below 2.4.
    v = check_rule("leads_to", _chain(3.0, 0.8), runs=3, horizon=1e-300)
    assert (v.empirical_mean, v.std_error, v.z, v.passed) == (0.0, 0.0, -np.inf, False)
    doc = v.to_json()
    assert doc["z"] is None and doc["pass"] is False
    assert check_rule("leads_to", _chain(0.0, 0.8), runs=3, horizon=100.0).to_json()["z"] == 0.0


@pytest.mark.parametrize(
    "model, horizon, message",
    [
        (_chain(3.0, 0.8), 1e300, r"initiate T->A: expected 3e\+300 events over the horizon"),
        (_chain(3.0, 1e19), 10.0, r"leadsto A->B: expected 1e\+19 events per source event"),
        (
            _chain(3.0, 1e18),
            10.0,
            r"leadsto A->B: expected [0-9.]+e\+19 events from \d+ source events",
        ),
    ],
    ids=["initiate", "likelihood", "spawned"],
)
def test_a_count_beyond_the_poisson_limit_is_an_error(model, horizon, message):
    pattern = f"^{message}, above numpy's Poisson limit 9.223e\\+18$"
    with pytest.raises(OracleError, match=pattern):
        check_rule("leads_to", model, runs=3, horizon=horizon)
    with pytest.raises(OracleError, match=pattern):
        generate_history(model, frozenset(), horizon, seed=0)


def test_an_overflowing_empirical_frequency_is_an_error():
    # About 8,000 events at B per run of 1e-166 years: each run reads about
    # 8e169 a year, and the squared spread of the runs overflows.
    with pytest.raises(OracleError, match="^vertex 'B': the empirical frequency overflows"):
        check_rule("leads_to", _chain(1e170, 0.8), runs=3, horizon=1e-166)


def test_generate_history_rejects_disagreeing_exclusive_contributions(monkeypatch):
    from riskforge import oracle

    instance = random_rule_instance("exclusive", np.random.default_rng(1))
    first, second = instance.leadsto
    disagreeing = replace(instance, leadsto=(first, replace(second, likelihood=pt(0.05))))
    with pytest.raises(CalculusError, match="mutually exclusive vertex 'C'"):
        generate_history(disagreeing, frozenset(), 100.0, seed=0)
    # The point-model checks still come first.
    wide = replace(disagreeing, leadsto=(first, replace(second, likelihood=Interval(0.05, 0.1))))
    with pytest.raises(OracleError, match="point"):
        generate_history(wide, frozenset(), 100.0, seed=0)
    # check_rule still runs propagate once.
    calls = []

    def counting(*args):
        calls.append(args)
        return propagate(*args)

    monkeypatch.setattr(oracle, "propagate", counting)
    check_rule("exclusive", instance, runs=2, horizon=20.0)
    assert len(calls) == 1

import itertools

import numpy as np
import pytest

from riskforge import (
    CalculusError,
    DependsRel,
    Interval,
    LeadsToRel,
    MergePolicy,
    TreatsRel,
    Vertex,
    VertexKind,
    apply_countermeasures,
    combine_incoming,
    effective_effect,
    propagate,
    propagate_leadsto,
)
from riskforge.analysis import applicable_countermeasures
from riskforge.calculus import cone, evaluation_plan
from dataclasses import replace

from genmodels import random_alternative, random_model, sample_point_model

pt = Interval.point


def _treats(e_f, e_i=0.0):
    return TreatsRel("c", "V", pt(e_f), pt(e_i))


def test_effective_effect_with_active_dependency():
    deps = [DependsRel("d", "c", "V", pt(0.3), pt(0.0))]
    e_f, _ = effective_effect(_treats(0.7), frozenset({"c", "d"}), deps)
    assert e_f.lo == pytest.approx(0.49)


def test_effective_effect_without_active_dependency():
    deps = [DependsRel("d", "c", "V", pt(0.3), pt(0.0))]
    e_f, _ = effective_effect(_treats(0.7), frozenset({"c"}), deps)
    assert e_f == pt(0.7)


def test_effective_effect_full_cancellation():
    deps = [DependsRel("d", "c", "V", pt(1.0), pt(1.0))]
    e_f, e_i = effective_effect(_treats(0.7, 0.4), frozenset({"c", "d"}), deps)
    assert e_f == pt(0.0)
    assert e_i == pt(0.0)


def test_apply_countermeasures_chained():
    freq, _ = apply_countermeasures(pt(30.0), pt(0.0), [(pt(0.49), pt(0.0)), (pt(0.7), pt(0.0))])
    assert freq.lo == pytest.approx(4.59)


def test_apply_countermeasures_consequence():
    _, cons = apply_countermeasures(pt(1.0), pt(5000.0), [(pt(0.0), pt(0.2))])
    assert cons.lo == pytest.approx(4000.0)


def test_apply_countermeasures_empty_is_identity():
    freq, cons = apply_countermeasures(pt(3.0), pt(5.0), [])
    assert (freq, cons) == (pt(3.0), pt(5.0))


def test_apply_countermeasures_order_independent_bitwise():
    effects = [(pt(0.49), pt(0.1)), (pt(0.7), pt(0.3)), (pt(0.11), pt(0.0))]
    results = {
        apply_countermeasures(pt(30.0), pt(5000.0), list(p))
        for p in itertools.permutations(effects)
    }
    assert len(results) == 1


def test_propagate_leadsto():
    assert propagate_leadsto(pt(10.0), pt(0.8)) == pt(8.0)
    assert propagate_leadsto(pt(7.0), pt(1.0)) == pt(7.0)
    assert propagate_leadsto(pt(10.0), pt(1.5)) == pt(15.0)


def test_combine_separate_sums():
    out = combine_incoming([pt(3.672), pt(2.7)], MergePolicy.SEPARATE)
    assert out.lo == pytest.approx(6.372)


def test_combine_exclusive_requires_equality():
    assert combine_incoming([pt(5.0), pt(5.0)], MergePolicy.EXCLUSIVE) == pt(5.0)
    with pytest.raises(CalculusError, match="'TDI'"):
        combine_incoming([pt(5.0), pt(6.0)], MergePolicy.EXCLUSIVE, "TDI")


def test_combine_overlapping_max_sum():
    out = combine_incoming([Interval(1.0, 2.0), Interval(2.0, 3.0)], MergePolicy.OVERLAPPING)
    assert out == Interval(2.0, 5.0)


def test_ehealth_all_treatments(ehealth):
    res = propagate(ehealth, frozenset({"IRN", "EQS", "IRH"}))
    assert res["NCD"].frequency.lo == pytest.approx(4.59)
    assert res["HGD"].frequency.lo == pytest.approx(3.0)
    assert res["TDI"].frequency.lo == pytest.approx(6.372)
    assert res["LMD"].frequency.lo == pytest.approx(5.0976)
    assert res["LMD"].consequence == pt(5000.0)


def test_ehealth_untreated(ehealth):
    res = propagate(ehealth, frozenset())
    assert res["LMD"].frequency.lo == pytest.approx(26.4)


def test_propagate_isolated_vertex(ehealth):
    from riskforge import Period, RiskModel, Vertex, VertexKind

    model = RiskModel(
        name="solo",
        base_period=Period(1, "y"),
        vertices=(Vertex("A", VertexKind.THREAT_SCENARIO),),
    )
    assert propagate(model, frozenset())["A"].frequency == pt(0.0)


def test_propagate_rejects_invalid_model(ehealth):
    from riskforge import LeadsToRel

    cyclic = replace(
        ehealth, leadsto=ehealth.leadsto + (LeadsToRel("TDI", "NCD", pt(0.5)),)
    )
    with pytest.raises(CalculusError):
        propagate(cyclic, frozenset())


def test_propagate_rejects_unknown_countermeasure(ehealth):
    with pytest.raises(CalculusError):
        propagate(ehealth, frozenset({"NOPE"}))


def test_residual_dominance_random():
    rng = np.random.default_rng(11)
    for _ in range(50):
        m = random_model(rng, interval=bool(rng.random() < 0.5))
        alt = random_alternative(m, rng)
        treated = propagate(m, alt)
        untreated = propagate(m, frozenset())
        for vid, r in treated.items():
            assert r.frequency.hi <= untreated[vid].frequency.hi + 1e-12
            assert r.consequence.hi <= untreated[vid].consequence.hi + 1e-12


def test_antitone_without_dependencies():
    rng = np.random.default_rng(13)
    for _ in range(50):
        m = random_model(rng, allow_depends=False)
        small = random_alternative(m, rng)
        extra = random_alternative(m, rng)
        big = small | extra
        lo, hi = propagate(m, big), propagate(m, small)
        for vid in lo:
            assert lo[vid].frequency.hi <= hi[vid].frequency.hi + 1e-12


def test_interval_containment_pointwise():
    rng = np.random.default_rng(17)
    for _ in range(50):
        M = random_model(rng, interval=True, allow_overlapping=True)
        m = sample_point_model(M, rng)
        alt = random_alternative(M, rng)
        wide, narrow = propagate(M, alt), propagate(m, alt)
        for vid in wide:
            assert wide[vid].frequency.contains(narrow[vid].frequency, tol=1e-9)
            assert wide[vid].consequence.contains(narrow[vid].consequence, tol=1e-9)


def test_degenerate_intervals_stay_degenerate():
    rng = np.random.default_rng(19)
    for _ in range(30):
        m = random_model(rng, interval=False)
        for r in propagate(m, random_alternative(m, rng)).values():
            assert r.frequency.is_point
            assert r.consequence.is_point


def _brute_force_plan(model):
    """Kahn's order spelled out: repeatedly take the smallest id whose
    sources are all placed; each vertex's relations filtered and sorted."""
    placed, plan = set(), []
    core = sorted(v.id for v in model.core_vertices)
    while len(plan) < len(core):
        vid = min(
            v
            for v in core
            if v not in placed
            and all(r.source in placed for r in model.leadsto if r.target == v)
        )
        placed.add(vid)
        initiates = [r for r in model.initiates if r.target == vid]
        leadsto = [r for r in model.leadsto if r.target == vid]
        treats = [t for t in model.treats if t.target == vid]
        plan.append(
            (
                model.vertex(vid),
                sorted(initiates, key=lambda r: r.source),
                sorted(leadsto, key=lambda r: r.source),
                sorted(treats, key=lambda t: t.countermeasure),
            )
        )
    return plan


def test_evaluation_plan_matches_brute_force():
    rng = np.random.default_rng(23)
    for i in range(60):
        m = random_model(
            rng,
            interval=bool(rng.random() < 0.5),
            max_scenarios=8,
            max_cms=6,
            allow_overlapping=True,
            exclusive=i % 2 == 0,
        )
        assert evaluation_plan(_shuffled(m, rng)) == evaluation_plan(m) == _brute_force_plan(m)


def _reaching(model, targets) -> set:
    """The targets and every vertex with a leads-to path to one, by fixpoint."""
    reached = set(targets)
    while True:
        more = {r.source for r in model.leadsto if r.target in reached} - reached
        if not more:
            return reached
        reached |= more


def test_cone_is_reachability():
    rng = np.random.default_rng(29)
    for i in range(60):
        m = random_model(
            rng, max_scenarios=8, max_cms=6, allow_overlapping=True, exclusive=i % 2 == 0
        )
        plan = evaluation_plan(m)
        ids = [v.id for v in m.core_vertices]
        for k in (0, 1, 2, 4):
            targets = [ids[j] for j in rng.choice(len(ids), size=min(k, len(ids)), replace=False)]
            assert cone(plan, targets) == _reaching(m, targets)
        for risk in (v.id for v in m.incidents):
            treating = {t.countermeasure for t in m.treats if t.target in _reaching(m, [risk])}
            assert applicable_countermeasures(m, risk) == treating


def _shuffled(model, rng):
    """The model with its vertices, initiates, leads-to and treats in random order."""

    def shuffle(items):
        return tuple(items[j] for j in rng.permutation(len(items)))

    return replace(
        model,
        vertices=shuffle(model.vertices),
        initiates=shuffle(model.initiates),
        leadsto=shuffle(model.leadsto),
        treats=shuffle(model.treats),
    )


def _bits(results):
    return {
        vid: tuple(x.hex() for iv in (r.frequency, r.consequence) for x in (iv.lo, iv.hi))
        for vid, r in results.items()
    }


def test_propagate_bit_identical_under_shuffled_relations():
    rng = np.random.default_rng(29)
    for i in range(40):
        m = random_model(
            rng, interval=bool(rng.random() < 0.5), max_scenarios=6, exclusive=i % 3 == 0
        )
        # An incident fed by every scenario: sums of three or more
        # contributions depend on their order bit-for-bit.
        scenarios = [v.id for v in m.vertices if v.kind is VertexKind.THREAT_SCENARIO]
        fan_in = [LeadsToRel(s, "RZ", pt(0.1 + 0.13 * j)) for j, s in enumerate(scenarios)]
        sink = Vertex("RZ", VertexKind.UNWANTED_INCIDENT, consequence=pt(10.0))
        m = replace(m, vertices=m.vertices + (sink,), leadsto=m.leadsto + tuple(fan_in))
        alt = random_alternative(m, rng)
        assert _bits(propagate(_shuffled(m, rng), alt)) == _bits(propagate(m, alt))

"""The compiled engine against the scalar calculus: bit-for-bit equality.

Every check compares exact float bit patterns, over every subset of random
models with point and interval values, overlapping and exclusive fan-in and
effect dependencies. A tiny chunk size makes most evaluations cross chunk
boundaries.
"""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from riskforge import (
    AcceptanceCriterion,
    CalculusError,
    CompiledModel,
    Interval,
    MergePolicy,
    TreatsRel,
    acceptable,
    enumerate_states,
    find_alternatives,
    overall_cost,
    propagate,
    recommend,
)
from riskforge import engine
from riskforge.analysis import applicable_countermeasures

from genmodels import _all_subsets, random_model


@pytest.fixture(autouse=True)
def small_chunks(monkeypatch):
    monkeypatch.setattr(engine, "CHUNK", 3)


def _bits(*values) -> tuple:
    return tuple(float(x).hex() for x in values)


def _models(seed: int, count: int):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield random_model(
            rng,
            interval=bool(rng.random() < 0.5),
            max_scenarios=5,
            max_incidents=3,
            max_cms=5,
            allow_overlapping=True,
            exclusive=bool(rng.random() < 0.5),
        )


def _scalar_gap(model, pessimistic):
    """(risk, best frequency, best risk cost) from propagate over every subset."""
    best = {}
    for ca in _all_subsets(model, cap=20):
        results = propagate(model, ca)
        for v in model.incidents:
            r = results[v.id]
            freq = r.frequency.hi if pessimistic else r.frequency.midpoint
            cost = (
                r.frequency.hi * r.consequence.hi
                if pessimistic
                else r.frequency.midpoint * r.consequence.midpoint
            )
            f, c = best.get(v.id, (float("inf"), float("inf")))
            best[v.id] = (min(f, freq), min(c, cost))
    return [(risk, *_bits(*best[risk])) for risk in sorted(best)]


def test_gadget_is_opt_in():
    assert not random_model(np.random.default_rng(5)).has_vertex("XE")
    gadget = random_model(np.random.default_rng(5), exclusive=True)
    assert gadget.vertex("XE").merge_policy is MergePolicy.EXCLUSIVE


def test_every_vertex_matches_propagate():
    evaluations = 0
    for model in _models(1, 60):
        compiled = CompiledModel(model)
        for masks, columns in compiled.chunks():
            for j, mask in enumerate(masks.tolist()):
                ids = compiled.countermeasures
                ref = propagate(model, frozenset(c for i, c in enumerate(ids) if mask >> i & 1))
                assert set(columns) == set(ref)
                for vid, r in ref.items():
                    got = _bits(*(c[j] for c in columns[vid]))
                    want = _bits(
                        r.frequency.lo, r.frequency.hi, r.consequence.lo, r.consequence.hi
                    )
                    assert got == want, (model.name, mask, vid)
                evaluations += 1
    assert evaluations > 500


@pytest.mark.parametrize("pessimistic", [False, True])
def test_costs_and_verdicts_match_scalar(pessimistic):
    for model in _models(2, 40):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            feasible = [
                ca
                for ca in _all_subsets(model, cap=20)
                if all(acceptable(model, ca, pessimistic).values())
            ]
        ranked = find_alternatives(model, pessimistic=pessimistic)
        assert {g.countermeasures for g in ranked} == set(feasible)
        for g in ranked:
            assert _bits(g.overall_cost) == _bits(overall_cost(model, g.countermeasures, pessimistic))
            ref = propagate(model, g.countermeasures)
            for risk, state in g.per_risk_states.items():
                assert state.frequency == ref[risk].frequency
                assert state.consequence == ref[risk].consequence
        keys = [(g.overall_cost, len(g.countermeasures), sorted(g.countermeasures)) for g in ranked]
        assert keys == sorted(keys)

        # Without criteria every subset is ranked, so every cost is compared.
        bare = replace(model, criteria=())
        everything = find_alternatives(bare, pessimistic=pessimistic)
        assert len(everything) == 2 ** len(model.countermeasures)
        for g in everything:
            assert _bits(g.overall_cost) == _bits(overall_cost(bare, g.countermeasures, pessimistic))


@pytest.mark.parametrize("pessimistic", [False, True])
def test_gap_report_matches_scalar(pessimistic):
    for model in _models(3, 40):
        # A negative cost bound no subset can meet forces the no_feasible outcome.
        strict = replace(
            model,
            criteria=tuple(
                AcceptanceCriterion(v.id, max_risk_cost=-1.0, max_risk_cost_per=model.base_period)
                for v in model.incidents
            ),
        )
        rec = recommend(strict, pessimistic=pessimistic)
        assert rec.outcome == "no_feasible"
        got = [(g.risk, *_bits(g.best_frequency, g.best_risk_cost)) for g in rec.report]
        assert got == _scalar_gap(strict, pessimistic)
        assert all(g.max_frequency is None and g.max_risk_cost == -1.0 for g in rec.report)


def test_enumerate_states_matches_propagate():
    for model in _models(4, 40):
        for v in model.incidents:
            cms = sorted(applicable_countermeasures(model, v.id))
            states = enumerate_states(model, v.id)
            assert [s.index for s in states] == list(range(2 ** len(cms)))
            for s in states:
                ref = propagate(model, s.alternative)[v.id]
                assert s.alternative == frozenset(
                    c for i, c in enumerate(cms) if s.index >> i & 1
                )
                assert _bits(s.frequency.lo, s.frequency.hi) == _bits(
                    ref.frequency.lo, ref.frequency.hi
                )
                assert _bits(s.consequence.lo, s.consequence.hi) == _bits(
                    ref.consequence.lo, ref.consequence.hi
                )


def _first_scalar_error(model, subsets):
    for ca in subsets:
        try:
            propagate(model, ca)
        except CalculusError as e:
            return str(e)
    return None


def test_exclusive_disagreement_raises_the_scalar_error():
    checked = 0
    rng = np.random.default_rng(6)
    while checked < 15:
        model = random_model(rng, max_cms=4, exclusive=True)
        if not model.countermeasures:
            continue
        # A countermeasure on one twin only: XE's contributions now disagree
        # exactly when it is selected with a nonzero frequency effect.
        cm = model.countermeasures[int(rng.integers(0, len(model.countermeasures)))].id
        if any(t.key == (cm, "XA") for t in model.treats):
            continue
        skew = replace(
            model,
            treats=model.treats
            + (TreatsRel(cm, "XA", Interval.point(0.5), Interval.point(0.0)),),
        )
        expected = _first_scalar_error(skew, _all_subsets(skew, cap=20))
        assert expected is not None and "mutually exclusive vertex 'XE'" in expected
        with pytest.raises(CalculusError) as err:
            find_alternatives(skew)
        assert str(err.value) == expected
        risk = next(r.target for r in skew.leadsto if r.source == "XE")
        cms = sorted(applicable_countermeasures(skew, risk))
        alternatives = [
            frozenset(c for i, c in enumerate(cms) if mask >> i & 1)
            for mask in range(2 ** len(cms))
        ]
        with pytest.raises(CalculusError) as err:
            enumerate_states(skew, risk)
        assert str(err.value) == _first_scalar_error(skew, alternatives)
        checked += 1


def test_exclusive_check_covers_vertices_outside_the_outputs():
    model = random_model(np.random.default_rng(7), max_cms=3, exclusive=True)
    # A second, separate contribution into one twin makes XE disagree always.
    skew = replace(model, initiates=model.initiates + (replace(model.initiates[0], target="XB"),))
    expected = _first_scalar_error(skew, [frozenset()])
    assert expected is not None and "'XE'" in expected
    with pytest.raises(CalculusError) as err:
        CompiledModel(skew, outputs=["XA"]).evaluate(np.arange(1))
    assert str(err.value) == expected


def test_invalid_model_fails_before_evaluating(ehealth):
    broken = replace(ehealth, criteria=(), leadsto=ehealth.leadsto[:1])
    with pytest.raises(CalculusError, match="invalid model"):
        CompiledModel(broken)

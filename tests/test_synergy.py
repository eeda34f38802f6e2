import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import riskforge

from riskforge import (
    Frequency,
    Interval,
    Period,
    RiskState,
    acceptable,
    export_ranking_csv,
    find_alternatives,
    overall_cost,
    parse,
    propagate,
    recommend,
    risk_cost,
)
from riskforge import cli, dsl
from riskforge.synergy import SynergyError

from genmodels import _all_subsets, random_model

pt = Interval.point


def test_risk_cost_point():
    s = RiskState("LMD", frozenset(), pt(26.4), pt(5000.0))
    assert risk_cost(s) == pytest.approx(132000.0)
    assert risk_cost(s, pessimistic=True) == pytest.approx(132000.0)


def test_risk_cost_interval():
    s = RiskState("R", frozenset(), Interval(4.0, 8.0), Interval(5000.0, 7000.0))
    assert risk_cost(s) == pytest.approx(36000.0)
    assert risk_cost(s, pessimistic=True) == pytest.approx(56000.0)


def test_overall_cost_untreated_is_residual_sum(ehealth):
    assert overall_cost(ehealth, frozenset()) == pytest.approx(132000.0)


def test_overall_cost_includes_expenditure(ehealth):
    # LMD drops to 12.96 under IRN alone: 64800 residual plus 5000 spent.
    assert overall_cost(ehealth, frozenset({"IRN"})) == pytest.approx(69800.0)


def test_acceptable_verdicts(ehealth):
    assert acceptable(ehealth, frozenset()) == {"LMD": False}
    assert acceptable(ehealth, frozenset({"IRN"})) == {"LMD": False}
    assert acceptable(ehealth, frozenset({"IRN", "IRH"})) == {"LMD": True}
    assert acceptable(ehealth, frozenset({"IRN", "EQS", "IRH"})) == {"LMD": True}


def test_acceptable_warns_without_criterion(ehealth):
    bare = replace(ehealth, criteria=())
    with pytest.warns(UserWarning, match="no acceptance criterion"):
        verdicts = acceptable(bare, frozenset())
    assert verdicts == {"LMD": True}


def test_find_alternatives_ranking(ehealth_rounded):
    ranked = find_alternatives(ehealth_rounded)
    alts = [g.countermeasures for g in ranked]
    assert alts == [
        frozenset({"IRN", "IRH"}),
        frozenset({"IRN", "EQS", "IRH"}),
        frozenset({"EQS", "IRH"}),
    ]
    assert ranked[0].overall_cost == pytest.approx(52600.0)
    assert ranked[1].overall_cost - ranked[0].overall_cost == pytest.approx(600.0)
    assert ranked[2].overall_cost == pytest.approx(62600.0)
    assert ranked[0].per_risk_states["LMD"].frequency.lo == pytest.approx(7.92)
    assert ranked[0].per_risk_states["LMD"].name == "S6"  # IRH and IRN, bits 1 and 2


def test_global_alternative_states_are_read_only(ehealth_rounded):
    best = find_alternatives(ehealth_rounded)[0]
    with pytest.raises(TypeError):
        best.per_risk_states["LMD"] = None
    with pytest.raises(TypeError):
        del best.per_risk_states["LMD"]


def test_find_alternatives_without_criteria(ehealth):
    bare = replace(ehealth, criteria=())
    ranked = find_alternatives(bare)
    assert len(ranked) == 8  # every subset qualifies


def test_find_alternatives_deterministic(ehealth_rounded):
    once = find_alternatives(ehealth_rounded)
    twice = find_alternatives(ehealth_rounded)
    assert [g.countermeasures for g in once] == [g.countermeasures for g in twice]
    assert [g.overall_cost for g in once] == [g.overall_cost for g in twice]


def test_free_countermeasure_never_hurts(ehealth):
    free = replace(
        ehealth,
        countermeasures=tuple(
            replace(c, expenditure=0.0) if c.id == "IRH" else c
            for c in ehealth.countermeasures
        ),
    )
    for ca in _all_subsets(free, cap=20):
        without = overall_cost(free, ca - {"IRH"})
        with_it = overall_cost(free, ca | {"IRH"})
        assert with_it <= without + 1e-9


def test_recommend_best(ehealth_rounded):
    rec = recommend(ehealth_rounded)
    assert rec.outcome == "recommended"
    assert rec.best.countermeasures == frozenset({"IRN", "IRH"})


def test_recommend_over_budget(ehealth_rounded):
    rec = recommend(ehealth_rounded, budget=50000.0)
    assert rec.outcome == "over_budget"
    assert rec.budget == 50000.0
    assert rec.best.countermeasures == frozenset({"IRN", "IRH"})


def test_recommend_no_feasible_reports_gap(ehealth_rounded):
    strict = replace(
        ehealth_rounded,
        criteria=tuple(
            replace(a, max_frequency=Frequency(pt(0.001), Period(10, "y")))
            for a in ehealth_rounded.criteria
        ),
    )
    rec = recommend(strict)
    assert rec.outcome == "no_feasible"
    assert rec.best is None
    (gap,) = rec.report
    assert gap.risk == "LMD"
    assert gap.best_frequency == pytest.approx(5.04)
    assert gap.max_frequency == pytest.approx(0.001)


def test_subset_cap(ehealth):
    with pytest.raises(SynergyError, match="cap"):
        find_alternatives(ehealth, cap=2)


def test_export_ranking_csv(ehealth_rounded):
    csv = export_ranking_csv(find_alternatives(ehealth_rounded))
    lines = csv.strip().split("\n")
    assert lines[0] == "rank,alternative,overall_cost,acceptable"
    assert lines[1] == "1,IRH+IRN,52600,true"
    assert len(lines) == 4


def test_pessimistic_uses_upper_endpoints():
    rng = np.random.default_rng(29)
    for _ in range(10):
        m = random_model(rng, interval=True, with_criteria=False)
        for ca in _all_subsets(m, cap=20)[:4]:
            assert overall_cost(m, ca, pessimistic=True) >= overall_cost(m, ca) - 1e-9


def test_overall_cost_independent_of_hash_seed():
    # Twelve expenditures whose float sum depends on the order of addition;
    # iterating the frozenset would make that order depend on PYTHONHASHSEED.
    code = """
from riskforge import parse, overall_cost
cms = "".join(
    f"countermeasure C{i} cost {cost}:1y\\n"
    for i, cost in enumerate([0.1, 0.2, 0.3, 1e3, 7.7, 0.07, 13.37, 99.99, 0.003, 1.1, 250.5, 3.3333])
)
model = parse('riskmodel "m" timeunit 1y\\nthreat T\\nincident R consequence 1\\n'
              'initiate T -> R frequency 1:1y\\n' + cms)
print(repr(overall_cost(model, frozenset(c.id for c in model.countermeasures))))
"""
    src = str(Path(riskforge.__file__).parent.parent)
    reprs = set()
    for seed in ("0", "1", "2", "3", "4", "5"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        reprs.add(out.stdout.strip())
    assert len(reprs) == 1


def test_nan_budget_is_rejected_and_a_negative_one_is_over_budget(ehealth):
    with pytest.raises(SynergyError, match="budget must be a number, not nan"):
        recommend(ehealth, budget=float("nan"))
    assert recommend(ehealth, budget=-1.0).outcome == "over_budget"


def _tied(model, rng):
    """The model with one expenditure for every countermeasure and no effect
    from about a third of its treats relations, so that costs tie."""
    spend = float(rng.choice([0.0, 250.0]))
    zero = Interval.point(0.0)
    return replace(
        model,
        countermeasures=tuple(replace(c, expenditure=spend) for c in model.countermeasures),
        treats=tuple(
            replace(t, freq_effect=zero, cons_effect=zero) if rng.random() < 0.35 else t
            for t in model.treats
        ),
    )


def test_lazy_ranking_matches_a_sort_of_scalar_entries():
    rng = np.random.default_rng(31)
    ties = 0
    for k in range(150):
        model = _tied(random_model(rng, interval=bool(k % 2), max_incidents=3, max_cms=6), rng)
        pessimistic = k % 3 == 0
        ranking = find_alternatives(model, pessimistic=pessimistic)
        entries = list(ranking)
        key = lambda g: (g.overall_cost, len(g.countermeasures), tuple(sorted(g.countermeasures)))
        assert [g.countermeasures for g in entries] == [
            g.countermeasures for g in sorted(entries, key=key)
        ]
        keys = [key(g)[:2] for g in entries]
        ties += len(keys) - len(set(keys))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # risks without criteria
            assert {g.countermeasures for g in entries} == {
                ca
                for ca in _all_subsets(model, cap=20)
                if all(acceptable(model, ca, pessimistic).values())
            }
        for i, g in enumerate(entries):
            ca = g.countermeasures
            assert g.overall_cost.hex() == overall_cost(model, ca, pessimistic).hex()
            reference = propagate(model, ca)
            assert set(g.per_risk_states) == {v.id for v in model.incidents}
            for risk, state in g.per_risk_states.items():
                assert state.alternative == ca
                assert state.frequency == reference[risk].frequency
                assert state.consequence == reference[risk].consequence
                assert state == ranking.states[risk][i]
                assert state.name == f"S{ranking.masks[i]}"  # as enumerate_states names it
        # The array writers match writing the entries.
        assert export_ranking_csv(ranking) == export_ranking_csv(entries)
        assert cli._ranking_json(ranking) == dsl._indented_json(
            [
                {"countermeasures": sorted(g.countermeasures), "overall_cost": g.overall_cost}
                for g in entries
            ],
            "\n  ",
        )
    assert ties > 300  # equal cost and size, so the id tie-break decided


TIE_MODEL = """\
riskmodel "ties" timeunit 1y
threat T
incident R consequence 1
initiate T -> R frequency 1:1y
countermeasure a cost 1:1y
countermeasure b cost 2:1y
countermeasure c cost 3:1y
countermeasure d cost 4:1y
"""


def test_tie_break_follows_ids_not_masks():
    # {a, d} is mask 9 and {b, c} mask 6; both cost 1 + 5 and hold two ids.
    ranking = find_alternatives(parse(TIE_MODEL))
    order = ["".join(sorted(g.countermeasures)) for g in ranking]
    assert order == [
        "", "a", "b", "c", "ab", "d", "ac", "ad", "bc", "bd", "abc", "cd", "abd", "acd", "bcd",
        "abcd",
    ]  # fmt: skip
    assert export_ranking_csv(ranking).splitlines()[8:10] == ["8,a+d,6,true", "9,b+c,6,true"]
    # Without an incident, only expenditures count.
    bare = TIE_MODEL.replace("incident R consequence 1\ninitiate T -> R frequency 1:1y\n", "")
    ranking = find_alternatives(parse(bare))
    assert ["".join(sorted(g.countermeasures)) for g in ranking] == order
    assert [g.overall_cost for g in ranking][:3] == [0.0, 1.0, 2.0]
    assert all(not g.per_risk_states for g in ranking)


def test_ranking_is_a_read_only_sequence(ehealth_rounded):
    ranking = recommend(ehealth_rounded).ranking
    entries = list(ranking)
    assert len(ranking) == len(entries) == 3
    assert ranking[-1] == entries[-1] == ranking[2]
    assert ranking[1:] == tuple(entries[1:])
    assert entries[0] in ranking
    with pytest.raises(IndexError):
        ranking[3]
    with pytest.raises(TypeError):
        ranking[0] = entries[0]


HUGE_MODEL = """\
riskmodel "huge" timeunit 1y
threat T
scenario A
incident R consequence 1
initiate T -> A frequency 1:1y
leadsto A -> R likelihood 1
countermeasure C cost 1:1y
treats C -> A effect 0.5L 0C
"""


@pytest.mark.parametrize(
    "change, message",
    [
        (
            {"consequence 1\n": "consequence 1e200\n", "frequency 1:1y": "frequency 1e200:1y"},
            "risk 'R'",
        ),
        ({"frequency 1:1y": "frequency 1e200:1y", "likelihood 1": "likelihood 1e200"}, "risk 'R'"),
        (
            {
                "consequence 1\n": "consequence 8e307\nincident Q consequence 8e307\n",
                "frequency 1:1y": "frequency 2:1y",  # 1.6e308 per risk, finite
                "likelihood 1\n": "likelihood 1\nleadsto A -> Q likelihood 1\n",
            },
            "overall cost",
        ),
    ],
)
def test_a_non_finite_cost_is_an_error(tmp_path, capsys, change, message):
    text = HUGE_MODEL
    for old, new in change.items():
        text = text.replace(old, new)
    path = tmp_path / "huge.riskdsl"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy RuntimeWarning either
        with pytest.raises(SynergyError, match=f"^{message}.* is not a finite number$"):
            recommend(parse(text))
        assert cli.run(["synergy", str(path), "--format", "json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1

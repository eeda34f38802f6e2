"""Global countermeasure-alternative search: filter by acceptance criteria,
rank by overall cost, recommend."""

from __future__ import annotations

import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import compress
from types import MappingProxyType
from typing import Mapping, Optional

import numpy as np

from .analysis import RiskState, States
from .calculus import Alternative, propagate
from .engine import DEFAULT_SUBSET_CAP, ArraySequence, CompiledModel, _selected, joined
from .intervals import midpoint
from .model import RiskModel


class SynergyError(Exception):
    pass


@dataclass(frozen=True)
class GlobalAlternative:
    countermeasures: Alternative
    per_risk_states: Mapping[str, RiskState]  # read-only, by risk id
    overall_cost: float  # per base period

    def __post_init__(self):
        object.__setattr__(self, "per_risk_states", MappingProxyType(dict(self.per_risk_states)))


@dataclass(frozen=True)
class RiskGap:
    """Best achievable residual for one risk versus its acceptance bounds."""

    risk: str
    best_frequency: float
    best_risk_cost: float
    max_frequency: Optional[float]
    max_risk_cost: Optional[float]


@dataclass(frozen=True)
class Recommendation:
    outcome: str  # "recommended", "no_feasible" or "over_budget"
    best: Optional[GlobalAlternative] = None
    budget: Optional[float] = None
    report: tuple[RiskGap, ...] = ()
    # read-only, built lazily: a Ranking, or () when no alternative is acceptable
    ranking: Sequence[GlobalAlternative] = field(default=(), repr=False)


def risk_cost(state: RiskState, pessimistic: bool = False) -> float:
    """Expected loss per base period: consequence times frequency.

    Midpoints by default; with pessimistic=True the interval upper endpoints.
    """
    if pessimistic:
        return state.frequency.hi * state.consequence.hi
    return state.frequency.midpoint * state.consequence.midpoint


def _states_under(model: RiskModel, ca: Alternative) -> dict[str, RiskState]:
    results = propagate(model, ca)
    return {
        v.id: RiskState(v.id, ca, results[v.id].frequency, results[v.id].consequence)
        for v in model.incidents
    }


def overall_cost(model: RiskModel, ca: Alternative, pessimistic: bool = False) -> float:
    """Residual risk cost over all risks plus countermeasure expenditures,
    everything per the model's base period."""
    states = _states_under(model, ca)
    total = sum(risk_cost(s, pessimistic) for s in states.values())
    # Sorted ids make the float sum independent of frozenset (hash) order.
    total += sum(
        model.countermeasure(cid).expenditure_per(model.base_period) for cid in sorted(ca)
    )
    return total


def acceptable(
    model: RiskModel, ca: Alternative, pessimistic: bool = False
) -> dict[str, bool]:
    """Per-risk verdict against the model's acceptance criteria.

    Risks without criteria are vacuously acceptable (warned once per call).
    """
    by_risk = {a.risk: a for a in model.criteria}
    verdicts: dict[str, bool] = {}
    for risk, state in _states_under(model, ca).items():
        crit = by_risk.get(risk)
        if crit is None:
            warnings.warn(f"risk {risk!r} has no acceptance criterion; treated as acceptable")
            verdicts[risk] = True
            continue
        max_f, max_c = crit.bounds(model.base_period)
        ok = True
        if max_f is not None:
            freq = state.frequency.hi if pessimistic else state.frequency.midpoint
            ok = ok and freq <= max_f
        if max_c is not None:
            ok = ok and risk_cost(state, pessimistic) <= max_c
        verdicts[risk] = ok
    return verdicts


def find_alternatives(
    model: RiskModel, cap: int = DEFAULT_SUBSET_CAP, pessimistic: bool = False
) -> Ranking:
    """Exhaustively rank the acceptable global alternatives by overall cost.

    Ties break on smaller set size, then lexicographic countermeasure ids.
    """
    return _search(model, cap, pessimistic)[0]


class Ranking(ArraySequence):
    """Ranked alternatives kept as arrays: ``ids`` the sorted countermeasure
    ids (bit i for ids[i]), ``masks`` and ``costs`` in rank order, and per risk
    its ``states`` over the ranked masks, each named by its mask. The
    GlobalAlternative of rank i is built only when it is read."""

    def __init__(self, ids: tuple[str, ...], masks, costs, states: dict[str, States]):
        self.ids, self.masks, self.costs, self.states = ids, masks, costs, states

    def __len__(self) -> int:
        return len(self.masks)

    def _entry(self, i: int) -> GlobalAlternative:
        ca = frozenset(compress(self.ids, _selected(self.masks[i], len(self.ids))))
        states = {risk: s[i] for risk, s in self.states.items()}
        return GlobalAlternative(ca, states, float(self.costs[i]))


def _search(model: RiskModel, cap: int, pessimistic: bool) -> tuple[Ranking, tuple[RiskGap, ...]]:
    """One pass over every subset: the ranking of the acceptable alternatives
    and, per risk, the best residual any subset reaches (the gap report)."""
    n = len(model.countermeasures)
    if n > cap:
        raise SynergyError(f"{n} countermeasures exceed the enumeration cap of {cap}")
    risks = [v.id for v in model.incidents]
    compiled = CompiledModel(model, outputs=risks)
    kept: list[tuple[np.ndarray, ...]] = []  # masks, costs, then per risk its 4 value rows
    best: dict[str, tuple[float, float]] = {}
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite values are raised below
        for masks, columns in compiled.chunks():
            cost = 0.0
            feasible = np.ones(len(masks), dtype=bool)
            for risk in risks:
                f_lo, f_hi, c_lo, c_hi = columns[risk]
                if pessimistic:
                    freq, r_cost = f_hi, f_hi * c_hi
                else:
                    freq = midpoint(f_lo, f_hi)
                    r_cost = freq * midpoint(c_lo, c_hi)
                if not np.isfinite(r_cost).all():  # inf or nan too when the frequency is
                    raise SynergyError(f"risk {risk!r}: residual risk cost is not a finite number")
                cost = cost + r_cost
                max_f, max_c = compiled.bounds.get(risk, (None, None))
                if max_f is not None:
                    feasible &= freq <= max_f
                if max_c is not None:
                    feasible &= r_cost <= max_c
                # argmin returns the first of equal minima (0.0 before -0.0 or the
                # reverse), as a running min() over the subsets in mask order does.
                chunk_best = (float(freq[freq.argmin()]), float(r_cost[r_cost.argmin()]))
                if risk in best:
                    chunk_best = tuple(map(min, best[risk], chunk_best))
                best[risk] = chunk_best
            cost = cost + compiled.expenditure(masks)
            if not np.isfinite(cost).all():
                raise SynergyError("overall cost is not a finite number")
            keep = np.flatnonzero(feasible)
            values = (np.array([c[keep] for c in columns[risk]]) for risk in risks)
            kept.append((masks[keep], cost[keep], *values))
    masks, costs, *values = (np.concatenate(part, axis=-1) for part in zip(*kept))
    # Bit i is the i-th sorted id, so among sets of one size, the one holding
    # the lowest differing bit, which has the larger bit-reversed mask, sorts
    # first by tuple(sorted(ids)).
    bits = _selected(masks, n)
    order = np.lexsort((-((1 << np.arange(n)[::-1]) @ bits), bits.sum(0), costs))
    masks = masks[order]
    states = {
        risk: States(risk, compiled.countermeasures, masks, masks, v[:, order])
        for risk, v in zip(risks, values)
    }
    report = tuple(
        RiskGap(risk, *best[risk], *compiled.bounds.get(risk, (None, None)))
        for risk in sorted(best)
    )
    return Ranking(compiled.countermeasures, masks, costs[order], states), report


def recommend(
    model: RiskModel,
    budget: Optional[float] = None,
    cap: int = DEFAULT_SUBSET_CAP,
    pessimistic: bool = False,
) -> Recommendation:
    """Pick the cheapest acceptable global alternative, or explain why none fits.

    The full ranking it was picked from comes along as ``ranking``.
    """
    if budget is not None and math.isnan(budget):  # no cost compares with NaN
        raise SynergyError("budget must be a number, not nan")
    ranking, report = _search(model, cap, pessimistic)
    if not ranking:
        return Recommendation("no_feasible", report=report)
    best = ranking[0]
    if budget is not None and best.overall_cost > budget:
        return Recommendation("over_budget", best=best, budget=budget, ranking=ranking)
    return Recommendation("recommended", best=best, ranking=ranking)


def export_ranking_csv(ranked: Sequence[GlobalAlternative]) -> str:
    """CSV ranking: rank,alternative,overall_cost,acceptable. A Ranking is
    written from its arrays."""
    if isinstance(ranked, Ranking):
        alternatives = joined(ranked.ids, ranked.masks, "+".__add__)
        alternatives = [a[1:] for a in alternatives]
        costs = ranked.costs.tolist()
    else:
        alternatives = ["+".join(sorted(g.countermeasures)) for g in ranked]
        costs = [g.overall_cost for g in ranked]
    lines = ["rank,alternative,overall_cost,acceptable"]
    for i, (alt, cost) in enumerate(zip(alternatives, costs), start=1):
        lines.append(f"{i},{alt},{cost:g},true")
    return "\n".join(lines) + "\n"

"""Global countermeasure-alternative search: filter by acceptance criteria,
rank by overall cost, recommend."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Optional

import numpy as np

from .analysis import RiskState
from .calculus import Alternative, propagate
from .engine import DEFAULT_SUBSET_CAP, CompiledModel
from .intervals import Interval
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
    ranking: tuple[GlobalAlternative, ...] = field(default=(), repr=False)


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
    return _verdicts(model, _states_under(model, ca), pessimistic, warn=True)


def _verdicts(
    model: RiskModel,
    states: dict[str, RiskState],
    pessimistic: bool,
    warn: bool,
) -> dict[str, bool]:
    by_risk = {a.risk: a for a in model.criteria}
    verdicts: dict[str, bool] = {}
    for risk, state in states.items():
        crit = by_risk.get(risk)
        if crit is None:
            if warn:
                warnings.warn(
                    f"risk {risk!r} has no acceptance criterion; treated as acceptable"
                )
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
) -> list[GlobalAlternative]:
    """Exhaustively rank the acceptable global alternatives by overall cost.

    Ties break on smaller set size, then lexicographic countermeasure ids.
    """
    return _search(model, cap, pessimistic)[0]


def _search(
    model: RiskModel, cap: int, pessimistic: bool
) -> tuple[list[GlobalAlternative], tuple[RiskGap, ...]]:
    """One pass over every subset: the ranking of the acceptable alternatives
    and, per risk, the best residual any subset reaches (the gap report)."""
    n = len(model.countermeasures)
    if n > cap:
        raise SynergyError(f"{n} countermeasures exceed the enumeration cap of {cap}")
    risks = [v.id for v in model.incidents]
    compiled = CompiledModel(model, outputs=risks)
    ranked = []
    best: dict[str, tuple[float, float]] = {}
    for masks, columns in compiled.chunks():
        cost = 0.0
        feasible = np.ones(len(masks), dtype=bool)
        for risk in risks:
            f_lo, f_hi, c_lo, c_hi = columns[risk]
            if pessimistic:
                freq, r_cost = f_hi, f_hi * c_hi
            else:
                freq = 0.5 * (f_lo + f_hi)
                r_cost = freq * (0.5 * (c_lo + c_hi))
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
        ranked += _alternatives(compiled, masks, columns, cost, risks, np.flatnonzero(feasible))
    ranked.sort(
        key=lambda g: (g.overall_cost, len(g.countermeasures), tuple(sorted(g.countermeasures)))
    )
    report = tuple(
        RiskGap(risk, *best[risk], *compiled.bounds.get(risk, (None, None)))
        for risk in sorted(best)
    )
    return ranked, report


def _alternatives(compiled, masks, columns, cost, risks, keep) -> list[GlobalAlternative]:
    """GlobalAlternatives for the kept columns, read out once per column array."""
    values = {risk: [c[keep].tolist() for c in columns[risk]] for risk in risks}
    alternatives = []
    for j, (mask, total) in enumerate(zip(masks[keep].tolist(), cost[keep].tolist())):
        ca = compiled.subset(mask)
        states = {}
        for risk in risks:
            f_lo, f_hi, c_lo, c_hi = values[risk]
            states[risk] = RiskState(
                risk, ca, Interval(f_lo[j], f_hi[j]), Interval(c_lo[j], c_hi[j])
            )
        alternatives.append(GlobalAlternative(ca, states, total))
    return alternatives


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
    ranked, report = _search(model, cap, pessimistic)
    if not ranked:
        return Recommendation("no_feasible", report=report)
    best, ranking = ranked[0], tuple(ranked)
    if budget is not None and best.overall_cost > budget:
        return Recommendation("over_budget", best=best, budget=budget, ranking=ranking)
    return Recommendation("recommended", best=best, ranking=ranking)


def export_ranking_csv(ranked: list[GlobalAlternative]) -> str:
    """CSV ranking: rank,alternative,overall_cost,acceptable."""
    lines = ["rank,alternative,overall_cost,acceptable"]
    for i, g in enumerate(ranked, start=1):
        alt = "+".join(sorted(g.countermeasures))
        lines.append(f"{i},{alt},{g.overall_cost:g},true")
    return "\n".join(lines) + "\n"

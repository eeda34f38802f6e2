"""Global countermeasure-alternative search: filter by acceptance criteria,
rank by overall cost, recommend."""

from __future__ import annotations

import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Optional

import numpy as np

from .analysis import RiskState
from .calculus import Alternative, propagate
from .engine import DEFAULT_SUBSET_CAP, ArraySequence, CompiledModel, joined
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
) -> Ranking:
    """Exhaustively rank the acceptable global alternatives by overall cost.

    Ties break on smaller set size, then lexicographic countermeasure ids.
    """
    return _search(model, cap, pessimistic)[0]


class Ranking(ArraySequence):
    """Ranked alternatives kept as arrays: ``masks`` and ``costs`` in rank
    order, and the GlobalAlternative of rank i built only when it is read."""

    def __init__(self, compiled: CompiledModel, risks: list, masks, costs, values):
        self.compiled, self.risks, self.masks, self.costs = compiled, risks, masks, costs
        self._values = values  # (4 endpoints per risk, rank)

    def __len__(self) -> int:
        return len(self.masks)

    def _entry(self, i: int) -> GlobalAlternative:
        ca = self.compiled.subset(int(self.masks[i]))
        values = iter(self._values[:, i].tolist())
        states = {
            risk: RiskState(risk, ca, Interval(f_lo, f_hi), Interval(c_lo, c_hi))
            for risk, f_lo, f_hi, c_lo, c_hi in zip(self.risks, *[values] * 4)
        }
        return GlobalAlternative(ca, states, float(self.costs[i]))


def _search(model: RiskModel, cap: int, pessimistic: bool) -> tuple[Ranking, tuple[RiskGap, ...]]:
    """One pass over every subset: the ranking of the acceptable alternatives
    and, per risk, the best residual any subset reaches (the gap report)."""
    n = len(model.countermeasures)
    if n > cap:
        raise SynergyError(f"{n} countermeasures exceed the enumeration cap of {cap}")
    risks = [v.id for v in model.incidents]
    compiled = CompiledModel(model, outputs=risks)
    kept: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []  # masks, costs, values
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
                    freq = 0.5 * (f_lo + f_hi)
                    r_cost = freq * (0.5 * (c_lo + c_hi))
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
            values = [c[keep] for risk in risks for c in columns[risk]]
            values = np.reshape(values, (4 * len(risks), len(keep)))  # also with no risk
            kept.append((masks[keep], cost[keep], values))
    masks, costs, values = (np.concatenate(part, axis=-1) for part in zip(*kept))
    # Bit i is the i-th sorted id, so among sets of one size, the one holding
    # the lowest differing bit, which has the larger bit-reversed mask, sorts
    # first by tuple(sorted(ids)).
    size, reversed_mask = np.zeros_like(masks), np.zeros_like(masks)
    for i in range(n):
        bit = masks >> i & 1
        size += bit
        reversed_mask |= bit << (n - 1 - i)
    order = np.lexsort((-reversed_mask, size, costs))
    report = tuple(
        RiskGap(risk, *best[risk], *compiled.bounds.get(risk, (None, None)))
        for risk in sorted(best)
    )
    return Ranking(compiled, risks, masks[order], costs[order], values[:, order]), report


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
        alternatives = joined(ranked.compiled.countermeasures, ranked.masks, "+".__add__)
        alternatives = [a[1:] for a in alternatives]
        costs = ranked.costs.tolist()
    else:
        alternatives = ["+".join(sorted(g.countermeasures)) for g in ranked]
        costs = [g.overall_cost for g in ranked]
    lines = ["rank,alternative,overall_cost,acceptable"]
    for i, (alt, cost) in enumerate(zip(alternatives, costs), start=1):
        lines.append(f"{i},{alt},{cost:g},true")
    return "\n".join(lines) + "\n"

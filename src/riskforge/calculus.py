"""Propagation of frequencies and consequences under a countermeasure alternative."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .intervals import Interval
from .model import (
    DependsRel,
    MergePolicy,
    RiskModel,
    TreatsRel,
    Vertex,
    known_diagnostics,
    mark_valid,
    topological_order,
    validate,
)

Alternative = frozenset
EXCLUSIVE_REL_TOL = 1e-9  # relative agreement required of exclusive contributions


class CalculusError(Exception):
    pass


@dataclass(frozen=True)
class VertexResult:
    frequency: Interval  # occurrences per base period
    consequence: Interval


def effective_effect(
    treats: TreatsRel, selected: Alternative, deps: Iterable[DependsRel]
) -> tuple[Interval, Interval]:
    """Reduction effect of a selected countermeasure after active dependencies.

    Each dependency whose depending countermeasure is also selected scales the
    effect by (1 - d); unselected countermeasures exert no influence.
    """
    freq = treats.freq_effect
    cons = treats.cons_effect
    for d in deps:
        if d.treats_key == treats.key and d.countermeasure in selected:
            freq = freq * d.freq_dep.complement()
            cons = cons * d.cons_dep.complement()
    return freq, cons


def apply_countermeasures(
    freq: Interval, cons: Interval, effects: Iterable[tuple[Interval, Interval]]
) -> tuple[Interval, Interval]:
    """Multiply residuals by the surviving fraction of every effect.

    Effects are applied in a canonical value order so the result is identical
    bit-for-bit no matter how the caller ordered the list.
    """
    ordered = sorted(effects, key=lambda e: (e[0].lo, e[0].hi, e[1].lo, e[1].hi))
    for e_f, e_i in ordered:
        freq = freq * e_f.complement()
        cons = cons * e_i.complement()
    return freq, cons


def propagate_leadsto(freq_source: Interval, likelihood: Interval) -> Interval:
    """Frequency contributed over a leads-to relation: source rate times likelihood."""
    if likelihood.lo < 0:
        raise CalculusError("leads-to likelihood must be >= 0")
    return freq_source * likelihood


def combine_incoming(
    contributions: list[Interval], policy: MergePolicy, vertex_id: str = "?"
) -> Interval:
    """Merge the frequency contributions arriving at one vertex.

    Separate vertices sum (disjoint event classes); mutually exclusive vertices
    require all contributions to agree and yield that shared value; overlapping
    vertices yield [max of lows, sum of highs].
    """
    if not contributions:
        raise CalculusError(f"no contributions to combine at {vertex_id!r}")
    if policy is MergePolicy.SEPARATE:
        total = contributions[0]
        for c in contributions[1:]:
            total = total + c
        return total
    if policy is MergePolicy.EXCLUSIVE:
        first = contributions[0]
        for c in contributions[1:]:
            for a, b in ((first.lo, c.lo), (first.hi, c.hi)):
                if abs(a - b) > EXCLUSIVE_REL_TOL * max(abs(a), abs(b), 1.0):
                    raise CalculusError(
                        f"mutually exclusive vertex {vertex_id!r} has unequal "
                        f"contributions {first} and {c}"
                    )
        return first
    # Overlapping: nothing is known about how the incoming event classes relate.
    return Interval(
        max(c.lo for c in contributions), sum(c.hi for c in contributions)
    )


def _check_valid(model: RiskModel):
    if known_diagnostics(model) is not None:
        return
    diagnostics = validate(model)
    errors = [d for d in diagnostics if d.is_error]
    if errors:
        raise CalculusError(
            "cannot propagate over an invalid model: " + "; ".join(d.message for d in errors)
        )
    mark_valid(model, diagnostics)


def evaluation_plan(model: RiskModel) -> list[tuple[Vertex, list, list, list]]:
    """The order in which the calculus evaluates a valid model.

    One ``(vertex, initiates, leadsto, treats)`` entry per core vertex, in
    the smallest topological order (``model.topological_order``, the walk on
    which ``validate`` checks acyclicity): its incoming initiate and leads-to
    relations, each sorted by source, and the treats relations on it, sorted
    by countermeasure id. Every evaluator walks this plan, so this is the one
    place the evaluation order is decided.
    """
    core = {v.id: v for v in model.core_vertices}
    initiates: dict[str, list] = {vid: [] for vid in core}
    leadsto: dict[str, list] = {vid: [] for vid in core}
    treats: dict[str, list] = {vid: [] for vid in core}
    for r in sorted(model.initiates, key=lambda r: r.source):
        initiates[r.target].append(r)
    for r in sorted(model.leadsto, key=lambda r: r.source):
        leadsto[r.target].append(r)
    for t in sorted(model.treats, key=lambda t: t.countermeasure):
        treats[t.target].append(t)
    order, _ = topological_order(core, ((r.source, r.target) for r in model.leadsto))
    return [(core[vid], initiates[vid], leadsto[vid], treats[vid]) for vid in order]


def cone(plan: list[tuple[Vertex, list, list, list]], targets: Iterable[str]) -> set[str]:
    """Ids of the vertices whose frequency reaches a target, targets included.

    One pass backwards over an ``evaluation_plan``, in which every vertex
    comes after all those that feed it.
    """
    reached = set(targets)
    for v, _, leadsto, _ in reversed(plan):
        if v.id in reached:
            reached.update(r.source for r in leadsto)
    return reached


def propagate(model: RiskModel, alternative: Alternative) -> dict[str, VertexResult]:
    """Residual (frequency, consequence) for every core vertex.

    Walks the DAG in topological order: incoming contributions are gathered
    from initiate frequencies and leads-to relations, merged per the vertex's
    policy, then reduced by every selected countermeasure treating the vertex.
    """
    _check_valid(model)
    unknown = alternative - {c.id for c in model.countermeasures}
    if unknown:
        raise CalculusError(f"unknown countermeasures in alternative: {sorted(unknown)}")

    results: dict[str, VertexResult] = {}
    for v, initiates, leadsto, treats in evaluation_plan(model):
        contributions = [r.frequency.per_period(model.base_period) for r in initiates]
        contributions += [
            propagate_leadsto(results[r.source].frequency, r.likelihood) for r in leadsto
        ]
        if contributions:
            freq = combine_incoming(contributions, v.merge_policy, v.id)
        else:
            freq = Interval.point(0.0)
        cons = v.consequence if v.consequence is not None else Interval.point(0.0)

        effects = [
            effective_effect(t, alternative, model.depends)
            for t in treats
            if t.countermeasure in alternative
        ]
        freq, cons = apply_countermeasures(freq, cons, effects)
        if not (math.isfinite(freq.lo) and math.isfinite(freq.hi)):  # a consequence only shrinks
            raise CalculusError(f"vertex {v.id!r}: residual frequency is not a finite number")
        results[v.id] = VertexResult(freq, cons)
    return results

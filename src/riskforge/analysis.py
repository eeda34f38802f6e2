"""Per-risk countermeasure analysis: state enumeration and decision diagrams."""

from __future__ import annotations

import io
from dataclasses import dataclass

from .calculus import Alternative, _check_valid, evaluation_plan
from .engine import DEFAULT_SUBSET_CAP, CompiledModel
from .intervals import Interval
from .model import RiskModel, VertexKind


class AnalysisError(Exception):
    pass


@dataclass(frozen=True)
class RiskState:
    """A risk's residual value under one countermeasure alternative."""

    risk: str
    alternative: Alternative
    frequency: Interval  # per base period
    consequence: Interval

    @property
    def name(self) -> str:
        # Assigned by enumeration order; S0 is the untreated state.
        return f"S{self.index}"

    index: int = 0


@dataclass(frozen=True)
class DecisionDiagram:
    states: tuple[RiskState, ...]
    edges: tuple[tuple[int, int, str], ...]  # (from index, to index, added countermeasure)
    initial: RiskState
    pruned: tuple[RiskState, ...] = ()


def applicable_countermeasures(model: RiskModel, risk: str) -> set[str]:
    """Countermeasures treating the risk vertex or any of its ancestors."""
    try:
        kind = model.vertex(risk).kind
    except KeyError:
        raise AnalysisError(f"unknown risk {risk!r}") from None
    if kind is not VertexKind.UNWANTED_INCIDENT:
        raise AnalysisError(f"{risk!r} is not an unwanted incident")
    _check_valid(model)
    # Backwards over the plan, every vertex comes after all those it feeds.
    relevant, cms = {risk}, set()
    for v, _, leadsto, treats in reversed(evaluation_plan(model)):
        if v.id in relevant:
            relevant.update(r.source for r in leadsto)
            cms.update(t.countermeasure for t in treats)
    return cms


def enumerate_states(
    model: RiskModel, risk: str, cap: int = DEFAULT_SUBSET_CAP
) -> list[RiskState]:
    """All 2^n risk states for the risk's applicable countermeasures.

    Subsets are visited in binary-counter order over the sorted countermeasure
    ids, so the output order is deterministic.
    """
    cms = sorted(applicable_countermeasures(model, risk))
    if len(cms) > cap:
        raise AnalysisError(
            f"{len(cms)} applicable countermeasures exceed the cap of {cap}; "
            f"filter the model down per risk before enumerating"
        )
    compiled = CompiledModel(model, cms, outputs=[risk])
    states = []
    for masks, columns in compiled.chunks():
        rows = zip(masks.tolist(), *(c.tolist() for c in columns[risk]))
        for mask, f_lo, f_hi, c_lo, c_hi in rows:
            states.append(
                RiskState(
                    risk,
                    compiled.subset(mask),
                    Interval(f_lo, f_hi),
                    Interval(c_lo, c_hi),
                    index=mask,
                )
            )
    return states


def build_decision_diagram(states: list[RiskState]) -> DecisionDiagram:
    """Connect states differing by one added countermeasure; drop states worse
    than the untreated state on both axes (interval midpoints)."""
    initial = next((s for s in states if not s.alternative), None)
    if initial is None:
        raise AnalysisError("no untreated state among the states")
    kept, pruned = [], []
    for s in states:
        if (
            s is not initial
            and s.frequency.midpoint > initial.frequency.midpoint
            and s.consequence.midpoint > initial.consequence.midpoint
        ):
            pruned.append(s)
        else:
            kept.append(s)
    # Looking up each state's one-step supersets keeps this O(n 2^n). Edges
    # are ordered by (from, to) position in the kept list, as DOT output expects.
    positions: dict[Alternative, list[int]] = {}
    for j, s in enumerate(kept):
        positions.setdefault(s.alternative, []).append(j)
    universe = frozenset().union(*positions)
    edges = []
    for i, s in enumerate(kept):
        for cm in universe - s.alternative:
            for j in positions.get(s.alternative | {cm}, ()):
                edges.append((i, j, cm))
    edges.sort()
    edges = [(kept[i].index, kept[j].index, cm) for i, j, cm in edges]
    return DecisionDiagram(tuple(kept), tuple(edges), initial, tuple(pruned))


def export_dot(diagram: DecisionDiagram) -> str:
    """DOT text; node positions put frequency on X and consequence on Y."""
    out = io.StringIO()
    out.write("digraph decision {\n")
    out.write("  node [shape=circle];\n")
    for s in diagram.states:
        f, co = s.frequency.midpoint, s.consequence.midpoint
        out.write(
            f'  {s.name} [label="{s.name}\\n({s.frequency}, {s.consequence})" '
            f'pos="{f:g},{co:g}!"];\n'
        )
    for a, b, cm in diagram.edges:
        out.write(f'  S{a} -> S{b} [label="{cm}"];\n')
    out.write("}\n")
    return out.getvalue()


def export_csv(states: list[RiskState]) -> str:
    """CSV of states: state,alternative,frequency,consequence."""
    lines = ["state,alternative,frequency,consequence"]
    for s in states:
        alt = "+".join(sorted(s.alternative))
        lines.append(f"S{s.index},{alt},{s.frequency},{s.consequence}")
    return "\n".join(lines) + "\n"

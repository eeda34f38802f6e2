from dataclasses import replace

import numpy as np
import pytest

from riskforge import (
    DecisionDiagram,
    applicable_countermeasures,
    build_decision_diagram,
    enumerate_states,
    export_csv,
    export_dot,
)
from riskforge.analysis import AnalysisError

from genmodels import random_model

LMD_TABLE = {
    frozenset(): 26.4,
    frozenset({"IRH"}): 21.36,
    frozenset({"IRN"}): 12.96,
    frozenset({"EQS"}): 12.96,
    frozenset({"IRN", "IRH"}): 7.92,
    frozenset({"EQS", "IRH"}): 7.92,
    frozenset({"IRN", "EQS"}): 10.1376,
    frozenset({"IRN", "EQS", "IRH"}): 5.0976,
}


def test_applicable_countermeasures_lmd(ehealth):
    assert applicable_countermeasures(ehealth, "LMD") == {"IRN", "EQS", "IRH"}


def test_applicable_countermeasures_rejects_non_incident(ehealth):
    with pytest.raises(AnalysisError):
        applicable_countermeasures(ehealth, "NCD")


def test_applicable_excludes_other_branches():
    rng = np.random.default_rng(3)
    # Hand-built: countermeasure on a scenario not upstream of the risk.
    from riskforge import (
        Countermeasure,
        Frequency,
        InitiateRel,
        Interval,
        LeadsToRel,
        Period,
        RiskModel,
        TreatsRel,
        Vertex,
        VertexKind,
    )

    p = Period(1, "y")
    m = RiskModel(
        name="branches",
        base_period=p,
        vertices=(
            Vertex("T", VertexKind.THREAT),
            Vertex("A", VertexKind.THREAT_SCENARIO),
            Vertex("B", VertexKind.THREAT_SCENARIO),
            Vertex("R1", VertexKind.UNWANTED_INCIDENT, consequence=Interval.point(1.0)),
            Vertex("R2", VertexKind.UNWANTED_INCIDENT, consequence=Interval.point(1.0)),
        ),
        initiates=(
            InitiateRel("T", "A", Frequency(Interval.point(1.0), p)),
            InitiateRel("T", "B", Frequency(Interval.point(1.0), p)),
        ),
        leadsto=(
            LeadsToRel("A", "R1", Interval.point(0.5)),
            LeadsToRel("B", "R2", Interval.point(0.5)),
        ),
        countermeasures=(Countermeasure("cB", per=p),),
        treats=(TreatsRel("cB", "B", Interval.point(0.5), Interval.point(0.0)),),
    )
    assert applicable_countermeasures(m, "R1") == set()
    assert applicable_countermeasures(m, "R2") == {"cB"}


def test_enumerate_states_lmd(ehealth):
    states = enumerate_states(ehealth, "LMD")
    assert len(states) == 8
    for s in states:
        assert s.frequency.lo == pytest.approx(LMD_TABLE[s.alternative])
        assert s.consequence.lo == pytest.approx(5000.0)
    # Deterministic binary-counter order over sorted ids EQS, IRH, IRN.
    assert states[0].alternative == frozenset()
    assert states[1].alternative == frozenset({"EQS"})
    assert states[2].alternative == frozenset({"IRH"})
    assert states[3].alternative == frozenset({"EQS", "IRH"})
    assert [s.index for s in states] == list(range(8))


def test_enumerate_states_keeps_equal_residuals_distinct(ehealth):
    states = enumerate_states(ehealth, "LMD")
    near = [s for s in states if s.frequency.lo == pytest.approx(12.96)]
    assert len(near) == 2
    assert near[0].alternative != near[1].alternative


def test_enumerate_states_cap(ehealth):
    with pytest.raises(AnalysisError, match="cap"):
        enumerate_states(ehealth, "LMD", cap=2)


def test_decision_diagram_is_hypercube(ehealth):
    states = enumerate_states(ehealth, "LMD")
    diagram = build_decision_diagram(states)
    assert len(diagram.states) == 8
    assert len(diagram.edges) == 12  # n * 2^(n-1) for n = 3
    assert len(diagram.pruned) == 0
    assert diagram.initial.alternative == frozenset()
    by_index = {s.index: s for s in diagram.states}
    for a, b, cm in diagram.edges:
        assert by_index[b].alternative == by_index[a].alternative | {cm}


def test_edges_read_by_position_as_their_tuple(ehealth):
    edges = build_decision_diagram(enumerate_states(ehealth, "LMD")).edges
    listed = tuple(edges)
    assert len(listed) == 12
    assert edges[0] == listed[0]
    assert edges[-1] == listed[-1]
    assert edges[1:3] == listed[1:3]
    assert all(type(x) is int for x in edges[0][:2])


def test_decision_diagram_single_state(ehealth):
    states = enumerate_states(ehealth, "LMD")
    diagram = build_decision_diagram(states[:1])
    assert len(diagram.states) == 1
    assert tuple(diagram.edges) == ()


def test_decision_diagram_needs_the_untreated_state(ehealth):
    states = enumerate_states(ehealth, "LMD")
    for subset in ([], states[1:]):
        with pytest.raises(AnalysisError, match="^no untreated state among the states$"):
            build_decision_diagram(subset)


def test_no_pruning_with_unit_effects():
    rng = np.random.default_rng(23)
    for _ in range(20):
        m = random_model(rng, max_cms=3)
        for risk in (v.id for v in m.incidents):
            if len(applicable_countermeasures(m, risk)) > 3:
                continue
            diagram = build_decision_diagram(enumerate_states(m, risk))
            assert len(diagram.pruned) == 0


def test_export_dot(ehealth):
    dot = export_dot(build_decision_diagram(enumerate_states(ehealth, "LMD")))
    assert dot.startswith("digraph")
    assert 'S0 [label="S0\\n(26.4, 5000)" pos="26.4,5000!"]' in dot


def test_export_csv(ehealth):
    csv = export_csv(enumerate_states(ehealth, "LMD"))
    lines = csv.strip().split("\n")
    assert lines[0] == "state,alternative,frequency,consequence"
    assert lines[1] == "S0,,26.4,5000"
    assert len(lines) == 9


def _pairwise_diagram(states):
    """The original O(4^n) construction: compare every pair of kept states."""
    initial = next(s for s in states if not s.alternative)
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
    edges = []
    for s in kept:
        for t in kept:
            added = t.alternative - s.alternative
            if len(added) == 1 and s.alternative <= t.alternative:
                edges.append((s.index, t.index, next(iter(added))))
    return tuple(kept), tuple(edges), initial, tuple(pruned)


def _reference_dot(states, edges):
    """The DOT that was written from RiskState objects, one f-string per line."""
    lines = ["digraph decision {\n", "  node [shape=circle];\n"]
    for s in states:
        f, c = s.frequency.midpoint, s.consequence.midpoint
        label = f"{s.name}\\n({s.frequency}, {s.consequence})"
        lines.append(f'  {s.name} [label="{label}" pos="{f:g},{c:g}!"];\n')
    lines += [f'  S{a} -> S{b} [label="{cm}"];\n' for a, b, cm in edges]
    return "".join(lines) + "}\n"


def _same_diagram(states):
    diagram = build_decision_diagram(states)
    got = (tuple(diagram.states), tuple(diagram.edges), diagram.initial, tuple(diagram.pruned))
    assert got == _pairwise_diagram(states)
    assert export_dot(diagram) == _reference_dot(*got[:2])
    return diagram


def test_decision_diagram_matches_pairwise_construction(ehealth):
    _same_diagram(enumerate_states(ehealth, "LMD"))
    rng = np.random.default_rng(31)
    pruned_seen, widest = 0, 0
    for trial in range(40):
        wide = trial % 4 == 0  # one incident and up to 8 countermeasures
        interval = bool(rng.random() < 0.5)
        m = random_model(rng, interval, max_incidents=1 if wide else 2, max_cms=8 if wide else 5)
        for risk in (v.id for v in m.incidents):
            states = enumerate_states(m, risk)
            widest = max(widest, len(states).bit_length() - 1)
            # The States sequence itself, and the plain list read back from it.
            _same_diagram(states)
            _same_diagram(list(states))
            assert export_csv(list(states)) == export_csv(states)
            # Shuffled and thinned lists that repeat two states, and states worse
            # than the untreated one, exercise list-order edges and pruning.
            order = rng.permutation(len(states))
            mixed = [states[i] for i in order if i == 0 or rng.random() < 0.8]
            worse = [
                replace(s, frequency=s.frequency.scale(3.0), consequence=s.consequence.scale(2.0))
                if s.alternative and rng.random() < 0.3
                else s
                for s in mixed
            ]
            pruned_seen += len(_same_diagram(worse + worse[-2:]).pruned)
    assert pruned_seen > 0 and widest == 8
    # 9 countermeasures give 2,304 edges, which export_dot writes in two blocks.
    wide = random_model(np.random.default_rng(18), True, max_incidents=1, max_cms=9)
    diagram = _same_diagram(enumerate_states(wide, wide.incidents[0].id))
    assert len(diagram.edges) == 9 * 2**8

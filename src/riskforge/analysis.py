"""Per-risk countermeasure analysis: state enumeration and decision diagrams."""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import chain, compress, islice

import numpy as np

from .calculus import Alternative, _check_valid, cone, evaluation_plan
from .engine import DEFAULT_SUBSET_CAP, ArraySequence, CompiledModel, _selected, joined
from .intervals import Interval, midpoint
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


class States(ArraySequence):
    """Risk states kept as arrays, the RiskState of entry i built only when it
    is read: ``ids`` the sorted countermeasure ids, and per state its
    ``indices``, its ``masks`` (bit i for ids[i]) and its residual ``values``,
    one row each for freq lo, freq hi, cons lo and cons hi."""

    def __init__(self, risk: str, ids: tuple[str, ...], indices, masks, values):
        self.risk, self.ids, self.indices, self.masks = risk, ids, indices, masks
        self.values = values

    @classmethod
    def of(cls, states: Iterable[RiskState]) -> States:
        """A plain list of one risk's states read into arrays; a States as it is."""
        if isinstance(states, States):
            return states
        states = list(states)
        if len({s.risk for s in states}) > 1:
            raise AnalysisError("states of more than one risk")
        ids = tuple(sorted(frozenset().union(*(s.alternative for s in states))))
        bit = {c: 1 << i for i, c in enumerate(ids)}
        masks = [sum(bit[c] for c in s.alternative) for s in states]
        pairs = [(i.lo, i.hi) for s in states for i in (s.frequency, s.consequence)]
        values = np.array(pairs, dtype=float).reshape(-1, 4).T
        indices, masks = (np.array(x, dtype=np.int64) for x in ([s.index for s in states], masks))
        return cls(states[0].risk if states else "", ids, indices, masks, values)

    def __len__(self) -> int:
        return len(self.masks)

    def _entry(self, i: int) -> RiskState:
        f_lo, f_hi, c_lo, c_hi = self.values[:, i].tolist()
        alternative = frozenset(compress(self.ids, _selected(self.masks[i], len(self.ids))))
        frequency, consequence = Interval(f_lo, f_hi), Interval(c_lo, c_hi)
        return RiskState(self.risk, alternative, frequency, consequence, int(self.indices[i]))

    def take(self, which: np.ndarray) -> States:
        """The states that a boolean array selects."""
        columns = (x[..., which] for x in (self.indices, self.masks, self.values))
        return States(self.risk, self.ids, *columns)

    def texts(self, number: str = "%g", pair: str = "[%s,%s]") -> list[list[str]]:
        """Per state, the text of its frequency and of its consequence: ``number``
        of lo where lo == hi, else ``pair`` of both numbers; by default Interval.__str__."""
        lo, hi = self.values[0::2].ravel().tolist(), self.values[1::2].ravel().tolist()
        texts = [number % a if a == b else pair % (number % a, number % b) for a, b in zip(lo, hi)]
        return [texts[: len(self)], texts[len(self) :]]


class Edges(ArraySequence):
    """(from index, to index, added countermeasure) per edge, kept as arrays."""

    def __init__(self, ids: tuple[str, ...], sources, targets, bits):
        self.ids, self.sources, self.targets, self.bits = ids, sources, targets, bits

    def __len__(self) -> int:
        return len(self.sources)

    def __iter__(self):
        for start in range(0, len(self), 2048):  # a block at a time bounds the lists made
            part = slice(start, start + 2048)
            names = map(self.ids.__getitem__, self.bits[part].tolist())
            yield from zip(self.sources[part].tolist(), self.targets[part].tolist(), names)

    def _entry(self, i: int) -> tuple[int, int, str]:
        return int(self.sources[i]), int(self.targets[i]), self.ids[self.bits[i]]


@dataclass(frozen=True)
class DecisionDiagram:
    states: Sequence[RiskState]  # a States when built by build_decision_diagram
    edges: Sequence[tuple[int, int, str]]  # (from index, to index, added countermeasure)
    initial: RiskState
    pruned: Sequence[RiskState] = ()


def applicable_countermeasures(model: RiskModel, risk: str) -> set[str]:
    """Countermeasures treating the risk vertex or any of its ancestors."""
    try:
        kind = model.vertex(risk).kind
    except KeyError:
        raise AnalysisError(f"unknown risk {risk!r}") from None
    if kind is not VertexKind.UNWANTED_INCIDENT:
        raise AnalysisError(f"{risk!r} is not an unwanted incident")
    _check_valid(model)
    plan = evaluation_plan(model)
    reached = cone(plan, [risk])
    return {t.countermeasure for v, _, _, treats in plan if v.id in reached for t in treats}


def enumerate_states(model: RiskModel, risk: str, cap: int = DEFAULT_SUBSET_CAP) -> States:
    """All 2^n risk states for the risk's applicable countermeasures, as a
    read-only States sequence in mask order: state i has mask i and index i,
    and bit b of a mask selects the b-th sorted countermeasure id."""
    cms = sorted(applicable_countermeasures(model, risk))
    if len(cms) > cap:
        raise AnalysisError(
            f"{len(cms)} applicable countermeasures exceed the cap of {cap}; "
            f"filter the model down per risk before enumerating"
        )
    compiled = CompiledModel(model, cms, outputs=[risk])
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite values are raised below
        values = np.concatenate([np.array(c[risk]) for _, c in compiled.chunks()], axis=1)
    if not np.isfinite(values[:2]).all():  # a consequence only shrinks
        raise AnalysisError(f"risk {risk!r}: residual frequency is not a finite number")
    masks = np.arange(len(values[0]))  # chunks() walks every mask in order
    return States(risk, tuple(cms), masks, masks, values)


def build_decision_diagram(states: Iterable[RiskState]) -> DecisionDiagram:
    """Connect states differing by one added countermeasure; drop states worse
    than the untreated state on both axes (interval midpoints). Edges are
    ordered by (from, to) position among the kept states."""
    states = States.of(states)
    untreated = np.flatnonzero(states.masks == 0)
    if not len(untreated):
        raise AnalysisError("no untreated state among the states")
    midpoints = midpoint(states.values[0::2], states.values[1::2])  # frequency, consequence
    worse = (midpoints > midpoints[:, untreated[:1]]).all(axis=0)
    kept = states.take(~worse)
    # Each kept state's one-bit supersets, by binary search (a plain list may repeat a mask).
    order = np.argsort(kept.masks, kind="stable")
    sources, bits = np.nonzero(~_selected(kept.masks, len(states.ids)).T)
    wanted = kept.masks[sources] | 1 << bits
    first = np.searchsorted(kept.masks[order], wanted)
    count = np.searchsorted(kept.masks[order], wanted, "right") - first
    sources, bits, first = (np.repeat(x, count) for x in (sources, bits, first))
    targets = order[first + np.arange(len(first)) - np.repeat(np.cumsum(count) - count, count)]
    rank = np.argsort(sources * len(kept) + targets, kind="stable")
    edges = Edges(states.ids, kept.indices[sources[rank]], kept.indices[targets[rank]], bits[rank])
    return DecisionDiagram(kept, edges, states[int(untreated[0])], states.take(worse))


def export_dot(diagram: DecisionDiagram) -> str:
    """DOT text; node positions put frequency on X and consequence on Y."""
    states = States.of(diagram.states)
    positions = midpoint(states.values[0::2], states.values[1::2]).tolist()
    rows = zip(states.indices.tolist(), *states.texts(), *positions)
    lines = ["digraph decision {\n  node [shape=circle];\n"]
    lines += (
        f'  S{i} [label="S{i}\\n({f}, {c})" pos="{x:g},{y:g}!"];\n' for i, f, c, x, y in rows
    )
    edges = iter(diagram.edges)  # one %-format per 2048 edges, and no bytecode per edge
    while block := tuple(chain.from_iterable(islice(edges, 2048))):
        lines.append('  S%s -> S%s [label="%s"];\n' * (len(block) // 3) % block)
    return "".join(lines + ["}\n"])


def export_csv(states: Iterable[RiskState]) -> str:
    """CSV of states: state,alternative,frequency,consequence. A plain list is
    read into a States first."""
    states = States.of(states)
    alternatives = [a[1:] for a in joined(states.ids, states.masks, "+".__add__)]
    rows = zip(states.indices.tolist(), alternatives, *states.texts())
    lines = [f"S{i},{a},{f},{c}\n" for i, a, f, c in rows]
    return "state,alternative,frequency,consequence\n" + "".join(lines)

"""Compiled evaluation of one model under many countermeasure subsets at once.

``CompiledModel`` validates a model once and keeps the part of
``calculus.evaluation_plan`` that its outputs need. ``evaluate`` then walks
that plan as ``propagate`` does and computes the residual frequency and
consequence of the requested vertices for a batch of subsets, one numpy
column per subset. Every value is bit-for-bit the one ``propagate`` gives,
because each column goes through the same floating-point operations in the
same order, which the plan decides:

- vertices come in topological order; contributions are merged initiates
  first, then leads-to, each sorted by source; overlapping fan-in takes
  ``0 + sum(hi)`` like Python's ``sum``;
- an effect is weakened by its selected dependers in ``model.depends`` order;
- a vertex's selected effects are applied in ascending
  ``(freq lo, freq hi, cons lo, cons hi)`` order, and an unselected effect is
  a factor of exactly 1.0, which is exact in any position.

Subsets are bit masks over a sorted tuple of countermeasure ids, bit i for
the i-th id, so masks count through the subsets in binary-counter order.
``chunks`` walks all 2^n masks at most ``CHUNK`` columns at a time, which
bounds memory at any n up to the enumeration cap.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .calculus import EXCLUSIVE_REL_TOL, _check_valid, combine_incoming, cone, evaluation_plan
from .intervals import Interval
from .model import MergePolicy, RiskModel, TreatsRel

DEFAULT_SUBSET_CAP = 20
CHUNK = 1 << 14  # subset columns evaluated together

Columns = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]  # freq lo, hi; cons lo, hi


class CompiledModel:
    """A validated model, kept as the evaluation plan its outputs need.

    ``countermeasures`` are the ids that may be selected (default: all of the
    model's, sorted); ``outputs`` the core vertices whose values ``evaluate``
    returns (default: all, in topological order). The plan keeps the cone of
    the outputs and of every mutually exclusive merge, so an evaluation fails
    exactly where ``propagate`` would. Per vertex, the constructor also keeps
    its selectable treats relations, each with its selectable dependers, and
    the vertices whose frequencies are no longer read once it is evaluated.
    """

    def __init__(
        self,
        model: RiskModel,
        countermeasures: Optional[Sequence[str]] = None,
        outputs: Optional[Iterable[str]] = None,
    ):
        _check_valid(model)
        if countermeasures is None:
            countermeasures = sorted(c.id for c in model.countermeasures)
        self.countermeasures = tuple(countermeasures)
        self._base = base = model.base_period
        self.expenditures = tuple(
            model.countermeasure(c).expenditure_per(base) for c in self.countermeasures
        )
        # risk -> (max frequency, max risk cost) per base period, None if unbounded
        self.bounds = {a.risk: a.bounds(base) for a in model.criteria}

        plan = evaluation_plan(model)
        self.outputs = tuple(v.id for v, *_ in plan) if outputs is None else tuple(outputs)
        checked = (
            v.id
            for v, initiates, leadsto, _ in plan
            if v.merge_policy is MergePolicy.EXCLUSIVE and len(initiates) + len(leadsto) > 1
        )
        needed = cone(plan, [*self.outputs, *checked])
        self._plan = [entry for entry in plan if entry[0].id in needed]

        selectable, outputs = set(self.countermeasures), set(self.outputs)
        dependers: dict[tuple, list] = {}  # treats key -> selectable dependers, model order
        for d in model.depends:
            if d.countermeasure in selectable:
                dependers.setdefault(d.treats_key, []).append(d)
        # vertex -> [(selectable treats, its dependers)], in effect order when
        # no effect has a depender
        self._treats: dict[str, list[tuple[TreatsRel, list]]] = {}
        last_reader = {}
        for v, _, leadsto, treats in self._plan:
            effects = [
                (t, dependers.get(t.key, [])) for t in treats if t.countermeasure in selectable
            ]
            if not any(depends for _, depends in effects):
                effects.sort(key=lambda e: _endpoints(e[0]))
            self._treats[v.id] = effects
            last_reader[v.id] = v.id
            last_reader.update((r.source, v.id) for r in leadsto)
        # vertex -> the non-output vertices whose frequencies it reads last
        self._release: dict[str, list[str]] = {}
        for vid, reader in last_reader.items():
            if vid not in outputs:
                self._release.setdefault(reader, []).append(vid)

    def expenditure(self, masks: np.ndarray) -> np.ndarray:
        """Summed expenditure per mask, added in countermeasure-id order."""
        total = np.zeros(len(masks))
        for on, e in zip(_selected(masks, len(self.expenditures)), self.expenditures):
            total = np.where(on, total + e, total)
        return total

    def chunks(self) -> Iterator[tuple[np.ndarray, dict[str, Columns]]]:
        """(masks, evaluation) for all subsets in mask order, CHUNK at a time."""
        end = 1 << len(self.countermeasures)
        for start in range(0, end, CHUNK):
            masks = np.arange(start, min(start + CHUNK, end), dtype=np.int64)
            yield masks, self.evaluate(masks)

    def evaluate(self, masks: np.ndarray) -> dict[str, Columns]:
        """Residual (freq lo, freq hi, cons lo, cons hi) columns per output vertex.

        Raises the ``CalculusError`` that ``propagate`` raises for the smallest
        mask whose mutually exclusive contributions disagree.
        """
        m = len(masks)
        on = dict(zip(self.countermeasures, _selected(masks, len(self.countermeasures))))
        outputs = set(self.outputs)
        frequencies: dict[str, tuple] = {}  # vertex -> (lo, hi), until its last reader
        exclusive: list[tuple[str, list]] = []
        out: dict[str, Columns] = {}
        for v, initiates, leadsto, _ in self._plan:
            rates = (r.frequency.per_period(self._base) for r in initiates)
            contributions = [(f.lo, f.hi) for f in rates]
            for r in leadsto:
                s_lo, s_hi = frequencies[r.source]
                contributions.append((s_lo * r.likelihood.lo, s_hi * r.likelihood.hi))
            if not contributions:
                lo = hi = 0.0
            elif v.merge_policy is MergePolicy.SEPARATE:
                lo, hi = contributions[0]
                for c_lo, c_hi in contributions[1:]:
                    lo = lo + c_lo
                    hi = hi + c_hi
            elif v.merge_policy is MergePolicy.EXCLUSIVE:
                lo, hi = contributions[0]
                if len(contributions) > 1:
                    exclusive.append((v.id, contributions))
            else:
                lo, hi = contributions[0][0], 0.0
                for c_lo, c_hi in contributions:
                    lo = np.where(c_lo > lo, c_lo, lo)  # first maximum, as max() keeps
                    hi = hi + c_hi
            treats = self._treats[v.id]
            if v.id in outputs:
                cons = (0.0, 0.0) if v.consequence is None else (v.consequence.lo, v.consequence.hi)
                lo, hi, c_lo, c_hi = _apply(treats, on, lo, hi, *cons)
                out[v.id] = tuple(np.broadcast_to(x, (m,)) for x in (lo, hi, c_lo, c_hi))
            else:
                lo, hi = _apply(treats, on, lo, hi)
            frequencies[v.id] = lo, hi
            for u in self._release.get(v.id, ()):
                del frequencies[u]
        if exclusive:
            _check_exclusive(exclusive, m)
        return out


class ArraySequence(Sequence):
    """A read-only sequence kept as arrays; ``_entry(i)`` builds entry i when it is read."""

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self._entry(j) for j in range(*i.indices(len(self))))
        return self._entry(range(len(self))[i])  # negative indices count from the end, as a tuple's


def joined(ids: Sequence[str], masks: np.ndarray, text: Callable[[str], str]) -> list[str]:
    """Per mask over ``ids`` (bit i for ids[i]), ``text`` of each selected id,
    concatenated in bit order, from one table per half of the bits."""
    half = len(ids) // 2
    low, high = (
        ["".join(text(c) for i, c in enumerate(part) if m >> i & 1) for m in range(1 << len(part))]
        for part in (ids[:half], ids[half:])
    )
    halves = zip((masks & ((1 << half) - 1)).tolist(), (masks >> half).tolist())
    return [low[a] + high[b] for a, b in halves]


def _selected(masks, n: int) -> np.ndarray:
    """Bit matrix of one mask or an array of them: row i says which masks hold
    bit i, the one that selects the i-th countermeasure."""
    return np.bitwise_and.outer(1 << np.arange(n), masks) != 0


def _endpoints(t: TreatsRel) -> tuple[float, float, float, float]:
    return t.freq_effect.lo, t.freq_effect.hi, t.cons_effect.lo, t.cons_effect.hi


def _apply(treats: list[tuple[TreatsRel, list]], on: dict[str, np.ndarray], *values):
    """Multiply (freq lo, hi[, cons lo, hi]) by the surviving fraction of each
    selected effect, in ascending effect order per column; ``on`` says per
    countermeasure id which columns select it."""
    if not treats:
        return values
    effects = []
    for t, depends in treats:
        e = _endpoints(t)
        for d in depends:
            f, c = d.freq_dep.complement(), d.cons_dep.complement()
            surviving = f.lo, f.hi, c.lo, c.hi
            e = [np.where(on[d.countermeasure], x * s, x) for x, s in zip(e, surviving)]
        effects.append([np.where(on[t.countermeasure], x, 0.0) for x in e])
    if len(treats) > 1 and any(depends for _, depends in treats):
        stacked = np.array(effects)  # (effect, endpoint, column)
        rank = np.lexsort(stacked.transpose(1, 0, 2)[::-1], axis=0)
        effects = np.take_along_axis(stacked, rank[:, None, :], axis=0)
    values = list(values)
    for e_lo, e_hi, *cons in effects:
        values[0] = values[0] * (1.0 - e_hi)
        values[1] = values[1] * (1.0 - e_lo)
        if len(values) == 4:
            values[2] = values[2] * (1.0 - cons[1])
            values[3] = values[3] * (1.0 - cons[0])
    return values


def _unequal(a, b) -> np.ndarray:
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)
    return np.abs(a - b) > EXCLUSIVE_REL_TOL * scale


def _check_exclusive(exclusive: list[tuple[str, list]], m: int):
    """Raise the scalar merge error for the first column with a disagreement."""
    bad = np.zeros(m, dtype=bool)
    for _, contributions in exclusive:
        f_lo, f_hi = contributions[0]
        for c_lo, c_hi in contributions[1:]:
            bad |= _unequal(f_lo, c_lo) | _unequal(f_hi, c_hi)
    if not bad.any():
        return
    j = int(bad.argmax())
    for vid, contributions in exclusive:
        at_j = [Interval(*(float(np.broadcast_to(x, (m,))[j]) for x in c)) for c in contributions]
        combine_incoming(at_j, MergePolicy.EXCLUSIVE, vid)

"""Compiled evaluation of one model under many countermeasure subsets at once.

``CompiledModel`` validates a model once and flattens it into index tables.
``evaluate`` then computes the residual frequency and consequence of the
requested vertices for a batch of subsets, one numpy column per subset. Every
value is bit-for-bit the one ``calculus.propagate`` gives, because each column
goes through the same floating-point operations in the same order. Both walk
``calculus.evaluation_plan``, the one place that order is decided:

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

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .calculus import EXCLUSIVE_REL_TOL, _check_valid, combine_incoming, evaluation_plan
from .intervals import Interval
from .model import MergePolicy, RiskModel

DEFAULT_SUBSET_CAP = 20
CHUNK = 1 << 14  # subset columns evaluated together

Columns = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]  # freq lo, hi; cons lo, hi


@dataclass(frozen=True)
class _Treat:
    bit: int
    effect: tuple[float, float, float, float]  # freq lo, hi, cons lo, hi
    # (depender bit, surviving fraction of each effect endpoint), model order
    depends: tuple[tuple[int, float, float, float, float], ...]


@dataclass(frozen=True)
class _Vertex:
    id: str
    policy: MergePolicy
    initiates: tuple[tuple[float, float], ...]  # constant contributions
    leadsto: tuple[tuple[int, float, float], ...]  # (source position, likelihood lo, hi)
    consequence: tuple[float, float]
    treats: tuple[_Treat, ...]  # in effect order when no effect varies
    output: bool
    release: tuple[int, ...]  # positions whose frequency is no longer needed


class CompiledModel:
    """A validated model flattened for batched evaluation.

    ``countermeasures`` are the ids that may be selected (default: all of the
    model's, sorted); ``outputs`` the core vertices whose values ``evaluate``
    returns (default: all, in topological order). Vertices that feed no
    output are skipped, except that every mutually exclusive merge is still
    checked, so an evaluation fails exactly where ``propagate`` would.
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
        bit = {c: i for i, c in enumerate(self.countermeasures)}
        base = model.base_period
        self.expenditures = tuple(
            model.countermeasure(c).expenditure_per(base) for c in self.countermeasures
        )
        # risk -> (max frequency, max risk cost) per base period, None if unbounded
        self.bounds = {a.risk: a.bounds(base) for a in model.criteria}

        plan = evaluation_plan(model)
        self.outputs = tuple(v.id for v, *_ in plan) if outputs is None else tuple(outputs)
        outputs_set = set(self.outputs)
        # Backwards over the plan, every vertex comes after all those it feeds.
        needed = set(self.outputs)
        for v, initiates, leadsto, _ in reversed(plan):
            if v.merge_policy is MergePolicy.EXCLUSIVE and len(initiates) + len(leadsto) > 1:
                needed.add(v.id)
            if v.id in needed:
                needed.update(r.source for r in leadsto)
        plan = [entry for entry in plan if entry[0].id in needed]
        position = {v.id: p for p, (v, *_) in enumerate(plan)}
        last_use = dict(position)
        for p, (_, _, leadsto, _) in enumerate(plan):
            for r in leadsto:
                last_use[r.source] = p
        release: dict[int, list[int]] = {}
        for vid, p in last_use.items():
            if vid not in outputs_set:
                release.setdefault(p, []).append(position[vid])

        compiled = []
        for p, (v, initiates, leadsto, treats) in enumerate(plan):
            effects = []
            for t in treats:
                if t.countermeasure not in bit:
                    continue
                deps = tuple(
                    (
                        bit[d.countermeasure],
                        1.0 - d.freq_dep.hi,
                        1.0 - d.freq_dep.lo,
                        1.0 - d.cons_dep.hi,
                        1.0 - d.cons_dep.lo,
                    )
                    for d in model.depends
                    if d.treats_key == t.key and d.countermeasure in bit
                )
                effect = (t.freq_effect.lo, t.freq_effect.hi, t.cons_effect.lo, t.cons_effect.hi)
                effects.append(_Treat(bit[t.countermeasure], effect, deps))
            if not any(t.depends for t in effects):
                effects.sort(key=lambda t: t.effect)
            frequencies = [r.frequency.per_period(base) for r in initiates]
            compiled.append(
                _Vertex(
                    id=v.id,
                    policy=v.merge_policy,
                    initiates=tuple((f.lo, f.hi) for f in frequencies),
                    leadsto=tuple(
                        (position[r.source], r.likelihood.lo, r.likelihood.hi) for r in leadsto
                    ),
                    consequence=(0.0, 0.0)
                    if v.consequence is None
                    else (v.consequence.lo, v.consequence.hi),
                    treats=tuple(effects),
                    output=v.id in outputs_set,
                    release=tuple(release.get(p, ())),
                )
            )
        self._plan = tuple(compiled)

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
        selected = _selected(masks, len(self.countermeasures))
        lows: list = [None] * len(self._plan)
        highs: list = [None] * len(self._plan)
        exclusive: list[tuple[str, list]] = []
        out: dict[str, Columns] = {}
        for p, v in enumerate(self._plan):
            contributions = list(v.initiates) + [
                (lows[s] * l_lo, highs[s] * l_hi) for s, l_lo, l_hi in v.leadsto
            ]
            if not contributions:
                lo = hi = 0.0
            elif v.policy is MergePolicy.SEPARATE:
                lo, hi = contributions[0]
                for c_lo, c_hi in contributions[1:]:
                    lo = lo + c_lo
                    hi = hi + c_hi
            elif v.policy is MergePolicy.EXCLUSIVE:
                lo, hi = contributions[0]
                if len(contributions) > 1:
                    exclusive.append((v.id, contributions))
            else:
                lo, hi = contributions[0][0], 0.0
                for c_lo, c_hi in contributions:
                    lo = np.where(c_lo > lo, c_lo, lo)  # first maximum, as max() keeps
                    hi = hi + c_hi
            if v.output:
                c_lo, c_hi = v.consequence
                lo, hi, c_lo, c_hi = _apply(v.treats, selected, lo, hi, c_lo, c_hi)
                out[v.id] = tuple(np.broadcast_to(x, (m,)) for x in (lo, hi, c_lo, c_hi))
            else:
                lo, hi = _apply(v.treats, selected, lo, hi)
            lows[p], highs[p] = lo, hi
            for q in v.release:
                lows[q] = highs[q] = None
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


def _apply(treats: tuple[_Treat, ...], selected: np.ndarray, *values):
    """Multiply (freq lo, hi[, cons lo, hi]) by the surviving fraction of each
    selected effect, in ascending effect order per column."""
    if not treats:
        return values
    effects = []
    for t in treats:
        e = t.effect
        for b, *surviving in t.depends:
            e = [np.where(selected[b], x * s, x) for x, s in zip(e, surviving)]
        effects.append([np.where(selected[t.bit], x, 0.0) for x in e])
    if len(treats) > 1 and any(t.depends for t in treats):
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
    first_bad = m
    for _, contributions in exclusive:
        f_lo, f_hi = contributions[0]
        for c_lo, c_hi in contributions[1:]:
            bad = np.broadcast_to(_unequal(f_lo, c_lo) | _unequal(f_hi, c_hi), (m,))
            if bad.any():
                first_bad = min(first_bad, int(bad.argmax()))
    if first_bad == m:
        return
    for vid, contributions in exclusive:
        combine_incoming(
            [
                Interval(
                    float(np.broadcast_to(lo, (m,))[first_bad]),
                    float(np.broadcast_to(hi, (m,))[first_bad]),
                )
                for lo, hi in contributions
            ],
            MergePolicy.EXCLUSIVE,
            vid,
        )

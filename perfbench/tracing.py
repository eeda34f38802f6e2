"""Traced run: spans around the public functions of each riskforge layer.

Functions are wrapped where the calling module looks them up (for example
``riskforge.synergy.propagate``), so nothing under ``src/`` changes and the
untraced run executes the program exactly as shipped. Spans are kept in
memory and written out when the run ends; self times and counts are derived
from them afterwards.
"""

from __future__ import annotations

import importlib
import time
from pathlib import Path

# (module, attribute, span name, what to record from (args, result))
TARGETS = (
    ("riskforge.cli", "run", "cli.run", None),
    ("riskforge.cli", "validate", "model.validate", None),
    ("riskforge.cli", "propagate", "calculus.propagate", None),
    ("riskforge.dsl", "parse", "dsl.parse", lambda a, r: len(a[0].encode())),
    ("riskforge.dsl", "from_json", "dsl.from_json", lambda a, r: len(a[0].encode())),
    ("riskforge.dsl", "serialize", "dsl.serialize", None),
    ("riskforge.dsl", "to_json", "dsl.to_json", None),
    ("riskforge.dsl", "validate", "model.validate", None),
    ("riskforge.calculus", "validate", "model.validate", None),
    ("riskforge.synergy", "propagate", "calculus.propagate", None),
    ("riskforge.synergy", "recommend", "synergy.recommend", None),
    ("riskforge.synergy", "find_alternatives", "synergy.find_alternatives", lambda a, r: len(r)),
    ("riskforge.analysis", "propagate", "calculus.propagate", None),
    ("riskforge.analysis", "enumerate_states", "analysis.enumerate_states", lambda a, r: len(r)),
    (
        "riskforge.analysis",
        "build_decision_diagram",
        "analysis.build_decision_diagram",
        lambda a, r: (len(r.edges), len(r.pruned), len(r.states) + len(r.pruned)),
    ),
    ("riskforge.analysis", "export_dot", "analysis.export_dot", None),
    ("riskforge.analysis", "export_csv", "analysis.export_csv", None),
    ("riskforge.oracle", "validate", "model.validate", None),
    ("riskforge.oracle", "propagate", "calculus.propagate", None),
    ("riskforge.oracle", "check_rule", "oracle.check_rule", None),
    ("riskforge.oracle", "generate_history", "oracle.generate_history", lambda a, r: len(r.events)),
    ("riskforge.oracle", "empirical_frequency", "oracle.empirical_frequency", None),
)

# Per-layer metrics: name -> unit. The trace fills every one on every
# workload; a layer a workload never calls reads 0.
METRICS = {
    "cli.run.self_ms": "ms",
    "dsl.parse.ms": "ms",
    "dsl.from_json.ms": "ms",
    "dsl.serialize.ms": "ms",
    "dsl.to_json.ms": "ms",
    "dsl.bytes_in": "bytes",
    "model.validate.calls": "count",
    "model.validate.self_ms": "ms",
    "calculus.propagate.calls": "count",
    "calculus.propagate.self_us": "us",
    "calculus.propagate.self_ms": "ms",
    "synergy.recommend.ms": "ms",
    "synergy.find_alternatives.calls": "count",
    "synergy.enumerations_per_request": "count",
    "synergy.subsets_evaluated": "count",
    "synergy.subsets_feasible": "count",
    "synergy.feasible_ratio": "ratio",
    "synergy.us_per_subset": "us",
    "analysis.enumerate_states.self_ms": "ms",
    "analysis.states": "count",
    "analysis.build_decision_diagram.ms": "ms",
    "analysis.edges": "count",
    "analysis.pruned_ratio": "ratio",
    "analysis.export_dot.ms": "ms",
    "oracle.check_rule.ms": "ms",
    "oracle.generate_history.calls": "count",
    "oracle.generate_history.ms": "ms",
    "oracle.events_per_history": "count",
    "oracle.events_per_s": "1/s",
    "oracle.empirical_frequency.ms": "ms",
    "trace.spans_per_request": "count",
    "trace.overhead_pct": "%",
}


class Tracer:
    """Records one span per call of a wrapped function.

    A span is (name, start_ns, end_ns, parent index, request id, value);
    ``value`` is what the target's recorder extracted, or None.
    """

    def __init__(self):
        self.spans: list = []
        self.request = -1
        self._stack = [-1]
        self._saved: list[tuple] = []

    def _wrap(self, name: str, fn, record):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                value = None if record is None or result is None else record(args, result)
                spans[idx] = (name, start, end, parent, self.request, value)

        return traced

    def install(self):
        for module_name, attr, name, record in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn, record))

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def write(self, path: Path):
        """Spans as tab-separated lines, times in ns from the first span."""
        t0 = self.spans[0][1] if self.spans else 0
        with path.open("w", encoding="utf-8") as f:
            f.write("index\tname\tstart_ns\tend_ns\tparent\trequest\tvalue\n")
            for i, (name, start, end, parent, request, value) in enumerate(self.spans):
                f.write(f"{i}\t{name}\t{start - t0}\t{end - t0}\t{parent}\t{request}\t{value}\n")


def layer_metrics(spans: list, requests: int, subsets_asked: int) -> dict[str, float]:
    """Per-layer metrics from the spans of ``requests`` traced requests.

    ``subsets_asked`` is the benchmark's own count of subsets those requests
    asked for (the sum of 2**n), the base of ``enumerations_per_request``.
    """
    n = len(spans)
    child_ns = [0] * n
    under_synergy = [False] * n
    for i, (name, start, end, parent, _, _) in enumerate(spans):
        if parent >= 0:
            child_ns[parent] += end - start
            under_synergy[i] = under_synergy[parent] or spans[parent][0].startswith("synergy.")
    calls: dict[str, int] = {}
    total_ns: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    values: dict[str, list] = {}
    synergy_top_ns = 0
    synergy_subsets = 0
    feasible_base = 0
    for i, (name, start, end, parent, _, value) in enumerate(spans):
        dur = end - start
        calls[name] = calls.get(name, 0) + 1
        total_ns[name] = total_ns.get(name, 0) + dur
        self_ns[name] = self_ns.get(name, 0) + dur - child_ns[i]
        if value is not None:
            values.setdefault(name, []).append(value)
        if name.startswith("synergy.") and not under_synergy[i]:
            synergy_top_ns += dur
        if name == "calculus.propagate" and under_synergy[i]:
            synergy_subsets += 1
            if spans[parent][0] == "synergy.find_alternatives":
                feasible_base += 1

    def per_call_ms(name: str, ns: dict) -> float:
        return ns.get(name, 0) / calls[name] / 1e6 if calls.get(name) else 0.0

    def per_request(x: float) -> float:
        return x / requests

    def total(name: str) -> int:
        return sum(values.get(name, ()))

    def mean(name: str) -> float:
        vals = values.get(name)
        return sum(vals) / len(vals) if vals else 0.0

    histories = calls.get("oracle.generate_history", 0)
    events = total("oracle.generate_history")
    diagrams = values.get("analysis.build_decision_diagram", ())
    feasible = total("synergy.find_alternatives")
    return {
        "cli.run.self_ms": per_request(self_ns.get("cli.run", 0) / 1e6),
        "dsl.parse.ms": per_call_ms("dsl.parse", total_ns),
        "dsl.from_json.ms": per_call_ms("dsl.from_json", total_ns),
        "dsl.serialize.ms": per_call_ms("dsl.serialize", total_ns),
        "dsl.to_json.ms": per_call_ms("dsl.to_json", total_ns),
        "dsl.bytes_in": per_request(total("dsl.parse") + total("dsl.from_json")),
        "model.validate.calls": per_request(calls.get("model.validate", 0)),
        "model.validate.self_ms": per_request(self_ns.get("model.validate", 0) / 1e6),
        "calculus.propagate.calls": per_request(calls.get("calculus.propagate", 0)),
        "calculus.propagate.self_us": per_call_ms("calculus.propagate", self_ns) * 1e3,
        "calculus.propagate.self_ms": per_request(self_ns.get("calculus.propagate", 0) / 1e6),
        "synergy.recommend.ms": per_call_ms("synergy.recommend", total_ns),
        "synergy.find_alternatives.calls": per_request(calls.get("synergy.find_alternatives", 0)),
        "synergy.enumerations_per_request": synergy_subsets / subsets_asked
        if subsets_asked
        else 0.0,
        "synergy.subsets_evaluated": per_request(synergy_subsets),
        "synergy.subsets_feasible": per_request(feasible),
        "synergy.feasible_ratio": feasible / feasible_base if feasible_base else 0.0,
        "synergy.us_per_subset": synergy_top_ns / synergy_subsets / 1e3 if synergy_subsets else 0.0,
        "analysis.enumerate_states.self_ms": per_call_ms("analysis.enumerate_states", self_ns),
        "analysis.states": mean("analysis.enumerate_states"),
        "analysis.build_decision_diagram.ms": per_call_ms("analysis.build_decision_diagram", total_ns),
        "analysis.edges": sum(d[0] for d in diagrams) / len(diagrams) if diagrams else 0.0,
        "analysis.pruned_ratio": sum(d[1] for d in diagrams) / sum(d[2] for d in diagrams)
        if diagrams
        else 0.0,
        "analysis.export_dot.ms": per_call_ms("analysis.export_dot", total_ns),
        "oracle.check_rule.ms": per_call_ms("oracle.check_rule", total_ns),
        "oracle.generate_history.calls": per_request(histories),
        "oracle.generate_history.ms": per_call_ms("oracle.generate_history", total_ns),
        "oracle.events_per_history": mean("oracle.generate_history"),
        "oracle.events_per_s": events / (total_ns["oracle.generate_history"] / 1e9)
        if histories
        else 0.0,
        "oracle.empirical_frequency.ms": per_call_ms("oracle.empirical_frequency", total_ns),
        "trace.spans_per_request": per_request(n),
    }

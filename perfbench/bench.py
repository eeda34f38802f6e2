"""Set-up, the closed request loop, answer checking and metrics for one workload.

Expects ``src`` and this directory on ``sys.path``; ``run.py`` arranges that.
"""

from __future__ import annotations

import io
import json
import os
import platform
import resource
import statistics
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from riskforge import cli

import checks
import tracing
import workloads
from workloads import Corpus, Request

DEFAULT_SEED = 0
SETUP_REPEATS = 5
# p90 needs at least ten samples above it.
MIN_SAMPLES = 100

END_TO_END = {
    "setup_s": "s",
    "requests_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "subsets_per_s": "1/s",
    "peak_rss_mb": "MB",
}

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"


def issue(req: Request) -> tuple[int | None, str, float, str | None]:
    """Send one request through the CLI entry point; (code, stdout, seconds, error)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.run(list(req.argv))
    except Exception:  # a crashing request is a failed request, not a crashed run
        code, error = None, traceback.format_exc()
    return code, out.getvalue(), time.perf_counter() - start, error


def warm_up(corpus: Corpus):
    """Run the smallest request of every command and format once."""
    cheapest: dict[tuple, Request] = {}
    for req in corpus.requests:
        sig = (req.argv[0],) + tuple(a for a in req.argv if a in ("json", "dot", "csv", "dsl"))
        best = cheapest.get(sig)
        if best is None or req.subsets < best.subsets:
            cheapest[sig] = req
    for req in cheapest.values():
        issue(req)


def setup(workload: str, seed: int, workdir: Path) -> tuple[Corpus, float]:
    """Generate and write the corpus, then warm up; repeated, median time."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        corpus = workloads.build(workload, seed, workdir)
        warm_up(corpus)
        times.append(time.perf_counter() - start)
    return corpus, statistics.median(times)


@dataclass
class Loop:
    """Closed loop over whole cycles of a corpus: one client, one request at a time."""

    corpus: Corpus
    first: dict = field(default_factory=dict)  # key -> (code, stdout) of its first answer
    errors: dict = field(default_factory=dict)  # key -> reason a repeat or call failed
    attempts: dict = field(default_factory=dict)  # key -> attempts
    bad_attempts: dict = field(default_factory=dict)  # key -> attempts failed on their own
    latencies: list = field(default_factory=list)  # seconds, untraced cycles only
    completed: int = 0
    subsets: int = 0

    def cycle(self, tracer: tracing.Tracer | None = None) -> float:
        start = time.perf_counter()
        for req in self.corpus.requests:
            if tracer is not None:
                tracer.request += 1
            code, out, seconds, error = issue(req)
            key = req.key
            self.attempts[key] = self.attempts.get(key, 0) + 1
            if error is None and key not in self.first:
                self.first[key] = (code, out)
            elif error is not None or self.first[key] != (code, out):
                self.errors.setdefault(key, error or "answer differs from the first one")
                self.bad_attempts[key] = self.bad_attempts.get(key, 0) + 1
            if tracer is None:
                self.latencies.append(seconds)
                if error is None:
                    self.completed += 1
                    self.subsets += req.subsets
        return time.perf_counter() - start


def _quantile(sorted_values: list, q: float) -> float:
    """Nearest-rank quantile."""
    rank = max(1, int(np.ceil(q * len(sorted_values))))
    return sorted_values[rank - 1]


def _load_digests() -> dict:
    if not DIGESTS.is_file():
        return {}
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


@dataclass
class Verdicts:
    failed: int
    reasons: dict
    digests: dict
    digest_status: str


def judge(loop: Loop, compare_digests: bool) -> Verdicts:
    """Check every distinct answer once; repeats were compared with it as they came.

    A wrong first answer fails every attempt that repeated it. With
    ``compare_digests`` every answer must also match its committed digest.
    """
    reasons = dict(loop.errors)
    wrong: set[str] = set()
    digests = {}
    for req in loop.corpus.requests:
        if req.key not in loop.first:
            continue
        code, out = loop.first[req.key]
        digests[req.key] = checks.digest(out, code)
        reason = checks.check(req, out, code)
        if reason is not None:
            reasons[req.key] = reason
            wrong.add(req.key)
    status = "not checked (seed is not the default)"
    if compare_digests:
        committed = _load_digests().get(loop.corpus.workload)
        if committed is None:
            status = "missing from digests.json"
        else:
            differ = [k for k, d in digests.items() if committed.get(k) != d]
            for k in differ:
                reasons.setdefault(k, "answer digest differs from digests.json")
            wrong.update(differ)
            status = "match" if not differ else f"{len(differ)} differ"
    failed = sum(
        n if k in wrong else loop.bad_attempts.get(k, 0) for k, n in loop.attempts.items()
    )
    return Verdicts(failed, reasons, digests, status)


def _out_of_time(cycle_times: list, start: float, seconds: float) -> bool:
    """True when one more cycle would run past the measuring time."""
    return time.perf_counter() - start + statistics.mean(cycle_times) > seconds


def run_workload(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """One benchmark run; returns the full result record."""
    corpus, setup_s = setup(workload, seed, workdir / workload)
    loop = Loop(corpus)
    tracer = tracing.Tracer() if trace else None
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        plain.append(loop.cycle())
        if tracer is not None:
            tracer.install()
            try:
                traced.append(loop.cycle(tracer))
            finally:
                tracer.uninstall()
            # Counts come from whole traced cycles, so any number of pairs will do.
            if _out_of_time([a + b for a, b in zip(plain, traced)], start, seconds):
                break
        elif len(loop.latencies) >= MIN_SAMPLES and _out_of_time(plain, start, seconds):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    verdicts = judge(loop, compare_digests=seed == DEFAULT_SEED)
    attempted = sum(loop.attempts.values())

    wall = sum(plain)
    lat = sorted(loop.latencies)
    e2e = {
        "setup_s": setup_s,
        "requests_per_s": loop.completed / wall,
        "latency_p50_ms": _quantile(lat, 0.5) * 1e3,
        "latency_p90_ms": _quantile(lat, 0.9) * 1e3,
        "subsets_per_s": loop.subsets / wall,
        "peak_rss_mb": peak_rss_mb,
    }
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": verdicts.failed == 0,
        "attempted": attempted,
        "failed": verdicts.failed,
        "failed_ratio": verdicts.failed / attempted,
        "failures": verdicts.reasons,
        "digests": verdicts.digest_status,
        "samples": len(lat),
        "cycles": len(plain),
        "cycle_requests": len(corpus.requests),
        "measured_s": wall,
        "end_to_end": {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()},
        "properties": corpus.properties,
    }
    if tracer is not None:
        requests = len(traced) * len(corpus.requests)
        layer = tracing.layer_metrics(
            tracer.spans, requests, len(traced) * sum(r.subsets for r in corpus.requests)
        )
        layer["trace.overhead_pct"] = (sum(traced) / sum(plain) - 1.0) * 100.0
        record["per_layer"] = {
            k: {"value": v, "unit": tracing.METRICS[k]} for k, v in layer.items()
        }
        record["traced_requests"] = requests
        tracer.write(workdir / f"spans-{workload}.tsv")
    return record


def answer_digests(workload: str, workdir: Path) -> dict:
    """Digest of every answer of the default-seed corpus, after checking it."""
    corpus = workloads.build(workload, DEFAULT_SEED, workdir / workload)
    loop = Loop(corpus)
    loop.cycle()
    verdicts = judge(loop, compare_digests=False)
    if verdicts.failed:
        raise RuntimeError(f"{workload}: wrong answers, digests not written: {verdicts.reasons}")
    return verdicts.digests


def _commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = root / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def metadata(root: Path) -> dict:
    """Facts about the measured program and machine; not metrics."""
    src = root / "src" / "riskforge"
    return {
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(src.glob("*.py"))),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpus": os.cpu_count(),
        "commit": _commit(root),
        "loop": "closed, one client, one request at a time, in process",
    }

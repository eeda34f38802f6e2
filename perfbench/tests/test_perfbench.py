"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import json

import pytest

import bench
import checks
import tracing
import workloads

SEED = 7


@pytest.fixture
def tiny(monkeypatch):
    """Cycles of a few small requests, one set-up, no minimum sample count."""
    monkeypatch.setattr(workloads, "SELECT_GROUPS", ((7, [20]), (6, [22, 24])))
    monkeypatch.setattr(workloads, "ANALYZE_GROUPS", ((7, 1), (6, 5)))
    monkeypatch.setattr(workloads, "CYCLE", 5)
    monkeypatch.setattr(workloads, "AUTHOR_MODELS", 3)
    monkeypatch.setattr(workloads, "SIMULATE_HORIZON", 200)
    monkeypatch.setattr(workloads, "SIMULATE_CANDIDATES", 8)
    monkeypatch.setattr(bench, "SETUP_REPEATS", 1)
    monkeypatch.setattr(bench, "MIN_SAMPLES", 1)


def first_answers(workload, tmp_path):
    corpus = workloads.build(workload, SEED, tmp_path / workload)
    loop = bench.Loop(corpus)
    loop.cycle()
    return corpus, loop


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_reports_every_metric(tiny, tmp_path, workload):
    record = bench.run_workload(workload, SEED, 0.01, False, tmp_path)
    assert record["correct"], record["failures"]
    assert record["failed"] == 0 and record["attempted"] >= 3
    assert set(record["end_to_end"]) == set(bench.END_TO_END)
    for name, metric in record["end_to_end"].items():
        assert metric["value"] > 0, name
        assert metric["unit"] == bench.END_TO_END[name]
    json.dumps(record)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat(tiny, tmp_path, workload):
    runs = [bench.run_workload(workload, SEED, 0.01, True, tmp_path) for _ in range(2)]
    for record in runs:
        assert record["correct"], record["failures"]
        assert set(record["per_layer"]) == set(tracing.METRICS)
    counts = [
        {k: m["value"] for k, m in r["per_layer"].items() if m["unit"] in ("count", "ratio", "bytes")}
        for r in runs
    ]
    assert counts[0] == counts[1]
    assert counts[0]["model.validate.calls"] > 0
    assert counts[0]["calculus.propagate.calls"] > 0


def test_traced_select_counts_enumerations(tiny, tmp_path):
    layer = bench.run_workload("select", SEED, 0.01, True, tmp_path)["per_layer"]
    # recommend plus the CLI's own ranking enumerate every subset twice; a
    # no_feasible answer enumerates a third time for its gap report.
    assert 2.0 <= layer["synergy.enumerations_per_request"]["value"] <= 3.0
    assert layer["synergy.find_alternatives.calls"]["value"] == 2.0
    assert 0.0 <= layer["synergy.feasible_ratio"]["value"] <= 1.0


def test_tracer_restores_the_program():
    from riskforge import cli, synergy

    originals = (cli.run, synergy.propagate)
    tracer = tracing.Tracer()
    tracer.install()
    assert cli.run is not originals[0]
    tracer.uninstall()
    assert (cli.run, synergy.propagate) == originals


def _perturb_select(out):
    doc = json.loads(out)
    doc["best"]["overall_cost"] *= 1.01
    return json.dumps(doc)


def _perturb_analyze(out):
    # Relabel the first edge with another countermeasure.
    lines = out.splitlines(keepends=True)
    i = next(i for i, line in enumerate(lines) if " -> " in line)
    label = lines[i].split('label="')[1].split('"')[0]
    other = "C00" if label != "C00" else "C01"
    lines[i] = lines[i].replace(f'label="{label}"', f'label="{other}"')
    return "".join(lines)


def _perturb_simulate(out):
    doc = json.loads(out)
    doc["calculus_value"] += 1e-9
    return json.dumps(doc)


def _perturb_author(out):
    doc = json.loads(out)
    vid = sorted(doc)[-1]
    f = doc[vid]["frequency"]
    doc[vid]["frequency"] = [f[0], f[1] * 1.001] if isinstance(f, list) else f * 1.001
    return json.dumps(doc)


PERTURB = {
    "select": ("synergy", _perturb_select),
    "analyze": ("dot", _perturb_analyze),
    "simulate": ("simulate", _perturb_simulate),
    "author": ("propagate", _perturb_author),
}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_checker_flags_a_perturbed_answer(tiny, tmp_path, workload):
    corpus, loop = first_answers(workload, tmp_path)
    marker, perturb = PERTURB[workload]
    req = next(
        r
        for r in corpus.requests
        if marker in r.argv and (workload != "select" or r.info["outcome"] != "no_feasible")
    )
    code, out = loop.first[req.key]
    assert checks.check(req, out, code) is None
    assert checks.check(req, perturb(out), code) is not None
    assert checks.check(req, out, 2) is not None


def _crash(argv):
    raise RuntimeError("boom")


@pytest.mark.parametrize("fake_run", [lambda argv: 1, _crash], ids=["exit-code", "exception"])
def test_failed_requests_are_counted(tiny, tmp_path, monkeypatch, fake_run):
    from riskforge import cli

    monkeypatch.setattr(cli, "run", fake_run)
    record = bench.run_workload("author", SEED, 0.01, False, tmp_path)
    assert not record["correct"]
    assert record["failed"] == record["attempted"]


def test_digest_ignores_last_digits_only():
    out = '{"z": 0.12345678901234, "id": "C01"}'
    assert checks.digest(out, 0) == checks.digest(out.replace("01234", "01299"), 0)
    assert checks.digest(out, 0) != checks.digest(out.replace("0.1234", "0.1235"), 0)
    assert checks.digest(out, 0) != checks.digest(out, 3)


def test_inputs_repeat_for_a_seed(tiny, tmp_path):
    for workload in workloads.WORKLOADS:
        a = workloads.build(workload, SEED, tmp_path / "a")
        b = workloads.build(workload, SEED, tmp_path / "b")
        assert [r.model for r in a.requests] == [r.model for r in b.requests]
        assert a.properties == b.properties

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import riskforge
from riskforge import oracle, parse, serialize, to_json
from riskforge.cli import run

from genmodels import random_model

RULE_FILE = """\
riskmodel "rule" timeunit 1y
threat T
scenario A
incident B consequence 1
initiate T -> A frequency 3:1y
leadsto A -> B likelihood 0.8
"""


@pytest.fixture
def rule_path(tmp_path):
    path = tmp_path / "rule.riskdsl"
    path.write_text(RULE_FILE)
    return str(path)


def test_validate_ok(ehealth_path, capsys):
    assert run(["validate", ehealth_path]) == 0
    assert capsys.readouterr().out == ""


def test_validate_broken_model(tmp_path, capsys):
    bad = tmp_path / "bad.riskdsl"
    bad.write_text('riskmodel "x" timeunit 1y\nthreat A\nscenario A\n')
    assert run(["validate", str(bad)]) == 1
    assert "duplicate id" in capsys.readouterr().err


def test_missing_file(capsys):
    assert run(["validate", "/no/such/file.riskdsl"]) == 1
    assert "error:" in capsys.readouterr().err


def test_usage_error(capsys):
    assert run([]) == 2
    assert run(["analyze"]) == 2
    assert run(["frobnicate", "x"]) == 2


def test_propagate_table(ehealth_path, capsys):
    assert run(["propagate", ehealth_path, "--with", "IRN,EQS,IRH"]) == 0
    out = capsys.readouterr().out
    assert "freq [/10y]" in out
    assert "LMD" in out
    assert "5.0976" in out


def test_propagate_json(ehealth_path, capsys):
    assert run(["propagate", ehealth_path, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["LMD"]["frequency"] == pytest.approx(26.4)
    assert doc["LMD"]["consequence"] == pytest.approx(5000.0)


def test_propagate_unknown_countermeasure(ehealth_path, capsys):
    assert run(["propagate", ehealth_path, "--with", "NOPE"]) == 1


def test_analyze_csv(ehealth_path, capsys):
    assert run(["analyze", ehealth_path, "--risk", "LMD"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "state,alternative,frequency,consequence"
    assert len(lines) == 9


def test_analyze_dot_to_file(ehealth_path, tmp_path, capsys):
    out = tmp_path / "diagram.dot"
    assert run(["analyze", ehealth_path, "--risk", "LMD", "--format", "dot", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text().startswith("digraph")


def test_analyze_json(ehealth_path, capsys):
    assert run(["analyze", ehealth_path, "--risk", "LMD", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc) == 8
    assert doc[0]["state"] == "S0"
    assert doc[0]["alternative"] == []
    assert doc[0]["frequency"] == pytest.approx(26.4)
    assert doc[0]["consequence"] == pytest.approx(5000.0)


def test_analyze_bad_risk(ehealth_path, capsys):
    assert run(["analyze", ehealth_path, "--risk", "NCD"]) == 1


def test_analyze_unknown_risk(ehealth_path, capsys):
    assert run(["analyze", ehealth_path, "--risk", "NOPE"]) == 1
    assert capsys.readouterr().err == "error: unknown risk 'NOPE'\n"


def test_non_finite_number_is_a_model_error(tmp_path, capsys):
    path = tmp_path / "huge.riskdsl"
    path.write_text(RULE_FILE.replace("frequency 3:1y", "frequency 1e999:1y"))
    assert run(["propagate", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "initiate T->A frequency is not a finite number" in captured.err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["analyze", "--risk", "B", "--format", "csv"], "risk 'B'"),
        (["analyze", "--risk", "B", "--format", "dot"], "risk 'B'"),
        (["analyze", "--risk", "B", "--format", "json"], "risk 'B'"),
        (["propagate"], "vertex 'B'"),
    ],
)
def test_an_overflow_is_a_model_error(argv, message, tmp_path, capsys):
    """Finite inputs whose product overflows stop with one error line, not inf."""
    path = tmp_path / "overflow.riskdsl"
    path.write_text(
        RULE_FILE.replace("frequency 3:1y", "frequency 1e200:1y").replace("0.8", "1e200")
        + "countermeasure C cost 1:1y\ntreats C -> A effect 0.5L 0C\n"
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy RuntimeWarning either
        assert run([argv[0], str(path), *argv[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}: residual frequency is not a finite number\n"


@pytest.mark.parametrize(
    "argv, text",
    [
        (["synergy", "--format", "json"], '"overall_cost": 1.7e+308'),
        (["analyze", "--risk", "R", "--format", "dot"], 'pos="1,1.7e+308!"'),
    ],
)
def test_a_midpoint_of_huge_finite_endpoints_is_finite(argv, text, tmp_path, capsys):
    path = tmp_path / "huge.riskdsl"
    path.write_text(
        'riskmodel "huge" timeunit 1y\nthreat T\nincident R consequence 1.7e308\n'
        "initiate T -> R frequency 1:1y\n"
    )
    assert run([argv[0], str(path), *argv[1:]]) == 0
    out = capsys.readouterr().out
    assert text in out and "inf" not in out


def test_synergy_csv(ehealth_path, capsys):
    assert run(["synergy", ehealth_path]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "rank,alternative,overall_cost,acceptable"
    assert lines[1].startswith("1,")


def test_synergy_json(ehealth_path, capsys):
    assert run(["synergy", ehealth_path, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["outcome"] == "recommended"
    assert doc["best"]["countermeasures"] == ["IRH", "IRN"]


def test_synergy_infeasible_exit_code(tmp_path, ehealth_path, capsys):
    strict = tmp_path / "strict.riskdsl"
    text = open(ehealth_path).read().replace(
        "accept LMD frequency <= 10:10y", "accept LMD frequency <= 0.001:10y"
    )
    strict.write_text(text)
    assert run(["synergy", str(strict), "--format", "json"]) == 3
    captured = capsys.readouterr()
    assert json.loads(captured.out)["outcome"] == "no_feasible"
    assert "no_feasible" in captured.err


def test_synergy_over_budget(ehealth_path, capsys):
    assert run(["synergy", ehealth_path, "--budget", "1", "--format", "json"]) == 3
    assert json.loads(capsys.readouterr().out)["outcome"] == "over_budget"


def test_simulate(rule_path, capsys):
    args = ["simulate", rule_path, "--rule", "leads_to", "--runs", "10", "--horizon", "200", "--seed", "3"]
    assert run(args) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["calculus_value"] == pytest.approx(2.4)
    assert doc["pass"] is True
    assert doc["rng"] == "numpy-pcg64"


@pytest.mark.parametrize(
    "argument",
    [
        "--horizon=nan",
        "--horizon=inf",
        "--horizon=-inf",
        "--horizon=0",
        "--runs=-3",
        "--runs=0",
        "--seed=-1",
    ],
)
def test_simulate_rejects_a_bad_numeric_argument(rule_path, argument, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["simulate", rule_path, "--rule", "leads_to", "--runs", "2", argument]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_export_roundtrip_via_cli(ehealth_path, tmp_path, capsys):
    assert run(["export", ehealth_path, "--to", "json"]) == 0
    as_json = capsys.readouterr().out
    json_file = tmp_path / "model.json"
    json_file.write_text(as_json)
    assert run(["export", str(json_file), "--to", "dsl"]) == 0
    as_dsl = capsys.readouterr().out
    assert run(["export", ehealth_path, "--to", "dsl"]) == 0
    assert capsys.readouterr().out == as_dsl


def test_repeat_runs_byte_identical(ehealth_path, capsys):
    run(["analyze", ehealth_path, "--risk", "LMD", "--format", "dot"])
    first = capsys.readouterr().out
    run(["analyze", ehealth_path, "--risk", "LMD", "--format", "dot"])
    assert capsys.readouterr().out == first


def test_coras_flag_rejects_hot_likelihood(tmp_path, capsys):
    hot = tmp_path / "hot.riskdsl"
    hot.write_text(
        'riskmodel "h" timeunit 1y\nthreat T\nscenario A\nincident R consequence 1\n'
        "initiate T -> A frequency 1:1y\nleadsto A -> R likelihood 1.5\n"
    )
    assert run(["validate", str(hot)]) == 0
    assert run(["--coras", "validate", str(hot)]) == 1


def test_threads_env_var_tolerated(ehealth_path, monkeypatch, capsys):
    monkeypatch.setenv("RISKFORGE_THREADS", "4")
    assert run(["validate", ehealth_path]) == 0
    monkeypatch.setenv("RISKFORGE_THREADS", "bogus")
    assert run(["validate", ehealth_path]) == 0


@pytest.mark.parametrize(
    "argv",
    [["synergy", "--format", "json"], ["analyze", "--risk", "LMD", "--format", "dot"]],
)
def test_one_validation_and_one_enumeration_per_request(ehealth_path, monkeypatch, argv, capsys):
    from riskforge import calculus, dsl, engine, synergy

    calls = {"validate": 0, "propagate": 0, "chunks": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(dsl, "validate", counting("validate", dsl.validate))
    monkeypatch.setattr(calculus, "validate", counting("validate", calculus.validate))
    monkeypatch.setattr(calculus, "propagate", counting("propagate", calculus.propagate))
    monkeypatch.setattr(synergy, "propagate", counting("propagate", synergy.propagate))
    monkeypatch.setattr(
        engine.CompiledModel, "chunks", counting("chunks", engine.CompiledModel.chunks)
    )
    assert run([argv[0], ehealth_path, *argv[1:]]) == 0
    assert calls == {"validate": 1, "propagate": 0, "chunks": 1}



FIXTURES = Path(__file__).parent / "fixtures"
BAD_JSON = {
    "integer-vertex-id": lambda doc: doc["vertices"][0].update(id=5),
    "cost-true": lambda doc: doc["countermeasures"][0].update(cost=True),
    "cost-string": lambda doc: doc["countermeasures"][0].update(cost="12"),
    "label-with-quote": lambda doc: doc["vertices"][0].update(label='Say "hi"'),
    "negative-cost-bound": lambda doc: doc["criteria"][0].update(
        max_risk_cost={"value": -1, "per": "10y"}
    ),
}


@pytest.mark.parametrize("case", [*BAD_JSON, "rate-overflow"])
def test_bad_input_is_one_error_line(case, ehealth, tmp_path, capsys):
    if case == "rate-overflow":
        path = tmp_path / "model.riskdsl"
        path.write_text(RULE_FILE.replace("frequency 3:1y", "frequency 1e308:1d"))
    else:
        doc = json.loads(to_json(ehealth))
        BAD_JSON[case](doc)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
    assert run(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_outputs_independent_of_hash_seed():
    # Each hash seed iterates sets in another order; no output may depend on it.
    code = """
import contextlib, io, json, sys
from riskforge.cli import run
ehealth, many_treats = sys.argv[1:]
results = []
for argv in (
    ["synergy", ehealth, "--format", "json"],
    ["analyze", ehealth, "--risk", "LMD", "--format", "dot"],
    ["export", ehealth, "--to", "json"],
    ["simulate", many_treats, "--rule", "cm_effect", "--runs", "5", "--horizon", "50"],
):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        results.append([argv[0], run(argv), out.getvalue()])
print(json.dumps(results))
"""
    src = str(Path(riskforge.__file__).parent.parent)
    files = [str(FIXTURES / "ehealth.riskdsl"), str(FIXTURES / "many_treats.riskdsl")]
    outputs = set()
    for seed in ("0", "1", "2", "3", "4", "5"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", code, *files], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        results = json.loads(proc.stdout)
        assert [(command, status) for command, status, _ in results] == [
            ("synergy", 0), ("analyze", 0), ("export", 0), ("simulate", 0)
        ], proc.stderr
        outputs.add(proc.stdout)
    assert len(outputs) == 1


# Every command; FILE stands for the model file.
EVERY_COMMAND = [
    ["validate", "FILE"],
    ["propagate", "FILE", "--with", "IRN,EQS", "--format", "json"],
    ["analyze", "FILE", "--risk", "LMD"],
    ["synergy", "FILE", "--format", "json"],
    *(["simulate", "FILE", "--rule", r, "--runs", "2", "--horizon", "20"] for r in oracle.RULES),
    ["export", "FILE", "--to", "json"],
    ["export", "FILE", "--to", "dsl"],
    ["--coras", "validate", "FILE"],
    ["--coras", "synergy", "FILE"],
]
FIXTURE_LINES = [path.read_text().splitlines() for path in sorted(FIXTURES.glob("*.riskdsl"))]
EHEALTH = (FIXTURES / "ehealth.riskdsl").read_text()


def _model_file(directory: Path, text: str, suffix: str) -> str:
    """The DSL text, or its JSON export, in a file."""
    path = directory / f"model{suffix}"
    path.write_text(text if suffix == ".riskdsl" else to_json(parse(text)))
    return str(path)


@pytest.mark.parametrize("suffix", [".riskdsl", ".json"])
@pytest.mark.parametrize("command", EVERY_COMMAND, ids=lambda c: " ".join(a for a in c if a != "FILE"))
def test_every_command_validates_once(command, suffix, tmp_path, monkeypatch, capsys):
    path = _model_file(tmp_path, RULE_FILE if "simulate" in command else EHEALTH, suffix)
    calls = []
    validate = riskforge.model.validate
    for name, module in list(sys.modules.items()):  # dsl, calculus and oracle call it
        if name.startswith("riskforge") and getattr(module, "validate", None) is validate:
            monkeypatch.setattr(module, "validate", lambda *a, **k: calls.append(1) or validate(*a, **k))
    assert run([path if arg == "FILE" else arg for arg in command]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("suffix", [".riskdsl", ".json"])
def test_validate_prints_the_warnings_of_the_load(suffix, tmp_path, capsys):
    hot = RULE_FILE.replace("likelihood 0.8", "likelihood 1.5")
    path = _model_file(tmp_path, hot, suffix)
    assert run(["validate", path]) == 0
    assert capsys.readouterr().err == "warning: leadsto A->B likelihood exceeds 1\n"


@pytest.mark.parametrize("suffix", [".riskdsl", ".json"])
@pytest.mark.parametrize("command", [["validate"], ["export", "--to", "dsl"], ["synergy"]])
def test_a_byte_order_mark_is_read_past(command, suffix, tmp_path, capsys):
    path = Path(_model_file(tmp_path, EHEALTH, suffix))
    with_mark = tmp_path / f"marked{suffix}"
    with_mark.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    results = []
    for file in (path, with_mark):
        results.append((run([command[0], str(file), *command[1:]]), capsys.readouterr()))
    assert results[0] == results[1]
    assert results[0][0] == 0


@st.composite
def mutated_fixture(draw) -> bytes:
    """A fixture with text inserted into, or cut out of, one of its lines."""
    lines = list(draw(st.sampled_from(FIXTURE_LINES)))
    i = draw(st.integers(0, len(lines) - 1))
    j = draw(st.integers(0, len(lines[i])))
    k = draw(st.integers(j, len(lines[i])))
    insert = draw(st.text(max_size=6))
    lines[i] = lines[i][:j] + insert + lines[i][k if draw(st.booleans()) else j:]
    return "\n".join(lines).encode()


@settings(max_examples=60, deadline=None, database=None)
@given(
    data=st.binary(max_size=200) | mutated_fixture(),
    suffix=st.sampled_from([".riskdsl", ".json"]),
)
@example(data=b'{"schema": 1, "name": ' + b"[" * 100000, suffix=".json")
@example(data='riskmodel "caf\xe9" timeunit 1y\n'.encode("latin-1"), suffix=".riskdsl")
# Period magnitudes beyond the float range, and beyond what int() reads.
@example(data=EHEALTH.replace("30:10y", f"30:{'9' * 320}y").encode(), suffix=".riskdsl")
@example(data=EHEALTH.replace("30:10y", f"30:{'9' * 4400}y").encode(), suffix=".riskdsl")
@example(
    data=to_json(parse(EHEALTH)).replace('"per": "10y"', f'"per": "{"9" * 320}y"', 1).encode(),
    suffix=".json",
)
def test_any_input_ends_in_an_exit_code_and_at_most_one_error_line(data, suffix):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"model{suffix}"
        path.write_bytes(data)
        for command in EVERY_COMMAND:
            argv = [str(path) if arg == "FILE" else arg for arg in command]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run(argv)
            assert code in (0, 1, 2, 3), argv
            errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
            assert len(errors) <= 1, (argv, errors)
            assert "Traceback" not in err.getvalue()


def _chain_text(n: int, closed: bool) -> str:
    """A threat, n - 1 scenarios in a chain and an incident at its end; with
    ``closed``, the incident also leads back to the first scenario."""
    lines = ['riskmodel "deep" timeunit 1y', "threat T"]
    lines += [f"scenario S{i}" for i in range(n - 1)]
    lines += [f"incident S{n - 1} consequence 1", "initiate T -> S0 frequency 1:1y"]
    lines += [f"leadsto S{i} -> S{i + 1} likelihood 0.5" for i in range(n - 1)]
    if closed:
        lines.append(f"leadsto S{n - 1} -> S0 likelihood 0.5")
    return "\n".join(lines) + "\n"


def test_deep_chain_validates_and_propagates(tmp_path, capsys):
    # Deeper than the default recursion limit: no step may recurse per vertex.
    dsl_path = tmp_path / "deep.riskdsl"
    dsl_path.write_text(_chain_text(3000, closed=False))
    json_path = tmp_path / "deep.json"
    json_path.write_text(to_json(parse(dsl_path.read_text())))
    for path in (dsl_path, json_path):
        assert run(["validate", str(path)]) == 0
        assert run(["propagate", str(path), "--format", "json"]) == 0
        assert len(json.loads(capsys.readouterr().out)) == 3000

    cyclic = tmp_path / "cyclic.riskdsl"
    cyclic.write_text(_chain_text(3000, closed=True))
    for command in ("validate", "propagate"):
        assert run([command, str(cyclic)]) == 1
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            err.strip()
        ]
        assert "cycle: S0,S1," in err


GOLDEN = Path(__file__).parent / "golden"
SYNERGY_FLAGS = [
    [*output, *pessimistic, *budget]
    for output in (["--format", "json"], ["--format", "csv"])
    for pessimistic in ([], ["--pessimistic"])
    for budget in ([], ["--budget", "5000"])
]


def _golden_models() -> list[tuple[str, str]]:
    """(name, DSL text) of the three fixtures and 40 random models."""
    models = [(path.name, path.read_text()) for path in sorted(FIXTURES.glob("*.riskdsl"))]
    for seed in range(40):
        model = random_model(
            np.random.default_rng(1000 + seed),
            interval=seed % 2 == 1,
            max_cms=7 if seed % 4 == 0 else 5,
            allow_overlapping=seed % 3 == 0,
            exclusive=seed % 5 == 0,
        )
        models.append((f"random-{seed}", serialize(model)))
    return models


def _digests(command: str, path: Path, runs: list[list[str]]) -> list[list]:
    """[flags, sha256 of the JSON list (exit code, stdout, stderr)] per flag set.

    Flags ending in ``--out`` get a file to write, and its bytes join the list.
    """
    digests = []
    for flags in runs:
        out, err = io.StringIO(), io.StringIO()
        written = path.with_suffix(".out")
        extra = [str(written)] if flags[-1:] == ["--out"] else []
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run([command, str(path), *flags, *extra])
        outcome = [code, out.getvalue(), err.getvalue()]
        if extra:
            outcome.append(written.read_text(encoding="utf-8"))
        outcome = json.dumps(outcome)
        digests.append([flags, hashlib.sha256(outcome.encode()).hexdigest()])
    return digests


def _golden_records(filename: str) -> list[dict]:
    with (GOLDEN / filename).open(encoding="utf-8") as golden:
        records = [json.loads(line) for line in golden]
    assert [r["model"] for r in records] == [name for name, _ in _golden_models()]
    return records


def _synergy_digests(name: str, text: str, directory: Path) -> list[list]:
    path = directory / name
    path.write_text(text)
    return _digests("synergy", path, SYNERGY_FLAGS)


def test_synergy_output_matches_the_golden_digests(tmp_path):
    """Each record holds a model's text and the digests of what ``synergy``
    wrote for it under each flag set, recorded before the ranking was kept in
    arrays (CHANGES.md says how the file was made)."""
    for record in _golden_records("synergy_cli.jsonl"):
        digests = _synergy_digests(record["model"], record["text"], tmp_path)
        assert digests == record["digests"], record["model"]


def _analyze_digests(name: str, text: str, directory: Path) -> list[list]:
    """Every incident in csv, dot and json; the e-health fixture's incident
    also once with ``--out``."""
    path = directory / name
    path.write_text(text)
    risks = [v.id for v in parse(text).incidents]
    runs = [["--risk", r, "--format", f] for r in risks for f in ("csv", "dot", "json")]
    if name == "ehealth.riskdsl":
        runs.append(["--risk", risks[0], "--format", "dot", "--out"])
    return _digests("analyze", path, runs)


def test_analyze_output_matches_the_golden_digests(tmp_path):
    """As the synergy digests, for ``analyze``, recorded before the decision
    diagram was kept in arrays."""
    for record in _golden_records("analyze_cli.jsonl"):
        digests = _analyze_digests(record["model"], record["text"], tmp_path)
        assert digests == record["digests"], record["model"]

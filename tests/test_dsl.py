import copy
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from riskforge import (
    DslError,
    DslSemanticError,
    DslSyntaxError,
    Interval,
    Period,
    RiskModel,
    from_json,
    parse,
    serialize,
    to_json,
)
from riskforge import dsl
from riskforge.cli import run
from riskforge.dsl import SourceSpan, canonical
from riskforge.model import Countermeasure, known_diagnostics, validate

from genmodels import random_model

HEADER = 'riskmodel "m" timeunit 10y\n'


def test_parse_initiate_line():
    text = HEADER + (
        "threat NF\nscenario NCD\nincident R consequence 1\n"
        "initiate NF -> NCD frequency 30:10y\nleadsto NCD -> R likelihood 1\n"
    )
    m = parse(text)
    rel = m.initiates[0]
    assert (rel.source, rel.target) == ("NF", "NCD")
    assert rel.frequency.occurrences == Interval.point(30.0)
    assert rel.frequency.per == Period(10, "y")


def test_parse_treats_effect_suffixes():
    text = HEADER + (
        "threat T\nscenario NCD\nincident R consequence 1\n"
        "initiate T -> NCD frequency 1:1y\nleadsto NCD -> R likelihood 1\n"
        "countermeasure IRN cost 10:1y\n"
        "treats IRN -> NCD effect 0.7L 0.0C\n"
    )
    t = parse(text).treats[0]
    assert t.freq_effect == Interval.point(0.7)
    assert t.cons_effect == Interval.point(0.0)


def test_parse_negative_likelihood_rejected_with_span():
    text = HEADER + (
        "threat T\nscenario NCD\nscenario TDI\nincident R consequence 1\n"
        "initiate T -> NCD frequency 1:1y\n"
        "leadsto NCD -> TDI likelihood -0.5\n"
        "leadsto TDI -> R likelihood 1\n"
    )
    with pytest.raises(DslSemanticError) as exc:
        parse(text)
    assert "likelihood must be >= 0" in str(exc.value)
    assert exc.value.span.line == 7


def test_parse_duplicate_id():
    text = HEADER + "threat A\nscenario A\n"
    with pytest.raises(DslSemanticError, match="duplicate id 'A'"):
        parse(text)


def test_parse_syntax_error_has_span():
    with pytest.raises(DslSyntaxError) as exc:
        parse(HEADER + "threat !!!\n")
    assert exc.value.span is not None
    assert exc.value.span.line == 2


def test_parse_interval_frequency_rendering(ehealth):
    text = HEADER + (
        "threat T\nincident R consequence 1\n"
        "initiate T -> R frequency [20,40]:10y\n"
    )
    m = parse(text)
    assert m.initiates[0].frequency.occurrences == Interval(20.0, 40.0)
    assert "frequency [20,40]:10y" in serialize(m)


def test_serialize_empty_model():
    m = parse('riskmodel "x" timeunit 1y\n')
    assert serialize(m) == 'riskmodel "x" timeunit 1y\n'


def test_roundtrip_ehealth(ehealth, ehealth_text):
    assert parse(serialize(ehealth)) == ehealth
    assert parse(ehealth_text) == ehealth


def test_roundtrip_random_models():
    rng = np.random.default_rng(7)
    for _ in range(50):
        m = random_model(rng, interval=bool(rng.random() < 0.5))
        assert parse(serialize(m)) == canonical(m)


def test_json_roundtrip_ehealth(ehealth):
    assert from_json(to_json(ehealth)) == ehealth


def test_json_roundtrip_random_models():
    rng = np.random.default_rng(7)
    for _ in range(50):
        m = random_model(rng, interval=bool(rng.random() < 0.5))
        assert from_json(to_json(m)) == canonical(m)


def test_both_loaders_keep_the_same_model_and_diagnostics():
    rng = np.random.default_rng(11)
    warned = 0
    for _ in range(50):
        m = random_model(rng, interval=bool(rng.random() < 0.5), allow_overlapping=True)
        from_dsl, from_doc = parse(serialize(m)), from_json(to_json(m))
        assert from_dsl == from_doc == m
        assert known_diagnostics(from_dsl) == known_diagnostics(from_doc) == tuple(validate(m))
        warned += bool(known_diagnostics(from_dsl))
    assert warned  # some models carry a warning


def _broken(m, fault: str):
    """The model with one record broken, and that record's collection."""
    if fault == "duplicate-id":  # a countermeasure named like a vertex
        record = Countermeasure(m.vertices[-1].id, expenditure=1.0)
        return replace(m, countermeasures=(*m.countermeasures, record)), "countermeasures", record
    t = m.treats[-1]
    record = replace(t, freq_effect=Interval.point(1.5))
    return replace(m, treats=(*m.treats[:-1], record)), "treats", record


@pytest.mark.parametrize("fault", ["duplicate-id", "effect-range"])
def test_both_loaders_name_the_broken_record(fault):
    rng = np.random.default_rng(13)
    checked = 0
    while checked < 20:
        m = random_model(rng, interval=bool(rng.random() < 0.5))
        if not m.treats:
            continue
        broken, collection, record = _broken(m, fault)
        broken = canonical(broken)  # serialize and to_json write one order
        text = serialize(broken)
        statement = serialize(RiskModel("m", m.base_period, **{collection: (record,)}))
        with pytest.raises(DslSemanticError) as from_dsl:
            parse(text)
        line = text.splitlines().index(statement.splitlines()[-1]) + 1
        assert str(from_dsl.value).startswith(f"{line}:")
        with pytest.raises(DslSemanticError) as from_doc:
            from_json(to_json(broken))
        where = f"{collection}[{getattr(broken, collection).index(record)}]"
        assert from_doc.value.span == where
        # the same message, at the same record
        assert str(from_doc.value).removeprefix(where) == str(from_dsl.value).removeprefix(
            str(from_dsl.value.span)
        )
        checked += 1


@pytest.mark.parametrize("schema", [99, True, 1.0, "1"])
def test_json_schema_gate(ehealth, schema):
    doc = json.loads(to_json(ehealth))
    doc["schema"] = schema
    with pytest.raises(DslSemanticError, match="schema version"):
        from_json(json.dumps(doc))


def test_json_dangling_depends(ehealth):
    doc = json.loads(to_json(ehealth))
    doc["depends"][0]["treats"]["target"] = "HGD"
    with pytest.raises(DslSemanticError, match="missing treats relation"):
        from_json(json.dumps(doc))


def test_coras_mode_rejects_high_likelihood():
    text = HEADER + (
        "threat T\nscenario A\nincident R consequence 1\n"
        "initiate T -> A frequency 1:1y\n"
        "leadsto A -> R likelihood 1.5\n"
    )
    parse(text)  # fine by default
    with pytest.raises(DslError):
        parse(text, coras=True)


def test_parse_rejects_dependency_on_own_effect():
    text = HEADER + (
        "threat T\nincident R consequence 1\ninitiate T -> R frequency 1:1y\n"
        "countermeasure C cost 1:1y\ntreats C -> R effect 0.5L 0C\n"
        "depends C -> (C -> R) effect 0.5L 0C\n"
    )
    with pytest.raises(DslSemanticError, match="'C' cannot depend on its own effect"):
        parse(text)


def test_via_clause_is_kept(ehealth):
    nf = next(r for r in ehealth.initiates if r.source == "NF")
    assert nf.via == "unstable/unreliable network connection"
    assert 'via "unstable/unreliable network connection"' in serialize(ehealth)


FINITE_MODEL = HEADER + (
    "threat T\nscenario A\nincident R consequence {consequence}\n"
    "initiate T -> A frequency {frequency}:1y\nleadsto A -> R likelihood {likelihood}\n"
    "countermeasure C cost {cost}:1y\ntreats C -> A effect 0.5L 0.5C\n"
    "accept R frequency <= {max_frequency}:1y\naccept R cost <= {max_cost}:1y\n"
)
FINITE_VALUES = {
    "consequence": 100,
    "frequency": 2,
    "likelihood": 0.5,
    "cost": 10,
    "max_frequency": 5,
    "max_cost": 1000,
}
INTERVAL_SLOTS = ("consequence", "frequency", "likelihood", "max_frequency")


def _json_slot(doc: dict, slot: str) -> tuple[dict, str]:
    """The JSON object and key holding one slot of FINITE_MODEL."""
    incident = next(v for v in doc["vertices"] if v["id"] == "R")
    return {
        "consequence": (incident, "consequence"),
        "frequency": (doc["initiates"][0]["frequency"], "value"),
        "likelihood": (doc["leadsto"][0], "likelihood"),
        "cost": (doc["countermeasures"][0], "cost"),
        "max_frequency": (doc["criteria"][0]["max_frequency"], "value"),
        "max_cost": (doc["criteria"][0]["max_risk_cost"], "value"),
    }[slot]


@settings(max_examples=50, deadline=None, database=None)
@given(
    slot=st.sampled_from(sorted(FINITE_VALUES)),
    value=st.sampled_from([math.inf, -math.inf, math.nan]),
    as_interval=st.booleans(),
    as_json=st.booleans(),
)
def test_loaders_reject_non_finite_numbers(slot, value, as_interval, as_json):
    as_interval = as_interval and slot in INTERVAL_SLOTS
    if as_json:
        doc = json.loads(to_json(parse(FINITE_MODEL.format(**FINITE_VALUES))))
        holder, key = _json_slot(doc, slot)
        holder[key] = [0.0, value] if as_interval else value
        load, text = from_json, json.dumps(doc)  # writes NaN, Infinity, -Infinity
    else:
        assume(not math.isnan(value))  # the DSL has no spelling for NaN
        number = "1e999" if value > 0 else "-1e999"
        values = dict(FINITE_VALUES, **{slot: f"[0,{number}]" if as_interval else number})
        load, text = parse, FINITE_MODEL.format(**values)
    with pytest.raises(DslSemanticError) as exc:
        load(text)
    if not value < 0:  # a negative number fails its own sign check first
        assert "is not a finite number" in str(exc.value)


def _full_json_doc() -> dict:
    """The e-health model as JSON, with an interval and a cost bound, so every
    key of schema version 1 appears."""
    model = parse((Path(__file__).parent / "fixtures" / "ehealth.riskdsl").read_text())
    doc = json.loads(to_json(model))
    next(v for v in doc["vertices"] if v["id"] == "LMD")["consequence"] = [4000, 6000]
    doc["criteria"][0]["max_risk_cost"] = {"value": 100000, "per": "10y"}
    return doc


FULL_DOC = _full_json_doc()


def _paths(node, prefix=()):
    """The path of every value below a JSON object or list."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _paths(child, prefix + (key,))


_DELETE = object()


def _with(doc: dict, path: tuple, value) -> dict:
    """A copy of the document with the value at the path replaced, or deleted."""
    doc = copy.deepcopy(doc)
    holder = doc
    for key in path[:-1]:
        holder = holder[key]
    if value is _DELETE:
        del holder[path[-1]]
    else:
        holder[path[-1]] = value
    return doc


# One value of each JSON type: integers, booleans, strings, null, lists and objects.
OTHER_TYPES = [0, 7, -3, True, False, "", "x", "12", None, [], [1, 2], {}, {"value": 1}]
# What the JSON reader says of a value that names no member, as the DSL says it.
NO_MEMBER = {
    "kind": "kind must be threat, scenario, incident or asset",
    "merge": "merge must be separate, exclusive or overlapping",
}


@settings(max_examples=50, deadline=None, database=None)
@given(path=st.sampled_from(sorted(_paths(FULL_DOC), key=str)), value=st.sampled_from(OTHER_TYPES))
@example(path=("vertices", 0, "id"), value=5)
@example(path=("countermeasures", 0, "cost"), value=True)
@example(path=("countermeasures", 0, "cost"), value="12")
@example(path=("vertices", 0, "kind"), value={})
@example(path=("vertices", 1, "kind"), value="x")
@example(path=("vertices", 2, "merge"), value={})
@example(path=("vertices", 3, "merge"), value=[1, 2])
@example(path=("vertices", 4, "merge"), value=1)
def test_json_value_of_another_type_is_a_model_error(path, value, tmp_path_factory):
    text = json.dumps(_with(FULL_DOC, path, value))
    try:
        model = from_json(text)
    except DslError as e:
        model = None
        if path[-1] in NO_MEMBER:
            assert str(e) == f"{path[0]}[{path[1]}]: {NO_MEMBER[path[-1]]}"
    else:
        assert parse(serialize(model)) == model  # the DSL can write every JSON model
    file = tmp_path_factory.mktemp("json") / "model.json"
    file.write_text(text)
    assert run(["validate", str(file)]) == (1 if model is None else 0)


REQUIRED_KEYS = [
    ("vertices", "id"),
    ("vertices", "kind"),
    ("initiates", "source"),
    ("initiates", "target"),
    ("initiates", "frequency"),
    ("leadsto", "source"),
    ("leadsto", "target"),
    ("leadsto", "likelihood"),
    ("impacts", "source"),
    ("impacts", "target"),
    ("countermeasures", "id"),
    ("countermeasures", "cost"),
    ("countermeasures", "per"),
    ("treats", "countermeasure"),
    ("treats", "target"),
    ("treats", "freq_effect"),
    ("treats", "cons_effect"),
    ("depends", "countermeasure"),
    ("depends", "treats"),
    ("depends", "treats.countermeasure"),
    ("depends", "treats.target"),
    ("depends", "freq_dep"),
    ("depends", "cons_dep"),
    ("criteria", "risk"),
    ("criteria", "max_risk_cost.value"),
    ("criteria", "max_risk_cost.per"),
]


@pytest.mark.parametrize("collection,key", REQUIRED_KEYS, ids=lambda x: x)
def test_json_required_key(collection, key):
    doc = _with(FULL_DOC, (collection, 0, *key.split(".")), _DELETE)
    with pytest.raises(DslSemanticError, match="malformed model JSON"):
        from_json(json.dumps(doc))


def test_json_optional_keys_may_be_left_out():
    doc = copy.deepcopy(FULL_DOC)
    defaults = {"label": "", "via": "", "merge": "separate", "consequence": None}
    defaults.update(max_frequency=None, max_risk_cost=None)
    for collection in ("vertices", "initiates", "leadsto", "countermeasures", "criteria"):
        for obj in doc[collection]:
            for key in [k for k, v in obj.items() if k in defaults and v == defaults[k]]:
                del obj[key]
    shorter = json.dumps(doc)
    assert len(shorter) < len(json.dumps(FULL_DOC))
    assert from_json(shorter) == from_json(json.dumps(FULL_DOC))


# A misspelt key is an error, not a default: one per collection, one per
# nested object and one in the document.
RENAMED_KEYS = [
    (("vertices", 2, "merge"), "merge_policy", "vertices[2]: unknown key 'merge_policy'"),
    (("initiates", 1, "via"), "vias", "initiates[1]: unknown key 'vias'"),
    (("leadsto", 0, "likelihood"), "likelyhood", "leadsto[0]: unknown key 'likelyhood'"),
    (("impacts", 0, "target"), "asset", "impacts[0]: unknown key 'asset'"),
    (("countermeasures", 1, "cost"), "expenditure", "countermeasures[1]: unknown key 'expenditure'"),
    (("treats", 2, "cons_effect"), "cons_efect", "treats[2]: unknown key 'cons_efect'"),
    (("depends", 0, "freq_dep"), "freq_effect", "depends[0]: unknown key 'freq_effect'"),
    (("criteria", 0, "max_frequency"), "max_freq", "criteria[0]: unknown key 'max_freq'"),
    (("initiates", 0, "frequency", "per"), "period", "initiates[0]: bad frequency: unknown key 'period'"),
    (("depends", 0, "treats", "target"), "vertex", "depends[0]: bad treats: unknown key 'vertex'"),
    (
        ("criteria", 0, "max_risk_cost", "value"),
        "amount",
        "criteria[0]: bad max_risk_cost: unknown key 'amount'",
    ),
    (("base_period",), "timeunit", "unknown key 'timeunit'"),
]


@pytest.mark.parametrize("path,name,message", RENAMED_KEYS, ids=[k[1] for k in RENAMED_KEYS])
def test_json_unknown_key_is_an_error(path, name, message):
    doc = copy.deepcopy(FULL_DOC)
    holder = doc
    for key in path[:-1]:
        holder = holder[key]
    holder[name] = holder.pop(path[-1])
    with pytest.raises(DslSemanticError) as exc:
        from_json(json.dumps(doc))
    assert str(exc.value) == message
    holder[path[-1]] = holder[name]  # the key itself, and an unknown one besides
    with pytest.raises(DslSemanticError) as exc:
        from_json(json.dumps(doc))
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "path,value,message",
    [
        (("vertices", 0, "id"), "a b", "id 'a b' is not an identifier"),
        (("countermeasures", 0, "id"), "1C", "id '1C' is not an identifier"),
        (("name",), 'Say "hi"', "contains a double quote or a line break"),
        (("vertices", 0, "label"), 'Say "hi"', "contains a double quote or a line break"),
        (("countermeasures", 0, "label"), "two\nlines", "contains a double quote or a line break"),
        (("initiates", 0, "via"), "a\rb", "contains a double quote or a line break"),
        (("leadsto", 0, "via"), "page\u2028break", "contains a double quote or a line break"),
        (("criteria", 0, "max_risk_cost", "value"), -5, "expected a nonnegative number"),
        (("criteria",), FULL_DOC["criteria"] * 2, "duplicate acceptance criterion for 'LMD'"),
        (
            ("leadsto", 0, "likelihood"),
            [0.9, 0.1],
            r"^leadsto\[0\]: bad likelihood: interval lower bound 0\.9 exceeds upper bound 0\.1$",
        ),
    ],
    ids=[
        "vertex-id",
        "countermeasure-id",
        "name-quote",
        "label-quote",
        "label-newline",
        "via-carriage-return",
        "via-line-separator",
        "negative-cost-bound",
        "duplicate-criterion",
        "reversed-interval",
    ],
)
def test_json_model_must_be_one_the_dsl_can_write(path, value, message):
    doc = _with(FULL_DOC, path, value)
    with pytest.raises(DslSemanticError, match=message):
        from_json(json.dumps(doc))


@pytest.mark.parametrize("value", [v for v in OTHER_TYPES if not isinstance(v, dict)])
def test_json_top_level_value_must_be_an_object(value):
    with pytest.raises(DslSemanticError) as exc:
        from_json(json.dumps(value))
    assert str(exc.value) == "top-level JSON value must be an object"


THREAT_TO_R = "threat T\nincident R consequence 1\ninitiate T -> R frequency 1:1y\n"


@pytest.mark.parametrize(
    "text,coras,line,message",
    [
        (
            'riskmodel "m" timeunit 1y\nthreat T\nincident A consequence 1\n'
            "initiate T -> A frequency 1e308:1d\n",
            False,
            4,
            "initiate T->A frequency is not a finite number",
        ),
        (
            HEADER + "threat T\nscenario S\nincident R consequence 1\n"
            "initiate T -> S frequency 1:1y\nleadsto S -> X likelihood 0.5\n"
            "leadsto S -> R likelihood 0.5\n",
            False,
            6,
            "leadsto S->X references an undeclared vertex",
        ),
        (
            HEADER + THREAT_TO_R + "countermeasure C cost 1:1y\ntreats C -> R effect 1.5L 0C\n",
            False,
            6,
            "treats C->R frequency effect outside [0,1]",
        ),
        (HEADER + "merge X exclusive\n" + THREAT_TO_R, False, 2, "undeclared vertex 'X'"),
        (HEADER + THREAT_TO_R + "scenario T\n", False, 5, "duplicate id 'T'"),
        (
            HEADER + THREAT_TO_R + "merge R exclusive\nmerge R overlapping\n",
            False,
            6,
            "duplicate merge policy for 'R'",
        ),
        (
            HEADER + "threat T\nscenario A\nscenario B\nincident R consequence 1\n"
            "initiate T -> A frequency 1:1y\nleadsto A -> B likelihood 0.5\n"
            "leadsto B -> A likelihood 0.5\nleadsto B -> R likelihood 0.5\n",
            False,
            8,
            "cycle: A,B",
        ),
        (
            HEADER + "threat T\nscenario A\nincident R consequence 1\n"
            "initiate T -> A frequency 1:1y\nleadsto A -> R likelihood 1.5\n",
            True,
            6,
            "leadsto A->R likelihood exceeds 1 (CORAS mode)",
        ),
        (HEADER + HEADER + THREAT_TO_R, False, 2, "2:1: duplicate 'riskmodel' line"),
    ],
    ids=[
        "overflow-per-base-period",
        "undeclared-target",
        "effect-range",
        "undeclared-merge",
        "duplicate-id",
        "duplicate-merge",
        "cycle",
        "coras-likelihood",
        "second-header",
    ],
)
def test_semantic_error_points_at_its_statement(text, coras, line, message):
    with pytest.raises(DslSemanticError) as exc:
        parse(text, coras=coras)
    assert message in str(exc.value)
    assert exc.value.span.line == line


@pytest.mark.parametrize(
    "statement",
    [
        "accept R frequency <= 1:1y cost <= 5:1y",
        'threat T2 "x" consequence 5',
        "incident R2",
        'countermeasure C "x"',
        'impact R -> T via "x"',
    ],
)
def test_grammar_accepts_no_new_forms(statement):
    with pytest.raises(DslSyntaxError) as exc:
        parse(HEADER + THREAT_TO_R + statement + "\n")
    assert exc.value.span.line == 5


# Statement forms and spacing that neither the fixtures nor serialize write.
EXTRA_LINES = [
    'asset A "the asset"',
    "merge V0 exclusive",
    "impact R -> A",
    'countermeasure C "a label" cost 1.5e3:6m',
    "accept R cost <= 5:1y",
    "accept R frequency <= [1,2.5]:10y",
    "  leadsto\tA->B likelihood [0,1] # comment",
]


def _well_formed_lines() -> list[str]:
    rng = np.random.default_rng(11)
    texts = [path.read_text() for path in sorted((Path(__file__).parent / "fixtures").glob("*"))]
    for i in range(40):
        model = random_model(
            rng, interval=i % 2 == 1, allow_overlapping=True, exclusive=i % 4 == 0
        )
        texts.append(serialize(model))
    return [line for text in texts for line in text.splitlines()] + EXTRA_LINES


WELL_FORMED = _well_formed_lines()


def test_line_pattern_reads_every_well_formed_line():
    keys = set()
    for line in WELL_FORMED:
        statement = dsl._match(line)
        assert statement is not None, line
        if statement:
            dsl._explain(line, 1)  # which finds no fault in it either
        keys.update(statement[:1])
    assert keys == set(dsl._STATEMENTS)


def _outcome(line: str) -> list:
    """The line with what the reader makes of it: "read" and the repr of its
    statement, or the error class and message, span included."""
    statement = dsl._match(line)
    if statement is not None:
        return [line, "read", repr(statement)]  # repr tells -0.0 from 0.0, which == does not
    try:
        dsl._explain(line, 1)
    except DslError as e:
        return [line, type(e).__name__, str(e)]
    return [line, "no diagnostic", ""]


def test_every_line_of_the_golden_corpus_reads_as_recorded():
    """The corpus holds each line's outcome under the token walker that the
    explainer replaced: the well-formed lines, systematic mutations of a few
    lines per statement, and seeded random mutations (CHANGES.md says how it
    was made)."""
    path = Path(__file__).parent / "golden" / "dsl_lines.jsonl"
    with path.open(encoding="utf-8") as corpus:
        for record in map(json.loads, corpus):
            assert _outcome(record[0]) == record


@st.composite
def mutated_line(draw) -> str:
    """A well-formed line with DSL-like text inserted into, or cut out of, it."""
    line = draw(st.sampled_from(WELL_FORMED))
    j = draw(st.integers(0, len(line)))
    k = draw(st.integers(j, len(line)))
    alphabet = st.sampled_from(list('0123456789.eE+-,:[]()<=>#"_ \tLCdmyAxz') + ["\u0663"])
    insert = draw(st.text(alphabet, max_size=4))
    return line[:j] + insert + line[k if draw(st.booleans()) else j :]


@settings(max_examples=400, deadline=None, database=None)
@given(line=mutated_line())
@example(line="merge Aexclusive")
@example(line="treats C -> A effect 0.5eL 0C")
@example(line="leadsto A -> B likelihood 1.5.3")
@example(line="leadsto A -> B likelihood -0")
@example(line="\t  scenario S")
@example(line="threat T#comment")
@example(line="initiate T -> A frequency 1:" + "9" * 4400 + "y")
def test_a_mutated_line_is_read_or_explained(line):
    statement = dsl._match(line)
    if statement is None:
        with pytest.raises(DslError):  # nothing else, and never nothing
            dsl._explain(line, 1)
    elif statement:
        dsl._explain(line, 1)  # which finds no fault in a line the pattern reads


def test_explainer_runs_only_on_lines_the_pattern_rejects(ehealth_text, monkeypatch):
    explained = []
    explain = dsl._explain
    monkeypatch.setattr(dsl, "_explain", lambda raw, n: explained.append(n) or explain(raw, n))
    assert parse(ehealth_text) is not None
    # The line pattern reads -0 as -0.0.
    text = HEADER + "threat T\nscenario A\nincident R consequence 1\n"
    text += "initiate T -> A frequency 1:1y\nleadsto A -> R likelihood -0\n"
    assert repr(parse(text).leadsto[0].likelihood.lo) == "-0.0"
    assert explained == []
    with pytest.raises(DslSemanticError) as exc:
        parse(text.replace("-0", "-0.5"))
    assert str(exc.value) == "6:27: likelihood must be >= 0"
    assert explained == [6]


def test_an_indented_statement_is_reported_at_its_first_token():
    with pytest.raises(DslSemanticError) as exc:
        parse(HEADER + THREAT_TO_R + "\t   scenario T  # again\n")
    assert exc.value.span == SourceSpan(5, 5)
    with pytest.raises(DslSemanticError) as exc:
        parse(HEADER + THREAT_TO_R + "  leadsto R -> T likelihood -0.5\n")
    assert exc.value.span == SourceSpan(5, 29)


JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.sampled_from([-0.0, 1e16, math.inf, -math.inf, math.nan])
    | st.text()
)
JSON_DOCS = st.recursive(
    JSON_LEAVES,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None, database=None)
@given(doc=JSON_DOCS)
@example(doc={})
@example(doc=[])
@example(doc={"": [], "a": {}, "b": [{}, []]})
@example(doc=["caf\xe9 \u2028 \x00\x1f\"\\", -0.0, 1e16, math.inf, -math.inf, math.nan])
def test_indented_json_is_what_json_dumps_writes(doc):
    assert dsl._indented_json(doc) == json.dumps(doc, indent=2)

"""Textual risk-model language: parser, canonical serializer, JSON mirror.

The language is line-oriented with `#` comments. Identifier kinds follow the
CORAS element mapping: threats, threat scenarios, unwanted incidents and
assets each become one vertex, identifiers mapping one-to-one onto event
classes.
"""

from __future__ import annotations

import enum
import json
import re
from dataclasses import dataclass, fields, replace
from operator import attrgetter
from typing import Callable, Optional, Union, get_args, get_origin, get_type_hints

from .intervals import Interval
from .model import (
    AcceptanceCriterion,
    Countermeasure,
    DependsRel,
    Frequency,
    ImpactRel,
    InitiateRel,
    LeadsToRel,
    MergePolicy,
    Period,
    RiskModel,
    TreatsRel,
    Vertex,
    VertexKind,
    mark_valid,
    validate,
)

JSON_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class SourceSpan:
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


class DslError(Exception):
    def __init__(self, message: str, span: Optional[SourceSpan] = None):
        self.span = span
        if span is not None:
            message = f"{span}: {message}"
        super().__init__(message)


class DslSyntaxError(DslError):
    pass


class DslSemanticError(DslError):
    pass


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<string>"[^"\n]*")
  | (?P<number>-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<arrow>->)
  | (?P<le><=)
  | (?P<punct>[\[\],:()])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    span: SourceSpan


def _tokenize_line(text: str, line_no: int) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(text):
        if text[pos] == "#":
            break
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise DslSyntaxError(
                f"unexpected character {text[pos]!r}", SourceSpan(line_no, pos + 1)
            )
        kind = m.lastgroup
        if kind != "ws":
            tokens.append(_Token(kind, m.group(), SourceSpan(line_no, pos + 1)))
        pos = m.end()
    return tokens


class _LineParser:
    def __init__(self, tokens: list[_Token], line_no: int, line_len: int):
        self.tokens = tokens
        self.i = 0
        self.line_no = line_no
        self.line_len = line_len

    @property
    def span(self) -> SourceSpan:
        if self.i < len(self.tokens):
            return self.tokens[self.i].span
        return SourceSpan(self.line_no, max(1, self.line_len))

    def done(self) -> bool:
        return self.i >= len(self.tokens)

    def peek(self) -> Optional[_Token]:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self, kind: str, what: str, text: Optional[str] = None) -> _Token:
        tok = self.peek()
        if tok is None or tok.kind != kind or (text is not None and tok.text != text):
            raise DslSyntaxError(f"expected {what}", self.span)
        self.i += 1
        return tok

    def ident(self, what: str = "identifier") -> _Token:
        return self.take("ident", what)

    def keyword(self, word: str):
        tok = self.peek()
        if tok is None or tok.kind != "ident" or tok.text != word:
            raise DslSyntaxError(f"expected {word!r}", self.span)
        self.i += 1

    def opt_string(self) -> str:
        tok = self.peek()
        if tok is not None and tok.kind == "string":
            self.i += 1
            return tok.text[1:-1]
        return ""

    def number(self, what: str = "number") -> tuple[float, SourceSpan]:
        tok = self.take("number", what)
        return float(tok.text), tok.span

    def value(self, what: str = "number or interval") -> tuple[Interval, SourceSpan]:
        tok = self.peek()
        if tok is not None and tok.kind == "punct" and tok.text == "[":
            span = tok.span
            self.i += 1
            lo, _ = self.number("interval lower bound")
            self.take("punct", "','", ",")
            hi, _ = self.number("interval upper bound")
            self.take("punct", "']'", "]")
            if lo > hi:
                raise DslSemanticError(f"empty interval [{lo:g},{hi:g}]", span)
            return Interval(lo, hi), span
        x, span = self.number(what)
        return Interval.point(x), span

    def period(self) -> tuple[Period, SourceSpan]:
        mag_tok = self.take("number", "period magnitude")
        if not re.fullmatch(r"\d+", mag_tok.text):
            raise DslSyntaxError("period magnitude must be a positive integer", mag_tok.span)
        unit_tok = self.take("ident", "period unit d, m or y")
        if unit_tok.text not in ("d", "m", "y"):
            raise DslSyntaxError("period unit must be d, m or y", unit_tok.span)
        mag = int(mag_tok.text)
        if mag <= 0:
            raise DslSemanticError("period magnitude must be positive", mag_tok.span)
        return Period(mag, unit_tok.text), mag_tok.span

    def freqspec(self) -> tuple[Frequency, SourceSpan]:
        occ, span = self.value("frequency value")
        if occ.lo < 0:
            raise DslSemanticError("frequency must be >= 0", span)
        self.take("punct", "':'", ":")
        per, _ = self.period()
        return Frequency(occ, per), span

    def effect_pair(self) -> tuple[Interval, Interval]:
        out = []
        for suffix in ("L", "C"):
            iv, span = self.value(f"effect value with {suffix} suffix")
            self.take("ident", f"'{suffix}' suffix", suffix)
            if iv.lo < 0 or iv.hi > 1:
                raise DslSemanticError("effect must lie within [0,1]", span)
            out.append(iv)
        return out[0], out[1]

    def opt_via(self) -> str:
        tok = self.peek()
        if tok is not None and tok.kind == "ident" and tok.text == "via":
            self.i += 1
            s = self.take("string", "string after 'via'")
            return s.text[1:-1]
        return ""

    def finish(self):
        if not self.done():
            raise DslSyntaxError("unexpected trailing input", self.span)


class _Builder:
    def __init__(self):
        self.name: Optional[str] = None
        self.base_period: Optional[Period] = None
        self.vertices: list[Vertex] = []
        self.initiates: list[InitiateRel] = []
        self.leadsto: list[LeadsToRel] = []
        self.countermeasures: list[Countermeasure] = []
        self.treats: list[TreatsRel] = []
        self.depends: list[DependsRel] = []
        self.impacts: list[ImpactRel] = []
        self.merge_overrides: dict[str, MergePolicy] = {}
        self.accept_freq: dict[str, Frequency] = {}
        self.accept_cost: dict[str, tuple[float, Period]] = {}
        self.ids: dict[str, SourceSpan] = {}

    def declare(self, ident: _Token):
        if ident.text in self.ids:
            raise DslSemanticError(f"duplicate id {ident.text!r}", ident.span)
        self.ids[ident.text] = ident.span

    def build(self, where: SourceSpan) -> RiskModel:
        if self.name is None or self.base_period is None:
            raise DslSemanticError("missing 'riskmodel' header line", where)
        declared = {v.id for v in self.vertices}
        for vid in self.merge_overrides:
            if vid not in declared:
                raise DslSemanticError(f"merge policy for undeclared vertex {vid!r}",
                                       self.ids.get(vid, where))
        vertices = []
        for v in self.vertices:
            policy = self.merge_overrides.get(v.id, MergePolicy.SEPARATE)
            vertices.append(
                Vertex(v.id, v.kind, v.label, v.consequence, policy)
            )
        criteria = []
        for risk in sorted(set(self.accept_freq) | set(self.accept_cost)):
            cost = self.accept_cost.get(risk)
            criteria.append(
                AcceptanceCriterion(
                    risk,
                    max_frequency=self.accept_freq.get(risk),
                    max_risk_cost=cost[0] if cost else None,
                    max_risk_cost_per=cost[1] if cost else None,
                )
            )
        return RiskModel(
            name=self.name,
            base_period=self.base_period,
            vertices=tuple(vertices),
            initiates=tuple(self.initiates),
            leadsto=tuple(self.leadsto),
            countermeasures=tuple(self.countermeasures),
            treats=tuple(self.treats),
            depends=tuple(self.depends),
            impacts=tuple(self.impacts),
            criteria=tuple(criteria),
        )


def canonical(model: RiskModel) -> RiskModel:
    """The model with every collection in the canonical declaration order.

    parse and from_json return canonical models, so serialization round-trips
    are equal as values, not just up to reordering.
    """
    kind_rank = {k: i for i, k in enumerate(VertexKind)}  # declaration order
    return replace(
        model,
        vertices=tuple(sorted(model.vertices, key=lambda v: (kind_rank[v.kind], v.id))),
        initiates=tuple(sorted(model.initiates, key=lambda r: (r.source, r.target))),
        leadsto=tuple(sorted(model.leadsto, key=lambda r: (r.source, r.target))),
        impacts=tuple(sorted(model.impacts, key=lambda r: (r.source, r.target))),
        countermeasures=tuple(sorted(model.countermeasures, key=lambda c: c.id)),
        treats=tuple(sorted(model.treats, key=lambda t: (t.countermeasure, t.target))),
        depends=tuple(
            sorted(
                model.depends,
                key=lambda d: (d.countermeasure, d.treats_countermeasure, d.treats_target),
            )
        ),
        criteria=tuple(sorted(model.criteria, key=lambda a: a.risk)),
    )


# A vertex statement's keyword is its kind's value.
_VERTEX_KEYWORDS = {kind.value: kind for kind in VertexKind}


def parse(text: str, coras: bool = False) -> RiskModel:
    """Parse DSL text into a validated RiskModel.

    Raises DslSyntaxError or DslSemanticError, each carrying a SourceSpan.
    With coras=True, likelihoods above 1 are rejected.
    """
    b = _Builder()
    last_span = SourceSpan(1, 1)
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokenize_line(raw, line_no)
        if not tokens:
            continue
        p = _LineParser(tokens, line_no, len(raw))
        last_span = tokens[0].span
        head = p.ident("statement keyword")
        kw = head.text

        if kw == "riskmodel":
            if b.name is not None:
                raise DslSemanticError("duplicate 'riskmodel' line", head.span)
            name = p.take("string", "model name string").text[1:-1]
            p.keyword("timeunit")
            period, _ = p.period()
            b.name, b.base_period = name, period
        elif kw in _VERTEX_KEYWORDS:
            ident = p.ident(f"{kw} id")
            b.declare(ident)
            label = p.opt_string()
            consequence = None
            if kw == "incident":
                p.keyword("consequence")
                consequence, _ = p.value("consequence")
            b.vertices.append(Vertex(ident.text, _VERTEX_KEYWORDS[kw], label, consequence))
        elif kw == "initiate":
            src = p.ident("threat id")
            p.take("arrow", "'->'")
            dst = p.ident("target id")
            p.keyword("frequency")
            freq, _ = p.freqspec()
            via = p.opt_via()
            b.initiates.append(InitiateRel(src.text, dst.text, freq, via))
        elif kw == "leadsto":
            src = p.ident("source id")
            p.take("arrow", "'->'")
            dst = p.ident("target id")
            p.keyword("likelihood")
            lik, span = p.value("likelihood")
            if lik.lo < 0:
                raise DslSemanticError("likelihood must be >= 0", span)
            if coras and lik.hi > 1:
                raise DslSemanticError("likelihood exceeds 1 in CORAS mode", span)
            via = p.opt_via()
            b.leadsto.append(LeadsToRel(src.text, dst.text, lik, via))
        elif kw == "impact":
            src = p.ident("incident id")
            p.take("arrow", "'->'")
            dst = p.ident("asset id")
            b.impacts.append(ImpactRel(src.text, dst.text))
        elif kw == "countermeasure":
            ident = p.ident("countermeasure id")
            b.declare(ident)
            label = p.opt_string()
            p.keyword("cost")
            cost, span = p.number("cost")
            if cost < 0:
                raise DslSemanticError("cost must be >= 0", span)
            p.take("punct", "':'", ":")
            period, _ = p.period()
            b.countermeasures.append(Countermeasure(ident.text, label, cost, period))
        elif kw == "treats":
            cm = p.ident("countermeasure id")
            p.take("arrow", "'->'")
            target = p.ident("target id")
            p.keyword("effect")
            e_f, e_i = p.effect_pair()
            b.treats.append(TreatsRel(cm.text, target.text, e_f, e_i))
        elif kw == "depends":
            cm = p.ident("countermeasure id")
            p.take("arrow", "'->'")
            p.take("punct", "'('", "(")
            t_cm = p.ident("treating countermeasure id")
            p.take("arrow", "'->'")
            t_target = p.ident("treated vertex id")
            p.take("punct", "')'", ")")
            p.keyword("effect")
            d_f, d_i = p.effect_pair()
            b.depends.append(DependsRel(cm.text, t_cm.text, t_target.text, d_f, d_i))
        elif kw == "merge":
            ident = p.ident("vertex id")
            policy = p.ident("merge policy")
            try:
                b.merge_overrides[ident.text] = MergePolicy(policy.text)
            except ValueError:
                raise DslSyntaxError(
                    "merge policy must be separate, exclusive or overlapping", policy.span
                ) from None
        elif kw == "accept":
            risk = p.ident("risk id")
            what = p.ident("'frequency' or 'cost'")
            p.take("le", "'<='")
            if what.text == "frequency":
                if risk.text in b.accept_freq:
                    raise DslSemanticError(
                        f"duplicate frequency criterion for {risk.text!r}", risk.span
                    )
                freq, _ = p.freqspec()
                b.accept_freq[risk.text] = freq
            elif what.text == "cost":
                if risk.text in b.accept_cost:
                    raise DslSemanticError(
                        f"duplicate cost criterion for {risk.text!r}", risk.span
                    )
                cost, span = p.number("cost bound")
                if cost < 0:
                    raise DslSemanticError("cost bound must be >= 0", span)
                p.take("punct", "':'", ":")
                period, _ = p.period()
                b.accept_cost[risk.text] = (cost, period)
            else:
                raise DslSyntaxError("expected 'frequency' or 'cost'", what.span)
        else:
            raise DslSyntaxError(f"unknown statement {kw!r}", head.span)
        p.finish()

    model = b.build(last_span)
    errors = [d for d in validate(model, coras=coras) if d.is_error]
    if errors:
        first = errors[0].message
        ident = re.search(r"'([A-Za-z_][A-Za-z0-9_]*)'", first)
        span = b.ids.get(ident.group(1)) if ident else None
        raise DslSemanticError("; ".join(d.message for d in errors), span or SourceSpan(1, 1))
    return mark_valid(canonical(model))


def _fmt_num(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def _fmt_value(iv: Interval) -> str:
    if iv.is_point:
        return _fmt_num(iv.lo)
    return f"[{_fmt_num(iv.lo)},{_fmt_num(iv.hi)}]"


def _fmt_freq(f: Frequency) -> str:
    return f"{_fmt_value(f.occurrences)}:{f.per}"


def serialize(model: RiskModel) -> str:
    """Render the model in canonical form: sorted declarations, shortest decimals."""
    model = canonical(model)
    lines = [f'riskmodel "{model.name}" timeunit {model.base_period}']
    for v in model.vertices:
        line = v.kind.value + " " + v.id
        if v.label:
            line += f' "{v.label}"'
        if v.kind is VertexKind.UNWANTED_INCIDENT and v.consequence is not None:
            line += f" consequence {_fmt_value(v.consequence)}"
        lines.append(line)
    for v in sorted(model.vertices, key=lambda v: v.id):
        if v.merge_policy is not MergePolicy.SEPARATE:
            lines.append(f"merge {v.id} {v.merge_policy.value}")
    for r in model.initiates:
        line = f"initiate {r.source} -> {r.target} frequency {_fmt_freq(r.frequency)}"
        if r.via:
            line += f' via "{r.via}"'
        lines.append(line)
    for r in model.leadsto:
        line = f"leadsto {r.source} -> {r.target} likelihood {_fmt_value(r.likelihood)}"
        if r.via:
            line += f' via "{r.via}"'
        lines.append(line)
    for r in model.impacts:
        lines.append(f"impact {r.source} -> {r.target}")
    for c in model.countermeasures:
        line = f"countermeasure {c.id}"
        if c.label:
            line += f' "{c.label}"'
        line += f" cost {_fmt_num(c.expenditure)}:{c.per}"
        lines.append(line)
    for t in model.treats:
        lines.append(
            f"treats {t.countermeasure} -> {t.target} effect "
            f"{_fmt_value(t.freq_effect)}L {_fmt_value(t.cons_effect)}C"
        )
    for d in model.depends:
        lines.append(
            f"depends {d.countermeasure} -> ({d.treats_countermeasure} -> {d.treats_target}) "
            f"effect {_fmt_value(d.freq_dep)}L {_fmt_value(d.cons_dep)}C"
        )
    for a in model.criteria:
        if a.max_frequency is not None:
            lines.append(f"accept {a.risk} frequency <= {_fmt_freq(a.max_frequency)}")
        if a.max_risk_cost is not None:
            lines.append(
                f"accept {a.risk} cost <= {_fmt_num(a.max_risk_cost)}:{a.max_risk_cost_per}"
            )
    return "\n".join(lines) + "\n"


def _value_to_json(iv: Interval):
    if iv.is_point:
        return iv.lo
    return [iv.lo, iv.hi]


def _number_from_json(obj, key: str, expected: str = "a nonnegative number") -> float:
    # As in the DSL, whose statements all reject negative numbers.
    if isinstance(obj, bool) or not isinstance(obj, (int, float)) or obj < 0:
        raise DslSemanticError(f"bad {key}: expected {expected}")
    return float(obj)


def _value_from_json(obj, key: str) -> Interval:
    if isinstance(obj, list) and len(obj) == 2:
        return Interval(_number_from_json(obj[0], key), _number_from_json(obj[1], key))
    return Interval.point(_number_from_json(obj, key, "a nonnegative number or [lo, hi]"))


def _text_from_json(obj, key: str) -> str:
    if not isinstance(obj, str):
        raise DslSemanticError(f"bad {key}: expected a string")
    return obj


def _period_from_json(obj, key: str) -> Period:
    if not isinstance(obj, str) or not re.fullmatch(r"\d+[dmy]", obj):
        raise DslSemanticError(f"bad {key}: expected a period like '10y'")
    return Period(int(obj[:-1]), obj[-1])


def _freq_to_json(f: Frequency) -> dict:
    return {"value": _value_to_json(f.occurrences), "per": str(f.per)}


def _freq_from_json(obj, key: str) -> Frequency:
    if not isinstance(obj, dict):
        raise DslSemanticError(f"bad {key}: expected an object")
    return Frequency(
        _value_from_json(obj.get("value"), key), _period_from_json(obj.get("per"), key)
    )


# (encode, decode) per field type; an Optional field uses the codec of its type.
_CODECS: dict[type, tuple[Callable, Callable]] = {
    str: ((lambda text: text), _text_from_json),
    float: ((lambda x: x), _number_from_json),
    Interval: (_value_to_json, _value_from_json),
    Frequency: (_freq_to_json, _freq_from_json),
    Period: (str, _period_from_json),
    VertexKind: (attrgetter("value"), lambda obj, key: VertexKind(obj)),
    MergePolicy: (attrgetter("value"), lambda obj, key: MergePolicy(obj)),
}

# The JSON keys that differ from their field's name; "a.b" is key b of object a.
_JSON_KEYS = {
    "merge_policy": "merge",
    "expenditure": "cost",
    "treats_countermeasure": "treats.countermeasure",
    "treats_target": "treats.target",
    "max_risk_cost": "max_risk_cost.value",
    "max_risk_cost_per": "max_risk_cost.per",
}


def _layout(record: type) -> tuple[type, list[tuple]]:
    """The record type and (field, key, outer key, inner key or None, encode,
    decode, optional) per field. A key is optional when its field defaults to
    None, a text or a policy, and an "a.b" object when its fields are."""
    hints = get_type_hints(record)
    layout = []
    for f in fields(record):
        kind = hints[f.name]
        if get_origin(kind) is Union:  # Optional[kind]
            kind = get_args(kind)[0]
        key = _JSON_KEYS.get(f.name, f.name)
        outer, _, inner = key.partition(".")
        optional = f.default is None or isinstance(f.default, (str, enum.Enum))
        layout.append((f.name, key, outer, inner or None, *_CODECS[kind], optional))
    return record, layout


# Each collection is a tuple[Record, ...] field of RiskModel, in document order.
_COLLECTIONS = {
    name: _layout(get_args(hint)[0])
    for name, hint in get_type_hints(RiskModel).items()
    if get_origin(hint) is tuple
}


def _record_to_json(record, layout: list[tuple]) -> dict:
    obj: dict = {}
    for name, _, outer, inner, encode, _, _ in layout:
        value = getattr(record, name)
        value = None if value is None else encode(value)
        if inner is None:
            obj[outer] = value
        # An "a.b" object is null when its first field is None.
        elif obj.setdefault(outer, None if value is None else {}) is not None:
            obj[outer][inner] = value
    return obj


def _records_from_json(entries, collection: str) -> tuple:
    if not isinstance(entries, list):
        raise DslSemanticError(f"bad {collection}: expected a list")
    record, layout = _COLLECTIONS[collection]
    records = []
    for obj in entries:
        if not isinstance(obj, dict):
            raise DslSemanticError(f"bad {collection} entry: expected an object")
        values = {}
        for name, key, outer, inner, _, decode, optional in layout:
            value = obj.get(outer) if optional else obj[outer]
            if value is None and optional:  # missing or null: the field keeps its default
                continue
            if inner is not None:
                if not isinstance(value, dict):
                    raise DslSemanticError(f"bad {outer}: expected an object")
                value = value[inner]
            try:
                values[name] = decode(value, key)
            except ValueError as e:
                raise DslSemanticError(f"bad {key}: {e}") from None
        records.append(record(**values))
    return tuple(records)


def to_json(model: RiskModel) -> str:
    """Lossless JSON mirror of the DSL, schema version 1.

    Each collection is a list of objects whose keys are the record's fields in
    declaration order, under the names in ``_JSON_KEYS`` where those differ.
    Intervals are written as a number or [lo, hi], periods as text like "10y".
    """
    doc = dict(schema=JSON_SCHEMA_VERSION, name=model.name, base_period=str(model.base_period))
    for collection, (_, layout) in _COLLECTIONS.items():
        doc[collection] = [_record_to_json(r, layout) for r in getattr(model, collection)]
    return json.dumps(doc, indent=2) + "\n"


def from_json(text: str, coras: bool = False) -> RiskModel:
    """Parse the JSON mirror back into a validated RiskModel."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise DslSyntaxError(f"invalid JSON: {e.msg}", SourceSpan(e.lineno, e.colno)) from None
    if not isinstance(doc, dict):
        raise DslSemanticError("top-level JSON value must be an object")
    if doc.get("schema") != JSON_SCHEMA_VERSION:
        raise DslSemanticError(
            f"unsupported schema version {doc.get('schema')!r}; "
            f"this reader understands version {JSON_SCHEMA_VERSION}"
        )

    try:
        model = RiskModel(
            name=_text_from_json(doc.get("name", ""), "name"),
            base_period=_period_from_json(doc.get("base_period"), "base_period"),
            **{c: _records_from_json(doc.get(c, []), c) for c in _COLLECTIONS},
        )
    except (KeyError, ValueError, OverflowError) as e:
        raise DslSemanticError(f"malformed model JSON: {e}") from None

    errors = [d for d in validate(model, coras=coras) if d.is_error]
    if errors:
        raise DslSemanticError("; ".join(d.message for d in errors))
    return mark_valid(canonical(model))

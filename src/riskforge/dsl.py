"""Textual risk-model language: parser, canonical serializer, JSON mirror.

The language is line-oriented with `#` comments. Identifier kinds follow the
CORAS element mapping: threats, threat scenarios, unwanted incidents and
assets each become one vertex, identifiers mapping one-to-one onto event
classes.
"""

from __future__ import annotations

import enum
import json
import math
import re
from dataclasses import dataclass, fields, replace
from functools import partial
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from typing import Callable, NamedTuple, Optional, Union, get_args, get_origin, get_type_hints

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
    # span: a SourceSpan in the text, or the path of a JSON entry such as "vertices[3]"
    def __init__(self, message: str, span: Union[SourceSpan, str, None] = None):
        self.span = span
        if span is not None:
            message = f"{span}: {message}"
        super().__init__(message)


class DslSyntaxError(DslError):
    pass


class DslSemanticError(DslError):
    pass


# Token fragments, shared by the line patterns and the explainer.
_NUMBER = r"-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?"  # signed: a decoder rejects a negative value
_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
_STRING_BODY = r'[^"\n]*'
_COMMENT = r"\#.*"
_WS = r"\s*"  # between two tokens
# Maximal munch: a line pattern reads no token that the explainer would read
# longer, so it cannot split one (`Aexclusive`, `0.5eL`, `1.5.3`).
_IDENT_END = r"(?![A-Za-z0-9_])"
_NUMBER_END = r"(?!\d|\.\d|[eE][+-]?\d)"
_TOKEN = rf'"{_STRING_BODY}"|{_NUMBER}|{_IDENT}|->|<=|[\[\],:()]'
_TOKENS_RE = re.compile(rf"(?:\s+|{_TOKEN})*")


def _must_be_member(what: str, kind: type[enum.Enum]) -> str:
    """The message for a value of a field that names no member of kind."""
    *first, last = [m.value for m in kind]
    return f"{what} must be {', '.join(first)} or {last}"


class _Explainer:
    """Re-reads a line that the line pattern rejects, one token at a time, and
    raises the diagnostic of its first fault. It checks what the line pattern
    and the decoders check, and builds no values; every other rule is
    ``validate``'s."""

    def __init__(self, raw: str, line_no: int):
        self.raw, self.line_no, self.pos = raw, line_no, 0
        self.end = _TOKENS_RE.match(raw).end()  # where a comment starts, or the line ends
        if self.end < len(raw) and raw[self.end] != "#":
            bad = raw[self.end]
            raise DslSyntaxError(f"unexpected character {bad!r}", SourceSpan(line_no, self.end + 1))

    def peek(self, token: str) -> re.Match:
        """Group 1 is the next token if it matches token; the match ends where it starts."""
        return re.compile(rf"\s*({token})?").match(self.raw, self.pos)

    def span(self, m: re.Match) -> SourceSpan:
        """Of the token peek matched, else of the next one, or of the end past the last."""
        pos = m.end() if m[1] is None else m.start(1)
        return SourceSpan(self.line_no, pos + 1 if pos < self.end else max(1, len(self.raw)))

    def take(self, token: str, what: str) -> re.Match:
        m = self.peek(token)
        if m[1] is None:
            raise DslSyntaxError(f"expected {what}", self.span(m))
        self.pos = m.end()
        return m

    def ident(self, what: str):
        self.take(_IDENT, f"{what} id")

    def string(self, what: str):
        self.take(f'"{_STRING_BODY}"', f"{what} string")

    def number(self, what: str, expected: Optional[str] = None) -> float:
        m = self.take(_NUMBER, expected or what)
        if float(m[1]) < 0:  # as in the JSON reader
            raise DslSemanticError(f"{what} must be >= 0", self.span(m))
        return float(m[1])

    def value(self, what: str):
        bracket = self.peek(r"\[")
        if bracket[1] is None:
            self.number(what)
            return
        self.pos = bracket.end()
        lo = self.number(what, "interval lower bound")
        self.take(",", "','")
        hi = self.number(what, "interval upper bound")
        self.take(r"\]", "']'")
        if lo > hi:
            raise DslSemanticError(f"empty interval [{lo:g},{hi:g}]", self.span(bracket))

    def period(self, what: str):
        number = self.take(_NUMBER, "period magnitude")
        if not number[1].isdigit() or not any(map(int, number[1])):  # no nonzero digit
            raise DslSyntaxError("period magnitude must be a positive integer", self.span(number))
        unit = self.take(_IDENT, "period unit d, m or y")
        if unit[1] not in ("d", "m", "y"):
            raise DslSyntaxError("period unit must be d, m or y", self.span(unit))
        try:
            Period(int(number[1]), unit[1])
        except ValueError:  # more digits than int() reads, or more days than a float holds
            raise DslSyntaxError("period magnitude is too large", self.span(number)) from None

    def frequency(self, what: str):
        self.value(what)
        self.take(":", "':'")
        self.period(what)

    def member(self, what: str, kind: type[enum.Enum]):
        m = self.take(_IDENT, what)
        if m[1] not in {member.value for member in kind}:
            raise DslSyntaxError(_must_be_member(what, kind), self.span(m))


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


def _field_types(record: type) -> dict[str, type]:
    """Each field's type, with Optional[T] read as T."""
    types = {}
    for name, kind in get_type_hints(record).items():
        types[name] = get_args(kind)[0] if get_origin(kind) is Union else kind
    return types


def _number(text: str) -> float:
    x = float(text)
    if x < 0:  # -0 is -0.0, which is not below 0
        raise ValueError(f"negative number {text}")
    return x


def _value_from_groups(point: Optional[str], lo: Optional[str], hi: Optional[str]) -> Interval:
    if point is not None:
        x = _number(point)
        return Interval(x, x)  # not Interval.point, a call more per number read
    return Interval(_number(lo), _number(hi))  # ValueError when lo > hi


def _period_from_groups(magnitude: str, unit: str) -> Period:
    return Period(int(magnitude), unit)  # ValueError for 0, too many digits or too many days


def _freq_from_groups(point, lo, hi, magnitude, unit) -> Frequency:
    return Frequency(_value_from_groups(point, lo, hi), _period_from_groups(magnitude, unit))


class _Codec(NamedTuple):
    """How the DSL writes a field type, reads it by pattern, and explains a value it cannot read."""

    write: Callable  # value -> text
    check: Callable  # (_Explainer, what) -> None; raises what is wrong with the next value
    pattern: str  # the text of a value; its groups are the arguments of decode
    decode: Callable  # groups -> value; a ValueError leaves the line to the explainer


def _member_codec(kind: type[enum.Enum]) -> _Codec:
    members = {m.value: m for m in kind}
    return _Codec(
        attrgetter("value"),
        partial(_Explainer.member, kind=kind),
        f"({'|'.join(map(re.escape, members))}){_IDENT_END}",
        members.__getitem__,
    )


_NUM = rf"({_NUMBER}){_NUMBER_END}"
_VALUE = rf"(?:{_NUM}|\[\s*{_NUM}\s*,\s*{_NUM}\s*\])"
_PERIOD = rf"(\d+){_NUMBER_END}\s*([dmy]){_IDENT_END}"

# Per field type, as _CODECS is for JSON. A quoted field is a string.
_DSL_CODECS: dict[type, _Codec] = {
    str: _Codec(str, _Explainer.ident, rf"({_IDENT}){_IDENT_END}", str),
    float: _Codec(_fmt_num, _Explainer.number, _NUM, _number),
    Interval: _Codec(_fmt_value, _Explainer.value, _VALUE, _value_from_groups),
    Frequency: _Codec(
        _fmt_freq, _Explainer.frequency, rf"{_VALUE}\s*:\s*{_PERIOD}", _freq_from_groups
    ),
    Period: _Codec(str, _Explainer.period, _PERIOD, _period_from_groups),
    VertexKind: _member_codec(VertexKind),
    MergePolicy: _member_codec(MergePolicy),
}
_QUOTED = _Codec('"{}"'.format, _Explainer.string, f'"({_STRING_BODY})"', str)

# A piece's pattern(steps, n, guard) returns its pattern, whose groups are
# numbered from n + 1, and the number of its last group. Per field it appends
# (name, decode, i, j, guard) to steps: the field's groups are Match.groups()
# [i:j], and it is read unless the optional part whose group has index guard
# did not match.


class _Literal(NamedTuple):
    text: str  # as written
    tokens: tuple[tuple[str, str], ...]  # (text, pattern) per token, as read

    def write(self, record) -> str:
        return self.text

    def check(self, e: _Explainer):
        for text, token in self.tokens:
            e.take(token, repr(text))

    def pattern(self, steps: list, n: int, guard: Optional[int]) -> tuple[str, int]:
        return "".join(_WS + token for _, token in self.tokens), n


class _Field(NamedTuple):
    name: str
    what: str  # the field as error messages name it
    codec: _Codec

    def write(self, record) -> str:
        return self.codec.write(getattr(record, self.name))

    def check(self, e: _Explainer):
        self.codec.check(e, self.what)

    def pattern(self, steps: list, n: int, guard: Optional[int]) -> tuple[str, int]:
        end = n + re.compile(self.codec.pattern).groups
        steps.append((self.name, self.codec.decode, n, end, guard))
        return _WS + self.codec.pattern, end


class _Group(NamedTuple):
    """A template, or an optional part of one, which starts with a literal or a
    quoted field: that part is written when its field is set and read when the
    next token matches first, the pattern of its first token."""

    pieces: tuple
    name: Optional[str] = None
    first: Optional[str] = None

    def write(self, record) -> str:
        if self.name is not None and getattr(record, self.name) in (None, ""):
            return ""
        return "".join([piece.write(record) for piece in self.pieces])

    def check(self, e: _Explainer):
        if self.first is None or e.peek(self.first)[1] is not None:
            for piece in self.pieces:
                piece.check(e)

    def pattern(self, steps: list, n: int, guard: Optional[int] = None) -> tuple[str, int]:
        optional = self.name is not None
        if optional:  # its own group, index n, tells whether it matched
            guard, n = n, n + 1
        parts = []
        for piece in self.pieces:
            part, n = piece.pattern(steps, n, guard)
            parts.append(part)
        body = "".join(parts)
        return (f"({body})?" if optional else body), n


_PIECE_RE = re.compile(r'(\[)|(\])|("?)\{(\w+)\}\3|([^[\]{"]+)')


def _statement(record: type, template: str) -> tuple[type, _Group]:
    """The record type and the pieces of a statement's template."""
    types = _field_types(record)
    groups: list[list] = [[]]
    for m in _PIECE_RE.finditer(template):
        opening, closing, quote, name, text = m.groups()
        if opening:
            groups.append([])
        elif closing:
            pieces = tuple(groups.pop())
            lead = next(q for q in pieces if not isinstance(q, _Literal) or q.tokens)
            first = lead.tokens[0][1] if isinstance(lead, _Literal) else lead.codec.pattern
            name = next(q.name for q in pieces if isinstance(q, _Field))
            groups[-1].append(_Group(pieces, name, first))
        elif name:
            codec = _QUOTED if quote else _DSL_CODECS[types[name]]
            what = record.__name__.lower() if name == "id" else name.replace("_", " ")
            groups[-1].append(_Field(name, what, codec))
        else:
            words = re.findall(rf"{_IDENT}|->|<=|\S", text)
            tokens = ((w, re.escape(w) + (_IDENT_END if w.isidentifier() else "")) for w in words)
            groups[-1].append(_Literal(text, tuple(tokens)))
    return record, _Group(tuple(groups[0]))


_VERTEX = '{kind} {id}[ "{label}"]'

# The grammar: one statement per record, keyed by its first word (the two
# accept statements by their first and third), with a template that reads like
# the line serialize writes. In a template, {field} is a field of the record,
# written and read by the codec of its type, and "{field}" a quoted string;
# [...] is written when its first field is set and read when its first token
# is next; any other text is literal.
_GRAMMAR = {
    "riskmodel": (RiskModel, 'riskmodel "{name}" timeunit {base_period}'),
    "threat": (Vertex, _VERTEX),
    "scenario": (Vertex, _VERTEX),
    "incident": (Vertex, _VERTEX + " consequence {consequence}"),
    "asset": (Vertex, _VERTEX),
    "merge": (Vertex, "merge {id} {merge_policy}"),
    "initiate": (InitiateRel, 'initiate {source} -> {target} frequency {frequency}[ via "{via}"]'),
    "leadsto": (LeadsToRel, 'leadsto {source} -> {target} likelihood {likelihood}[ via "{via}"]'),
    "impact": (ImpactRel, "impact {source} -> {target}"),
    "countermeasure": (Countermeasure, 'countermeasure {id}[ "{label}"] cost {expenditure}:{per}'),
    "treats": (
        TreatsRel,
        "treats {countermeasure} -> {target} effect {freq_effect}L {cons_effect}C",
    ),
    "depends": (
        DependsRel,
        "depends {countermeasure} -> ({treats_countermeasure} -> {treats_target}) "
        "effect {freq_dep}L {cons_dep}C",
    ),
    "accept frequency": (AcceptanceCriterion, "accept {risk} frequency <= {max_frequency}"),
    "accept cost": (
        AcceptanceCriterion,
        "accept {risk} cost <= {max_risk_cost}:{max_risk_cost_per}",
    ),
}
_STATEMENTS = {key: _statement(*statement) for key, statement in _GRAMMAR.items()}


def _line_pattern() -> tuple[re.Pattern, dict[int, tuple[str, tuple]]]:
    """One pattern for a whole line, blank or one statement of _STATEMENTS,
    whose text is a group; and per statement group, its key and decode steps."""
    alternatives, statements, n = [], {}, 0
    for key, (_, template) in _STATEMENTS.items():
        steps: list = []
        body, end = template.pattern(steps, n + 1)
        # The explainer picks a statement by its first word, which may be a field.
        word = rf"(?={re.escape(key.split()[0])}{_IDENT_END})"
        alternatives.append(f"({word}{body.removeprefix(_WS)})")
        statements[n + 1] = (key, tuple(steps))
        n = end
    return re.compile(f"{_WS}(?:{'|'.join(alternatives)}|){_WS}(?:{_COMMENT})?"), statements


_LINE_RE, _LINE_STATEMENTS = _line_pattern()


def _match(raw: str) -> Optional[tuple]:
    """(key, values, column of the first token) of a line the line pattern
    reads, () for a blank line and None for a line left to _explain."""
    m = _LINE_RE.fullmatch(raw)
    if m is None:
        return None
    k = m.lastindex
    if k is None:
        return ()
    key, steps = _LINE_STATEMENTS[k]
    groups = m.groups()
    try:
        values = {
            name: decode(*groups[i:j])
            for name, decode, i, j, guard in steps
            if guard is None or groups[guard] is not None
        }
    except ValueError:  # a value that cannot be built: _explain says why
        return None
    return key, values, m.start(k) + 1


def _explain(raw: str, line_no: int) -> None:
    """Raises the diagnostic of a line that the line pattern rejects."""
    e = _Explainer(raw, line_no)
    head = e.peek(_TOKEN)  # there is one: the line pattern reads a line without a token
    key = head[1]
    if key == "accept":  # the word after the risk picks one of two statements
        word = re.match(rf"\s*(?:{_TOKEN})\s*(?:{_TOKEN})?\s*({_TOKEN})?", raw)
        key += f" {word[1] or ''}"
        if key not in _STATEMENTS:
            raise DslSyntaxError("expected 'frequency' or 'cost'", e.span(word))
    elif key not in _STATEMENTS:
        raise DslSyntaxError(f"unknown statement {key!r}", e.span(head))
    _STATEMENTS[key][1].check(e)
    rest = e.peek(_TOKEN)
    if rest[1] is not None:
        raise DslSyntaxError("expected end of line", e.span(rest))


def parse(text: str, coras: bool = False) -> RiskModel:
    """Parse DSL text into a validated RiskModel.

    Each line is read by the line pattern compiled from _GRAMMAR; a line it
    rejects is re-read token by token only to raise its diagnostic. Errors are
    DslSyntaxError or DslSemanticError, each carrying a SourceSpan; a
    ``validate`` error points at the statement of the record at fault. With
    coras=True, likelihoods above 1 are rejected.
    """
    header: Optional[dict] = None
    # (line, column) of a statement's first token; a SourceSpan only for an error
    statements: list[tuple[type, dict, tuple[int, int]]] = []  # in source order
    merges: dict[str, tuple[MergePolicy, tuple[int, int]]] = {}
    criteria: dict[str, dict] = {}  # risk -> values of its first criterion
    for line_no, raw in enumerate(text.splitlines(), start=1):
        statement = _match(raw)
        if statement is None:
            _explain(raw, line_no)
        if not statement:
            continue
        key, values, column = statement
        span = (line_no, column)
        record = _STATEMENTS[key][0]
        if record is RiskModel:
            if header is not None:
                raise DslSemanticError("duplicate 'riskmodel' line", SourceSpan(*span))
            header = values
            continue
        if key == "merge":
            vid = values["id"]
            if vid in merges:
                raise DslSemanticError(f"duplicate merge policy for {vid!r}", SourceSpan(*span))
            merges[vid] = (values["merge_policy"], span)
            continue
        if record is AcceptanceCriterion:
            first = criteria.setdefault(values["risk"], values)
            if first is not values and first.keys() & values.keys() == {"risk"}:
                first.update(values)  # the risk's other bound
                continue
        statements.append((record, values, span))

    if header is None:
        raise DslSemanticError("missing 'riskmodel' header line", SourceSpan(1, 1))
    for record, values, _ in statements:
        if record is Vertex and values["id"] in merges:
            values["merge_policy"] = merges.pop(values["id"])[0]
    if merges:  # for an id that no vertex declares
        vid, (_, span) = next(iter(merges.items()))
        raise DslSemanticError(f"merge policy for undeclared vertex {vid!r}", SourceSpan(*span))
    return _assemble(header, statements, coras)


def _assemble(header: dict, statements: list[tuple], coras: bool) -> RiskModel:
    """The one build of a model from loaded (record type, values, location)
    statements: validated once, canonical, and marked valid with its
    diagnostics. Its errors raise one DslSemanticError at the first one's record."""
    collections: dict[str, list] = {name: [] for name in _COLLECTIONS}
    locations = {}  # id(record) -> (line, column) in DSL text, or a JSON entry's path
    for record, values, where in statements:
        r = record(**values)
        collections[_COLLECTION_OF[record]].append(r)
        locations[id(r)] = where
    model = RiskModel(**header, **{name: tuple(rs) for name, rs in collections.items()})
    diagnostics = validate(model, coras=coras)
    errors = [d for d in diagnostics if d.is_error]
    if errors:
        where = locations.get(id(errors[0].subject))  # none for the model's name
        span = SourceSpan(*where) if isinstance(where, tuple) else where
        raise DslSemanticError("; ".join(d.message for d in errors), span)
    return mark_valid(canonical(model), diagnostics)


def serialize(model: RiskModel) -> str:
    """Render the model in canonical form: sorted declarations, shortest decimals."""
    model = canonical(model)
    lines = [("riskmodel", model)] + [(v.kind.value, v) for v in model.vertices]
    for v in sorted(model.vertices, key=attrgetter("id")):
        if v.merge_policy is not MergePolicy.SEPARATE:
            lines.append(("merge", v))
    for key in ("initiate", "leadsto", "impact", "countermeasure", "treats", "depends"):
        lines += [(key, r) for r in getattr(model, _COLLECTION_OF[_STATEMENTS[key][0]])]
    for a in model.criteria:
        if a.max_frequency is not None:
            lines.append(("accept frequency", a))
        if a.max_risk_cost is not None:
            lines.append(("accept cost", a))
    return "".join(_STATEMENTS[key][1].write(r) + "\n" for key, r in lines)


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
    try:
        return Period(int(obj[:-1]), obj[-1])
    except ValueError as e:  # a zero magnitude, too many digits or days
        raise DslSemanticError(f"bad {key}: {e}") from None


def _reject_unknown_key(obj: dict, known, where: Optional[str] = None, what: str = ""):
    for key in obj:
        if key not in known:
            raise DslSemanticError(f"{what}unknown key {key!r}", where)


def _object_from_json(obj, key: str, known: dict) -> dict:
    """A nested object, whose keys must be the known ones."""
    if not isinstance(obj, dict):
        raise DslSemanticError(f"bad {key}: expected an object")
    if obj.keys() != known.keys():
        _reject_unknown_key(obj, known, what=f"bad {key}: ")
        raise DslSemanticError(f"malformed model JSON: {next(k for k in known if k not in obj)!r}")
    return obj


def _member_from_json(kind: type[enum.Enum], obj, key: str) -> enum.Enum:
    try:
        return kind(obj)  # a ValueError for any other value, of any type
    except ValueError:
        raise DslSemanticError(_must_be_member(key, kind)) from None


def _freq_to_json(f: Frequency) -> dict:
    return {"value": _value_to_json(f.occurrences), "per": str(f.per)}


def _freq_from_json(obj, key: str) -> Frequency:
    obj = _object_from_json(obj, key, _OBJECT_KEYS["frequency"])
    return Frequency(_value_from_json(obj["value"], key), _period_from_json(obj["per"], key))


# (encode, decode) per field type; an Optional field uses the codec of its type.
_CODECS: dict[type, tuple[Callable, Callable]] = {
    str: ((lambda text: text), _text_from_json),
    float: ((lambda x: x), _number_from_json),
    Interval: (_value_to_json, _value_from_json),
    Frequency: (_freq_to_json, _freq_from_json),
    Period: (str, _period_from_json),
    VertexKind: (attrgetter("value"), partial(_member_from_json, VertexKind)),
    MergePolicy: (attrgetter("value"), partial(_member_from_json, MergePolicy)),
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
# The keys of each nested object, in order: a frequency and the "a.b" objects.
_OBJECT_KEYS = {"frequency": dict.fromkeys(("value", "per"))}  # as _freq_to_json writes them
for _outer, _, _inner in (key.partition(".") for key in _JSON_KEYS.values()):
    if _inner:
        _OBJECT_KEYS.setdefault(_outer, {})[_inner] = None


def _layout(record: type) -> tuple[type, list[tuple], set[str]]:
    """The record type, (field, key, outer key, inner key or None, encode,
    decode, optional) per field, and its outer keys. A key is optional when its
    field defaults to None, a text or a policy, and an "a.b" object when its
    fields are."""
    types = _field_types(record)
    layout = []
    for f in fields(record):
        kind = types[f.name]
        key = _JSON_KEYS.get(f.name, f.name)
        outer, _, inner = key.partition(".")
        optional = f.default is None or isinstance(f.default, (str, enum.Enum))
        layout.append((f.name, key, outer, inner or None, *_CODECS[kind], optional))
    return record, layout, {field[2] for field in layout}


# Each collection is a tuple[Record, ...] field of RiskModel, in document order.
_COLLECTIONS = {
    name: _layout(get_args(hint)[0])
    for name, hint in get_type_hints(RiskModel).items()
    if get_origin(hint) is tuple
}
_COLLECTION_OF = {record: name for name, (record, *_) in _COLLECTIONS.items()}
_DOCUMENT_KEYS = {"schema", "name", "base_period", *_COLLECTIONS}


def _record_to_json(record, layout: list[tuple]) -> dict:
    obj: dict = {}
    for name, _, outer, inner, encode, *_ in layout:
        value = getattr(record, name)
        value = None if value is None else encode(value)
        if inner is None:
            obj[outer] = value
        # An "a.b" object is null when its first field is None.
        elif obj.setdefault(outer, None if value is None else {}) is not None:
            obj[outer][inner] = value
    return obj


def _records_from_json(doc: dict) -> list[tuple]:
    """A (record type, values, location) statement per entry of the document,
    located by the entry's path, such as vertices[3]."""
    statements = []
    for collection, (record, layout, known) in _COLLECTIONS.items():
        entries = doc.get(collection, [])
        if not isinstance(entries, list):
            raise DslSemanticError(f"bad {collection}: expected a list")
        for i, obj in enumerate(entries):
            where = f"{collection}[{i}]"
            if not isinstance(obj, dict):
                raise DslSemanticError("expected an object", where)
            values = {}
            for name, key, outer, inner, _, decode, optional in layout:
                if outer not in obj:
                    _reject_unknown_key(obj, known, where)  # misspelt rather than left out
                    if optional:  # the field keeps its default
                        continue
                    raise DslSemanticError(f"malformed model JSON: {outer!r}", where)
                value = obj[outer]
                if value is None and optional:  # null, as if left out
                    continue
                try:
                    if inner is not None:
                        value = _object_from_json(value, outer, _OBJECT_KEYS[outer])[inner]
                    values[name] = decode(value, key)
                except DslSemanticError as e:
                    raise DslSemanticError(e.args[0], where) from None
                except (ValueError, OverflowError) as e:
                    raise DslSemanticError(f"bad {key}: {e}", where) from None
            if len(obj) > len(known):  # no known key is left out
                _reject_unknown_key(obj, known, where)
            statements.append((record, values, where))
    return statements


def _indented_json(obj, indent: str = "\n") -> str:
    """What json.dumps(obj, indent=2) writes, for dicts with str keys, lists,
    str, int, float, bool and None. json.dumps falls back to its pure-Python
    encoder whenever it indents; this writer takes fewer steps per value."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = indent + "  "
        items = [
            f"{inner}{encode_basestring_ascii(k)}: {_indented_json(v, inner)}"
            for k, v in obj.items()
        ]
        return "{" + ",".join(items) + indent + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = indent + "  "
        return "[" + ",".join([inner + _indented_json(v, inner) for v in obj]) + indent + "]"
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        if math.isfinite(obj):
            return float.__repr__(obj)
        return "NaN" if obj != obj else "Infinity" if obj > 0 else "-Infinity"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def to_json(model: RiskModel) -> str:
    """Lossless JSON mirror of the DSL, schema version 1.

    Each collection is a list of objects whose keys are the record's fields in
    declaration order, under the names in ``_JSON_KEYS`` where those differ.
    Intervals are written as a number or [lo, hi], periods as text like "10y".
    """
    doc = dict(schema=JSON_SCHEMA_VERSION, name=model.name, base_period=str(model.base_period))
    for collection, (_, layout, _) in _COLLECTIONS.items():
        doc[collection] = [_record_to_json(r, layout) for r in getattr(model, collection)]
    return _indented_json(doc) + "\n"


def from_json(text: str, coras: bool = False) -> RiskModel:
    """Parse the JSON mirror back into a validated RiskModel. An error in an
    entry names the entry by its path, such as vertices[3]."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise DslSyntaxError(f"invalid JSON: {e.msg}", SourceSpan(e.lineno, e.colno)) from None
    except (RecursionError, ValueError) as e:  # nested too deeply; an integer too long
        raise DslSyntaxError(f"invalid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise DslSemanticError("top-level JSON value must be an object")
    schema = doc.get("schema")
    if type(schema) is not int or schema != JSON_SCHEMA_VERSION:  # not True, nor 1.0
        raise DslSemanticError(
            f"unsupported schema version {schema!r}; "
            f"this reader understands version {JSON_SCHEMA_VERSION}"
        )
    _reject_unknown_key(doc, _DOCUMENT_KEYS)
    name = _text_from_json(doc.get("name", ""), "name")
    base_period = _period_from_json(doc.get("base_period"), "base_period")
    return _assemble(dict(name=name, base_period=base_period), _records_from_json(doc), coras)

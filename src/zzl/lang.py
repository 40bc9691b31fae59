"""Parser and serializer for the `.zzl` text format.

A document is a flat list of declarations:

    space V dim 2
    map f : V -> V = [0,1;0,0]
    zigzag sky { open = 0, eminus = 0, ezero = 0, A = 1, B = 1,
                 alpha = [], beta = [1], gamma = [] }
    extension P = ext(ic, sky) class 1
    nodes { p1, p2 }
    gluing g { psi = 2, u = [1,0], v = [0;1] }

Whitespace is insignificant, `#` starts a line comment, naturals are
ASCII digits, rationals are `p` or `p/q` with an optional `-` and are
read in lowest terms (`2/4` is 1/2), matrices are row-major `[a,b;c,d]`
with `[]` for an empty shape.  Open labels are identifiers with an
optional `[nat]` suffix, `0` for the zero object, or a quoted string for
anything else; inside the quotes a backslash takes the next character
literally (`\\"`, `\\\\`, or a backslash before a line break for a label
that spans lines).

The scanner makes one regular-expression match per token, with the
blanks, line breaks and comments before it skipped in the same match,
and hands the parser one token at a time.  A token records its offset
into the text; line and column are found from the offset only where a
diagnostic or an item span needs them.

Matrix literals and the `{ key = value, ... }` blocks of zig-zags and
gluings are read straight from the text where they are plain, and the
scanner restarts after what was read.  A literal whose brackets hold
entries and separators with blanks only next to them is split at `;`
and `,`: each entry is read with `int()`, `p/q` as the pair (p, q), and
the matrix is built from the numerators over the LCM of the
denominators, with no `Fraction` per entry.  A block is read one match
per `key = value` pair, each on one line and followed by `,` or `}`,
the value a plain literal, a natural or a label `x` or `x[3]`.  Reading
declines, having consumed nothing, wherever the token path could report
something (ragged rows, a zero denominator, an integer past CPython's
digit limit, an unknown or duplicate key, a value of the wrong kind, a
dimension over the budget, a quoted or `0...` label) and wherever the
text leaves that plain form (a line break or comment inside, `- 3`,
`1 / 2`, a missing or trailing separator).  The token path then reads
the literal, or the block from the first field declined with the fields
read so far, so every diagnostic and offset is the token path's.

Untrusted input has a budget: a declared dimension above `MAX_DIM`, a
document whose extensions, nodes block and gluings would make checking
build more than `MAX_IMPLIED_ENTRIES` matrix entries that the text does
not write out, or one whose written matrices, with the extension totals
and class tests assembled from them, would cost more than
`MAX_WRITTEN_WORK` to eliminate, is refused with a `limit` diagnostic.

Parsing never raises on bad input: it returns a resolved
:class:`Document` on success and a list of positioned
:class:`Diagnostic` values otherwise, never both.  Resolution covers
names and shapes; deeper semantic validation (exactness, gluing
relations) is the business of the individual modules and of the
`check` command, which is what lets deliberately broken fixtures be
parsed and then reported on.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from types import MappingProxyType
from typing import Iterator, Mapping, Sequence, Union

from .extension import ExtensionPresentation, make_extension
from .assembly import GluingQuadruple
from .linalg import QMatrix, _from_nums, format_rational, serialize_matrix
from .zigzag import ZERO_LABEL, ZigZag

SEVERITY_ERROR = "error"

CODE_LEX = "lexical"
CODE_SYNTAX = "syntax"
CODE_NAME = "name"
CODE_SHAPE = "shape"
CODE_LIMIT = "limit"

# The input budget.  A declared dimension above MAX_DIM is refused where it
# is written.  MAX_IMPLIED_ENTRIES bounds the matrices that checking a
# document builds although its text does not write them out: each
# extension's total and class-0 u-block, the total that assembles the nodes
# block, each gluing's N = v*u.  The text pays for every other entry, but
# not for eliminating it: MAX_WRITTEN_WORK bounds the sum of
# rows*cols*min(rows, cols)*bits over the matrices the text writes (maps,
# zig-zag alpha/beta/gamma, gluing u/v/N), bits being the bit length of the
# literal's largest numerator.  On 2 vCPUs (Python 3.11), `linalg.rank` of
# an n x n matrix of random integers in [-99, 99] (7 bits) took 0.06 s at
# n = 64, 0.36 s at 96 and 1.0-1.2 s at 128 (14.7M), of one in [-1, 1]
# 1.9 s at 200 (8.0M) and 5.2 s at 256, and of a 20 x 20 one of 1000-bit
# integers 0.65 s (8.0M).  The cap admits [-1, 1] up to n = 200.  A matrix
# with at most _FREE_PIVOTS rows or columns is not charged: it is eliminated
# in that many passes over its entries, which its text pays for as it pays
# for reading them: 256 x 4 of 4000-digit integers ranked at 1 ms per KB of
# text, twice what checking a benchmark corpus document costs per KB, and
# 256 x 8 at 7.7 ms.  The same measure charges a block-regime extension
# for the matrices that checking it eliminates.
MAX_DIM = 256
MAX_IMPLIED_ENTRIES = 1_000_000
MAX_WRITTEN_WORK = 8_000_000
_FREE_PIVOTS = 4


@dataclass(frozen=True)
class Diagnostic:
    severity: str
    code: str
    message: str
    line: int
    column: int

    def render(self) -> str:
        return f"{self.line}:{self.column}: {self.severity} [{self.code}] {self.message}"


Span = tuple[int, int]


@dataclass(frozen=True)
class SpaceItem:
    name: str
    dim: int
    span: Span = field(compare=False, default=(0, 0))


@dataclass(frozen=True)
class MapItem:
    name: str
    source: str
    target: str
    matrix: QMatrix
    span: Span = field(compare=False, default=(0, 0))


@dataclass(frozen=True)
class ZigZagItem:
    name: str
    zigzag: ZigZag
    span: Span = field(compare=False, default=(0, 0))


@dataclass(frozen=True)
class ExtensionItem:
    name: str
    sub_name: str
    quot_name: str
    class_value: Fraction
    span: Span = field(compare=False, default=(0, 0))


@dataclass(frozen=True)
class NodesItem:
    names: tuple[str, ...]
    span: Span = field(compare=False, default=(0, 0))


@dataclass(frozen=True)
class GluingItem:
    name: str
    psi_dim: int
    u: QMatrix
    v: QMatrix
    expected_n: QMatrix | None
    span: Span = field(compare=False, default=(0, 0))


Item = Union[SpaceItem, MapItem, ZigZagItem, ExtensionItem, NodesItem, GluingItem]

# declaration keyword -> item class, in canonical serialization order
_KINDS = {
    "space": SpaceItem,
    "map": MapItem,
    "zigzag": ZigZagItem,
    "extension": ExtensionItem,
    "nodes": NodesItem,
    "gluing": GluingItem,
}


@dataclass(frozen=True)
class Document:
    items: tuple[Item, ...]
    # per-kind name index and the first nodes block, built once from items
    _index: dict[type, dict[str, Item]] = field(init=False, repr=False, compare=False)
    _nodes: NodesItem | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        index: dict[type, dict[str, Item]] = {
            kind: {} for kind in _KINDS.values() if kind is not NodesItem
        }
        nodes = None
        for it in self.items:
            if type(it) is NodesItem:
                if nodes is None:
                    nodes = it
            else:
                index[type(it)][it.name] = it
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_nodes", nodes)

    @property
    def spaces(self) -> Mapping[str, SpaceItem]:
        return MappingProxyType(self._index[SpaceItem])

    @property
    def maps(self) -> Mapping[str, MapItem]:
        return MappingProxyType(self._index[MapItem])

    @property
    def zigzags(self) -> Mapping[str, ZigZagItem]:
        return MappingProxyType(self._index[ZigZagItem])

    @property
    def extensions(self) -> Mapping[str, ExtensionItem]:
        return MappingProxyType(self._index[ExtensionItem])

    @property
    def gluings(self) -> Mapping[str, GluingItem]:
        return MappingProxyType(self._index[GluingItem])

    @property
    def nodes_item(self) -> NodesItem | None:
        return self._nodes

    def build_extension(self, name: str) -> ExtensionPresentation:
        """Materialize an extension declaration; may raise module errors."""
        item = self.extensions[name]
        sub = self.zigzags[item.sub_name].zigzag
        quot = self.zigzags[item.quot_name].zigzag
        if sub.b_dim > 0:
            # a scalar class over a block-regime sub is expressible only
            # when it is zero: it denotes the zero u-block
            return make_extension(sub, quot, QMatrix.zero(sub.b_dim, quot.a_dim))
        # one class per quotient coordinate; resolution only lets class 0
        # through for higher-rank quotients
        return make_extension(sub, quot, (item.class_value,) * quot.a_dim)

    def build_gluing(self, name: str) -> GluingQuadruple:
        """Materialize a gluing declaration, reading each rank row as one node.

        The per-node psi range is the contiguous hull of the supports of
        the matching u row and v column; overlapping hulls are left for
        verify_gluing to report.
        """
        item = self.gluings[name]
        psi, u_nums, v_nums = item.psi_dim, item.u.nums, item.v.nums
        decomposition = []
        for k in range(item.u.rows):
            support = [j for j, x in enumerate(u_nums[k * psi : (k + 1) * psi]) if x]
            support += [i for i, x in enumerate(v_nums[k :: item.v.cols]) if x]
            rng = (min(support), max(support) + 1) if support else (0, 0)
            decomposition.append((f"block_{k + 1}", rng))
        return GluingQuadruple(
            item.psi_dim,
            tuple(decomposition),
            (1,) * item.u.rows,
            item.u,
            item.v,
            item.v * item.u,
            expected_n=item.expected_n,
        )

    def structurally_equal(self, other: Document) -> bool:
        """Same declarations up to item order; node-list order still counts."""
        return self._index == other._index and self._nodes == other._nodes


# -- tokenizer ---------------------------------------------------------


# a token is a plain tuple (kind, text, offset): kind is IDENT, NAT, STRING,
# PUNCT or EOF, and offset is where its first character sits in the
# source; line and column are found from the offset (_Lines) only where a
# diagnostic or an item span needs them.  The scanner hands the parser one
# token at a time, so no token list is ever built, and the parser restarts
# it (_Parser.restart) after a literal or fields read straight from the
# text.
_Token = tuple[str, str, int]

_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
_NAT = r"[0-9]+"  # ASCII only: int() accepts every NAT token up to its digit limit
_BLANK = r"[ \t\r\f\v]"
_ENTRY = rf"-?{_NAT}(?:/{_NAT})?"
# a whole matrix literal, blanks allowed only next to brackets and separators
_MATRIX = rf"\[{_BLANK}*(?:{_ENTRY}{_BLANK}*(?:[,;]{_BLANK}*{_ENTRY}{_BLANK}*)*)?\]"
_MATRIX_RE = re.compile(_MATRIX)

# one match per token: blanks, line breaks and comments are a skipped
# prefix, then one alternative per token kind, and any other single
# character is an error.  A matrix literal is punctuation and naturals to
# the scanner.  A backslash escapes the next character inside a string,
# newline included; a string left open at a newline or at the end of
# input keeps what it read.
_TOKEN_RE = re.compile(
    rf"""
    (?:[ \t\r\f\v\n]+|\#[^\n]*)*
    (?:
        (?P<PUNCT>->|[{{}}\[\](),;:=/-])
      | (?P<STRING>"(?P<body>(?:\\[\s\S]|[^"\\\n])*\\?)(?P<close>"?))
      | (?P<NAT>{_NAT})
      | (?P<IDENT>{_IDENT})
      | (?P<EOF>\Z)
      | (?P<BAD>[\s\S])
    )
    """,
    re.VERBOSE,
)
_ESCAPE_RE = re.compile(r"\\([\s\S])")
_NEWLINE_RE = re.compile(r"\n")


class _Lines:
    """Line and column, both from 1, of an offset into a text.  The line
    starts are found by one scan, at the first position asked for."""

    __slots__ = ("text", "starts")

    def __init__(self, text: str) -> None:
        self.text = text
        self.starts: list[int] | None = None

    def at(self, offset: int) -> tuple[int, int]:
        if self.starts is None:
            self.starts = [0, *[m.end() for m in _NEWLINE_RE.finditer(self.text)]]
        line = bisect_right(self.starts, offset)
        return line, offset - self.starts[line - 1] + 1


def _tokenize(
    text: str, diagnostics: list[Diagnostic], lines: _Lines | None = None, start: int = 0
) -> Iterator[_Token]:
    where = (lines or _Lines(text)).at
    for match in _TOKEN_RE.finditer(text, start):
        kind = match.lastgroup
        if kind == "EOF":
            break
        elif kind == "STRING":
            pos = match.start(kind)
            if not match["close"]:
                diagnostics.append(
                    Diagnostic(SEVERITY_ERROR, CODE_LEX, "unterminated string", *where(pos))
                )
            yield (kind, _ESCAPE_RE.sub(r"\1", match["body"]), pos)
        elif kind == "BAD":
            diagnostics.append(
                Diagnostic(
                    SEVERITY_ERROR, CODE_LEX,
                    f"unexpected character {match[kind]!r}", *where(match.start(kind)),
                )
            )
        else:
            yield (kind, match[kind], match.start(kind))
    # end of input after a trailing comment sits at the comment's start
    last_line = max(match.start(), text.rfind("\n", match.start()) + 1)
    comment = text.find("#", last_line)
    yield ("EOF", "", len(text) if comment < 0 else comment)


def _over_lcm(entries: list[tuple[int, int]]) -> tuple[int, list[int]]:
    """Fractions given as (numerator, positive denominator) pairs, as
    numerators over the LCM of the denominators."""
    den = lcm(*[d for _, d in entries])
    return den, [n * (den // d) for n, d in entries]


# a parsed matrix literal: rows, columns, and the row-major entries as
# numerators over one positive denominator; [] is 0x0
_Literal = tuple[int, int, int, Sequence[int]]
_EMPTY: _Literal = (0, 0, 1, ())


def _read_literal(body: str) -> _Literal | None:
    """The body of a literal that `_MATRIX` matched; None when reading it
    token by token would report something: ragged rows, a zero
    denominator, an integer past CPython's digit limit."""
    if not body.strip():
        return _EMPTY
    rows = body.split(";")
    commas = rows[0].count(",")
    if any(row.count(",") != commas for row in rows):
        return None
    texts = body.replace(";", ",").split(",")
    try:
        # int() ignores the blanks next to an entry
        if "/" not in body:
            return len(rows), commas + 1, 1, list(map(int, texts))
        parts = [text.split("/") for text in texts]
        entries = [(int(p[0]), int(p[1]) if len(p) == 2 else 1) for p in parts]
    except ValueError:
        return None
    if any(d == 0 for _, d in entries):
        return None
    return len(rows), commas + 1, *_over_lcm(entries)


def _nat(text: str) -> int | None:
    """A NAT's value; None past CPython's limit on integer-string conversion."""
    try:
        return int(text)
    except ValueError:
        return None


def _bracket_label(name: str, index: str) -> str:
    """The label `name[index]`, its index in decimal without leading zeros,
    as int() would print it, at any length."""
    return f"{name}[{index.lstrip('0') or '0'}]"


# fields whose value is a declared dimension; the others but `open` are matrices
_DIM_FIELDS = frozenset(("eminus", "ezero", "A", "B", "psi"))

# one `key = value` pair of a field block and the `,` or `}` after it, all on
# one line; the value is a plain matrix literal, a natural, or a label with
# an optional bracket index.  The value is matched in a lookahead and
# consumed by a backreference, so when no `,` or `}` follows it the match
# fails at once instead of retrying every shorter prefix of the value, none
# of which one can follow either
_FIELD_RE = re.compile(
    rf"{_BLANK}*({_IDENT}){_BLANK}*={_BLANK}*"
    rf"(?=(({_MATRIX})|({_NAT})|({_IDENT})(?:\[({_NAT})\])?))\2{_BLANK}*([,}}])"
)


def _field_value(
    m: re.Match[str], allowed: tuple[str, ...], fields: dict[str, object]
) -> object | None:
    """The value of the field that `_FIELD_RE` matched, typed by its key;
    None wherever reading it token by token could report something."""
    key, _, matrix, nat, label, index, _ = m.groups()
    if key not in allowed or key in fields:
        return None
    if key == "open":
        if label is not None:
            return label if index is None else _bracket_label(label, index)
        return ZERO_LABEL if nat == "0" else None
    if key in _DIM_FIELDS:
        value = None if nat is None else _nat(nat)
        return None if value is None or value > MAX_DIM else value
    return None if matrix is None else _read_literal(matrix[1:-1])


# -- parser ------------------------------------------------------------


class _SyntaxAbort(Exception):
    """Internal: abandon the current item after a diagnostic."""


class _Parser:
    def __init__(self, text: str, lexical: list[Diagnostic], diagnostics: list[Diagnostic]):
        self.text = text
        self.lexical = lexical
        self.lines = _Lines(text)
        self.stream = _tokenize(text, lexical, self.lines)
        self.tok = next(self.stream)
        self.diagnostics = diagnostics
        self.where = self.lines.at

    def restart(self, pos: int) -> None:
        """Scan on from `pos`, after text read without tokens."""
        self.stream = _tokenize(self.text, self.lexical, self.lines, pos)
        self.tok = next(self.stream)

    def advance(self) -> _Token:
        tok = self.tok
        if tok[0] != "EOF":
            self.tok = next(self.stream)
        return tok

    def diagnose(self, code: str, message: str, tok: _Token) -> _SyntaxAbort:
        self.diagnostics.append(Diagnostic(SEVERITY_ERROR, code, message, *self.where(tok[2])))
        return _SyntaxAbort()

    def error(self, message: str, tok: _Token | None = None) -> _SyntaxAbort:
        return self.diagnose(CODE_SYNTAX, message, tok or self.tok)

    @staticmethod
    def _describe(tok: _Token) -> str:
        return "end of input" if tok[0] == "EOF" else repr(tok[1])

    # a token that expect_* accepts is never EOF, so they pull the next
    # one without advance()'s test

    def expect_punct(self, text: str) -> _Token:
        tok = self.tok
        if tok[1] == text and tok[0] == "PUNCT":
            self.tok = next(self.stream)
            return tok
        raise self.error(f"expected {text!r}, found {self._describe(tok)}")

    def expect_ident(self, what: str = "identifier") -> _Token:
        tok = self.tok
        if tok[0] == "IDENT":
            self.tok = next(self.stream)
            return tok
        raise self.error(f"expected {what}, found {self._describe(tok)}")

    def expect_nat(self, what: str = "natural number") -> int:
        tok = self.tok
        if tok[0] == "NAT":
            self.tok = next(self.stream)
            return self.nat_value(tok)
        raise self.error(f"expected {what}, found {self._describe(tok)}")

    def expect_dim(self, what: str) -> int:
        tok = self.tok
        value = self.expect_nat(what)
        if value > MAX_DIM:
            raise self.diagnose(
                CODE_LIMIT, f"{what} is above the limit of {MAX_DIM} on a declared dimension", tok
            )
        return value

    def nat_value(self, tok: _Token) -> int:
        """The NAT token's value; a literal longer than CPython's limit on
        integer-string conversion is a lexical error at the token."""
        value = _nat(tok[1])
        if value is None:
            raise self.diagnose(
                CODE_LEX, f"integer literal of {len(tok[1])} digits is too long", tok
            )
        return value

    def at_punct(self, text: str) -> bool:
        tok = self.tok
        return tok[1] == text and tok[0] == "PUNCT"

    # -- leaf grammars -------------------------------------------------

    def parse_entry(self) -> tuple[int, int]:
        """A rational literal read token by token, as a numerator and a
        positive denominator."""
        tok = self.tok
        sign = 1
        if self.at_punct("-"):
            self.advance()
            sign = -1
        if self.tok[0] != "NAT":
            raise self.error("expected a rational literal")
        num = self.nat_value(self.advance())
        den = 1
        if self.at_punct("/"):
            self.advance()
            if self.tok[0] != "NAT":
                raise self.error("expected a denominator")
            den = self.nat_value(self.advance())
            if den == 0:
                raise self.diagnose(CODE_LEX, "zero denominator in rational literal", tok)
        return sign * num, den

    def parse_rational(self) -> Fraction:
        return Fraction(*self.parse_entry())

    def parse_matrix(self) -> _Literal:
        if self.at_punct("["):
            m = _MATRIX_RE.match(self.text, self.tok[2])
            literal = None if m is None else _read_literal(m[0][1:-1])
            if literal is not None:
                self.restart(m.end())
                return literal
        self.expect_punct("[")
        if self.at_punct("]"):
            self.advance()
            return _EMPTY
        widths: list[int] = []
        entries = []
        while True:
            entries.append(self.parse_entry())
            width = 1
            while self.at_punct(","):
                self.advance()
                entries.append(self.parse_entry())
                width += 1
            widths.append(width)
            if not self.at_punct(";"):
                break
            self.advance()
        self.expect_punct("]")
        if any(w != widths[0] for w in widths):
            raise self.error("ragged matrix rows")
        return len(widths), widths[0], *_over_lcm(entries)

    def parse_label(self) -> str:
        tok = self.tok
        if tok[0] == "NAT" and tok[1] == "0":
            self.advance()
            return ZERO_LABEL
        if tok[0] == "STRING":
            self.advance()
            return tok[1]
        if tok[0] == "IDENT":
            self.advance()
            label = tok[1]
            if self.at_punct("["):
                self.advance()
                index = self.tok
                if index[0] != "NAT":
                    raise self.error(f"expected bracket index, found {self._describe(index)}")
                self.advance()
                self.expect_punct("]")
                label = _bracket_label(label, index[1])
            return label
        raise self.error("expected an open-part label")

    # -- items ----------------------------------------------------------

    def synchronize(self) -> None:
        while True:
            tok = self.tok
            if tok[0] == "EOF":
                return
            if tok[0] == "IDENT" and tok[1] in _KINDS:
                return
            self.advance()

    def parse_document(self) -> list[Item]:
        out: list[Item] = []
        while True:
            tok = self.tok
            if tok[0] == "EOF":
                return out
            if tok[0] != "IDENT" or tok[1] not in _KINDS:
                self.diagnose(CODE_SYNTAX, f"expected a declaration keyword, found {tok[1]!r}", tok)
                self.advance()
                self.synchronize()
                continue
            try:
                out.append(self._parse_item(tok[1]))
            except _SyntaxAbort:
                self.synchronize()

    def _parse_item(self, keyword: str) -> Item:
        start = self.advance()
        span = self.where(start[2])
        if keyword == "space":
            name = self.expect_ident("space name")[1]
            dim_kw = self.expect_ident("'dim'")
            if dim_kw[1] != "dim":
                raise self.error("expected 'dim'", dim_kw)
            return SpaceItem(name, self.expect_dim("space dimension"), span)
        if keyword == "map":
            name = self.expect_ident("map name")[1]
            self.expect_punct(":")
            source = self.expect_ident("source space")[1]
            self.expect_punct("->")
            target = self.expect_ident("target space")[1]
            self.expect_punct("=")
            # shape finalized during resolution against the space dims
            matrix = _matrix(self.parse_matrix(), None, None)
            return MapItem(name, source, target, matrix, span)
        if keyword == "zigzag":
            return self._parse_zigzag(span)
        if keyword == "extension":
            name = self.expect_ident("extension name")[1]
            self.expect_punct("=")
            kw = self.expect_ident("'ext'")
            if kw[1] != "ext":
                raise self.error("expected 'ext'", kw)
            self.expect_punct("(")
            sub_name = self.expect_ident("sub zig-zag name")[1]
            self.expect_punct(",")
            quot_name = self.expect_ident("quotient zig-zag name")[1]
            self.expect_punct(")")
            kw = self.expect_ident("'class'")
            if kw[1] != "class":
                raise self.error("expected 'class'", kw)
            value = self.parse_rational()
            return ExtensionItem(name, sub_name, quot_name, value, span)
        if keyword == "nodes":
            self.expect_punct("{")
            names = [self.expect_ident("node name")[1]]
            while self.at_punct(","):
                self.advance()
                names.append(self.expect_ident("node name")[1])
            self.expect_punct("}")
            return NodesItem(tuple(names), span)
        if keyword == "gluing":
            return self._parse_gluing(span)
        raise AssertionError(keyword)

    def _parse_fields(self, allowed: tuple[str, ...]) -> dict[str, object]:
        """key = value pairs inside braces; values typed by key name.  Each
        field is read straight from the text while _field_value takes it,
        and the rest of the block token by token from the first it
        declines, with the fields read so far."""
        tok = self.tok
        if not self.at_punct("{"):
            raise self.error(f"expected '{{', found {self._describe(tok)}")
        fields: dict[str, object] = {}
        text, match, pos = self.text, _FIELD_RE.match, tok[2] + 1
        while (m := match(text, pos)) and (value := _field_value(m, allowed, fields)) is not None:
            fields[m[1]] = value
            pos = m.end()
            if text[pos - 1] == "}":  # the match ends with the `,` or `}` after the value
                self.restart(pos)
                return fields
        self.restart(pos)
        while not self.at_punct("}"):
            key_tok = self.expect_ident("field name")
            key = key_tok[1]
            if key not in allowed:
                raise self.error(f"unknown field {key!r}", key_tok)
            if key in fields:
                raise self.error(f"duplicate field {key!r}", key_tok)
            self.expect_punct("=")
            if key == "open":
                value = self.parse_label()
            elif key in _DIM_FIELDS:
                value = self.expect_dim(f"value of {key}")
            else:
                value = self.parse_matrix()
            fields[key] = value
            if self.at_punct(","):
                self.advance()
        self.expect_punct("}")
        return fields

    def _parse_zigzag(self, span: Span) -> ZigZagItem:
        name = self.expect_ident("zig-zag name")[1]
        fields = self._parse_fields(
            ("open", "eminus", "ezero", "A", "B", "alpha", "beta", "gamma")
        )
        missing = [
            k
            for k in ("open", "eminus", "ezero", "A", "B", "alpha", "beta", "gamma")
            if k not in fields
        ]
        if missing:
            raise self.error(f"zigzag {name!r} is missing fields {missing}")
        open_label = fields["open"]
        e_minus = fields["eminus"]
        e_zero = fields["ezero"]
        a_dim = fields["A"]
        b_dim = fields["B"]
        try:
            alpha = _matrix(fields["alpha"], a_dim, e_minus)
            beta = _matrix(fields["beta"], b_dim, a_dim)
            gamma = _matrix(fields["gamma"], e_zero, b_dim)
            zigzag = ZigZag(open_label, e_minus, e_zero, a_dim, b_dim, alpha, beta, gamma)
        except ValueError as exc:
            self.diagnostics.append(
                Diagnostic(SEVERITY_ERROR, CODE_SHAPE, str(exc), span[0], span[1])
            )
            raise _SyntaxAbort() from exc
        return ZigZagItem(name, zigzag, span)

    def _parse_gluing(self, span: Span) -> GluingItem:
        name = self.expect_ident("gluing name")[1]
        fields = self._parse_fields(("psi", "u", "v", "N"))
        missing = [k for k in ("psi", "u", "v") if k not in fields]
        if missing:
            raise self.error(f"gluing {name!r} is missing fields {missing}")
        psi = fields["psi"]
        try:
            u = _matrix(fields["u"], None, psi)
            v = _matrix(fields["v"], psi, None)
            expected_n = (
                _matrix(fields["N"], psi, psi) if "N" in fields else None
            )
            if u.rows != v.cols:
                raise ValueError(f"u has {u.rows} rows but v has {v.cols} columns")
        except ValueError as exc:
            self.diagnostics.append(
                Diagnostic(SEVERITY_ERROR, CODE_SHAPE, str(exc), span[0], span[1])
            )
            raise _SyntaxAbort() from exc
        return GluingItem(name, psi, u, v, expected_n, span)


def _matrix(literal: _Literal, want_rows: int | None, want_cols: int | None) -> QMatrix:
    """Shape-check a parsed matrix literal, coercing [] into empty shapes."""
    nrows, ncols, den, nums = literal
    if nrows == 0:
        r = want_rows if want_rows is not None else 0
        c = want_cols if want_cols is not None else 0
        if r != 0 and c != 0:
            raise ValueError(f"empty matrix where a {r}x{c} matrix is required")
        return QMatrix.zero(r, c)
    if want_rows is not None and nrows != want_rows:
        raise ValueError(f"matrix has {nrows} rows, expected {want_rows}")
    if want_cols is not None and ncols != want_cols:
        raise ValueError(f"matrix has {ncols} columns, expected {want_cols}")
    return _from_nums(nrows, ncols, den, nums)


# -- resolution --------------------------------------------------------


def _zigzag_entries(e_minus: int, a_dim: int, b_dim: int, e_zero: int) -> int:
    """Entries of alpha, beta and gamma of a zig-zag with these dimensions."""
    return a_dim * e_minus + b_dim * a_dim + e_zero * b_dim


def _work(rows: int, cols: int, *blocks: QMatrix) -> int:
    """The budget's measure of eliminating a rows x cols matrix made of the
    blocks: rows*cols*min(rows, cols) times the bit length of the largest
    numerator over their common denominator; 0 for a thin matrix."""
    if rows <= _FREE_PIVOTS or cols <= _FREE_PIVOTS:
        return 0
    den = lcm(*(m.den for m in blocks))
    top = max((max(map(abs, m.nums)) * (den // m.den) for m in blocks if m.nums), default=0)
    return rows * cols * min(rows, cols) * top.bit_length()


def _elimination_work(*matrices: QMatrix) -> int:
    """The budget's measure of eliminating each of the matrices."""
    return sum(_work(m.rows, m.cols, m) for m in matrices)


def _resolve(items: list[Item]) -> Document | list[Diagnostic]:
    document = Document(tuple(items))
    spaces = document._index[SpaceItem]
    zigzags = document._index[ZigZagItem]
    extensions = document._index[ExtensionItem]
    diagnostics: list[Diagnostic] = []

    def err(item: Item, code: str, message: str) -> None:
        diagnostics.append(Diagnostic(SEVERITY_ERROR, code, message, *item.span))

    budgets = {  # name: [running total, limit, what checking would do]
        "implied": [0, MAX_IMPLIED_ENTRIES, "build {} implied matrix entries"],
        "written": [
            0, MAX_WRITTEN_WORK, "spend {} units of elimination work on the matrices it writes"
        ],
    }

    def charge(item: Item, amount: int, budget: str = "implied") -> None:
        """Add what `item` costs to a budget; report the item that crosses it."""
        spent = budgets[budget]
        spent[0] += amount
        total, limit, doing = spent
        if total - amount <= limit < total:
            keyword = next(k for k, kind in _KINDS.items() if isinstance(item, kind))
            what = keyword if isinstance(item, NodesItem) else f"{keyword} {item.name!r}"
            err(
                item, CODE_LIMIT,
                f"{what}: checking the document would {doing.format(total)}, "
                f"above the limit of {limit}",
            )

    seen: set[tuple[type, str]] = set()
    for it in items:
        if isinstance(it, NodesItem):
            if it is not document._nodes:
                err(it, CODE_NAME, "multiple nodes blocks")
            continue
        key = (type(it), it.name)
        if key in seen:
            err(it, CODE_NAME, f"duplicate {type(it).__name__} name {it.name!r}")
        seen.add(key)

    for it in items:
        if isinstance(it, MapItem):
            charge(it, _elimination_work(it.matrix), "written")
            src = spaces.get(it.source)
            dst = spaces.get(it.target)
            if src is None:
                err(it, CODE_NAME, f"map {it.name!r}: unknown space {it.source!r}")
            if dst is None:
                err(it, CODE_NAME, f"map {it.name!r}: unknown space {it.target!r}")
            if src is None or dst is None:
                continue
            m = it.matrix
            want = (dst.dim, src.dim)
            if (m.rows, m.cols) != want:
                if m.rows == 0 and m.cols == 0 and 0 in want:
                    object.__setattr__(it, "matrix", QMatrix.zero(*want))
                else:
                    err(
                        it, CODE_SHAPE,
                        f"map {it.name!r}: matrix is {m.rows}x{m.cols}, "
                        f"spaces require {want[0]}x{want[1]}",
                    )
        elif isinstance(it, ZigZagItem):
            z = it.zigzag
            charge(it, _elimination_work(z.alpha, z.beta, z.gamma), "written")
        elif isinstance(it, ExtensionItem):
            sub = zigzags.get(it.sub_name)
            quot = zigzags.get(it.quot_name)
            if sub is None:
                err(it, CODE_NAME, f"extension {it.name!r}: unknown zigzag {it.sub_name!r}")
            if quot is None:
                err(it, CODE_NAME, f"extension {it.name!r}: unknown zigzag {it.quot_name!r}")
            if sub is None or quot is None:
                continue
            s, q = sub.zigzag, quot.zigzag
            # the class-0 u-block and the total
            charge(
                it,
                s.b_dim * q.a_dim
                + _zigzag_entries(s.e_minus, s.a_dim + q.a_dim, s.b_dim + q.b_dim, s.e_zero),
            )
            if s.b_dim > 0:
                # checking eliminates the three maps of the total and, per
                # quotient column, the class test's [basis of im beta_s | u
                # column], whose basis has at most min(A_s, B_s) columns
                a, b = s.a_dim + q.a_dim, s.b_dim + q.b_dim
                work = _work(a, s.e_minus, s.alpha) + _work(b, a, s.beta, q.beta)
                work += _work(s.e_zero, b, s.gamma)
                work += q.a_dim * _work(s.b_dim, min(s.a_dim, s.b_dim) + 1, s.beta)
                charge(it, work, "written")
            if quot.zigzag.open_label != ZERO_LABEL:
                err(
                    it, CODE_SHAPE,
                    f"extension {it.name!r}: quotient {it.quot_name!r} must be "
                    "point-supported (open = 0)",
                )
            if sub.zigzag.b_dim > 0 and it.class_value != 0:
                err(
                    it, CODE_SHAPE,
                    f"extension {it.name!r}: a nonzero scalar class needs a sub "
                    "with B = 0 (the collapsed regime)",
                )
            if quot.zigzag.a_dim != 1 and it.class_value != 0:
                err(
                    it, CODE_SHAPE,
                    f"extension {it.name!r}: scalar class over a rank-"
                    f"{quot.zigzag.a_dim} quotient",
                )
        elif isinstance(it, NodesItem):
            dup = {n for n in it.names if it.names.count(n) > 1}
            if dup:
                err(it, CODE_NAME, f"duplicate node names {sorted(dup)}")
            for n in it.names:
                if n not in extensions:
                    err(it, CODE_NAME, f"node {n!r} does not name an extension")
            # the total over the bulk and one rank-one point object per node
            first = extensions.get(it.names[0])
            bulk = zigzags.get(first.sub_name) if first else None
            e_minus, e_zero = (bulk.zigzag.e_minus, bulk.zigzag.e_zero) if bulk else (0, 0)
            count = len(it.names)
            charge(it, _zigzag_entries(e_minus, count, count, e_zero))
        elif isinstance(it, GluingItem):
            charge(it, it.psi_dim * it.psi_dim)  # N = v*u
            work = _elimination_work(*filter(None, (it.u, it.v, it.expected_n)))
            charge(it, work, "written")

    return diagnostics or document


def parse(text: str) -> Document | list[Diagnostic]:
    """Parse source text into a resolved Document, or positioned diagnostics."""
    # the scanner runs one token ahead of the parser; its diagnostics come
    # first, as if the whole text had been scanned before parsing
    lexical: list[Diagnostic] = []
    syntax: list[Diagnostic] = []
    items = _Parser(text, lexical, syntax).parse_document()
    return lexical + syntax or _resolve(items)


# -- serializer --------------------------------------------------------


# a bracket index with a leading zero parses back without it, so such a
# label is written quoted
_BARE_LABEL_RE = re.compile(rf"{_IDENT}(?:\[(?:0|[1-9][0-9]*)\])?")


def _serialize_label(label: str) -> str:
    if label == ZERO_LABEL:
        return "0"
    if _BARE_LABEL_RE.fullmatch(label):
        return label
    # a backslash before each backslash, quote and newline
    escaped = re.sub(r'([\\"\n])', r"\\\1", label)
    return f'"{escaped}"'


def _serialize_item(it: Item) -> str:
    if isinstance(it, SpaceItem):
        return f"space {it.name} dim {it.dim}"
    if isinstance(it, MapItem):
        return (
            f"map {it.name} : {it.source} -> {it.target} = "
            f"{serialize_matrix(it.matrix)}"
        )
    if isinstance(it, ZigZagItem):
        z = it.zigzag
        return (
            f"zigzag {it.name} {{ open = {_serialize_label(z.open_label)}, "
            f"eminus = {z.e_minus}, ezero = {z.e_zero}, A = {z.a_dim}, B = {z.b_dim}, "
            f"alpha = {serialize_matrix(z.alpha)}, beta = {serialize_matrix(z.beta)}, "
            f"gamma = {serialize_matrix(z.gamma)} }}"
        )
    if isinstance(it, ExtensionItem):
        return (
            f"extension {it.name} = ext({it.sub_name}, {it.quot_name}) "
            f"class {format_rational(it.class_value)}"
        )
    if isinstance(it, NodesItem):
        return "nodes { " + ", ".join(it.names) + " }"
    if isinstance(it, GluingItem):
        parts = [
            f"psi = {it.psi_dim}",
            f"u = {serialize_matrix(it.u)}",
            f"v = {serialize_matrix(it.v)}",
        ]
        if it.expected_n is not None:
            parts.append(f"N = {serialize_matrix(it.expected_n)}")
        return f"gluing {it.name} {{ " + ", ".join(parts) + " }"
    raise AssertionError(it)


def serialize(document: Document) -> str:
    """Canonical text: kind-then-name order, lowest-term rationals, one
    item per line.  Node-list order inside the nodes block is semantic
    and preserved verbatim."""
    lines = []
    for kind in _KINDS.values():
        group = [it for it in document.items if isinstance(it, kind)]
        if kind is not NodesItem:
            group.sort(key=lambda it: it.name)
        for it in group:
            lines.append(_serialize_item(it))
    return "\n".join(lines) + ("\n" if lines else "")

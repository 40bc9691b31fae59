import itertools
import random
import re
import string
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zzl import lang, linalg
from zzl.lang import (
    CODE_LEX,
    CODE_LIMIT,
    CODE_NAME,
    CODE_SHAPE,
    CODE_SYNTAX,
    Diagnostic,
    Document,
    NodesItem,
    parse,
    serialize,
)
from zzl.linalg import QMatrix
from zzl.zigzag import std_corrected, std_skyscraper

FIXTURES = Path(__file__).parent / "fixtures"


def parse_ok(text: str) -> Document:
    result = parse(text)
    assert isinstance(result, Document), result
    return result


def parse_fails(text: str) -> list[Diagnostic]:
    result = parse(text)
    assert isinstance(result, list) and result, "expected diagnostics"
    return result


class TestParse:
    def test_skyscraper_literal(self):
        doc = parse_ok(
            "zigzag sky { open = 0, eminus = 0, ezero = 0, A = 1, B = 1, "
            "alpha = [], beta = [1], gamma = [] }"
        )
        assert doc.zigzags["sky"].zigzag == std_skyscraper(1)

    def test_empty_input(self):
        assert parse("") == Document(())

    def test_comment_only(self):
        assert parse("# nothing here\n") == Document(())

    def test_shape_violation_positioned(self):
        diags = parse_fails(
            "zigzag z { open = 0, eminus = 0, ezero = 0, A = 1, B = 1, "
            "alpha = [], beta = [1,0], gamma = [] }"
        )
        assert diags[0].code == CODE_SHAPE
        assert (diags[0].line, diags[0].column) == (1, 1)

    def test_unresolved_name(self):
        diags = parse_fails("extension e = ext(nope, alsono) class 1")
        assert all(d.code == CODE_NAME for d in diags)
        assert len(diags) == 2

    def test_duplicate_names(self):
        diags = parse_fails("space V dim 1\nspace V dim 2")
        assert diags[0].code == CODE_NAME
        assert diags[0].line == 2

    def test_bad_rational(self):
        diags = parse_fails("extension e = ext(a, b) class 2/0")
        assert any(d.code == CODE_LEX for d in diags)

    def test_syntax_error(self):
        diags = parse_fails("zigzag { open = 0 }")
        assert diags[0].code == CODE_SYNTAX

    def test_rational_entries(self):
        doc = parse_ok("space V dim 2\nmap m : V -> V = [1/2,-3;0,2/4]")
        assert doc.maps["m"].matrix.entry(1, 1) == Fraction(1, 2)

    def test_extension_build(self):
        doc = parse_ok(
            "zigzag ic { open = Q_U[3], eminus = 1, ezero = 1, A = 0, B = 0, "
            "alpha = [], beta = [], gamma = [] }\n"
            "zigzag sky { open = 0, eminus = 0, ezero = 0, A = 1, B = 1, "
            "alpha = [], beta = [1], gamma = [] }\n"
            "extension P = ext(ic, sky) class -2/4"
        )
        pres = doc.build_extension("P")
        assert pres.class_vector == (Fraction(-1, 2),)
        assert pres.total == std_corrected("Q_U[3]", 1, 1)

    def test_nonzero_class_needs_collapsed_sub(self):
        diags = parse_fails(
            "zigzag s { open = Q_U[3], eminus = 1, ezero = 1, A = 1, B = 1, "
            "alpha = [0], beta = [1], gamma = [0] }\n"
            "zigzag sky { open = 0, eminus = 0, ezero = 0, A = 1, B = 1, "
            "alpha = [], beta = [1], gamma = [] }\n"
            "extension e = ext(s, sky) class 1"
        )
        assert any(d.code == CODE_SHAPE for d in diags)

    def test_nodes_resolve_to_extensions(self):
        diags = parse_fails("nodes { ghost }")
        assert diags[0].code == CODE_NAME

    def test_node_order_is_preserved(self):
        text = (
            "zigzag ic { open = C, eminus = 1, ezero = 1, A = 0, B = 0, "
            "alpha = [], beta = [], gamma = [] }\n"
            "zigzag sky { open = 0, eminus = 0, ezero = 0, A = 1, B = 1, "
            "alpha = [], beta = [1], gamma = [] }\n"
            "extension p1 = ext(ic, sky) class 1\n"
            "extension p2 = ext(ic, sky) class 0\n"
            "nodes { p2, p1 }"
        )
        doc = parse_ok(text)
        assert doc.nodes_item.names == ("p2", "p1")
        again = parse_ok(serialize(doc))
        assert again.nodes_item.names == ("p2", "p1")

    def test_gluing_shapes(self):
        doc = parse_ok("gluing g { psi = 2, u = [1,0], v = [0;1] }")
        g = doc.build_gluing("g")
        assert g.n == QMatrix.from_rows([[0, 0], [1, 0]])
        diags = parse_fails("gluing g { psi = 2, u = [1,0,0], v = [0;1] }")
        assert diags[0].code == CODE_SHAPE

    def test_quoted_label(self):
        doc = parse_ok(
            'zigzag z { open = "odd label+x", eminus = 1, ezero = 0, A = 0, B = 0, '
            "alpha = [], beta = [], gamma = [] }"
        )
        assert doc.zigzags["z"].zigzag.open_label == "odd label+x"

    def test_class_zero_over_block_sub_is_zero_ublock(self):
        doc = parse_ok(
            "zigzag s { open = Q_U[3], eminus = 1, ezero = 1, A = 1, B = 1, "
            "alpha = [0], beta = [1], gamma = [0] }\n"
            "zigzag sky { open = 0, eminus = 0, ezero = 0, A = 1, B = 1, "
            "alpha = [], beta = [1], gamma = [] }\n"
            "extension e = ext(s, sky) class 0"
        )
        pres = doc.build_extension("e")
        assert pres.u_block == QMatrix.zero(1, 1)

    def test_class_zero_over_higher_rank_quotient(self):
        doc = parse_ok(
            "zigzag ic { open = Q_U[3], eminus = 1, ezero = 1, A = 0, B = 0, "
            "alpha = [], beta = [], gamma = [] }\n"
            "zigzag sky3 { open = 0, eminus = 0, ezero = 0, A = 3, B = 3, "
            "alpha = [], beta = [1,0,0;0,1,0;0,0,1], gamma = [] }\n"
            "extension e = ext(ic, sky3) class 0"
        )
        pres = doc.build_extension("e")
        assert pres.class_vector == (Fraction(0),) * 3

    def test_gluing_with_interleaved_supports_reported(self):
        from zzl.assembly import verify_gluing

        doc = parse_ok("gluing g { psi = 2, u = [1,1;1,1], v = [1,1;-1,-1] }")
        report = verify_gluing(doc.build_gluing("g"))
        assert not report.passed
        assert any("respect" in c.name or "disjoint" in c.name for c in report.failures())


class TestScanner:
    @pytest.mark.parametrize(
        "text, rendered",
        [
            # end of input after a trailing comment sits at the comment's start
            ("space V dim # trailing", ["1:13: error [syntax] expected space dimension, found end of input"]),
            ("space V dim\n   # c", ["2:4: error [syntax] expected space dimension, found end of input"]),
            ('zigzag z { open = "abc\nspace V dim 1',
             ["1:19: error [lexical] unterminated string", "2:1: error [syntax] unknown field 'space'"]),
            ('zigzag z { open = "abc',
             ["1:19: error [lexical] unterminated string",
              "1:23: error [syntax] expected field name, found end of input"]),
            ('zigzag z { open = "abc\\',
             ["1:19: error [lexical] unterminated string",
              "1:24: error [syntax] expected field name, found end of input"]),
            ("space V dim 1 \\", ["1:15: error [lexical] unexpected character '\\\\'"]),
        ],
    )
    def test_edge_positions(self, text, rendered):
        assert [d.render() for d in parse_fails(text)] == rendered

    def test_non_ascii_digit_is_a_lexical_error(self):
        diags = parse_fails("space V dim \xb2")
        assert (diags[0].code, diags[0].line, diags[0].column) == (CODE_LEX, 1, 13)
        assert diags[0].message == "unexpected character '\xb2'"

    @pytest.mark.parametrize(
        "text, position",
        [
            ("space V dim " + "1" * 5000, (1, 13)),
            ("space V dim 1\nmap m : V -> V = [-" + "2" * 5000 + "]", (2, 20)),
            ("space V dim 1\nmap m : V -> V = [1/" + "2" * 5000 + "]", (2, 21)),
        ],
        ids=["dimension", "numerator", "denominator"],
    )
    def test_overlong_integer_literal_is_a_lexical_error(self, text, position):
        diags = parse_fails(text)
        assert [(d.code, d.line, d.column) for d in diags] == [(CODE_LEX, *position)]
        assert diags[0].message == "integer literal of 5000 digits is too long"

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no digit limit")
    def test_entry_over_a_lowered_digit_limit_is_a_lexical_error(self):
        # the limit is read when the literal is converted, not when it is lexed
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            diags = parse_fails("space V dim 1\nmap m : V -> V = [1/" + "3" * 700 + "]")
        finally:
            sys.set_int_max_str_digits(old)
        assert [(d.code, d.line, d.column) for d in diags] == [(CODE_LEX, 2, 21)]

    def test_long_bracket_index_is_read_as_text(self):
        doc = parse_ok(
            f"zigzag z {{ open = x[00{'7' * 5000}], eminus = 0, ezero = 0, A = 0, B = 0, "
            "alpha = [], beta = [], gamma = [] }"
        )
        assert doc.zigzags["z"].zigzag.open_label == f"x[{'7' * 5000}]"
        assert parse_ok(serialize(doc)).structurally_equal(doc)

    def test_escaped_newline_in_label_counts_a_line(self):
        diags = parse_fails(
            'zigzag z { open = "a\\\nb", eminus = 0, ezero = 0, A = 0, B = 0, '
            "alpha = [], beta = [], gamma = [] }\nspace V dim x"
        )
        assert [(d.line, d.column) for d in diags] == [(3, 13)]  # line 3, not 2


def _literal(rows: list[list[tuple[int, int]]], pad) -> str:
    """`[a,b;c,d]` of (numerator, denominator) pairs, written unreduced;
    `pad()` gives the text put at each place where the token grammar
    allows blanks, line breaks and comments."""
    def entry(num: int, den: int) -> str:
        sign = "-" + pad() if num < 0 else ""
        return sign + str(abs(num)) + (f"{pad()}/{pad()}{den}" if den != 1 else "")

    body = f"{pad()};{pad()}".join(
        f"{pad()},{pad()}".join(entry(*e) for e in row) for row in rows
    )
    return f"[{pad()}{body}{pad()}]"


PADDING = st.sampled_from(["", " ", "\t", "\n", "  # note\n", "\n\t"])
RATIONALS = st.tuples(st.integers(-30, 30), st.integers(1, 12))
NEVER = re.compile(r"(?!)")


def token_path(text: str) -> Document | list[Diagnostic]:
    """parse(text) with every declaration and matrix literal read token by token."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lang, "_DECL_RE", NEVER)
        mp.setattr(lang, "_MATRIX_RE", NEVER)
        return parse(text)


def pulled(text: str, reader: bool = True) -> list[tuple[str, str, int]]:
    """The tokens the parser pulls from the scanner while parsing `text`,
    with the declaration reader on or off."""
    tokens = []
    scan = lang._tokenize

    def counting(*args):
        for tok in scan(*args):
            tokens.append(tok)
            yield tok

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lang, "_tokenize", counting)
        if not reader:
            mp.setattr(lang, "_DECL_RE", NEVER)
        parse(text)
    return tokens


def attempts(text: str) -> list[int]:
    """The offsets at which parsing `text` tries the declaration reader."""
    offsets = []
    decl_re = lang._DECL_RE

    class Counting:
        @staticmethod
        def match(text, pos):
            offsets.append(pos)
            return decl_re.match(text, pos)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lang, "_DECL_RE", Counting)
        parse(text)
    return offsets


def read_literals(monkeypatch) -> list[str]:
    """The bodies `_read_literal` is called on from here on."""
    reads = []
    read = lang._read_literal
    monkeypatch.setattr(lang, "_read_literal", lambda body: reads.append(body) or read(body))
    return reads


class TestMatrixLiteral:
    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 4).flatmap(
            lambda c: st.lists(st.lists(RATIONALS, min_size=c, max_size=c), min_size=1, max_size=4)
        ),
        st.lists(PADDING, min_size=1),
        st.sampled_from([" ", "", "\n", " # c\n"]),
    )
    def test_one_token_and_token_path_agree(self, rows, pads, gap):
        compact = _literal(rows, lambda: "")
        cycle = itertools.cycle(pads)
        padded = _literal(rows, lambda: next(cycle))
        head = f"space V dim {len(rows[0])}\nspace W dim {len(rows)}\nmap m : V -> W ={gap}"
        # on the token path the compact literal is read in the text, after
        # the line or comment between it and `=` too: the parser pulls its
        # `[` and then the end
        assert [t for _, t, _ in pulled(head + compact, reader=False)[-3:]] == ["=", "[", ""]
        # the declaration reader reads the map whole where it is on one line
        # and hands it to the token path otherwise
        texts = [t for _, t, _ in pulled(head + compact)]
        assert texts == ([""] if "\n" not in gap else ["map", "m", ":", "V", "->", "W", "=", "[", ""])
        # a line break after `[` keeps the padded literal on the token path
        padded = "[\n" + padded[1:]
        assert "]" in [t for _, t, _ in pulled(head + padded)]

        one, many = parse_ok(head + compact), parse_ok(head + padded)
        expected = QMatrix.from_rows([[Fraction(n, d) for n, d in row] for row in rows])
        assert one.maps["m"].matrix == many.maps["m"].matrix == expected
        assert serialize(one) == serialize(many) == serialize(token_path(head + compact))
        # a stray byte right after the literal and a declaration after it
        # keep their lines and columns
        for literal in (compact, padded):
            text = head + literal + "$\n  space X dim x"
            diags = parse_fails(text)
            assert [(d.line, d.column) for d in diags] == [
                naive_position(text, len(head + literal)), (text.count("\n") + 1, 15)
            ]
            assert diags == token_path(text)

    @pytest.mark.parametrize("literal", [
        "[1 / 2]", "[1/ 2,0]", "[ -1 /2 ]", "[-0/3]", "[007/010]", "[1/-2]", "[1/2/3]", "[1/]",
        "[/2]", "[1 2]", "[--1]", "[- 1]", "[1,,2]", "[;]", "[1;;2]", "[1/0]", "[1/-0]", "[\t1\t]",
        "[\x0b1\x0c,\r2]", "[1,2;3]",
    ])
    def test_literal_read_in_one_match_as_token_by_token(self, literal):
        # the one-match read takes what int() reads and declines the rest,
        # with the declaration reader on or off
        text = f"space V dim 2\nspace W dim 1\nmap m : V -> W = {literal}\nspace X dim 1"
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lang, "_DECL_RE", NEVER)
            literal_path = parse(text)
        slow = token_path(text)
        assert parse(text) == literal_path == slow
        if isinstance(slow, Document):
            assert serialize(literal_path) == serialize(slow)

    def test_work_gate_literals_build_no_fractions(self, monkeypatch):
        # literals are read with int() and built from their numerators:
        # neither the text-to-Fraction conversion nor the validating
        # QMatrix constructor runs for them
        def fail(*args):
            raise AssertionError("a matrix literal was converted through Fractions")

        monkeypatch.setattr(QMatrix, "__init__", fail)
        monkeypatch.setattr(linalg, "parse_rational", fail)
        monkeypatch.setattr(lang, "parse_rational", fail, raising=False)
        parse_ok((FIXTURES / "three_nodes.zzl").read_text())
        doc = parse_ok(
            "zigzag z3 { open = Q_U[3], eminus = 2, ezero = 1, A = 3, B = 2, "
            "alpha = [1,0;0,-1;2,1], beta = [1,-2,0;0,1,3], gamma = [0,-4] }"
        )
        assert doc.zigzags["z3"].zigzag.beta.nums == (1, -2, 0, 0, 1, 3)
        # p/q entries go over the LCM of the denominators, then to lowest terms
        doc = parse_ok("space V dim 3\nmap m : V -> V = [1/2,0,2/4;0,1/6,0;1,0,-3/2]")
        m = doc.maps["m"].matrix
        assert (m.den, m.nums) == (6, (3, 0, 3, 0, 1, 0, 6, 0, -9))

    def test_work_gate_one_token_per_literal(self, monkeypatch):
        # corpus-style lines; the token path needs 72 and 90 tokens
        zigzag = (
            "zigzag z3 { open = Q_U[3], eminus = 2, ezero = 1, A = 3, B = 2, "
            "alpha = [1,0;0,-1;2,1], beta = [1,-2,0;0,1/2,3], gamma = [0,-4] }"
        )
        gluing = (
            "gluing g0 { psi = 4, u = [1,-2,0,0;0,0,1,1], v = [2,0;1,0;0,-1;0,1], "
            "N = [2,-4,0,0;1,-2,0,0;0,0,-1,-1;0,0,1,1] }"
        )
        reads = read_literals(monkeypatch)
        for line in (zigzag, gluing):
            # the declaration reader pulls no token but the end of input,
            # and reads each literal once
            reads.clear()
            assert pulled(line) == [("EOF", "", len(line))]
            assert len(reads) == 3
            # the token path pulls each literal's `[` and reads it once too;
            # the label `Q_U[3]` is three tokens
            reads.clear()
            texts = [t for _, t, _ in pulled(line, reader=False)]
            label = int("Q_U[3]" in line)
            assert (texts.count("["), texts.count("]"), len(reads)) == (3 + label, label, 3)


def assert_same_outcome(text: str) -> None:
    """The declaration reader and the token path parse `text` alike: the
    same serialization and item spans, or the same diagnostics."""
    fast, slow = parse(text), token_path(text)
    if isinstance(slow, Document):
        assert isinstance(fast, Document)
        assert serialize(fast) == serialize(slow)
        assert [it.span for it in fast.items] == [it.span for it in slow.items]
    else:
        assert fast == slow


# each block's fields, and values they can be mutated to: first values the
# reader reads where their kind fits the field, then values it declines
# (the token path reads or reports them)
ZIGZAG_FIELDS = {
    "open": "x", "eminus": "0", "ezero": "0", "A": "1", "B": "1",
    "alpha": "[]", "beta": "[1]", "gamma": "[]",
}
GLUING_FIELDS = {"psi": "2", "u": "[1,0]", "v": "[0;1]", "N": "[0,0;1,0]"}
READ_VALUES = [
    "0", "x", "Q_U[3]", "x[0]", "x[10]", "zigzag", "open", '"q"', '"x[007]"', '"a \\" b"', "1",
    str(lang.MAX_DIM), "[]", "[ ]", "[1]", "[0,1]", "[1;0]", "[ 1 , -2/4 ; 3 , 0 ]", "[-1/2]",
    "[007]", "[1 / 2]", "[ -1 /2 ]", "[-0/3]",
]
DECLINED_VALUES = [
    "x[007]", "01", "007", f"0{lang.MAX_DIM}", "00", "5", "x [3]", "x[", "x[3]y", "x[-1]",
    str(lang.MAX_DIM + 1), "9" * 5000, "1/2", "-1", "[1,0;1]", "[1;0,1]", "[1/0]", "[1,2/0]",
    "[" + "7" * 5000 + "]", "[1/" + "3" * 5000 + "]", "[1,\n0]", "[1, # c\n0]", "[1,]", "[- 1]",
    "[1/-2]", "[1/2/3]", "[1/]", "[/2]", "[1 2]", "[--1]", "[1", "[", '"a\\\nb"', '"open',
]
BLANKS = ["", " ", "\t", " \n", " # c\n"]
SEPARATORS = [", ", ",", " , ", "\t,\t", " ", "", ",\n", " # c\n, ", ", ,", "; "]
ENDS = [" }", "}", ", }", ",}", "", " ]", "\n}", " # c\n}", " )"]
SUFFIXES = ["", "\n", "\nspace V dim 1", " space V dim 1", "\nspace V dim x", "\n  space V dim =",
            "space V dim 1", "=", "#c\nspace V dim x"]


@st.composite
def field_blocks(draw) -> str:
    """A zig-zag or gluing declaration with its fields in serialize's order
    or any other.  A plain block is on one line with one comma separator
    and mutates values only to values the reader reads; any other block may
    also drop, duplicate or add keys, mutate to any value, break lines and
    vary separators and end."""
    keyword, base = draw(st.sampled_from([("zigzag", ZIGZAG_FIELDS), ("gluing", GLUING_FIELDS)]))
    plain = draw(st.booleans())
    keys = list(base) if draw(st.booleans()) else list(draw(st.permutations(list(base))))
    for _ in range(0 if plain else draw(st.integers(0, 2))):
        edit = draw(st.sampled_from(["drop", "duplicate", "unknown"]))
        at = draw(st.integers(0, len(keys)))
        if edit == "drop" and keys:
            del keys[at % len(keys)]
        elif edit == "duplicate" and keys:
            keys.insert(at, draw(st.sampled_from(keys)))
        else:
            keys.insert(at, draw(st.sampled_from(["foo", "zigzag", "dim", "psi", "open"])))
    values = [base.get(key, "1") for key in keys]
    pool = READ_VALUES if plain else READ_VALUES + DECLINED_VALUES
    for _ in range(draw(st.integers(0, 2)) if keys else 0):
        values[draw(st.integers(0, len(keys) - 1))] = draw(st.sampled_from(pool))
    blank = st.sampled_from(BLANKS[:3] if plain else BLANKS)
    fields = [f"{key}{draw(blank)}={draw(blank)}{value}" for key, value in zip(keys, values)]
    separators = [draw(st.sampled_from(SEPARATORS[:4]))] * max(len(fields) - 1, 0)
    if separators and not plain:
        separators[draw(st.integers(0, len(separators) - 1))] = draw(st.sampled_from(SEPARATORS))
    body = fields[0] if fields else ""
    for separator, field in zip(separators, fields[1:]):
        body += separator + field
    opening = draw(blank)
    end = draw(st.sampled_from(ENDS[:2] if plain else ENDS))
    suffix = draw(st.sampled_from(SUFFIXES))
    return f"{keyword} n {{{opening}{body}{end}{suffix}"


# a zig-zag as serialize writes it, with one of its fields replaced
ZIGZAG = "zigzag z { " + ", ".join(f"{key} = {value}" for key, value in ZIGZAG_FIELDS.items()) + " }"


def zigzag_with(field: str) -> str:
    key = field.split()[0]
    if key in ZIGZAG_FIELDS:
        return ZIGZAG.replace(f"{key} = {ZIGZAG_FIELDS[key]}", field)
    return ZIGZAG.replace("{ ", "{ " + field + ", ")


class TestFieldBlockReader:
    """Field blocks, read with their declaration in one match where it is
    written as serialize writes it, parse as they do token by token."""

    @settings(max_examples=400, deadline=None)
    @given(st.lists(field_blocks(), min_size=1, max_size=3))
    def test_reader_and_token_path_agree(self, blocks):
        assert_same_outcome("\n".join(blocks))

    @pytest.mark.parametrize("label, read", [
        ("0", "0"), ("x[007]", "x[7]"), ("x[000]", "x[0]"), ("zigzag", "zigzag"), ("open", "open"),
    ])
    def test_labels_read_as_the_token_path_reads_them(self, label, read):
        text = (f"zigzag z {{ open = {label}, eminus = 0, ezero = 0, A = 0, B = 0, "
                "alpha = [], beta = [], gamma = [] }")
        # the reader reads a label serialize writes bare; one with a leading
        # zero in its index is declined, and the token path reads it from
        # the keyword on
        first = pulled(text)[0]
        if label == read:
            assert first == ("EOF", "", len(text))
        else:
            assert first == ("IDENT", "zigzag", 0)
        expected = lang.ZERO_LABEL if read == "0" else read
        assert parse_ok(text).zigzags["z"].zigzag.open_label == expected
        assert token_path(text) == parse_ok(text)

    @pytest.mark.parametrize("field", [
        "open = 00", 'open = "x"', f"A = {lang.MAX_DIM + 1}", "A = " + "1" * 5000,
        "alpha = [1/0]", "alpha = [1,0;1]", "beta = [" + "1" * 5000 + "]", "A = [1]",
        "alpha = 1", "open = [1]", "foo = 1", "open = x, open = x", "A = 1\n", "A = 1 # c\n",
        "A = 1 B = 1", "A = 1,",
    ])
    def test_declines_without_consuming(self, field):
        # the field in a zig-zag otherwise as serialize writes it, then a
        # declaration the reader reads
        text = zigzag_with(field) + "\nspace V dim 1"
        texts = [t for _, t, _ in pulled(text)]
        if field == 'open = "x"':
            # a quoted label is read too: serialize quotes a label it cannot
            # write bare
            assert texts == [""]
        else:
            # the token path reads the declaration declined from its keyword on
            assert pulled(text)[0] == ("IDENT", "zigzag", 0)
        # the reader takes over at the next keyword: one attempt per
        # declaration and one at the end, and no token of `space V dim 1`
        # but its keyword
        assert len(attempts(text)) == 3
        assert "dim" not in texts
        assert_same_outcome(text)

    def test_corpus_documents(self, tmp_path):
        from test_corpus_payloads import N_OPS, SEED, _gen

        ops, _ = _gen().check_corpus(SEED, N_OPS, tmp_path)
        broken = 0
        for op in ops:
            text = Path(op["path"]).read_bytes().decode("latin-1")
            assert_same_outcome(text)
            lines = text.splitlines()
            bad = "zigzag bad { open = , eminus = 1 }"
            # every corpus declaration but the broken one is read without
            # tokens, with one reader attempt each; the broken one comes
            # last, and the token path reads it to the end of input
            broken_tokens = bad.split() if lines[-1] == bad else []
            assert [t for _, t, _ in pulled(text)] == [*broken_tokens, ""]
            assert len(attempts(text)) == len(lines) + (0 if broken_tokens else 1)
            broken += bool(broken_tokens)
        assert broken

    def test_work_gate_broken_megabyte_block(self, monkeypatch):
        # one line of about 1 MB whose last character, where `}` belongs, is
        # `)`: the reader makes one match attempt, then the token path reads
        # the block and reports the `)`; each literal is read once
        dim = lang.MAX_DIM
        row = ",".join(["-12345678901234", "12345678901234"] * (dim // 2))
        gamma = "[" + ";".join([row] * dim) + "]"
        text = (f"zigzag z {{ open = x, eminus = 0, ezero = {dim}, A = 0, B = {dim}, "
                f"alpha = [], beta = [], gamma = {gamma} )")
        assert len(text) > 1_000_000
        reads = read_literals(monkeypatch)
        assert attempts(text) == [0]
        assert len(reads) == 3
        diags = parse_fails(text)
        assert [d.render() for d in diags] == [f"1:{len(text)}: error [syntax] expected field name, found ')'"]
        assert diags == token_path(text)


# the declarations of a valid document of all six kinds, one space between
# tokens; `~` marks a value that may be mutated
TEMPLATES = [
    "space V dim ~2",
    "map f : V -> V = ~[0,1;0,0]",
    "zigzag ic { open = ~C , eminus = ~1 , ezero = ~1 , A = ~0 , B = ~0 , "
    "alpha = ~[] , beta = ~[] , gamma = ~[] }",
    "zigzag sky { open = ~0 , eminus = ~0 , ezero = ~0 , A = ~1 , B = ~1 , "
    "alpha = ~[] , beta = ~[1] , gamma = ~[] }",
    "extension P = ext ( ic , sky ) class ~-1/2",
    "nodes { P }",
    "gluing g { psi = ~2 , u = ~[1,0] , v = ~[0;1] , N = ~[0,0;1,0] }",
]
CLASS_VALUES = ["0", "1", "-1/2", "2/4", "-0", "1/0", "- 1", "1 / 2", "1/2/3", "1/-2", "1\n/2"]
# what may stand between tokens: the first three keep a declaration on one line
GAPS = ["", " ", "\t", "\n", " # c\n", "\n\t"]
# what may stand between declarations; a declaration inside a comment is
# not one
BETWEEN = ["\n", " ", "", "\n\n", " # c\n", "\n# space X dim 3\n", "\t", "# zigzag\n"]
JUNK = ["=", "$", "}", "space V dim x", "zigzag", "[1;", "nodes {"]


def _word(char: str) -> bool:
    return char.isascii() and (char.isalnum() or char == "_")


@st.composite
def documents(draw) -> str:
    """A document of the six kinds of declaration in any order.  Each is on
    one line with one space or none between tokens, as serialize writes it,
    or spread over lines and comments; a field block's fields are in
    serialize's order or permuted; values may be mutated to ones the reader
    reads or declines.  Junk or a field block of `field_blocks` may stand
    between declarations."""
    text = draw(st.sampled_from(["", "# head\n", "\n"]))
    for template in draw(st.permutations(TEMPLATES)):
        if draw(st.integers(0, 9)) == 9:
            continue  # leave the declaration out
        head, brace, body = template.partition(" { ")
        if " = " in body and draw(st.booleans()):
            body = " , ".join(draw(st.permutations(body[:-2].split(" , ")))) + " }"
        gaps = st.sampled_from(GAPS if draw(st.booleans()) else GAPS[:3])
        mutate = draw(st.booleans())
        declaration = ""
        for piece in (head + brace + body).split(" "):
            if piece.startswith("~"):
                piece = piece[1:]
                if mutate and draw(st.integers(0, 3)) == 3:
                    piece = draw(st.sampled_from(READ_VALUES + DECLINED_VALUES + CLASS_VALUES))
            gap = draw(gaps) if declaration else ""
            if not gap and _word(declaration[-1:]) and _word(piece[:1]):
                gap = " "  # two words run together would be one token
            declaration += gap + piece
        text += declaration + draw(st.sampled_from(BETWEEN))
        extra = draw(st.integers(0, 9))
        if extra == 9:
            text += draw(st.sampled_from(JUNK)) + "\n"
        elif extra == 8:
            text += draw(field_blocks()) + "\n"
    return text


class TestDeclarationReader:
    """A document read one `_DECL_RE` match per declaration, where the
    declaration is written as serialize writes it, parses as it does token
    by token."""

    @settings(max_examples=400, deadline=None)
    @given(documents())
    def test_reader_and_token_path_agree(self, text):
        assert_same_outcome(text)

    @settings(max_examples=100, deadline=None)
    @given(documents())
    def test_work_gate_serialized_documents_pull_no_token(self, text):
        # what serialize writes is read one match per declaration, with one
        # more attempt at the end, and the parser pulls only the end of input
        result = parse(text)
        if isinstance(result, Document):
            out = serialize(result)
            assert pulled(out) == [("EOF", "", len(out))]
            assert len(attempts(out)) == len(result.items) + 1

    def test_work_gate_fixtures_pull_no_token(self):
        for path in sorted(FIXTURES.glob("*.zzl")):
            result = parse(path.read_text(encoding="latin-1"))
            if isinstance(result, Document):
                out = serialize(result)
                assert pulled(out) == [("EOF", "", len(out))], path

    def test_literals_are_matched_atomically(self):
        # a literal the match has read is never backtracked into, so a
        # declaration that fails after a long literal fails at once
        for group in ("skip", "alpha", "beta", "gamma", "u", "v", "N", "matrix", "class"):
            assert f"(?P={group})" in lang._DECL_RE.pattern, group

    @pytest.mark.parametrize("text", [
        "# space V dim 2\n", "#space V dim 2", "  # zigzag\n# map", "# space V dim 2\nspace W dim 1",
    ])
    def test_no_declaration_is_read_out_of_a_comment(self, text):
        assert [it.name for it in parse_ok(text).items] == (["W"] if "W" in text else [])
        assert_same_outcome(text)


def naive_position(text: str, pos: int) -> tuple[int, int]:
    """Line and column of an offset, counted from the start of the text."""
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


STRAY = "\x00\x80\xff$%@\\"
COMMENT_TEXT = st.text(st.characters(blacklist_characters="\n", max_codepoint=0xFF), max_size=8)
PIECES = st.one_of(
    st.text(" \t\r\f\v", min_size=1, max_size=4),
    st.just("\n"),
    COMMENT_TEXT.map(lambda body: "#" + body + "\n"),
    # a closed string with escaped characters, line breaks among them
    st.lists(st.sampled_from(["a", " ", "\\\n", '\\"', "\\\\", "#"]), max_size=5).map(
        lambda parts: '"' + "".join(parts) + '"'
    ),
    st.sampled_from(list(STRAY)).map(lambda c: ("stray", c)),
    st.sampled_from(
        ["space V dim 2", "space W dim 1", "map m : V -> V = [1,0;0,-1/2]", "=", "[1;", "]",
         "{", "}", ",", "dim", "7", "zigzag"]
    ),
)


class TestPositions:
    """Tokens carry offsets; line and column are found from them on demand."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(PIECES, max_size=14),
        st.one_of(st.just(""), COMMENT_TEXT.map(lambda body: "#" + body)),
    )
    def test_positions_match_a_naive_count(self, pieces, tail):
        text, strays = "", []
        for piece in pieces:
            if isinstance(piece, tuple):
                strays.append(len(text))
                piece = piece[1]
            # a blank after a token keeps each piece its own token; the
            # piece after a line break starts at column 1
            text += piece if piece[-1].isspace() else piece + " "
        text += tail  # a comment at the end, with no line break after it
        diagnostics: list[Diagnostic] = []
        tokens = list(lang._tokenize(text, diagnostics))
        lines = lang._Lines(text)
        offsets = [offset for _, _, offset in tokens]
        assert offsets == sorted(set(offsets))
        for kind, token_text, offset in tokens[:-1]:
            assert lines.at(offset) == naive_position(text, offset)
            if kind == "STRING":
                assert text[offset] == '"'
            else:
                assert text.startswith(token_text, offset)
        end = tokens[-1][2]
        assert end == (len(text) - len(tail) if tail else len(text))
        assert lines.at(end) == naive_position(text, end)
        # every stray byte is reported where it stands
        assert [(d.line, d.column) for d in diagnostics] == [
            naive_position(text, offset) for offset in strays
        ]
        assert all(d.message.startswith("unexpected character") for d in diagnostics)
        result = parse(text)
        if isinstance(result, Document):
            keywords = [o for kind, t, o in tokens if kind == "IDENT" and t in ("space", "map")]
            assert [it.span for it in result.items] == [naive_position(text, o) for o in keywords]
        else:
            # the lexical diagnostics first, then each one at a token
            assert result[: len(strays)] == diagnostics
            token_positions = {naive_position(text, offset) for offset in offsets}
            assert all((d.line, d.column) in token_positions for d in result[len(strays) :])


class TestInputBudget:
    @pytest.mark.parametrize(
        "template",
        [
            "space V dim {}",
            "zigzag z {{ open = x, eminus = {}, ezero = 0, A = 0, B = 0, "
            "alpha = [], beta = [], gamma = [] }}",
            "zigzag z {{ open = x, eminus = 0, ezero = 0, A = 0, B = {}, "
            "alpha = [], beta = [], gamma = [] }}",
            "gluing g {{ psi = {}, u = [], v = [] }}",
        ],
    )
    def test_declared_dimension(self, template):
        assert isinstance(parse(template.format(lang.MAX_DIM)), Document)
        text = template.format(lang.MAX_DIM + 1)
        diags = parse_fails(text)
        column = text.index(str(lang.MAX_DIM + 1)) + 1
        assert [(d.code, d.line, d.column) for d in diags] == [(CODE_LIMIT, 1, column)]
        assert diags[0].message.endswith(f"above the limit of {lang.MAX_DIM} on a declared dimension")

    def test_implied_entries_are_counted_and_reported_once(self, monkeypatch):
        text = (
            "zigzag S { open = x, eminus = 0, ezero = 0, A = 0, B = 2, alpha = [], beta = [], gamma = [] }\n"
            "zigzag Q { open = 0, eminus = 0, ezero = 0, A = 3, B = 0, alpha = [], beta = [], gamma = [] }\n"
            "zigzag ic { open = C, eminus = 1, ezero = 1, A = 0, B = 0, alpha = [], beta = [], gamma = [] }\n"
            "zigzag sky { open = 0, eminus = 0, ezero = 0, A = 1, B = 1, alpha = [], beta = [1], gamma = [] }\n"
            "extension P = ext(S, Q) class 0\n"  # u-block 2x3, total beta 2x3: 12
            "extension p1 = ext(ic, sky) class 1\n"  # total 1x1 each of alpha, beta, gamma: 3
            "extension p2 = ext(ic, sky) class 0\n"  # 3
            "nodes { p1, p2 }\n"  # total over the bulk: alpha 2x1, beta 2x2, gamma 1x2: 8
            "gluing g { psi = 3, u = [], v = [] }\n"  # N = v*u: 9
            "gluing h { psi = 1, u = [], v = [] }\n"  # 1
        )
        monkeypatch.setattr(lang, "MAX_IMPLIED_ENTRIES", 36)
        assert isinstance(parse(text), Document)
        monkeypatch.setattr(lang, "MAX_IMPLIED_ENTRIES", 26)
        diags = parse_fails(text)
        assert [(d.code, d.line, d.column) for d in diags] == [(CODE_LIMIT, 9, 1)]
        assert diags[0].message == (
            "gluing 'g': checking the document would build 35 implied matrix entries, "
            "above the limit of 26"
        )

    def test_written_work_is_counted_and_reported_once(self, monkeypatch):
        # rows*cols*min(rows, cols) times the bit length of the largest
        # numerator, for matrices with more than 4 rows and columns
        def literal(diagonal, cols=5):
            return "[" + ";".join(
                ",".join(x if i == j else "0" for j in range(cols)) for i, x in enumerate(diagonal)
            ) + "]"

        text = (
            "space V dim 5\nspace W dim 4\n"
            f"map m : V -> V = {literal('13111')}\n"  # 5*5*5 * 2 bits: 250
            f"map t : V -> W = {literal('9999')}\n"  # 4 rows: free
            "zigzag z { open = x, eminus = 0, ezero = 0, A = 5, B = 5, alpha = [], "
            f"beta = {literal(['1/2', '1/3', '0', '0', '0'])}, gamma = [] }}\n"  # 3, 2 over 6: 250
            "gluing g { psi = 5, u = [4,0,0,0,0], v = [1;0;0;0;0], "
            f"N = {literal('40000')} }}\n"  # u and v free, N 125 * 3 bits: 375
        )
        monkeypatch.setattr(lang, "MAX_WRITTEN_WORK", 875)
        assert isinstance(parse(text), Document)
        monkeypatch.setattr(lang, "MAX_WRITTEN_WORK", 500)  # reached, not crossed, at z
        diags = parse_fails(text)
        assert [(d.code, d.line, d.column) for d in diags] == [(CODE_LIMIT, 6, 1)]
        assert diags[0].message == (
            "gluing 'g': checking the document would spend 875 units of elimination work "
            "on the matrices it writes, above the limit of 500"
        )


class TestDocumentIndex:
    TEXT = (
        "space V dim 1\nmap m : V -> V = [1]\n"
        "zigzag sky { open = 0, eminus = 0, ezero = 0, A = 1, B = 1, "
        "alpha = [], beta = [1], gamma = [] }\n"
    )

    def test_kind_views_are_read_only(self):
        doc = parse_ok(self.TEXT)
        for view in (doc.spaces, doc.maps, doc.zigzags, doc.extensions, doc.gluings):
            with pytest.raises(TypeError):
                view["x"] = None
        assert list(doc.maps) == ["m"] and not doc.gluings

    def test_kind_views_stay_properties(self):
        for name in ("spaces", "maps", "zigzags", "extensions", "gluings", "nodes_item"):
            assert isinstance(vars(Document)[name], property)

    def test_index_follows_items_not_order(self):
        items = parse_ok(self.TEXT).items + (NodesItem(("p",)), NodesItem(("q",)))
        doc = Document(items)
        assert doc.nodes_item == NodesItem(("p",))  # the first nodes block
        reordered = Document(items[3:] + items[2::-1])
        assert reordered.structurally_equal(doc) and reordered != doc
        assert reordered.zigzags == doc.zigzags
        assert not Document(items[::-1]).structurally_equal(doc)  # other nodes block
        assert not Document(items[1:]).structurally_equal(doc)


class TestSerialize:
    def test_round_trip_fixture_corpus(self):
        for path in sorted(FIXTURES.glob("*.zzl")):
            text = path.read_text(encoding="latin-1")
            result = parse(text)
            if isinstance(result, list):
                continue  # deliberately malformed fixtures stay malformed
            out = serialize(result)
            again = parse(out)
            assert isinstance(again, Document), (path, again)
            assert result.structurally_equal(again), path
            assert serialize(again) == out, path

    def test_lowest_terms(self):
        doc = parse_ok("space V dim 1\nmap m : V -> V = [-2/4]")
        assert "[-1/2]" in serialize(doc)
        # the token path reads the same literal to the same value
        assert parse_ok("space V dim 1\nmap m : V -> V = [- 2 / 4]").structurally_equal(doc)

    def test_canonical_order(self):
        doc = parse_ok(
            "space Z dim 1\nspace A dim 1\nmap m : Z -> A = [1]"
        )
        out = serialize(doc)
        assert out.index("space A") < out.index("space Z") < out.index("map m")

    def test_quoted_label_round_trip(self):
        for quoted, label in [('"weird \\" name"', 'weird " name'), ('"two\\\nlines"', "two\nlines"),
                              ('"x[007]"', "x[007]")]:
            doc = parse_ok(
                f"zigzag z {{ open = {quoted}, eminus = 0, ezero = 0, A = 0, B = 0, "
                "alpha = [], beta = [], gamma = [] }"
            )
            assert doc.zigzags["z"].zigzag.open_label == label
            again = parse_ok(serialize(doc))
            assert again.zigzags["z"].zigzag.open_label == label


class TestFuzz:
    def test_seeded_byte_fuzz(self):
        rng = random.Random(20260810)
        alphabet = (
            string.ascii_letters + string.digits + "{}[](),;:=/->#\"\n\t -_" + "\x00\xff\x80"
        )
        for _ in range(2000):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 120)))
            result = parse(text)
            if isinstance(result, list):
                assert result, "failure must carry at least one diagnostic"
                for d in result:
                    assert d.line >= 1 and d.column >= 1
            else:
                assert isinstance(result, Document)

    def test_mutated_valid_inputs(self):
        base = (FIXTURES / "three_nodes.zzl").read_text()
        rng = random.Random(7)
        for _ in range(300):
            pos = rng.randrange(len(base))
            ch = chr(rng.randrange(32, 127))
            text = base[:pos] + ch + base[pos + 1 :]
            result = parse(text)
            if isinstance(result, list):
                assert all(d.line >= 1 and d.column >= 1 for d in result)

    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=80))
    def test_arbitrary_text_never_aborts(self, text):
        result = parse(text)
        if isinstance(result, list):
            assert result
            assert all(d.line >= 1 and d.column >= 1 for d in result)

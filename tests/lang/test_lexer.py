"""Lexer tests."""

import pytest

from repro.lang import LexError, tokenize


def kinds(src):
    return [(t.kind, t.text) for t in tokenize(src)[:-1]]


def test_keywords_vs_identifiers():
    assert kinds("int intx") == [("kw", "int"), ("ident", "intx")]
    assert kinds("while whilst") == [("kw", "while"), ("ident", "whilst")]


def test_numbers():
    assert kinds("0 42 0x1F") == [("num", "0"), ("num", "42"),
                                  ("num", "0x1F")]


def test_multichar_operators_longest_match():
    assert kinds("<<= << <= <") == [("op", "<<="), ("op", "<<"),
                                    ("op", "<="), ("op", "<")]
    assert kinds("a+++1") == [("ident", "a"), ("op", "++"), ("op", "+"),
                              ("num", "1")]


def test_comments_stripped():
    src = """
int x; // line comment
/* block
   comment */ int y;
"""
    assert kinds(src) == [("kw", "int"), ("ident", "x"), ("op", ";"),
                          ("kw", "int"), ("ident", "y"), ("op", ";")]


def test_line_numbers():
    tokens = tokenize("a\nb\n\nc")
    assert [t.line for t in tokens[:-1]] == [1, 2, 4]


def test_string_literal():
    tokens = tokenize('printf("min=%d max=%d\\n", min)')
    assert tokens[2].kind == "str"


def test_unterminated_comment():
    with pytest.raises(LexError, match="unterminated"):
        tokenize("/* never ends")


def test_bad_character():
    with pytest.raises(LexError, match="unexpected character"):
        tokenize("int $x;")


def test_eof_token():
    assert tokenize("")[-1].kind == "eof"


def test_string_with_escaped_quote():
    assert kinds(r'f("a\"b", c)') == [("ident", "f"), ("op", "("),
                                      ("str", r'a\"b'), ("op", ","),
                                      ("ident", "c"), ("op", ")")]


def test_string_spanning_lines_does_not_advance_the_line():
    tokens = tokenize('"a\nb" x\ny')
    assert [(t.kind, t.text, t.line) for t in tokens] == [
        ("str", "a\nb", 1), ("ident", "x", 1), ("ident", "y", 2),
        ("eof", "", 2)]


def test_unterminated_string():
    with pytest.raises(LexError, match="line 2: unterminated string"):
        tokenize('x\n"abc\\"')

import string

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wedgedyn import (
    DuplicateRule,
    MapSpec,
    ParseError,
    RankMismatch,
    UndeclaredGenerator,
    Word,
    parse,
)

from oracles import format_map

PHI2_TEXT = """\
# quadratic doubling on two circles
map phi2 rank 2 {
  a -> a a a b ;
  b -> b b b a ;
}
"""


def test_parse_basic():
    specs = parse(PHI2_TEXT)
    assert len(specs) == 1
    s = specs[0]
    assert s.name == "phi2"
    assert s.rank == 2
    assert s.rules == ("aaab", "bbba")
    endo = s.to_endomorphism()
    assert endo.rank == 2


def test_parse_whitespace_free():
    specs = parse("map x rank 2{a->aaab;b->bbba;}")
    assert specs[0].rules == ("aaab", "bbba")


def test_parse_inverse_letters():
    s = parse("map m rank 2 { a -> a a b A B ; b -> B A b b a ; }")[0]
    assert s.rules == ("aabAB", "BAbba")
    endo = s.to_endomorphism()
    assert str(endo.images[0]) == "aabAB"


def test_parse_multiple_maps():
    text = "map one rank 1 { a -> a a ; }  map two rank 1 { a -> a a a ; }"
    specs = parse(text)
    assert [s.name for s in specs] == ["one", "two"]
    assert specs[0].rules == ("aa",)
    assert specs[1].rules == ("aaa",)


def test_round_trip():
    for text in (PHI2_TEXT, "map m rank 3 { a -> b C ; b -> c ; c -> a b c ; }"):
        specs = parse(text)
        again = parse("".join(format_map(s) for s in specs))
        assert again == specs


def test_format_map_is_parseable_text():
    s = MapSpec(name="m", rank=2, rules=("aabAB", "BAbba"))
    text = format_map(s)
    assert "map m rank 2" in text
    assert parse(text) == [s]


def test_error_undeclared_generator():
    with pytest.raises(UndeclaredGenerator) as ei:
        parse("map m rank 2 { a -> ac ; b -> b ; }")
    assert ei.value.line == 1
    assert ei.value.column == 22


def test_error_duplicate_rule():
    with pytest.raises(DuplicateRule):
        parse("map m rank 1 { a -> a ; a -> a a ; }")


def test_error_missing_rule():
    with pytest.raises(ParseError) as ei:
        parse("map m rank 2 { a -> a ; }")
    assert "missing rule" in str(ei.value)


def test_error_empty_word():
    with pytest.raises(ParseError):
        parse("map m rank 1 { a -> ; }")


def test_error_bad_rank():
    with pytest.raises(ParseError):
        parse("map m rank 0 { }")
    with pytest.raises(ParseError):
        parse("map m rank 27 { a -> a ; }")


def test_error_bad_keyword():
    with pytest.raises(ParseError):
        parse("mop m rank 1 { a -> a ; }")


def test_error_position_reported():
    with pytest.raises(ParseError) as ei:
        parse("map m rank 1 {\n  a => a ;\n}")
    assert ei.value.line == 2


@pytest.mark.parametrize("text, error, message", [
    ("map p rank 2 {", ParseError, "1:15: expected '}' or a rule, got end of input"),
    ("map p", ParseError, "1:6: expected keyword 'rank', got end of input"),
    ("map p rank 2 { A -> a ; b -> b ; }", ParseError,
     "1:16: rule must start with one lowercase letter, got 'A'"),
    ("map p rank 2 { ab -> a ; b -> b ; }", ParseError,
     "1:16: rule must start with one lowercase letter, got 'ab'"),
    ("map p rank 2 { c -> a ; }", UndeclaredGenerator, "1:16: generator 'c' outside rank 2"),
    ("map p rank 2 { a -> a_b ; b -> b ; }", ParseError, "1:22: bad word character '_'"),
    ("map p rank 2 { a -> a 3 ; }", ParseError, "1:23: expected word letter or ';', got '3'"),
    ("map p rank 2 { a -> a b", ParseError, "1:24: expected word letter or ';', got end of input"),
    ("map 7 rank 2 {}", ParseError, "1:5: expected map name, got '7'"),
    ("map p rank x {", ParseError, "1:12: expected rank, got 'x'"),
    ("map p rank 2 { a b ; }", ParseError, "1:18: expected '->', got 'b'"),
    ("map p rank 1 { a -> a ; } map p rank 1 { a -> a ; }", ParseError,
     "1:31: second map named 'p'"),
])
def test_error_messages_and_positions(text, error, message):
    with pytest.raises(ParseError) as ei:
        parse(text)
    assert type(ei.value) is error
    assert str(ei.value) == message


@pytest.mark.parametrize("text, line, column", [
    # 'İ'.lower() is two characters long
    ("map m rank 2 {\n  a -> a\u0130b ;\n  b -> b ;\n}", 2, 9),
    # superscript two is a digit to str.isdigit but no int() literal
    ("map m rank \u00b2 { a -> a ; }", 1, 12),
    ("map m rank 1 { a -> a\u00e9 ; }", 1, 22),
    ("map m\u00e9 rank 1 { a -> a ; }", 1, 6),
    ("map m rank 1 { \u00e0 -> a ; }", 1, 16),
    ("map m rank 1 { a -> \uff41 ; }", 1, 21),
])
def test_error_non_ascii(text, line, column):
    with pytest.raises(ParseError) as ei:
        parse(text)
    assert (ei.value.line, ei.value.column) == (line, column)
    assert "unexpected character" in str(ei.value)


@pytest.mark.parametrize("text, rank", [
    ("a\u0130", 2), ("\u00e9", 2), ("a\uff41", 2),
    # the Kelvin sign lowers to an ASCII k
    ("\u212a", 11),
])
def test_word_parse_non_ascii(text, rank):
    with pytest.raises(RankMismatch):
        Word.parse(text, rank)


def test_comments_ignored():
    text = "# leading\nmap m rank 1 { # inline\n a -> a a ; # trailing\n}\n# final"
    assert parse(text)[0].rules == ("aa",)


@st.composite
def map_specs(draw):
    rank = draw(st.integers(min_value=1, max_value=4))
    alphabet = string.ascii_lowercase[:rank] + string.ascii_uppercase[:rank]
    rules = tuple(
        draw(st.text(alphabet=alphabet, min_size=1, max_size=8))
        for _ in range(rank)
    )
    name = draw(st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=6))
    return MapSpec(name=name, rank=rank, rules=rules)


@given(map_specs())
def test_round_trip_random(spec):
    assert parse(format_map(spec)) == [spec]


@given(map_specs(), st.data())
def test_damaged_text_parses_or_fails_at_a_position(spec, data):
    """A map text cut short or with one character replaced either parses or
    raises a ParseError at a line and column inside the text; no other
    exception gets out of the front end."""
    text = format_map(spec)
    i = data.draw(st.integers(min_value=0, max_value=len(text) - 1))
    if data.draw(st.booleans()):
        text = text[:i]
    else:
        text = text[:i] + data.draw(st.sampled_from("{};->#aAz7é \n")) + text[i + 1:]
    try:
        specs = parse(text)
    except ParseError as e:
        lines = text.split("\n")
        assert 1 <= e.line <= len(lines)
        assert 1 <= e.column <= len(lines[e.line - 1]) + 1
    else:
        assert all(isinstance(s, MapSpec) for s in specs)

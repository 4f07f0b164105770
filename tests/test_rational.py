import itertools
import re
from fractions import Fraction

import pytest

from jetframes import ParseError, rat, rat_from_str, rat_to_str, rational


def test_lowest_terms_and_positive_denominator():
    assert rat(2, 4) == Fraction(1, 2)
    assert rat(1, -2).denominator == 2
    assert rat(1, -2) == Fraction(-1, 2)
    assert rat(-6, -3) == 2


def test_string_form():
    assert rat_to_str(rat(3, 4)) == "3/4"
    assert rat_to_str(rat(5)) == "5"
    assert rat_to_str(rat(-7, 2)) == "-7/2"
    assert rat_to_str(rat(0)) == "0"


@pytest.mark.parametrize("text", ["3/4", "-3/4", "5", "0", "-12", "10/4"])
def test_string_roundtrip(text):
    value = rat_from_str(text)
    assert rat_from_str(rat_to_str(value)) == value


def test_parse_rejects_garbage():
    for bad in ["", "x", "1/2/3", "1/0", "1/-2", "2.5", None, 3]:
        with pytest.raises(ParseError):
            rat_from_str(bad)


@pytest.mark.parametrize("text", [" 3", "3 ", "1_000", "+3", "3/ 4", "\u0663",
                                  "007", "-", "1/", "/2", "1/02", "3\n"])
def test_parse_rejects_text_outside_the_grammar(text):
    with pytest.raises(ParseError):
        rat_from_str(text)


def test_parse_normalizes_non_reduced_fractions():
    assert rat_from_str("10/4") == Fraction(5, 2)
    assert rat_to_str(rat_from_str("-6/3")) == "-2"


def test_arithmetic_is_exact():
    third = rat(1, 3)
    assert third + third + third == 1
    assert (rat(1, 10) + rat(2, 10)) == rat(3, 10)


@pytest.mark.parametrize("text", ["1" + "0" * 5000, "x" * 5000, "1/" + "9" * 5000])
def test_parse_error_echoes_a_bounded_prefix(text):
    with pytest.raises(ParseError) as err:
        rat_from_str(text)
    message = str(err.value)
    assert len(message) < 100
    assert repr(text[:40]) in message and f"({len(text)} characters)" in message


def test_parse_error_echoes_short_input_whole():
    with pytest.raises(ParseError, match=r"malformed rational '1/0'$"):
        rat_from_str("1/0")


def test_grammar_needs_no_syntax_newer_than_python_3_10():
    """Possessive repeats and atomic groups came to ``re`` in Python 3.11,
    which the package does not require."""
    for pattern in (rational._RAT, rational._NOT_RAT):
        assert re.search(r"[*+?}]\+|\(\?>", pattern) is None, pattern


def test_grammar_is_the_documented_one_on_every_short_string():
    """Each string of up to five characters over an alphabet that meets every
    case of the grammar passes exactly when it is in
    ``-?(0|[1-9][0-9]*)(/[1-9][0-9]*)?``, alone and first, inside or last
    in a join of three strings."""
    grammar = re.compile(r"-?(0|[1-9][0-9]*)(/[1-9][0-9]*)?")
    for size in range(6):
        for chars in itertools.product("-019/ \n", repeat=size):
            text = "".join(chars)
            expected = grammar.fullmatch(text) is not None
            assert rational._in_grammar(text, 1) == expected, text
            for join in (f"{text} 1 2", f"1 {text} -2/3", f"0 -1 {text}"):
                assert rational._in_grammar(join, 3) == expected, join

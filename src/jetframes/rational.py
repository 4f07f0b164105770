"""Exact rational scalars.

All coordinates in this package are ``fractions.Fraction`` values: arbitrary
precision, always in lowest terms with a positive denominator, with exact
arithmetic.  This module adds the string form used by every JSON document:
``"p/q"``, or just ``"p"`` when the denominator is 1, in one grammar.

``rat_from_str``/``rat_to_str`` convert one ``Fraction`` (the public API,
and the writer of base points); ``rats_from_strs``/``rats_to_strs``
convert whole arrays of strings to and from ints, with no ``Fraction``.  A
number past the interpreter's limit on the digits of an int's text is
refused: the readers raise ``ParseError``, the writers ``JetFramesError``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import repeat
from math import gcd
from operator import itemgetter

from .errors import JetFramesError, ParseError, echo

# the grammar of one rational string, and a space that does not begin one
# ended by a space or the end of the text.  A search of a join of strings, led
# by a space, finds the first string outside the grammar in constant memory;
# a repeat over the join would keep backtracking state for every string
# unless possessive, which Python 3.10's ``re`` lacks.  ``re`` compiles the
# search on first use, so a process that reads no rational string does not.
_RAT = r"-?(?:0|[1-9][0-9]*)(?:/[1-9][0-9]*)?"
_NOT_RAT = rf" (?!{_RAT}(?: |\Z))"
_numerator, _denominator = itemgetter(0), itemgetter(2)
_TOO_LONG = ("cannot write the result: a number has more digits than the "
             "interpreter's limit for the text of an int")


def _in_grammar(text: str, count: int) -> bool:
    """Whether ``text``, ``count`` strings joined by single spaces, is
    ``count`` rational strings: a space inside a string adds a term, so the
    join passes with no more spaces than separators only when every string
    is in the grammar on its own."""
    return text.count(" ") == count - 1 and re.search(_NOT_RAT, " " + text) is None


def _text(p: int, q: int) -> str:
    """The written form of ``p/q``, given in lowest terms with ``q`` > 0."""
    return str(p) if q == 1 else f"{p}/{q}"


def rat_to_str(value: Fraction) -> str:
    try:
        return _text(value.numerator, value.denominator)
    except ValueError as exc:  # beyond the interpreter's digit limit
        raise JetFramesError(_TOO_LONG) from exc


def rat_from_str(text: str) -> Fraction:
    """Parse ``"p"`` or ``"p/q"`` in the grammar
    ``-?(0|[1-9][0-9]*)(/[1-9][0-9]*)?``, ASCII digits only.

    Signs other than a leading ``-``, whitespace, underscores, non-ASCII
    digits and leading zeros are rejected.  A fraction that is not in lowest
    terms, such as ``"10/4"``, is accepted and normalized (to 5/2), so the
    parse is exact but ``rat_to_str`` gives back the canonical text only.
    """
    if not isinstance(text, str):
        raise ParseError(f"rational must be a string, got {type(text).__name__}")
    if not _in_grammar(text, 1):
        raise ParseError(f"malformed rational {echo(text)}")
    num, _, den = text.partition("/")
    try:
        return Fraction(int(num), int(den or 1))
    except ValueError as exc:  # beyond the interpreter's digit limit
        raise ParseError(f"malformed rational {echo(text)}") from exc


def rats_from_strs(texts: list) -> tuple[list[int], list[int]]:
    """The numerators and the denominators of the rational strings ``texts``,
    as written: ``"10/4"`` gives 10 and 4, ``"3"`` gives 3 and 1.

    The strings are checked against the grammar of ``rat_from_str`` by one
    search of their join, and the first one that ``rat_from_str`` rejects
    raises its ``ParseError``.
    """
    try:
        text = " ".join(texts)  # TypeError on a string that is not one
        if _in_grammar(text, len(texts)):
            parts = list(map(str.partition, texts, repeat("/")))
            dens = list(map(_denominator, parts))
            den_of = {q: int(q or 1) for q in set(dens)}
            return (list(map(int, map(_numerator, parts))),
                    list(map(den_of.__getitem__, dens)))
    except (TypeError, ValueError):  # ValueError: beyond the digit limit
        pass
    for text in texts:
        rat_from_str(text)  # raises for the first string the search rejected
    return [], []  # an empty array: no string to read


def rats_to_strs(ints, den: int) -> list[str]:
    """The rational strings of ``ints`` over ``den`` > 0, each in lowest
    terms as ``rat_to_str`` writes it: one gcd per entry."""
    try:
        return [_text(e // (g := gcd(e, den)), den // g) for e in ints]
    except ValueError as exc:  # beyond the interpreter's digit limit
        raise JetFramesError(_TOO_LONG) from exc

"""Exact rational scalars.

All coordinates in this package are ``fractions.Fraction`` values: arbitrary
precision, always in lowest terms with a positive denominator, with exact
arithmetic.  This module adds the string form used by every JSON document:
``"p/q"``, or just ``"p"`` when the denominator is 1.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError, echo

Rational = Fraction

_RAT_TEXT = re.compile(r"(-?(?:0|[1-9][0-9]*))(?:/([1-9][0-9]*))?")


def rat(value: int | str | Fraction, den: int | None = None) -> Fraction:
    """Coerce to an exact rational; ``rat(3, 4)`` is shorthand for 3/4."""
    if den is not None:
        return Fraction(value, den)
    return Fraction(value)


def rat_to_str(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


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
    match = _RAT_TEXT.fullmatch(text)
    if match is None:
        raise ParseError(f"malformed rational {echo(text)}")
    num, den = match.groups()
    try:
        return Fraction(int(num), int(den)) if den else Fraction(int(num))
    except ValueError as exc:  # beyond the interpreter's digit limit
        raise ParseError(f"malformed rational {echo(text)}") from exc

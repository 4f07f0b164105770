"""JSON documents for elements, frames and jets.

All scalars are rational strings ("p/q", or "p" when the denominator is 1),
so round-trips are bit-exact.  Schemas:

* matrix: row-major nested arrays of rational strings
* bilinear: {"n": n, "coeffs": [[[...]]]} with coeffs[k][i][j]
* group element: {"group": tag, "n": n, "a": [[...]], "b"?: [[...]],
  "f": [[[...]]]}, tag in tilde2|hat2|g2|tilde21|tilde22|t1n
  (for tilde22 the keys "a" and "f" carry the (l, h) components)
* frame: {"kind": nonhol|semihol|hol|lin, "n": n, "x": [...],
  "a": [[...]], "b"?: [[...]], "f"?: [[[...]]]}
* jet: {"base": [...], "value": [...], "jac": [[...]], "hess": [[[...]]]}

One reader checks every document.  ``_leaves`` requires a JSON array of at
most ``MAX_N`` entries at every level of a vector, matrix or bilinear array;
a type's fields sit under their own names, except where ``_LAYOUT`` names
other keys (tilde22's (l, h) under "a" and "f"); a tag must be a string and
``n`` a JSON integer (``check_n``).  Every fault is reported in document
order: the leaves before a misshapen level are read first.

Matrix and bilinear arrays go between text and the stored ``(ints, den)``
with no ``Fraction``: the reader takes an array's numerators and
denominators as ints (``rats_from_strs``), checks its shape as the
constructors do, rescales once to the lcm of the denominators as written
(refused past ``MAX_DEN_DIGITS`` digits) and reduces with ``_of``; the
writer prints each stored int over ``den`` with one gcd (``rats_to_strs``).
Base points stay ``Fraction`` tuples.
"""

from __future__ import annotations

from math import lcm
from operator import mul
from typing import Any

from .bilinear import Bilinear
from .errors import ParseError, SingularMatrixError
from .frames import HolFrame, LinFrame, NonHolFrame, Point, SemiHolFrame
from .groups import GROUPS, G2, GHat2, GTilde2, GTilde21, GTilde22, Pair, T1nL1n
from .jets import Map2Jet
from .matrices import Scaled, SquareMatrix
from .rational import rat_from_str, rat_to_str, rats_from_strs, rats_to_strs

#: Largest dimension a document (or ``gen``/``verify --n``) may have.  A
#: bilinear map holds n^3 coefficients and a contraction costs n^4 products,
#: so the cap keeps every input within memory and time.
MAX_N = 64

#: Most decimal digits the common denominator of a matrix or bilinear array
#: may have, taken over its denominators as written: the digit limit of one
#: rational string.  Every stored int of the array is scaled to it, so an
#: array of many distinct denominators would otherwise cost without bound.
MAX_DEN_DIGITS = 4300
_DEN_CAP = 10 ** MAX_DEN_DIGITS

GroupElement = GTilde2 | GHat2 | G2 | GTilde21 | GTilde22 | T1nL1n
Frame = NonHolFrame | SemiHolFrame | HolFrame | LinFrame

# the type named by each tag, under the document key that holds the tag
_TYPES = {"group": {tag: group.type for tag, group in GROUPS.items()},
          "kind": {"nonhol": NonHolFrame, "semihol": SemiHolFrame,
                   "hol": HolFrame, "lin": LinFrame}}
_TAGS = {key: {cls: tag for tag, cls in types.items()} for key, types in _TYPES.items()}

# the document keys of a type whose keys are not its field names
_LAYOUT = {GTilde22: ("a", "f")}


def check_n(n: Any, what: str) -> None:
    """Raise ``ParseError`` unless ``n`` is an ``int`` (not a bool) in 1..``MAX_N``."""
    if type(n) is not int or not 1 <= n <= MAX_N:
        raise ParseError(f"{what} must be an integer between 1 and {MAX_N}")


def _leaves(doc: Any, rank: int, what: str) -> list:
    """The strings of the rank-``rank`` array ``doc``, in document order, once
    every level is a JSON array of at most ``MAX_N`` entries.  A level that
    is not raises after the strings before it are checked."""
    leaves: list = []

    def walk(node: Any, rank: int) -> None:
        if not isinstance(node, list) or len(node) > MAX_N:
            rats_from_strs(leaves)
            if not isinstance(node, list):
                raise ParseError(f"{what} must be a JSON array at every level")
            raise ParseError(f"{what} is larger than the dimension cap {MAX_N}")
        if rank == 1:
            leaves.extend(node)
        else:
            for e in node:
                walk(e, rank - 1)

    walk(doc, rank)
    return leaves


def _scaled_from_doc(doc: Any, cls: type[Scaled], what: str) -> Scaled:
    """The ``cls`` value of the array ``doc``, read straight into scaled form."""
    nums, dens = rats_from_strs(_leaves(doc, cls._rank, what))
    n = len(doc)
    _make(cls._check_shape, n, doc)
    den, distinct = 1, set(dens)
    for d in distinct:  # the lcm, checked as it grows
        den = lcm(den, d)
        if den >= _DEN_CAP:
            raise ParseError(f"{what} common denominator has more than "
                             f"{MAX_DEN_DIGITS} digits")
    scale = {d: den // d for d in distinct}
    ints = list(map(mul, nums, map(scale.__getitem__, dens)))
    step = len(ints) // n  # n rows of a matrix, n planes of a bilinear map
    return cls._of(([ints[i:i + step] for i in range(0, len(ints), step)], den))


def _make(build: Any, *args: Any) -> Any:
    """``build(*args)``, with a value that it rejects as ``ParseError``."""
    try:
        return build(*args)
    except (ValueError, SingularMatrixError) as exc:
        raise ParseError(str(exc)) from exc


def _of_n(value: Any, n: int, what: str) -> Any:
    if value.n != n:
        raise ParseError(f"{what} shape disagrees with the document's 'n'")
    return value


def vector_to_doc(x: Point) -> list[str]:
    return [rat_to_str(e) for e in x]


def vector_from_doc(doc: Any) -> Point:
    return tuple(map(rat_from_str, _leaves(doc, 1, "vector")))


def matrix_to_doc(m: SquareMatrix) -> list[list[str]]:
    return [rats_to_strs(row, m.den) for row in m.ints]


def matrix_from_doc(doc: Any) -> SquareMatrix:
    return _scaled_from_doc(doc, SquareMatrix, "matrix")


def _coeffs_to_doc(f: Bilinear) -> list:
    n = f.n
    return [[plane[r:r + n] for r in range(0, n * n, n)]
            for plane in (rats_to_strs(ints, f.den) for ints in f.ints)]


def _coeffs_from_doc(doc: Any) -> Bilinear:
    return _scaled_from_doc(doc, Bilinear, "bilinear")


def bilinear_to_doc(f: Bilinear) -> dict[str, Any]:
    return {"n": f.n, "coeffs": _coeffs_to_doc(f)}


def bilinear_from_doc(doc: Any) -> Bilinear:
    if not isinstance(doc, dict) or "coeffs" not in doc or "n" not in doc:
        raise ParseError("bilinear must be an object with 'n' and 'coeffs'")
    check_n(doc["n"], "bilinear 'n'")
    return _of_n(_coeffs_from_doc(doc["coeffs"]), doc["n"], "bilinear")


# the rank of the array under each document key, and each rank's writer and reader
_RANK = {"x": 1, "base": 1, "value": 1, "a": 2, "b": 2, "jac": 2, "f": 3, "hess": 3}
_WRITE = {1: vector_to_doc, 2: matrix_to_doc, 3: _coeffs_to_doc}
_READ = {1: vector_from_doc, 2: matrix_from_doc, 3: _coeffs_from_doc}


def _to_doc(obj: Any, doc: dict[str, Any]) -> dict[str, Any]:
    """``doc`` followed by each field of ``obj`` under its document key."""
    for key, part in zip(_LAYOUT.get(type(obj), obj.__match_args__), obj.parts):
        doc[key] = _WRITE[_RANK[key]](part)
    return doc


def _from_doc(doc: dict[str, Any], cls: type, what: str) -> Any:
    """The ``cls`` whose fields ``doc`` holds under their document keys."""
    keys = _LAYOUT.get(cls, cls.__match_args__)
    missing = [key for key in keys if key not in doc]
    if missing:
        raise ParseError(f"{what} missing field {missing[0]!r}")
    return _make(cls, *(_READ[_RANK[key]](doc[key]) for key in keys))


def _tagged_to_doc(obj: Any, key: str, what: str) -> dict[str, Any]:
    tag = _TAGS[key].get(type(obj))
    if tag is None:
        raise ParseError(f"not a {what}: {type(obj).__name__}")
    return _to_doc(obj, {key: tag, "n": obj.n})


def _tagged_from_doc(doc: Any, key: str, what: str) -> Any:
    """The value of the type that ``doc[key]`` names, of dimension ``doc["n"]``."""
    if not isinstance(doc, dict):
        raise ParseError(f"{what} must be a JSON object")
    types, tag, n = _TYPES[key], doc.get(key), doc.get("n")
    if not isinstance(tag, str) or tag not in types:
        raise ParseError(f"{what} {key!r} must be one of {', '.join(types)}")
    check_n(n, f"{what} 'n'")
    return _of_n(_from_doc(doc, types[tag], what), n, what)


def group_to_doc(el: GroupElement) -> dict[str, Any]:
    return _tagged_to_doc(el, "group", "group element")


def group_from_doc(doc: Any) -> GroupElement:
    return _tagged_from_doc(doc, "group", "group element")


def frame_to_doc(q: Frame) -> dict[str, Any]:
    return _tagged_to_doc(q, "kind", "frame")


def frame_from_doc(doc: Any) -> Frame:
    return _tagged_from_doc(doc, "kind", "frame")


def jet_to_doc(j: Map2Jet) -> dict[str, Any]:
    return _to_doc(j, {})


def jet_from_doc(doc: Any) -> Map2Jet:
    if not isinstance(doc, dict):
        raise ParseError("jet must be a JSON object")
    return _from_doc(doc, Map2Jet, "jet")


def pair_to_doc(x: Pair) -> dict[str, Any]:
    """A (matrix, bilinear) pair, the elements of the alternative laws."""
    return {"a": matrix_to_doc(x[0]), "f": bilinear_to_doc(x[1])}


_TO_DOC = {SquareMatrix: matrix_to_doc, Bilinear: bilinear_to_doc, tuple: pair_to_doc,
           Map2Jet: jet_to_doc, **dict.fromkeys(_TAGS["group"], group_to_doc),
           **dict.fromkeys(_TAGS["kind"], frame_to_doc)}


def to_doc(obj: Any) -> Any:
    """The document of any value above, chosen by its type."""
    return _TO_DOC[type(obj)](obj)

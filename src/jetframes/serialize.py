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

Every parser rejects a dimension above ``MAX_N`` before reading the
coefficients.
"""

from __future__ import annotations

from typing import Any

from .bilinear import Bilinear
from .errors import ParseError, SingularMatrixError
from .frames import HolFrame, LinFrame, NonHolFrame, Point, SemiHolFrame
from .groups import GROUPS, G2, GHat2, GTilde2, GTilde21, GTilde22, Pair, T1nL1n
from .jets import Map2Jet
from .matrices import SquareMatrix
from .rational import rat_from_str, rat_to_str

#: Largest dimension a document (or ``gen``/``verify --n``) may have.  A
#: bilinear map holds n^3 coefficients and a contraction costs n^4 products,
#: so the cap keeps every input within memory and time.
MAX_N = 64

GroupElement = GTilde2 | GHat2 | G2 | GTilde21 | GTilde22 | T1nL1n
Frame = NonHolFrame | SemiHolFrame | HolFrame | LinFrame

_FRAMES = {"nonhol": NonHolFrame, "semihol": SemiHolFrame, "hol": HolFrame,
           "lin": LinFrame}

_GROUP_TAG = {group.type: tag for tag, group in GROUPS.items()}
_FRAME_KIND = {cls: kind for kind, cls in _FRAMES.items()}


def vector_to_doc(x: Point) -> list[str]:
    return [rat_to_str(e) for e in x]


def vector_from_doc(doc: Any) -> Point:
    if not isinstance(doc, list):
        raise ParseError("vector must be a JSON array")
    _check_size(doc, "vector")
    return tuple(rat_from_str(e) for e in doc)


def matrix_to_doc(m: SquareMatrix) -> list[list[str]]:
    return [[rat_to_str(e) for e in row] for row in m.entries]


def check_n(n: Any, what: str) -> None:
    """Raise ``ParseError`` unless ``n`` is an integer in 1..``MAX_N``."""
    if not isinstance(n, int) or not 1 <= n <= MAX_N:
        raise ParseError(f"{what} must be an integer between 1 and {MAX_N}")


def _check_size(doc: Any, what: str) -> None:
    if isinstance(doc, list) and len(doc) > MAX_N:
        raise ParseError(f"{what} is larger than the dimension cap {MAX_N}")


def matrix_from_doc(doc: Any) -> SquareMatrix:
    if not isinstance(doc, list) or not all(isinstance(r, list) for r in doc):
        raise ParseError("matrix must be a nested JSON array")
    _check_size(doc, "matrix")
    rows = tuple(tuple(rat_from_str(e) for e in row) for row in doc)
    try:
        return SquareMatrix(len(rows), rows)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def _matrix_of_n(doc: Any, n: int) -> SquareMatrix:
    """The matrix of ``doc``, which must be n x n for a document of size n."""
    a = matrix_from_doc(doc)
    if a.n != n:
        raise ParseError("matrix shape disagrees with the document's 'n'")
    return a


def bilinear_to_doc(f: Bilinear) -> dict[str, Any]:
    return {
        "n": f.n,
        "coeffs": [[[rat_to_str(e) for e in row] for row in plane]
                   for plane in f.coeffs],
    }


def bilinear_from_doc(doc: Any) -> Bilinear:
    if not isinstance(doc, dict) or "coeffs" not in doc or "n" not in doc:
        raise ParseError("bilinear must be an object with 'n' and 'coeffs'")
    return _coeffs_only_from_doc(
        doc["coeffs"], doc["n"], "bilinear 'n' field disagrees with coefficient shape")


def _coeffs_only_from_doc(
    doc: Any, n: Any,
    mismatch: str = "bilinear shape disagrees with the document's 'n'",
) -> Bilinear:
    _check_size(doc, "bilinear")
    try:
        data = tuple(tuple(tuple(rat_from_str(e) for e in row) for row in plane)
                     for plane in doc)
        f = Bilinear(len(data), data)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"malformed bilinear coefficients: {exc}") from exc
    if f.n != n:
        raise ParseError(mismatch)
    return f


def group_to_doc(el: GroupElement) -> dict[str, Any]:
    tag = _GROUP_TAG.get(type(el))
    if tag is None:
        raise ParseError(f"not a group element: {type(el).__name__}")
    *mats, f = el.parts
    doc: dict[str, Any] = {"group": tag, "n": el.n}
    doc.update(zip(("a", "b"), map(matrix_to_doc, mats)))
    doc["f"] = bilinear_to_doc(f)["coeffs"]
    return doc


def group_from_doc(doc: Any) -> GroupElement:
    if not isinstance(doc, dict):
        raise ParseError("group element must be a JSON object")
    tag = doc.get("group")
    if tag not in GROUPS:
        raise ParseError(f"unknown group tag {tag!r}")
    n = doc.get("n")
    check_n(n, "group element 'n'")
    try:
        a = _matrix_of_n(doc["a"], n)
        f = _coeffs_only_from_doc(doc["f"], n)
        mats = (a, matrix_from_doc(doc["b"])) if tag == "tilde2" else (a,)
        return GROUPS[tag].type(*mats, f)
    except KeyError as exc:
        raise ParseError(f"group element missing field {exc}") from exc
    except (ValueError, SingularMatrixError) as exc:
        raise ParseError(str(exc)) from exc


def frame_to_doc(q: Frame) -> dict[str, Any]:
    kind = _FRAME_KIND.get(type(q))
    if kind is None:
        raise ParseError(f"not a frame: {type(q).__name__}")
    doc = {"kind": kind, "n": q.n, "x": vector_to_doc(q.x), "a": matrix_to_doc(q.a)}
    if kind == "nonhol":
        doc["b"] = matrix_to_doc(q.b)
    if kind != "lin":
        doc["f"] = bilinear_to_doc(q.f)["coeffs"]
    return doc


def frame_from_doc(doc: Any) -> Frame:
    if not isinstance(doc, dict):
        raise ParseError("frame must be a JSON object")
    kind = doc.get("kind")
    if kind not in _FRAMES:
        raise ParseError(f"unknown frame kind {kind!r}")
    n = doc.get("n")
    check_n(n, "frame 'n'")
    try:
        x = vector_from_doc(doc["x"])
        a = _matrix_of_n(doc["a"], n)
        if kind == "lin":
            return LinFrame(x, a)
        f = _coeffs_only_from_doc(doc["f"], n)
        if kind == "nonhol":
            return NonHolFrame(x, a, matrix_from_doc(doc["b"]), f)
        return _FRAMES[kind](x, a, f)
    except KeyError as exc:
        raise ParseError(f"frame missing field {exc}") from exc
    except (ValueError, SingularMatrixError) as exc:
        raise ParseError(str(exc)) from exc


def jet_to_doc(j: Map2Jet) -> dict[str, Any]:
    return {"base": vector_to_doc(j.base), "value": vector_to_doc(j.value),
            "jac": matrix_to_doc(j.jac),
            "hess": bilinear_to_doc(j.hess)["coeffs"]}


def jet_from_doc(doc: Any) -> Map2Jet:
    if not isinstance(doc, dict):
        raise ParseError("jet must be a JSON object")
    try:
        base = vector_from_doc(doc["base"])
        value = vector_from_doc(doc["value"])
        jac = matrix_from_doc(doc["jac"])
        hess = _coeffs_only_from_doc(doc["hess"], jac.n)
    except KeyError as exc:
        raise ParseError(f"jet missing field {exc}") from exc
    try:
        return Map2Jet(base, value, jac, hess)
    except (ValueError, SingularMatrixError) as exc:
        raise ParseError(str(exc)) from exc


def pair_to_doc(x: Pair) -> dict[str, Any]:
    """A (matrix, bilinear) pair, the elements of the alternative laws."""
    return {"a": matrix_to_doc(x[0]), "f": bilinear_to_doc(x[1])}


_TO_DOC = {
    SquareMatrix: matrix_to_doc,
    Bilinear: bilinear_to_doc,
    tuple: pair_to_doc,
    Map2Jet: jet_to_doc,
    **dict.fromkeys(_GROUP_TAG, group_to_doc),
    **dict.fromkeys(_FRAME_KIND, frame_to_doc),
}


def to_doc(obj: Any) -> Any:
    """The document of any value above, chosen by its type."""
    return _TO_DOC[type(obj)](obj)

"""Every document reader, and every CLI command that reads one, on arbitrary JSON.

A reader returns a value or raises ``ParseError``, never anything else, and a
command ends in exit code 0 with a document or exit code 2 with an ``error:``
line.  The canonical document of a generated value round-trips byte for byte.
Sizes are capped in the strategies, so every example is small.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetframes import randgen as rg
from jetframes.bilinear import Bilinear
from jetframes.cli import _OPS, _PROJECT, GEN_KINDS, main
from jetframes.errors import ParseError
from jetframes.groups import GROUPS
from jetframes.matrices import SquareMatrix
from jetframes.rational import rat_from_str, rat_to_str
from jetframes.serialize import (
    MAX_N,
    bilinear_from_doc,
    bilinear_to_doc,
    frame_from_doc,
    frame_to_doc,
    group_from_doc,
    group_to_doc,
    jet_from_doc,
    jet_to_doc,
    matrix_from_doc,
    matrix_to_doc,
    vector_from_doc,
    vector_to_doc,
)

FUZZ = settings(max_examples=150, deadline=None, derandomize=True)

# each reader and the writer of the values it returns
CODECS = [(vector_from_doc, vector_to_doc), (matrix_from_doc, matrix_to_doc),
          (bilinear_from_doc, bilinear_to_doc), (group_from_doc, group_to_doc),
          (frame_from_doc, frame_to_doc), (jet_from_doc, jet_to_doc)]
TAGS = (*GROUPS, "nonhol", "semihol", "hol", "lin")
# the rank of the array under each document key
RANKS = {"x": 1, "base": 1, "value": 1, "a": 2, "b": 2, "jac": 2, "f": 3,
         "hess": 3, "coeffs": 3}

valid_rationals = st.sampled_from(["0", "1", "-1", "2", "1/2", "-3/4", "10/4"])
rationals = st.one_of(valid_rationals, valid_rationals, valid_rationals,
                      st.sampled_from(["1/0", "01", " 1", "+1", "x", ""]))
scalars = (st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
           | rationals | st.sampled_from(TAGS))
keys = st.sampled_from([*RANKS, "group", "kind", "n"]) | st.text(max_size=2)
json_values = st.recursive(
    scalars, lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(keys, inner, max_size=6), max_leaves=24)


def arrays(rank, n, leaves=valid_rationals):
    """Regular n^rank arrays of rational strings."""
    if rank == 0:
        return leaves
    return st.lists(arrays(rank - 1, n, leaves), min_size=n, max_size=n)


@st.composite
def documents(draw):
    """Objects with every key of the real schemas, well formed for one ``n``,
    and then at most one key dropped or given another value, so that the
    readers get past the tag and dimension checks."""
    n = draw(st.integers(1, 2))
    doc = {"group": draw(st.sampled_from(TAGS)), "kind": draw(st.sampled_from(TAGS)),
           "n": n}
    doc.update((key, draw(arrays(rank, n))) for key, rank in RANKS.items())
    key = draw(st.sampled_from([None, None, None, *doc]))
    if key is None:
        return doc
    if draw(st.booleans()):
        del doc[key]
    else:
        shapes = st.integers(1, 3).flatmap(
            lambda m: arrays(RANKS.get(key, 1), m, rationals))
        doc[key] = draw(shapes | json_values
                        | st.sampled_from([True, 0, MAX_N + 1, 1.0, "1"]))
    return doc


inputs = (json_values | documents()
          | st.tuples(st.integers(1, 3), st.integers(0, 3)).flatmap(
              lambda rank_n: arrays(*rank_n)))


@FUZZ
@given(doc=inputs)
def test_readers_give_a_value_or_parse_error(doc):
    for parse, write in CODECS:
        try:
            value = parse(doc)
        except ParseError:
            continue
        # a value is what the document says: its document is the input's
        # canonical form, under the keys the reader read
        written = write(value)
        read = {key: doc[key] for key in written} if isinstance(doc, dict) else doc
        assert json.dumps(written) == json.dumps(_canonical(read))


def _canonical(doc):
    """``doc`` with every rational string in canonical form."""
    if isinstance(doc, dict):
        return {key: _canonical(value) for key, value in doc.items()}
    if isinstance(doc, list):
        return [_canonical(e) for e in doc]
    try:
        return rat_to_str(rat_from_str(doc))
    except ParseError:
        return doc


# every command that reads documents; the fuzzed document is the last input,
# and "DOC" stands for it in the others
COMMANDS = [("classify",), ("decompose",), ("oracle", "compose", "DOC"),
            ("oracle", "act", "DOC"), *(("project", level) for level in _PROJECT)]
for op, (tags, _) in _OPS.items():
    others = ("DOC",) * (len(tags) - 1)
    if None in tags:  # takes --group
        COMMANDS += [("op", op, "--group", tag, *others) for tag in GROUPS]
    else:
        COMMANDS.append(("op", op, *others))


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "doc.json"


@FUZZ
@given(argv=st.sampled_from(COMMANDS), doc=inputs)
def test_cli_exits_0_or_2(doc_path, argv, doc):
    doc_path.write_text(json.dumps(doc))
    argv = [str(doc_path) if a == "DOC" else a for a in argv] + [str(doc_path)]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    if code == 0:
        assert json.loads(out.getvalue()) and err.getvalue() == ""
    else:
        assert code == 2 and out.getvalue() == ""
        assert err.getvalue().startswith("error: ")


def _round_trips(value, parse, write):
    text = json.dumps(write(value))
    assert json.dumps(write(parse(json.loads(text)))) == text


@FUZZ
@given(kind=st.sampled_from(GEN_KINDS), n=st.integers(1, 3),
       seed=st.integers(0, 2**64 - 1))
def test_generated_documents_round_trip(kind, n, seed):
    rng = rg.stream(seed, "fuzz", kind, n)
    value = getattr(rg, f"rand_{kind}")(rng, n)
    if kind in GROUPS:
        _round_trips(value, group_from_doc, group_to_doc)
    elif kind == "map2jet":
        _round_trips(value, jet_from_doc, jet_to_doc)
    else:
        _round_trips(value, frame_from_doc, frame_to_doc)
        _round_trips(value.x, vector_from_doc, vector_to_doc)


fractions = st.fractions(min_value=-9, max_value=9, max_denominator=9)


@FUZZ
@given(n=st.integers(1, 3), data=st.data())
def test_arrays_round_trip(n, data):
    rows = data.draw(st.lists(st.lists(fractions, min_size=n, max_size=n),
                              min_size=n, max_size=n))
    _round_trips(SquareMatrix(n, rows), matrix_from_doc, matrix_to_doc)
    coeffs = data.draw(st.lists(st.lists(st.lists(
        fractions, min_size=n, max_size=n), min_size=n, max_size=n),
        min_size=n, max_size=n))
    _round_trips(Bilinear(n, coeffs), bilinear_from_doc, bilinear_to_doc)

"""Every document reader, and every CLI command that reads one, on arbitrary JSON.

A reader returns a value or raises ``ParseError``, never anything else, and a
command ends in exit code 0 with a document or exit code 2 with an ``error:``
line.  The canonical document of a generated value round-trips byte for byte.
The array codec, which goes between text and the scaled form, agrees with
the ``Fraction`` route of ``exact_oracles`` on every array, valid or not.
Sizes are capped in the strategies, so every example is small.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exact_oracles import ref_array_from_doc, ref_array_to_doc
from jetframes import randgen as rg
from jetframes import serialize
from jetframes.bilinear import Bilinear
from jetframes.cli import _OPS, _PROJECT, GEN_KINDS, main
from jetframes.errors import ParseError
from jetframes.groups import GROUPS
from jetframes.matrices import SquareMatrix
from jetframes.rational import rat_from_str, rat_to_str, rats_to_strs
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


# ---------------------------------------------------------------------------
# the array codec against the Fraction route

BIG = 10 ** 60 - 1  # parts of up to 60 digits
numerators = st.integers(-9, 9) | st.integers(-BIG, BIG)
denominators = st.integers(1, 12) | st.integers(1, BIG)
rational_texts = (st.sampled_from(["0", "-0", "10/4", "-6/9", "0/7", "3/3"])
                  | st.builds(str, numerators)
                  | st.builds("{}/{}".format, numerators, denominators))
TOO_LONG = "1" + "0" * 4300  # one digit past the limit of a part
bad_leaves = st.sampled_from([
    1, 0, None, True, 1.5, ["1"], {"1": "2"}, "01", "-01", "+1", " 1", "1 ",
    "1 2", "1/2 3", "1/0", "1/02", "1/-2", "1/2/3", "x", "", "-", "1_0",
    "\u0663", TOO_LONG, "1/" + TOO_LONG, "-" + TOO_LONG + "/7"])
non_arrays = st.sampled_from(["1", "1/2", 1, None, {"0": "1"}])
# the reader and the writer of the arrays of each rank
CODEC = {2: (serialize.matrix_from_doc, serialize.matrix_to_doc),
         3: (serialize._coeffs_from_doc, serialize._coeffs_to_doc)}


def _node(holder, path):
    """The list and index of the node at ``path`` under ``holder``, or None
    where an earlier fault has put something other than a non-empty list."""
    parent, index = holder, 0
    for i in path:
        node = parent[index]
        if not isinstance(node, list) or not node:
            return None
        parent, index = node, i % len(node)
    return parent, index


@st.composite
def faulty_arrays(draw, rank, n):
    """A valid n^rank array of rational strings with up to three faults:
    a bad leaf, a dropped entry (a jagged or empty array), a level of
    ``MAX_N`` + 1 entries, or a level that is not an array."""
    holder = [draw(arrays(rank, n, rational_texts))]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["leaf", "drop", "extend", "replace", "leaf"]))
        depth = rank if kind == "leaf" else draw(st.integers(0, rank - 1))
        found = _node(holder, draw(st.lists(st.integers(0, 63), min_size=depth,
                                            max_size=depth)))
        if found is None:
            continue
        parent, index = found
        node = parent[index]
        if kind == "leaf":
            parent[index] = draw(bad_leaves)
        elif not isinstance(node, list):
            continue
        elif kind == "drop" and node:
            del node[draw(st.integers(0, len(node) - 1))]
        elif kind == "extend" and node:
            node.extend([node[0]] * (MAX_N + 1 - len(node)))
        else:
            parent[index] = draw(non_arrays | st.just([]))
    return holder[0]


def _outcome(read, doc):
    try:
        return read(doc)
    except ParseError as exc:
        return f"ParseError: {exc}"


@FUZZ
@given(rank=st.sampled_from([2, 3]), n=st.integers(1, 4), data=st.data())
def test_array_reader_agrees_with_the_fraction_route(rank, n, data):
    doc = data.draw(faulty_arrays(rank, n))
    read, write = CODEC[rank]
    value = _outcome(read, doc)
    assert value == _outcome(lambda d: ref_array_from_doc(d, rank), doc)
    if not isinstance(value, str):
        assert write(value) == ref_array_to_doc(value)


@FUZZ
@given(den=denominators, canonical=st.booleans(), data=st.data())
def test_writer_text_is_rat_to_str_of_each_entry(den, canonical, data):
    multiples = st.integers(-3, 3).map(lambda k: k * den)
    ints = data.draw(st.lists(numerators | multiples, max_size=6))
    for d in (den, 1):
        g = gcd(d, *ints) if canonical else 1  # canonical: gcd(ints, den) = 1
        expected = [rat_to_str(Fraction(e, d)) for e in ints]
        assert rats_to_strs([e // g for e in ints], d // g) == expected

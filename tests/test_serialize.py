import json

import pytest

import behaviour
from jetframes import ParseError, _scaled, proj_21, randgen
from jetframes.groups import GROUPS
from jetframes.randgen import (
    rand_bilinear,
    rand_g2,
    rand_hat2,
    rand_hol,
    rand_invertible,
    rand_map2jet,
    rand_nonhol,
    rand_semihol,
    rand_t1n,
    rand_tilde2,
    rand_tilde21,
    rand_tilde22,
    stream,
)
from jetframes.serialize import (
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
    pair_to_doc,
    to_doc,
    vector_from_doc,
)

GROUP_GENS = (rand_tilde2, rand_hat2, rand_g2, rand_tilde21, rand_tilde22,
              rand_t1n)


def _through_json(doc):
    return json.loads(json.dumps(doc))


def test_matrix_roundtrip_is_bit_exact():
    rng = stream(200, "mat")
    for n in (1, 2, 4):
        m = rand_invertible(rng, n)
        assert matrix_from_doc(_through_json(matrix_to_doc(m))) == m


def test_bilinear_roundtrip_is_bit_exact():
    rng = stream(201, "bil")
    for n in (1, 3):
        f = rand_bilinear(rng, n)
        assert bilinear_from_doc(_through_json(bilinear_to_doc(f))) == f


@pytest.mark.parametrize("gen", GROUP_GENS, ids=lambda g: g.__name__)
def test_group_roundtrip(gen):
    rng = stream(202, gen.__name__)
    for n in (1, 2, 3):
        el = gen(rng, n)
        doc = _through_json(group_to_doc(el))
        assert group_from_doc(doc) == el


def test_every_group_tag_has_a_generator_of_its_type():
    for tag, group in GROUPS.items():
        el = getattr(randgen, f"rand_{tag}")(stream(205, tag), 2)
        assert type(el) is group.type
        assert group_to_doc(el)["group"] == tag


def test_to_doc_dispatches_on_the_value_type():
    rng = stream(206, "to_doc")
    a, f = rand_invertible(rng, 2), rand_bilinear(rng, 2)
    q = rand_nonhol(rng, 2)
    cases = [(a, matrix_to_doc), (f, bilinear_to_doc), ((a, f), pair_to_doc),
             (rand_map2jet(rng, 2), jet_to_doc), (proj_21(q), frame_to_doc),
             (q, frame_to_doc)]
    cases += [(gen(rng, 2), group_to_doc) for gen in GROUP_GENS]
    for value, specific in cases:
        assert to_doc(value) == specific(value)
    assert pair_to_doc((a, f)) == {"a": matrix_to_doc(a), "f": bilinear_to_doc(f)}


@pytest.mark.parametrize("gen", (rand_nonhol, rand_semihol, rand_hol),
                         ids=lambda g: g.__name__)
def test_frame_roundtrip(gen):
    rng = stream(203, gen.__name__)
    for n in (1, 2, 3):
        q = gen(rng, n)
        doc = _through_json(frame_to_doc(q))
        assert frame_from_doc(doc) == q


def test_nonhol_doc_carries_b_and_semihol_does_not():
    rng = stream(204, "bfield")
    assert "b" in frame_to_doc(rand_nonhol(rng, 2))
    assert "b" not in frame_to_doc(rand_semihol(rng, 2))


def test_jet_roundtrip():
    rng = stream(205, "jet")
    j = rand_map2jet(rng, 3)
    assert jet_from_doc(_through_json(jet_to_doc(j))) == j


def test_rational_strings_in_documents():
    rng = stream(206, "ratstr")
    f = rand_bilinear(rng, 2)
    doc = bilinear_to_doc(f)
    flat = [e for plane in doc["coeffs"] for row in plane for e in row]
    assert all(isinstance(e, str) for e in flat)


def test_unknown_group_tag_rejected():
    with pytest.raises(ParseError):
        group_from_doc({"group": "nope", "n": 1, "a": [["1"]],
                        "f": [[["0"]]]})


HAT2 = {"group": "hat2", "n": 1, "a": [["1"]], "f": [[["0"]]]}
HOL = {"kind": "hol", "n": 1, "x": ["0"], "a": [["1"]], "f": [[["0"]]]}
JET = {"base": ["0"], "value": ["0"], "jac": [["1"]], "hess": [[["0"]]]}

# a reader, a valid n = 1 document, the key of one of its arrays (None: the
# document is the array) and that array's rank
ARRAYS = [(vector_from_doc, ["0"], None, 1), (matrix_from_doc, [["1"]], None, 2),
          (bilinear_from_doc, {"n": 1, "coeffs": [[["0"]]]}, "coeffs", 3)]
ARRAYS += [(group_from_doc, HAT2, "a", 2), (group_from_doc, HAT2, "f", 3)]
ARRAYS += [(frame_from_doc, HOL, key, rank) for key, rank in zip("xaf", (1, 2, 3))]
ARRAYS += [(jet_from_doc, JET, key, rank)
           for key, rank in zip(JET, (1, 1, 2, 3))]


def _misshapen(rank):
    """n = 1 arrays of ``rank`` with a string, an object or a number where an
    array belongs, at each level, and an object, a number or an array where a
    rational string belongs."""
    for depth in range(rank + 1):
        for bad in ("1", {"1": "0"}, 1) if depth < rank else ({"1": "0"}, 1, ["1"]):
            for _ in range(depth):
                bad = [bad]
            yield bad


def test_malformed_documents_rejected():
    with pytest.raises(ParseError):
        group_from_doc("not an object")
    with pytest.raises(ParseError):
        group_from_doc({"group": "hat2", "n": 2, "a": [["1", "0"]],
                        "f": [[["0"]]]})
    with pytest.raises(ParseError):
        frame_from_doc({"kind": "weird", "n": 1, "x": ["0"], "a": [["1"]]})
    with pytest.raises(ParseError):
        bilinear_from_doc({"n": 2, "coeffs": [[["1"]]]})
    with pytest.raises(ParseError):
        matrix_from_doc([["1", "oops"]])
    with pytest.raises(ParseError, match="'n'"):
        frame_from_doc({"kind": "lin", "n": 2, "x": ["1", "2", "3"],
                        "a": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]})
    # a string or an object where the bilinear array belongs is not read as one
    for f in ("7", {"7": 0}):
        with pytest.raises(ParseError):
            group_from_doc({**HAT2, "f": f})
    with pytest.raises(ParseError):
        group_from_doc({"group": "hat2", "n": 2, "a": [["1", "0"], ["0", "1"]],
                        "f": [["12", "34"], ["56", "78"]]})
    for parse, valid, key, rank in ARRAYS:
        parse(valid)
        for bad in _misshapen(rank):
            with pytest.raises(ParseError):
                parse(bad if key is None else {**valid, key: bad})


@pytest.mark.parametrize("tag", (["hat2"], {"hat2": 1}, 1))
def test_tag_that_is_not_a_string_rejected(tag):
    with pytest.raises(ParseError):
        group_from_doc({**HAT2, "group": tag})
    with pytest.raises(ParseError):
        frame_from_doc({**HOL, "kind": tag})


def test_missing_fields_rejected():
    with pytest.raises(ParseError):
        group_from_doc({"group": "tilde2", "n": 1, "a": [["1"]],
                        "f": [[["0"]]]})  # no b
    with pytest.raises(ParseError):
        jet_from_doc({"base": ["0"], "value": ["0"], "jac": [["1"]]})


def test_semantic_invariants_enforced_on_parse():
    # a g2 document with a non-symmetric bilinear part is invalid
    with pytest.raises(ParseError):
        group_from_doc({"group": "g2", "n": 2,
                        "a": [["1", "0"], ["0", "1"]],
                        "f": [[["0", "1"], ["0", "0"]],
                              [["0", "0"], ["0", "0"]]]})
    # a frame with singular linear part is invalid
    with pytest.raises(ParseError):
        frame_from_doc({"kind": "semihol", "n": 1, "x": ["0"],
                        "a": [["0"]], "f": [[["0"]]]})


class FractionRoute(Exception):
    pass


def _refuse(*args):
    raise FractionRoute("a Fraction conversion was called")


def test_commands_read_and_write_arrays_with_no_fraction(monkeypatch, tmp_path):
    """The benchmark's cli-docs round at n = 2 and 3 gives the same bytes
    with the Fraction conversions of ``_scaled`` patched to raise."""
    monkeypatch.chdir(tmp_path)
    cases = [argv for n in (2, 3) for argv in behaviour._cli_docs_cases(n).values()]
    before = [behaviour.run(argv) for argv in cases]
    for name in ("smat", "sbil", "mat_entries", "bil_coeffs"):
        monkeypatch.setattr(_scaled, name, _refuse)
    with pytest.raises(FractionRoute):
        matrix_from_doc([["1"]]).entries  # the patch reaches the views
    assert [behaviour.run(argv) for argv in cases] == before
    assert all(record.startswith("exit 0\n") for record in before)

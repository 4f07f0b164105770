"""Behaviour gate: the verify report must not change.

``golden/verify_all_trials20_seed42.json`` is the output of

    jetframes verify all --trials 20 --seed 42 --json

with each suite's ``wall_time_s`` line removed.  Every other byte of the
current output must equal it, including the failures of criterion 10
(``rbst2.projection_invariant_on_orbits``) and their first counterexample.
Re-record the file only for a change that is meant to alter the report.

The report records only pass/fail and the first counterexample, so a passing
property could change what it draws, or its witness, unseen.
``golden/property_draws_seed42.json`` pins both: for each (suite, property,
n = 1..3) at seed 42, trial 0, whether it held, the state of its stream
after the trial and the sha256 of its witness document.
"""

import hashlib
import json
import re
from pathlib import Path

from jetframes.cli import main
from jetframes.randgen import stream
from jetframes.suites import SUITES, _witness

GOLDEN = Path(__file__).parent / "golden" / "verify_all_trials20_seed42.json"
DRAWS = Path(__file__).parent / "golden" / "property_draws_seed42.json"


def _without_wall_time(text: str) -> str:
    return re.sub(r',\n    "wall_time_s": [^\n]*', "", text)


def test_golden_keeps_the_known_failure():
    failing = [(r["suite"], p["name"])
               for r in json.loads(GOLDEN.read_text())
               for p in r["properties"] if not p["passed"]]
    assert failing == [("rbst2", "projection_invariant_on_orbits")]


def test_verify_all_report_matches_golden(capsys):
    code = main(["verify", "all", "--trials", "20", "--seed", "42", "--json"])
    out = capsys.readouterr().out
    assert code == 1  # criterion 10 fails by design
    assert _without_wall_time(out) == GOLDEN.read_text()


def _draws(suite: str, prop, n: int) -> dict:
    rng = stream(42, suite, prop.name, n, 0)
    held, witness = prop.fn(n, rng)
    doc = json.dumps(_witness(**witness)).encode()
    return {"suite": suite, "property": prop.name, "n": n, "held": held,
            "state": rng._state, "witness_sha256": hashlib.sha256(doc).hexdigest()}


def test_every_property_draws_and_witnesses_as_recorded():
    recorded = json.loads(DRAWS.read_text())
    current = [_draws(suite.name, prop, n) for suite in SUITES.values()
               for prop in suite.properties for n in (1, 2, 3)]
    assert len(current) == len(recorded) == 234
    changed = [f"{c['suite']}.{c['property']} n={c['n']}"
               for c, r in zip(current, recorded) if c != r]
    assert changed == []

"""Behaviour gate: the verify report must not change.

``golden/verify_all_trials20_seed42.json`` is the output of

    jetframes verify all --trials 20 --seed 42 --json

with each suite's ``wall_time_s`` line removed.  Every other byte of the
current output must equal it, including the failures of criterion 10
(``rbst2.projection_invariant_on_orbits``) and their first counterexample.
Re-record the file only for a change that is meant to alter the report.
"""

import json
import re
from pathlib import Path

from jetframes.cli import main

GOLDEN = Path(__file__).parent / "golden" / "verify_all_trials20_seed42.json"


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

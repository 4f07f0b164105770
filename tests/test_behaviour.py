"""Behaviour gate: every invocation of the CLI corpus keeps its bytes.

``golden/behaviour.json`` is the output of ``tools/behaviour.py``: for each
invocation of its corpus (``gen``, every command that reads documents, the
benchmark's cli-docs round and the error cases), the sha256 of its exit
code, stdout and stderr.  A mismatch names the invocations that moved;
``tools/behaviour.py --show NAME`` prints one of them.  Re-record the file
only for a change that is meant to move them, and name each one that moved.
"""

import json
from pathlib import Path

import behaviour

GOLDEN = Path(__file__).parent / "golden" / "behaviour.json"


def test_every_invocation_matches_its_recorded_digest():
    recorded = json.loads(GOLDEN.read_text())
    current = {name: behaviour.digest(record)
               for name, record in behaviour.records().items()}
    assert sorted(set(current) - set(recorded)) == []  # not recorded
    assert sorted(set(recorded) - set(current)) == []  # no longer run
    moved = [name for name in recorded if current[name] != recorded[name]]
    assert moved == []

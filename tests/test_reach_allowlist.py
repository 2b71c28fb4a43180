"""Static half of the reach-audit gate (``scripts/reach_audit.py``).

The full audit runs every shipped command under a profiler and takes
about a minute, so CI runs it as its own step; this test only checks
that every allowlist entry is well formed, carries a reason and names a
function that still exists, so a rename under ``src/repro`` that strands
an entry fails in the tier-1 suite too.
"""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "reach_audit.py"


def test_allowlist_entries_exist_and_carry_reasons():
    spec = importlib.util.spec_from_file_location("reach_audit", SCRIPT)
    audit = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(audit)
    entries, malformed = audit.read_allowlist()
    assert malformed == []
    assert entries
    defined = set(audit.enumerate_functions().values())
    assert sorted(set(entries) - defined) == []

"""The committed parity digests: every public operation's results, bit for
bit, on the seeded calls of ``tests/parity.py``. A change that moves a
digest on purpose updates ``tests/parity_digests.json`` with
``PYTHONPATH=src python tests/parity.py > tests/parity_digests.json`` and
names the operations and the reason in CHANGES.md."""

import json
import os

import parity

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "parity_digests.json")


def test_parity_digests_are_unchanged():
    # 100 calls per operation, about 4,500 in all, in about 1 s
    with open(DIGESTS) as f:
        committed = json.load(f)
    assert (committed["seed"], committed["calls"]) == (parity.SEED, parity.CALLS)
    now = parity.digests(committed["seed"], committed["calls"])
    moved = sorted(n for n in now.keys() | committed["digests"].keys()
                   if now.get(n) != committed["digests"].get(n))
    assert not moved, f"parity digests moved for {moved}"

"""Golden digests: the saved bytes of both shipped profiles at their default seeds.

Every hash in the system is over canonical bytes, so a change that alters any
saved byte changes what an auditor re-verifies.  A change that means to alter
output updates these digests and says why; a speedup must leave them alone.
"""

from __future__ import annotations

import hashlib

import pytest

from bxhf.cli import main
from bxhf.harness import LEDGER_FILE, REPORT_FILE, WORLD_FILE

GOLDEN = {
    "demo": {
        LEDGER_FILE: "069bc46094cb5283d69dc464230bc334e852f9aa039896364a7ea18bd786877c",
        WORLD_FILE: "36e6cd5cb6b75f8cc5d63071e262a2b0bfc9228f9e96ac997caba40e1186cfcd",
        REPORT_FILE: "94c5c86fee525ed9d10461b508e8ad2f038c229e63fa407c3ad9f9a928118e2b",
    },
    "rare-disease": {
        LEDGER_FILE: "c11e73685d65978157d101cac3e471c742822c5b50d8d8c765360f30ad2fa70d",
        WORLD_FILE: "f95d909c3915c44ac6bb57c6f0559806114184840c48f04e7fb7b4e2c3025340",
        REPORT_FILE: "7c31ca89c593b35188bd88244f0280fb1d1ad90bdf8ad0a011c5344704964f7f",
    },
}


@pytest.mark.parametrize("profile", sorted(GOLDEN))
def test_saved_files_match_golden_digests(tmp_path, capsys, profile):
    scenario = tmp_path / "scenario.bx"
    out = tmp_path / "out"
    assert main(["init", "--out", str(scenario), "--profile", profile]) == 0
    assert main(["run", "--scenario", str(scenario), "--out", str(out)]) == 0
    capsys.readouterr()
    found = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in GOLDEN[profile]}
    assert found == GOLDEN[profile]

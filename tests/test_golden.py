"""The CSVs that every CLI command writes for its shipped config, byte for byte.

The digests were recorded with numpy 2.4.6 and scipy 1.17.1 on x86_64.  Other
versions or machines may round the FFTs and reductions differently in the
last bit, so there the test skips and names what differs.
"""

import hashlib
import platform
from pathlib import Path

import numpy
import pytest
import scipy

from linpot.cli import main

CONFIGS = Path(__file__).parents[1] / "configs"
COMMANDS = {
    "evolve": "linear.cfg",
    "tunnel": "tunnel.cfg",
    "psg": "psg.cfg",
    "spin": "spin.cfg",
}
RECORDED_WITH = {"numpy": "2.4.6", "scipy": "1.17.1", "machine": "x86_64"}
GOLDEN = {
    "evolve": {
        "final_state.csv": "17b0629e06d3fe0cb55c31392d1a992f7efe580102b046487be0816a7b605f85",
        "trajectory.csv": "06eb754fbd356a18491b6e1bf97aad9f885ef8a01ca4aa99589627b5f7551103",
    },
    "tunnel": {
        "potential_profile.csv": "ad115f8e51a14c6a855a2fc4fb527e9c3e3ce377b2d00c892282c36c75fb0c12",
        "scan.csv": "a989066bd31c27506e819cf169f7394ff0a25042533cf35f9e0670fc7ae2e0b4",
    },
    "psg": {
        "psg_report.csv": "7b47c2ded8db78d0645aa84ade26702b72aa0aa561cb2aec7c1e65d1813e63fd",
        "psg_sweep.csv": "b6e2c35192a7055c71c485ea8b3ed8ea1bf953b56ff71bdc91cad4f80204dafb",
    },
    "spin": {
        "spin_report.csv": "c91fad95b92df6dbb76761cbfd7650903e8cfd150588908919e1625ada156daa",
    },
}


def _environment_mismatch() -> str:
    here = {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }
    return ", ".join(
        f"{key} {here[key]} (recorded with {want})"
        for key, want in RECORDED_WITH.items()
        if here[key] != want
    )


def test_every_command_has_digests():
    assert set(GOLDEN) == set(COMMANDS)


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_cli_csvs_match_recorded_digests(command, tmp_path):
    mismatch = _environment_mismatch()
    if mismatch:
        pytest.skip(f"digests recorded in another environment: {mismatch}")
    argv = [command, "--config", str(CONFIGS / COMMANDS[command]), "--out", str(tmp_path)]
    assert main(argv) == 0
    written = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in tmp_path.glob("*.csv")
    }
    assert written == GOLDEN[command]

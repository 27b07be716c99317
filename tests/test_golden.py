"""The CSVs that every CLI command writes for its shipped config, and those
of the packet PSG and of a free evolve for inline configs, byte for byte;
and the run manifest that ``evolve`` and ``tunnel`` write beside them.

The digests were recorded with numpy 2.4.6 and scipy 1.17.1 on x86_64.  Other
versions or machines may round the FFTs and reductions differently in the
last bit, so there the digest tests skip and name what differs.
"""

import hashlib
import json
import platform
from pathlib import Path

import numpy
import pytest
import scipy

import linpot
from linpot.cli import main
from linpot.config import ExperimentConfig

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

# c10's packet case: a long weak capacitor on a sigma = 4 packet
PACKET_PSG_CONFIG = """\
[grid]
x_min = -512.0
x_max = 512.0
n = 2048

[state]
sigma = 4.0

[psg]
v0 = 0.001
length = 100.0
speed = 1.0
"""
PACKET_PSG_GOLDEN = {
    "psg_report.csv": "5a8acb22777cc7b6907150069b602ede4a6485a28214a2f6aa513c56706cbb2e",
    "psg_sweep.csv": "fd36eba5f9f722fcbd40747dc2683802f1cd8a7465ccf6da378a312c020e7c3a",
}

# kind = free: v0 = 0, so the closed-form column takes the zero-shift path
FREE_EVOLVE_CONFIG = """\
[grid]
x_min = -32.0
x_max = 32.0
n = 1024

[state]
x0 = -1.0
p0 = 2.0
sigma = 1.0

[potential]
kind = free

[solver]
dt = 0.001
n_steps = 1000
record_every = 100
"""
FREE_EVOLVE_GOLDEN = {
    "final_state.csv": "cd0deabf921ec7b854d907a55b34739b4c0eaaafe0bb7f5647dea870b8e05a1c",
    "trajectory.csv": "93dfdc6a40877f6181fbe510b638b930560430cd8655cfc5637cdd8ef6eb9c6d",
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


def _skip_in_other_environment():
    mismatch = _environment_mismatch()
    if mismatch:
        pytest.skip(f"digests recorded in another environment: {mismatch}")


def _run(command, config, out):
    assert main([command, "--config", str(config), "--out", str(out)]) == 0
    return out


def _digests(out):
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in out.glob("*.csv")
    }


@pytest.fixture(scope="module")
def shipped(tmp_path_factory):
    """Output directory of a command run on its shipped config, once per
    module for the digests and the manifest alike."""
    outs = {}

    def out(command):
        if command not in outs:
            config = CONFIGS / COMMANDS[command]
            outs[command] = _run(command, config, tmp_path_factory.mktemp(command))
        return outs[command]

    return out


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_cli_csvs_match_recorded_digests(command, shipped):
    _skip_in_other_environment()
    assert _digests(shipped(command)) == GOLDEN[command]


def test_packet_psg_csvs_match_recorded_digests(tmp_path):
    _skip_in_other_environment()
    config = tmp_path / "packet_psg.cfg"
    config.write_text(PACKET_PSG_CONFIG)
    assert _digests(_run("psg", config, tmp_path)) == PACKET_PSG_GOLDEN


def test_free_evolve_csvs_match_recorded_digests(tmp_path):
    _skip_in_other_environment()
    config = tmp_path / "free.cfg"
    config.write_text(FREE_EVOLVE_CONFIG)
    assert _digests(_run("evolve", config, tmp_path)) == FREE_EVOLVE_GOLDEN


def _manifest(command, shipped):
    run = json.loads((shipped(command) / "run.json").read_text())
    cfg = ExperimentConfig.from_file(CONFIGS / COMMANDS[command])
    assert run["config"] == cfg.to_text()
    assert run["config_sha256"] == hashlib.sha256(cfg.to_text().encode()).hexdigest()
    assert run["versions"] == {
        "linpot": linpot.__version__,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    return run, cfg


def test_evolve_manifest_counts_every_step(shipped):
    run, cfg = _manifest("evolve", shipped)
    assert run["state_steps"] == cfg.solver_n_steps
    assert run["transforms"] == 2 * cfg.solver_n_steps
    # linear.cfg has no absorber
    assert (run["absorbed_left"], run["absorbed_right"]) == (0.0, 0.0)


def test_tunnel_manifest_counts_every_row_step(shipped):
    run, cfg = _manifest("tunnel", shipped)
    lines = (shipped("tunnel") / "scan.csv").read_text().splitlines()
    header = lines[1].split(",")
    rows = [dict(zip(header, map(float, line.split(",")))) for line in lines[2:]]
    steps = [round(row["t_measure"] / cfg.solver_dt) for row in rows]
    assert run["state_steps"] == sum(steps)
    # one stack: as many kernel calls as its longest-lived row needs
    assert run["transforms"] == 2 * max(steps)
    assert [r["sigma_at_arrival"] for r in run["rows"]] == [
        row["sigma_at_arrival"] for row in rows
    ]
    for r, row in zip(run["rows"], rows):
        # T and R include what the right and left bands absorbed
        assert 0.0 < r["absorbed_right"] <= row["T"]
        assert 0.0 < r["absorbed_left"] <= row["R"]

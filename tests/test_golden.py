"""The CSVs that every CLI command writes for its shipped config, and those
of the packet PSG and of a free evolve for inline configs, byte for byte;
and the run manifest that each of these commands writes beside them.

The digests were recorded with numpy 2.4.6 and scipy 1.17.1 on x86_64.  Other
versions or machines may round the FFTs and reductions differently in the
last bit, so there the digest tests skip and name what differs.

A digest is re-pinned only for a deliberate change of roundoff, and only
after every value of the old and the new CSV has been compared.  A value
that comes out of a solver run may move by at most 1e-13 * max(1, |value|);
the roundoff of thousands of steps scales with the value.  Any other value
may move by at most 1e-13.  A larger move is a change of results.
"""

import contextlib
import hashlib
import io
import json
import math
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
        "trajectory.csv": "88db3f3e7008e619ad78c7b784955714e67aa920aeb0ac9c3170895bc1e6981c",
    },
    "tunnel": {
        "potential_profile.csv": "ad115f8e51a14c6a855a2fc4fb527e9c3e3ce377b2d00c892282c36c75fb0c12",
        "scan.csv": "0d4dced29e7f15d6cd1aa5d82946686c3fe07a0608c1dba3af9a223dc0ea44dc",
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

# kind = free: v0 = 0, so the closed-form column is the free Gaussian
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
    "trajectory.csv": "3709e7aaad0204e76492aad6262412fe078ad1d2c742f9465b5185779dc9f131",
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
    module for the digests, the manifest and the printed lines alike; what
    the run printed is in the directory's ``stdout.txt``."""
    outs = {}

    def out(command):
        if command not in outs:
            config, path = CONFIGS / COMMANDS[command], tmp_path_factory.mktemp(command)
            with contextlib.redirect_stdout(io.StringIO()) as stdout:
                _run(command, config, path)
            (path / "stdout.txt").write_text(stdout.getvalue())
            outs[command] = path
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


def test_packet_psg_manifest_carries_the_packet_phase(tmp_path):
    config = tmp_path / "packet_psg.cfg"
    config.write_text(PACKET_PSG_CONFIG)
    run = json.loads((_run("psg", config, tmp_path) / "run.json").read_text())
    report = _csv_rows(tmp_path / "psg_report.csv")
    assert run["packet_phase"] == report[0]["packet_phase"]


def test_free_evolve_csvs_match_recorded_digests(tmp_path):
    _skip_in_other_environment()
    config = tmp_path / "free.cfg"
    config.write_text(FREE_EVOLVE_CONFIG)
    assert _digests(_run("evolve", config, tmp_path)) == FREE_EVOLVE_GOLDEN


def _csv_rows(path):
    lines = path.read_text().splitlines()
    header = lines[1].split(",")
    return [dict(zip(header, map(float, line.split(",")))) for line in lines[2:]]


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
    snapshots = len(_csv_rows(shipped("evolve") / "trajectory.csv"))
    assert run["state_steps"] == cfg.solver_n_steps
    # two per step, one per snapshot and the kick guard's (linear.cfg is linear)
    assert run["transforms"] == 2 * cfg.solver_n_steps + snapshots + 1
    # linear.cfg has no absorber, and its packet stays clear of the edges
    assert (run["absorbed_left"], run["absorbed_right"]) == (0.0, 0.0)
    assert run["warnings"] == []


def test_evolve_manifest_reports_drift_and_no_boundary_contact(shipped):
    run, _ = _manifest("evolve", shipped)
    assert run["boundary_time"] is None
    assert 0.0 <= run["max_norm_drift"] < 1e-12


def test_tunnel_manifest_counts_every_row_step(shipped):
    run, cfg = _manifest("tunnel", shipped)
    rows = _csv_rows(shipped("tunnel") / "scan.csv")
    steps = [round(row["t_measure"] / cfg.solver_dt) for row in rows]
    assert run["state_steps"] == sum(steps)
    # one stack: the step transforms of its longest-lived row, and one per
    # row and snapshot, the launch included
    snapshots = sum(s // cfg.solver_record_every + 1 for s in steps)
    assert run["transforms"] == 2 * max(steps) + snapshots
    assert [r["sigma_at_arrival"] for r in run["rows"]] == [
        row["sigma_at_arrival"] for row in rows
    ]
    for r, row in zip(run["rows"], rows):
        # T and R include what the right and left bands absorbed
        assert 0.0 < r["absorbed_right"] <= row["T"]
        assert 0.0 < r["absorbed_left"] <= row["R"]


def test_tunnel_manifest_reports_seconds(shipped):
    run, _ = _manifest("tunnel", shipped)
    assert sorted(run["seconds"]) == ["solve", "write"]
    assert all(s >= 0.0 for s in run["seconds"].values())


def test_tunnel_verdict_reports_raw_decreases_below_the_floor(shipped):
    # the shipped delay scan's rows all tend to one T, and each stops within
    # the stop budget of it: its raw decreases are below the scan's
    # measurement floor, so the verdict is non-decreasing and they are
    # reported as a count and the largest
    lines = (shipped("tunnel") / "stdout.txt").read_text().splitlines()
    t = [row["T"] for row in _csv_rows(shipped("tunnel") / "scan.csv")]
    drops = [t0 - t1 for t0, t1 in zip(t, t[1:]) if t1 < t0]
    assert 0.0 < max(drops) < linpot.tunneling.SCAN_SLACK
    assert not any("monotonicity violation" in line for line in lines)
    assert lines[-1] == (
        "tunnel: transmission non-decreasing in width; "
        f"{len(drops)} raw decreases below the 1e-05 floor, largest {max(drops):.1e}"
    )
    if not _environment_mismatch():
        assert (len(drops), f"{max(drops):.1e}") == (3, "7.0e-10")


def test_psg_manifest_holds_the_report_phases(shipped):
    run, _ = _manifest("psg", shipped)
    (report,) = _csv_rows(shipped("psg") / "psg_report.csv")
    assert run["closed_form_phase"] == report["closed_form_phase"]
    assert run["composed_phase"] == report["composed_phase"]
    # psg.cfg has no [state]: the CSV's NaN is null in the manifest
    assert run["packet_phase"] is None


def test_spin_manifest_holds_the_control_and_pi_fidelities(shipped):
    run, _ = _manifest("spin", shipped)
    rows = _csv_rows(shipped("spin") / "spin_report.csv")
    assert run["control_fidelity"] == rows[0]["flip_fidelity"]
    (at_pi,) = [r for r in rows if r["target_phase"] == pytest.approx(math.pi)]
    assert run["fidelity_at_pi"] == at_pi["flip_fidelity"]

import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from linpot import PsgGeometry, cli, errors, psg_phase, si_units, tunneling, verify
from linpot.cli import EXIT_VALIDATION, main

CONFIGS = Path(__file__).parents[1] / "configs"
SRC = Path(__file__).parents[1] / "src"

FREE_CFG = """\
[grid]
x_min = -32.0
x_max = 32.0
n = 1024

[state]
x0 = 0.0
p0 = 0.0
sigma = 1.0

[potential]
kind = free

[solver]
dt = 0.001
n_steps = 1000
record_every = 200
"""

LINEAR_CFG = FREE_CFG.replace("kind = free", "kind = linear\nv0 = 1.5")
ZERO_LINEAR_CFG = FREE_CFG.replace("kind = free", "kind = linear\nv0 = 0.0")

# the closed-form benchmark's evolve shape: n = 2048, a snapshot every step
SNAPSHOT_CFG = """\
[grid]
x_min = -32.0
x_max = 32.0
n = 2048

[state]
x0 = -2.0
p0 = 3.0
sigma = 1.0

[potential]
kind = linear
v0 = 1.5

[solver]
dt = 0.0001
n_steps = {n_steps}
record_every = 1
"""

TUNNEL_CFG = """\
[grid]
x_min = -128.0
x_max = 128.0
n = 2048

[state]
x0 = 0.0
p0 = 4.0
sigma = 1.0

[potential]
kind = barrier
x_start = 36.0
slope = 8.0
peak_height = 11.2

[solver]
dt = 0.002
n_steps = 40000
record_every = 250
absorber = on
absorber_width_fraction = 0.2
absorber_strength = 12.0

[scan]
delays = 0.0,2.0
"""

PSG_CFG = """\
[psg]
v0 = 2.1708037636748028
length = 1.0
speed = 1.0
"""

SPIN_CFG = """\
[grid]
x_min = -64.0
x_max = 64.0
n = 1024

[state]
x0 = 0.0
p0 = 0.0
sigma = 2.5

[sg]
coupling = 1.0
duration = 1.0
"""


# (command, config, misspelled key): one per command that reads a config
MISSPELLED = [
    ("evolve", LINEAR_CFG.replace("[solver]\n", "[solver]\nn_step = 10\n"), "[solver] n_step"),
    ("tunnel", TUNNEL_CFG.replace("[grid]\n", "[grid]\nxmin = -5.0\n"), "[grid] xmin"),
    ("psg", PSG_CFG.replace("[psg]\n", "[psg]\nlenght = 2.0\n"), "[psg] lenght"),
    ("spin", SPIN_CFG.replace("[sg]\n", "[sg]\naxis = -1\n"), "[sg] axis"),
]


class LaterError(errors.LinpotError):
    """A package error that no exit-code clause names."""


PACKAGE_ERRORS = [
    obj
    for obj in vars(errors).values()
    if isinstance(obj, type) and issubclass(obj, errors.LinpotError)
] + [LaterError]
EXIT_CODES = {
    errors.ConfigError: 1,
    errors.PreconditionError: 3,
    errors.CoverageError: 3,
    errors.NormalizationError: 3,
}


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run_cli(argv):
    """``linpot`` in a fresh interpreter, so warnings and tracebacks reach
    its stderr as they do outside pytest."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "linpot.cli", *argv], env=env, capture_output=True, text=True
    )


def read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# schema:")
    header = lines[1].split(",")
    rows = [
        dict(zip(header, (float(v) for v in line.split(","))))
        for line in lines[2:]
    ]
    return header, rows


class TestEvolve:
    def test_free_width_column_matches_closed_form(self, tmp_path):
        cfg = write(tmp_path, "free.cfg", FREE_CFG)
        out = tmp_path / "out"
        assert main(["evolve", "--config", cfg, "--out", str(out)]) == 0
        header, rows = read_csv(out / "trajectory.csv")
        assert header == ["t", "mean_x", "mean_p", "width", "norm", "l2_vs_analytic"]
        for row in rows:
            expected = math.sqrt(1.0 + row["t"] ** 2)
            assert row["width"] == pytest.approx(expected, rel=1e-9)

    def test_linear_l2_column(self, tmp_path):
        cfg = write(tmp_path, "lin.cfg", LINEAR_CFG)
        out = tmp_path / "out"
        assert main(["evolve", "--config", cfg, "--out", str(out)]) == 0
        _, rows = read_csv(out / "trajectory.csv")
        assert all(row["l2_vs_analytic"] <= 1e-7 for row in rows)
        (out / "final_state.csv").exists()

    def test_zero_slope_bit_identical_to_free(self, tmp_path):
        free_out = tmp_path / "free_out"
        zero_out = tmp_path / "zero_out"
        main(["evolve", "--config", write(tmp_path, "f.cfg", FREE_CFG), "--out", str(free_out)])
        main(["evolve", "--config", write(tmp_path, "z.cfg", ZERO_LINEAR_CFG), "--out", str(zero_out)])
        a = (free_out / "trajectory.csv").read_text()
        b = (zero_out / "trajectory.csv").read_text()
        assert a == b
        assert (free_out / "final_state.csv").read_text() == (
            zero_out / "final_state.csv"
        ).read_text()

    def test_deterministic_output(self, tmp_path):
        cfg = write(tmp_path, "lin.cfg", LINEAR_CFG)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        main(["evolve", "--config", cfg, "--out", str(out1)])
        main(["evolve", "--config", cfg, "--out", str(out2)])
        assert (out1 / "trajectory.csv").read_bytes() == (
            out2 / "trajectory.csv"
        ).read_bytes()

    def test_memory_does_not_grow_with_snapshots(self, tmp_path):
        # each snapshot is compared with the closed form as it arrives, so
        # 1 000 snapshots of 2048 points (32 MB if kept) cost what 100 do
        def run(n_steps):
            text = SNAPSHOT_CFG.format(n_steps=n_steps)
            cfg = write(tmp_path, f"{n_steps}.cfg", text)
            return main(["evolve", "--config", cfg, "--out", str(tmp_path / "o")])

        assert run(100) == 0  # FFT plans and grid caches outside the traced runs
        peaks = {}
        for n_steps in (100, 1000):
            tracemalloc.start()
            try:
                assert run(n_steps) == 0
                peaks[n_steps] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[1000] - peaks[100] < 2_000_000, peaks

    def test_transforms_counts_every_kernel_call(self, tmp_path, kernel_calls):
        out = tmp_path / "out"
        cfg = write(tmp_path, "linear.cfg", LINEAR_CFG)
        assert main(["evolve", "--config", cfg, "--out", str(out)]) == 0
        assert json.loads((out / "run.json").read_text())["transforms"] == kernel_calls["n"]

    @pytest.mark.parametrize(
        "dt, steps, total", [(2e-4, 2500, 0.5), (3e-4, 1667, 0.5001)], ids=["exact", "rounded"]
    )
    def test_dt_flag_keeps_total_time_to_half_a_step(self, tmp_path, dt, steps, total):
        # linear.cfg runs 5000 steps of 1e-4: --dt keeps round(0.5 / dt) steps
        out = tmp_path / "out"
        argv = ["evolve", "--config", str(CONFIGS / "linear.cfg"), "--out", str(out)]
        assert main([*argv, "--dt", repr(dt)]) == 0
        assert json.loads((out / "run.json").read_text())["state_steps"] == steps
        _, rows = read_csv(out / "trajectory.csv")
        assert rows[-1]["t"] == pytest.approx(total, abs=1e-12)

    def test_barrier_has_no_analytic_column(self, tmp_path):
        # no closed form for a barrier, so every l2_vs_analytic entry is nan
        barrier = "kind = barrier\nx_start = 4.0\nslope = 2.0\npeak_height = 3.0"
        text = (
            FREE_CFG.replace("n = 1024", "n = 256")
            .replace("kind = free", barrier)
            .replace("n_steps = 1000", "n_steps = 300")
            .replace("record_every = 200", "record_every = 100")
        )
        out = tmp_path / "out"
        assert main(["evolve", "--config", write(tmp_path, "b.cfg", text), "--out", str(out)]) == 0
        _, rows = read_csv(out / "trajectory.csv")
        assert len(rows) == 4
        assert all(math.isnan(row["l2_vs_analytic"]) for row in rows)

    def test_bad_config_exit_code(self, tmp_path):
        cfg = write(tmp_path, "bad.cfg", "[grid]\nn = 1000\n")
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize(
        "text, extra, key",
        [
            (LINEAR_CFG.replace("dt = 0.001", "dt = inf"), [], "[solver] dt"),
            (LINEAR_CFG.replace("sigma = 1.0", "sigma = inf"), [], "[state] sigma"),
            (LINEAR_CFG, ["--dt", "inf"], "--dt"),
            (LINEAR_CFG, ["--dt", "nan"], "--dt"),
            (LINEAR_CFG, ["--dt=-inf"], "--dt"),
        ],
        ids=[
            "config-dt-inf",
            "config-sigma-inf",
            "flag-dt-inf",
            "flag-dt-nan",
            "flag-dt-minus-inf",
        ],
    )
    def test_non_finite_value_is_a_keyed_config_error(
        self, tmp_path, capsys, text, extra, key
    ):
        cfg = write(tmp_path, "nonfinite.cfg", text)
        argv = ["evolve", "--config", cfg, "--out", str(tmp_path / "o"), *extra]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: {key}: ")

    def test_precondition_exit_code(self, tmp_path):
        narrow = FREE_CFG.replace("x_min = -32.0", "x_min = -2.0").replace(
            "x_max = 32.0", "x_max = 2.0"
        ).replace("n = 1024", "n = 64")
        cfg = write(tmp_path, "narrow.cfg", narrow)
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "o")]) == 3

    def test_packet_drifting_off_the_grid_is_reported_not_refused(self, tmp_path):
        # over 8 time units the packet falls to x = -48, past the grid's
        # left end: the solver warns and wraps, and the pointwise closed form
        # does not, so the column shows the wrap error
        text = LINEAR_CFG.replace("n_steps = 1000", "n_steps = 8000").replace(
            "record_every = 200", "record_every = 1000"
        )
        out = tmp_path / "out"
        with pytest.warns(errors.BoundaryContaminationWarning, match="non-absorbing boundary"):
            code = main(["evolve", "--config", write(tmp_path, "d.cfg", text), "--out", str(out)])
        assert code == 0
        _, rows = read_csv(out / "trajectory.csv")
        assert rows[-1]["t"] == pytest.approx(8.0)
        assert rows[-1]["l2_vs_analytic"] > 1e-7
        # the manifest says so too
        assert json.loads((out / "run.json").read_text())["warnings"] == [
            {
                "category": "BoundaryContaminationWarning",
                "message": "state reached a non-absorbing boundary at t=4.0",
            }
        ]

    def test_warnings_reach_stderr_and_the_manifest(self, tmp_path):
        # sampled 7 sigma from the left edge: sample_gaussian warns, and the
        # solver once the packet spreads into the edge band.  A fresh
        # interpreter, so the warnings go to stderr as they do outside pytest.
        text = FREE_CFG.replace("x0 = 0.0", "x0 = -25.0")
        out = tmp_path / "out"
        done = run_cli(["evolve", "--config", write(tmp_path, "w.cfg", text), "--out", str(out)])
        assert done.returncode == 0, done.stderr
        raised = json.loads((out / "run.json").read_text())["warnings"]
        assert raised == [
            {
                "category": "UserWarning",
                "message": "grid covers only 7.00 sigma around x0; norm error may exceed 1e-10",
            },
            {
                "category": "BoundaryContaminationWarning",
                "message": "state reached a non-absorbing boundary at t=0.2",
            },
        ]
        # each on stderr as warnings shows it, at the command's line
        shown = [line for line in done.stderr.splitlines() if "Warning: " in line]
        assert len(shown) == 2
        for line, w in zip(shown, raised):
            assert line.startswith(str(SRC / "linpot" / "cli.py:"))
            assert line.endswith(f": {w['category']}: {w['message']}")

    def test_manifest_reports_the_drift_run_boundary_time(self, tmp_path):
        # the drift run above: its first edge-band contact is the warning's
        text = LINEAR_CFG.replace("n_steps = 1000", "n_steps = 8000").replace(
            "record_every = 200", "record_every = 1000"
        )
        out = tmp_path / "out"
        with pytest.warns(errors.BoundaryContaminationWarning, match="at t=4.0$"):
            main(["evolve", "--config", write(tmp_path, "d.cfg", text), "--out", str(out)])
        run = json.loads((out / "run.json").read_text())
        assert run["boundary_time"] == 4.0
        # the wrapped state is still unitary: 8 000 steps of roundoff
        # (measured 1.5e-12)
        assert 0.0 < run["max_norm_drift"] < 1e-11

    def test_manifest_reports_seconds_per_layer(self, tmp_path):
        out = tmp_path / "out"
        cfg = write(tmp_path, "lin.cfg", LINEAR_CFG)
        assert main(["evolve", "--config", cfg, "--out", str(out)]) == 0
        seconds = json.loads((out / "run.json").read_text())["seconds"]
        assert sorted(seconds) == ["reference", "solve", "write"]
        assert all(s >= 0.0 for s in seconds.values())
        # the reference runs inside the solver's on_snapshot
        assert seconds["reference"] <= seconds["solve"]

    def test_kick_leaving_the_momentum_grid_exits_precondition(self, tmp_path, capsys):
        # a kick of v0 * T = 30 on a momentum grid that ends at +-25
        text = (
            LINEAR_CFG.replace("x_min = -32.0", "x_min = -16.0")
            .replace("x_max = 32.0", "x_max = 16.0")
            .replace("n = 1024", "n = 256")
            .replace("v0 = 1.5", "v0 = 300.0")
            .replace("dt = 0.001", "dt = 0.0001")
        )
        argv = ["evolve", "--config", write(tmp_path, "k.cfg", text), "--out", str(tmp_path / "o")]
        assert main(argv) == 3
        assert "momentum kick 30.0" in capsys.readouterr().err


class TestWriteCsv:
    # what the rows held before they were written from columns: numpy
    # scalars, each passed through repr(float(v)); float32 and int values
    # too, which the writer takes as well
    VALUES = [
        np.float64(-0.0), np.float64(np.nan), np.float64(np.inf), np.float64(-np.inf),
        np.float64(5e-324), np.float64(1e22), np.float64(0.1) + np.float64(0.2),
        np.float32(0.1), np.float32(-3.4e38), np.float32(1e-45), 7, np.int64(-3),
        np.int64(2**53 + 1),
    ]

    def test_columns_write_what_scalars_wrote(self, tmp_path):
        scalar_rows = [self.VALUES, self.VALUES[::-1]]
        want = "".join(",".join(repr(float(v)) for v in row) + "\n" for row in scalar_rows)
        # the same values as columns, each converted as evolve converts them
        columns = [np.array([v, w]) for v, w in zip(*scalar_rows)]
        column_rows = zip(*(c.tolist() for c in columns))
        for name, rows in (("scalars", scalar_rows), ("columns", column_rows)):
            cli._write_csv(tmp_path / name, "test-v1", ("a", "b"), rows)
            assert (tmp_path / name).read_text() == "# schema: test-v1\na,b\n" + want


class TestTunnel:
    def test_scan_outputs(self, tmp_path):
        cfg = write(tmp_path, "tun.cfg", TUNNEL_CFG)
        out = tmp_path / "out"
        assert main(["tunnel", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "scan.csv").read_text().startswith("# schema: width-scan-v1\n")
        header, rows = read_csv(out / "scan.csv")
        assert header == ["sigma_at_arrival", "T", "R", "residual", "t_measure"]
        assert len(rows) == 2
        assert rows[1]["sigma_at_arrival"] > rows[0]["sigma_at_arrival"]
        _, profile = read_csv(out / "potential_profile.csv")
        peak = max(r["V"] for r in profile)
        # grid-sampled profile: the true apex sits between grid points
        assert 11.2 * 0.95 <= peak <= 11.2

    def test_sigmas_scan_passes_sigma_list(self, tmp_path, monkeypatch):
        # the config gives sigmas, so the scan gets them and no delays
        seen = {}

        def fake_scan(**kwargs):
            seen.update(kwargs)
            # a stand-in row with the fields the command reads
            row = SimpleNamespace(
                sigma_at_arrival=1.0,
                T=0.25,
                R=0.75,
                residual=0.0,
                t_measure=10.0,
                absorbed_left=0.0,
                absorbed_right=0.0,
                stop_bound=0.0,
                trajectory=SimpleNamespace(state_steps=0, transforms=0),
            )
            return tunneling.ScanResult((row,))

        monkeypatch.setattr(tunneling, "width_scan", fake_scan)
        text = TUNNEL_CFG.replace("delays = 0.0,2.0", "sigmas = 1.0,2.0")
        out = tmp_path / "out"
        assert main(["tunnel", "--config", write(tmp_path, "s.cfg", text), "--out", str(out)]) == 0
        assert seen["sigma_list"] == (1.0, 2.0)
        assert "delay_list" not in seen
        _, rows = read_csv(out / "scan.csv")
        assert [row["T"] for row in rows] == [0.25]

    def test_wrong_potential_kind(self, tmp_path):
        cfg = write(tmp_path, "t.cfg", TUNNEL_CFG.replace("kind = barrier", "kind = free"))
        assert main(["tunnel", "--config", cfg, "--out", str(tmp_path / "o")]) == 1


class TestPsg:
    def test_pi_geometry_report(self, tmp_path):
        cfg = write(tmp_path, "psg.cfg", PSG_CFG)
        out = tmp_path / "out"
        assert main(["psg", "--config", cfg, "--out", str(out)]) == 0
        _, rows = read_csv(out / "psg_report.csv")
        assert rows[0]["closed_form_phase"] == pytest.approx(-math.pi, abs=1e-10)
        assert rows[0]["composed_phase"] == pytest.approx(-math.pi, abs=1e-10)
        assert rows[0]["abs_difference"] < 1e-10
        _, sweep = read_csv(out / "psg_sweep.csv")
        assert len(sweep) == 21
        # quadratic: phase(2 v0) = 4 phase(v0)
        mid = sweep[10]["phase"]
        end = sweep[20]["phase"]
        assert end == pytest.approx(4 * mid, rel=1e-12)

    def test_si_phase_takes_the_units_mass(self, tmp_path):
        # [psg] mass defaulted to 1 kg beside the electron mass in [units]:
        # the report gave -6.3e-39 rad
        m_e = 9.1093837015e-31
        text = (
            f"[units]\nsystem = si\nmass = {m_e!r}\n\n"
            "[psg]\nv0 = 1e-24\nlength = 0.001\nspeed = 100000.0\n"
        )
        out = tmp_path / "out"
        assert main(["psg", "--config", write(tmp_path, "si.cfg", text), "--out", str(out)]) == 0
        _, rows = read_csv(out / "psg_report.csv")
        want = psg_phase(PsgGeometry(1e-24, 1e-3, 1e5, m_e), si_units(m_e))
        assert rows[0]["closed_form_phase"] == want == pytest.approx(-6.94e-9, rel=1e-3)
        assert rows[0]["composed_phase"] == pytest.approx(want, rel=1e-10)

    def test_units_mass_halves_the_phase(self, tmp_path):
        text = (CONFIGS / "psg.cfg").read_text().replace(
            "system = natural\n", "system = natural\nmass = 2.0\n"
        )
        out = tmp_path / "out"
        assert main(["psg", "--config", write(tmp_path, "m2.cfg", text), "--out", str(out)]) == 0
        _, rows = read_csv(out / "psg_report.csv")
        assert rows[0]["closed_form_phase"] == pytest.approx(-math.pi / 2, rel=1e-12)
        assert rows[0]["composed_phase"] == pytest.approx(-math.pi / 2, rel=1e-10)

    def test_missing_section(self, tmp_path):
        cfg = write(tmp_path, "empty.cfg", "")
        assert main(["psg", "--config", cfg, "--out", str(tmp_path / "o")]) == 1

    def test_packet_run_guard_and_override(self, tmp_path):
        # a wide packet violates the narrow-beam precondition (L/width < 20):
        # exit 3 by default, composed anyway under --override-preconditions
        text = PSG_CFG + "\n[state]\nx0 = 0.0\np0 = 0.0\nsigma = 1.0\n"
        cfg = write(tmp_path, "psg_state.cfg", text)
        out = tmp_path / "out"
        assert main(["psg", "--config", cfg, "--out", str(out)]) == 3
        assert (
            main(
                [
                    "psg",
                    "--config",
                    cfg,
                    "--out",
                    str(out),
                    "--override-preconditions",
                ]
            )
            == 0
        )
        _, rows = read_csv(out / "psg_report.csv")
        # written on the closed form's branch: at -pi, the branch cut of the
        # raw phase, roundoff cannot move it by 2 pi (c10's 1e-4 rad)
        row = rows[0]
        assert abs(row["packet_phase"] - row["closed_form_phase"]) <= 1e-4


class TestSpin:
    def test_gate_report(self, tmp_path):
        cfg = write(tmp_path, "spin.cfg", SPIN_CFG)
        out = tmp_path / "out"
        assert main(["spin", "--config", cfg, "--out", str(out)]) == 0
        _, rows = read_csv(out / "spin_report.csv")
        # first row is the PSG-removed control
        assert rows[0]["flip_fidelity"] == pytest.approx(0.0, abs=1e-9)
        pi_rows = [r for r in rows if abs(r["target_phase"] - math.pi) < 1e-12]
        assert pi_rows and pi_rows[0]["flip_fidelity"] == pytest.approx(1.0, abs=1e-9)


class TestVerifyCommand:
    def test_subset_runs_and_reports(self, tmp_path):
        out = tmp_path / "out"
        code = main(["verify", "--only", "c02,c06", "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "verify_summary.json").read_text())
        assert summary["c02"]["passed"] is True
        assert summary["c06"]["passed"] is True
        assert "c13" not in summary

    def test_manifest_records_versions_checks_and_seconds(self, tmp_path):
        out = tmp_path / "out"
        assert main(["verify", "--only", "c02", "--out", str(out)]) == 0
        run = json.loads((out / "run.json").read_text())
        summary = json.loads((out / "verify_summary.json").read_text())
        assert set(run["versions"]) == {"linpot", "numpy", "scipy"}
        assert "config" not in run
        assert run["checks"] == ["c02"]
        assert run["seconds"] == {"c02": summary["c02"]["seconds"]}
        assert run["total_seconds"] >= run["seconds"]["c02"]

    def test_unknown_check_name_rejected(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["verify", "--only", "c02,c99,c13", "--out", str(out)])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "c13, c99" in err
        # rejected before any check ran or any summary was written
        assert not out.exists()

    @pytest.mark.parametrize("names", [",", ""])
    def test_only_without_names_rejected(self, tmp_path, capsys, names):
        out = tmp_path / "out"
        assert main(["verify", "--only", names, "--out", str(out)]) == EXIT_VALIDATION
        assert "no check names given" in capsys.readouterr().err
        assert not out.exists()

    def test_full_run_ends_with_c13(self, tmp_path, capsys, monkeypatch):
        # c13 is built in verify, from the checks' summed seconds; stub
        # checks keep the full run fast
        gates = (verify.Gate("stub", 0.0, "<=", 1.0),)
        stubs = [
            (name, lambda name=name: verify.CheckResult(name, gates)) for name, _ in verify.CHECKS
        ]
        monkeypatch.setattr(verify, "CHECKS", stubs)
        out = tmp_path / "out"
        assert main(["verify", "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-2].startswith("c13 PASS [total_s < 600.0] total_s=")
        summary = json.loads((out / "verify_summary.json").read_text())
        assert set(summary) == {name for name, _ in stubs} | {"c13"}
        assert summary["c13"]["passed"] is True
        # one criterion string, on stdout and in the JSON, from c13's one gate
        assert summary["c13"]["criterion"] == "total_s < 600.0"
        assert set(summary["c13"]["gates"]) == {"total_s"}
        gate = summary["c13"]["gates"]["total_s"]
        assert (gate["op"], gate["bound"]) == ("<", 600.0)
        assert gate["margin"] == pytest.approx(gate["value"] / 600.0)

    def test_failing_gate_exits_numerical_with_its_margin(self, tmp_path, capsys, monkeypatch):
        def stub():
            gates = (
                verify.Gate("flag", np.bool_(True), "==", True),
                verify.Gate("max_l2", 3e-12, "<=", 1e-12),
            )
            return verify.CheckResult("c02", gates, {"draws": np.int64(100)})

        monkeypatch.setattr(verify, "CHECKS", [("c02", stub)])
        out = tmp_path / "out"
        assert main(["verify", "--only", "c02", "--out", str(out)]) == cli.EXIT_NUMERICAL
        assert capsys.readouterr().out.startswith("c02 FAIL [flag == True; max_l2 <= 1e-12]")
        summary = json.loads((out / "verify_summary.json").read_text())["c02"]
        assert summary["passed"] is False
        # numpy scalars are written as plain JSON values
        flag = summary["gates"]["flag"]
        assert flag == {"value": True, "op": "==", "bound": True, "margin": None}
        assert summary["info"] == {"draws": 100}
        failing = summary["gates"]["max_l2"]
        assert (failing["value"], failing["op"], failing["bound"]) == (3e-12, "<=", 1e-12)
        assert failing["margin"] == pytest.approx(3.0)


class TestOutputs:
    """A command computes; main writes its files and run.json only once it
    has returned."""

    def test_failed_scan_leaves_no_output_directory(self, tmp_path, capsys):
        # the barrier profile was written before the scan ran, so a scan
        # that failed left a directory holding only potential_profile.csv
        cfg = write(tmp_path, "t.cfg", TUNNEL_CFG.replace("absorber = on", "absorber = off"))
        assert main(["tunnel", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        assert "absorbing boundary" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "command, text", [("psg", PSG_CFG), ("spin", SPIN_CFG)], ids=["psg", "spin"]
    )
    def test_manifest_reports_write_seconds(self, tmp_path, command, text):
        # every command that writes a CSV times its writes
        out = tmp_path / "out"
        assert main([command, "--config", write(tmp_path, "c.cfg", text), "--out", str(out)]) == 0
        run = json.loads((out / "run.json").read_text())
        assert list(run["seconds"]) == ["write"]
        assert run["seconds"]["write"] >= 0.0

    def test_summary_ends_with_a_newline(self, tmp_path):
        # both JSON files go through one writer
        out = tmp_path / "out"
        assert main(["verify", "--only", "c02", "--out", str(out)]) == 0
        assert (out / "verify_summary.json").read_text().endswith("}\n")
        assert (out / "run.json").read_text().endswith("}\n")


class TestExitCodes:
    @pytest.mark.parametrize("command, text, key", MISSPELLED, ids=[c for c, _, _ in MISSPELLED])
    def test_misspelled_key_is_a_keyed_config_error(self, tmp_path, capsys, command, text, key):
        cfg = write(tmp_path, "typo.cfg", text)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {key}: ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "command, text, key",
        [
            ("tunnel", (CONFIGS / "tunnel.cfg").read_text().replace("peak_height = 11.2\n", ""),
             "peak_height"),
            ("evolve", LINEAR_CFG.replace("v0 = 1.5\n", ""), "v0"),
        ],
        ids=["tunnel-peak_height", "evolve-v0"],
    )
    def test_missing_potential_key_exits_before_any_step(
        self, tmp_path, capsys, monkeypatch, command, text, key
    ):
        # tunnel.cfg without peak_height stepped a barrier of height 1.0 for
        # 40000 steps and exited 2; kind = linear without v0 ran a free packet
        def stepped(*args, **kwargs):
            raise AssertionError("stepped")

        monkeypatch.setattr(tunneling, "width_scan", stepped)
        monkeypatch.setattr(cli.oracle, "split_step_evolve", stepped)
        cfg = write(tmp_path, "missing.cfg", text)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith(f"error: [potential] {key}: {key} is required")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("case", ["missing-config", "out-is-a-file"])
    def test_file_errors_exit_validation_without_a_traceback(self, tmp_path, case):
        # FileNotFoundError from the config's open and FileExistsError from
        # --out's mkdir went uncaught: exit 1 only as Python's, with a traceback
        cfg, out = write(tmp_path, "psg.cfg", PSG_CFG), tmp_path / "out"
        if case == "missing-config":
            cfg = str(tmp_path / "missing.cfg")
        else:
            out.write_text("")
        done = run_cli(["psg", "--config", cfg, "--out", str(out)])
        assert "Traceback" not in done.stderr, "no traceback on stderr"
        assert done.returncode == EXIT_VALIDATION
        assert done.stderr.startswith("error: [Errno ")
        assert len(done.stderr.splitlines()) == 1
        assert done.stdout == ""

    @pytest.mark.parametrize("cls", PACKAGE_ERRORS, ids=lambda cls: cls.__name__)
    def test_every_package_error_has_an_exit_code(self, capsys, monkeypatch, cls):
        # validation 1 and precondition 3 by name; every other package
        # error, one added later included, is a numerical failure
        def fail(args, cfg):
            raise cls("stub failure")

        monkeypatch.setitem(cli._COMMANDS, "verify", fail)
        assert main(["verify"]) == EXIT_CODES.get(cls, 2)
        assert "stub failure" in capsys.readouterr().err


class TestFlags:
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["verify", "--dt", "1"], "--dt 1"),
            (["psg", "--config", "x.cfg", "--dt", "1e9"], "--dt 1e9"),
            (["spin", "--config", "x.cfg", "--dt", "1"], "--dt 1"),
            (["evolve", "--config", "x.cfg", "--override-preconditions"], "--override-"),
            (["tunnel", "--config", "x.cfg", "--override-preconditions"], "--override-"),
            (["verify", "--override-preconditions"], "--override-"),
        ],
        ids=[
            "verify-dt",
            "psg-dt",
            "spin-dt",
            "evolve-override",
            "tunnel-override",
            "verify-override",
        ],
    )
    def test_flag_the_command_does_not_read_is_rejected(self, capsys, argv, flag):
        # refused before any config is read, with the validation exit, not
        # the numerical-failure code argparse would use
        with pytest.raises(SystemExit) as exc_info:
            main(argv)
        assert exc_info.value.code == EXIT_VALIDATION
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["evolve"], "required: --config"),
            (["tunnel", "--config", "x.cfg", "--dt", "abc"], "invalid float value"),
        ],
        ids=["missing-config", "bad-dt"],
    )
    def test_subcommand_usage_error_exits_validation(self, capsys, argv, message):
        # a subcommand's own parser reports these, with the same exit
        with pytest.raises(SystemExit) as exc_info:
            main(argv)
        assert exc_info.value.code == EXIT_VALIDATION
        assert message in capsys.readouterr().err

"""Acceptance suite: every numbered criterion at its stated tolerance.

Each test delegates to the corresponding check in :mod:`linpot.verify` (the
same code ``linpot verify`` runs), asserts it passed, and prints one
PASS/FAIL line with each gate's value and margin.  The final test asserts
the whole suite stayed inside the desk-scale runtime budget; run the module
in order (plain ``pytest tests/test_acceptance.py``) so the recorded
durations cover all twelve checks, otherwise it re-runs what is missing.
"""

import pytest

from linpot import verify

_RECORDED: dict = {}


def _run(name: str) -> verify.CheckResult:
    result = verify.run_check(name)
    _RECORDED[name] = result
    print(result.summary_line())
    names = [gate.name for gate in result.gates]
    assert names and len(set(names)) == len(names), names
    assert result.passed, result.summary_line()
    return result


def test_c01_analytic_vs_oracle_with_convergence_order():
    # a stall fails c01 whatever its slope, so it is a gate of its own
    result = _run("c01")
    gates = {gate.name: gate for gate in result.gates}
    assert gates["stall"].value is False
    # the worst draw is off the closed form by the Strang phase
    # v0^2 T dt^2 / 24 alone, so its L2 is that phase to within shape_l2
    max_l2 = gates["max_l2"].value
    assert abs(result.info["phase_err"]) <= 1e-3 * max_l2
    assert result.info["shape_l2"] <= 1e-2 * max_l2


def test_c02_ordering_equivalence():
    _run("c02")


def test_c03_ehrenfest_classical_kinematics():
    _run("c03")


def test_c04_width_invariance_across_slopes():
    _run("c04")


def test_c05_probability_density_shift_law():
    _run("c05")


def test_c06_wkb_anchor_and_quadrature():
    _run("c06")


def test_c07_blocked_and_over_barrier_transmission():
    _run("c07")


def test_c08_animation_scenario():
    _run("c08")


def test_c09_width_scan_monotonicity():
    _run("c09")


def test_c10_psg_closed_form_vs_composition():
    _run("c10")


def test_c11_stern_gerlach_outcome():
    _run("c11")


def test_c12_spin_flip_gate():
    _run("c12")


def test_c13_runtime_budget():
    for name, _ in verify.CHECKS:
        if name not in _RECORDED:
            _RECORDED[name] = verify.run_check(name)
    result = verify._c13_runtime_budget(list(_RECORDED.values()))
    print(result.summary_line())
    assert result.passed, result.summary_line()
    assert all(r.passed for r in _RECORDED.values())

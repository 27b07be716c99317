"""Gate semantics of :mod:`linpot.verify`: pass/fail, margin and criterion
all come from each gate's value, comparison and bound."""

import math

import pytest

from linpot.verify import CheckResult, Gate


@pytest.mark.parametrize(
    "gate, margin",
    [
        (Gate("upper", 0.5, "<=", 2.0), 0.25),
        (Gate("strict_upper", 3.0, "<", 2.0), 1.5),
        (Gate("lower", 4.0, ">=", 2.0), 0.5),
        (Gate("strict_lower", 1.0, ">", 2.0), 2.0),
        (Gate("zero_lower", 0.0, ">", 2.0), math.inf),
    ],
    ids=lambda v: v.name if isinstance(v, Gate) else "",
)
def test_margin_is_one_at_the_bound_and_above_one_past_it(gate, margin):
    assert gate.margin == margin
    assert gate.passed is (margin < 1.0)


def test_equality_has_no_margin():
    assert Gate("stall", False, "==", False).margin is None
    assert Gate("stall", False, "==", False).passed is True
    assert Gate("stall", True, "==", False).passed is False


def test_strict_bound_fails_at_the_bound():
    assert Gate("x", 1e-6, "<", 1e-6).passed is False
    assert Gate("x", 1e-6, "<=", 1e-6).passed is True
    assert Gate("x", 1e-6, "<", 1e-6).margin == 1.0


@pytest.mark.parametrize("op", ["<=", "<", ">=", ">"])
def test_nan_fails_every_inequality(op):
    gate = Gate("x", math.nan, op, 1.0)
    assert gate.passed is False
    assert math.isnan(gate.margin)


def test_unknown_comparison_rejected():
    with pytest.raises(ValueError, match="unknown comparison"):
        Gate("x", 1.0, "=<", 2.0)


def test_check_passes_only_when_every_gate_does():
    ok, bad = Gate("a", 1.0, "<", 2.0), Gate("b", 1.0, ">=", 2.0)
    assert CheckResult("c", (ok,)).passed is True
    result = CheckResult("c", (ok, bad), {"note": 1})
    assert result.passed is False
    assert result.criterion == "a < 2.0; b >= 2.0"
    assert result.summary_line().startswith("c FAIL [a < 2.0; b >= 2.0] a=1 (margin 0.5), b=1")


def test_check_without_gates_cannot_pass():
    with pytest.raises(ValueError, match="no gates"):
        CheckResult("c", ())

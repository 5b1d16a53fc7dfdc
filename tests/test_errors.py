"""The one probability gate, alone and behind each entry point that uses it."""

import numpy as np
import pytest

from ejmnet import (
    DomainError,
    HiddenSource,
    JointDistribution,
    ResponseTable,
    ValidationError,
    bell_lp_check,
    polygon,
    uniform_target,
)
from ejmnet.errors import probability_array

# name -> (valid input, atol, build(array), the stored array or None).  The
# first two flat entries of every input share one normalisation group.
ENTRY_POINTS = {
    "gate": (
        np.full(16, 1 / 16),
        1e-9,
        lambda a: probability_array(a, "gate", atol=1e-9),
        lambda out: out,
    ),
    "JointDistribution": (
        np.full((4, 4), 1 / 16),
        1e-9,
        lambda a: JointDistribution(polygon(2), "x", a),
        lambda out: out.probs,
    ),
    "HiddenSource": (
        np.full(4, 0.25),
        1e-12,
        lambda a: HiddenSource(4, a),
        lambda out: out.weights,
    ),
    "ResponseTable": (
        np.full((2, 2, 4), 0.25),
        1e-12,
        lambda a: ResponseTable(0, a),
        lambda out: out.table,
    ),
    "bell_lp_check": (uniform_target(), 1e-9, bell_lp_check, None),
}


def with_first_entry(valid, value):
    """``valid`` with entry 0 set to ``value`` and entry 1 keeping the group sum."""
    arr = valid.copy()
    flat = arr.reshape(-1)
    flat[1] += flat[0] - value
    flat[0] = value
    return arr


@pytest.mark.parametrize("name", ENTRY_POINTS)
class TestProbabilityGate:
    def test_rejects_entry_below_clamp(self, name):
        valid, _, build, _ = ENTRY_POINTS[name]
        with pytest.raises(ValidationError) as err:
            build(with_first_entry(valid, -2e-12))
        assert err.value.residual == -2e-12

    def test_clamps_tiny_negative_to_zero(self, name):
        valid, _, build, stored = ENTRY_POINTS[name]
        out = build(with_first_entry(valid, -1e-13))
        if stored is not None:
            arr = stored(out)
            assert arr.reshape(-1)[0] == 0.0
            assert not arr.flags.writeable

    def test_rejects_sum_off_by_more_than_atol(self, name):
        valid, atol, build, _ = ENTRY_POINTS[name]
        bad = valid.copy()
        bad.reshape(-1)[0] += 10 * atol
        with pytest.raises(ValidationError) as err:
            build(bad)
        assert err.value.residual == pytest.approx(10 * atol, rel=1e-3)


def test_gate_sums_over_the_given_axes():
    rows = np.array([[0.5, 0.5], [0.25, 0.75]])
    assert probability_array(rows, "rows", axis=1, atol=1e-12).shape == (2, 2)
    with pytest.raises(ValidationError) as err:
        probability_array(rows, "rows", axis=0, atol=1e-12)
    assert err.value.residual == pytest.approx(0.25)
    with pytest.raises(ValidationError, match="finite"):
        probability_array([np.nan, 1.0], "rows", atol=1e-12)


@pytest.mark.parametrize(
    "build",
    [
        lambda: probability_array([], "gate", atol=1e-9),
        lambda: ResponseTable(0, np.zeros((0, 0, 4))),
        lambda: ResponseTable(0, np.zeros((2, 0, 4))),
        lambda: HiddenSource(0, np.zeros(0)),
        lambda: JointDistribution(polygon(2), "x", np.zeros(0)),
    ],
    ids=[
        "gate",
        "ResponseTable",
        "ResponseTable-one-empty-axis",
        "HiddenSource",
        "JointDistribution",
    ],
)
def test_empty_input_raises_package_error(build):
    # numpy's own ValueError from reducing an empty array is also a
    # ValueError, so the check is on the exact package types.
    with pytest.raises((ValidationError, DomainError)) as err:
        build()
    assert type(err.value) in (ValidationError, DomainError)

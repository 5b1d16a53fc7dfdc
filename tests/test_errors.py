"""The one probability gate, alone and behind each entry point that uses it."""

import numpy as np
import pytest

from ejmnet.bases import ejm_basis
from ejmnet.belllp import bell_lp_check, uniform_target
from ejmnet.errors import DomainError, ValidationError, integer_in_range, probability_array
from ejmnet.localmodels import HiddenSource, ResponseTable, q_model, sample_model
from ejmnet.network import JointDistribution, event_probability, open_line, polygon

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
        lambda a: HiddenSource(a),
        lambda out: out.weights,
    ),
    "ResponseTable": (
        np.full((2, 2, 4), 0.25),
        1e-12,
        lambda a: ResponseTable(a),
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

    @pytest.mark.filterwarnings("error")
    def test_sum_overflow_raises_without_a_warning(self, name):
        valid, _, build, _ = ENTRY_POINTS[name]
        with pytest.raises(ValidationError) as err:
            build(np.full_like(valid, 1e308))
        assert err.value.residual == np.inf


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
        lambda: ResponseTable(np.zeros((0, 0, 4))),
        lambda: ResponseTable(np.zeros((2, 0, 4))),
        lambda: HiddenSource(np.zeros(0)),
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


def test_integer_gate():
    assert integer_in_range(np.int64(3), "n", 1, 4) == 3
    assert type(integer_in_range(np.int32(3), "n", 1)) is int
    assert integer_in_range(10**6, "n", 0) == 10**6
    for bad in (2.0, 2.5, "2", None, 0, 5, np.int64(-1), True):
        with pytest.raises(DomainError, match="n must be an integer in 1..4"):
            integer_in_range(bad, "n", 1, 4)


@pytest.mark.parametrize(
    "call",
    [
        lambda: open_line(True),
        lambda: sample_model(q_model(0.5), True),
        lambda: event_probability(polygon(4), ejm_basis(), ("prefix-equal", True)),
    ],
    ids=["open_line", "sample_model", "prefix-equal"],
)
def test_a_flag_is_not_a_count(call):
    with pytest.raises(DomainError, match="got True"):
        call()

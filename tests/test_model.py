import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from twinbeam import (
    DetectorModel,
    FieldMoments,
    Histogram2D,
    JointDistribution,
    PhotocountMoments,
    QdiiGrid,
    TwinBeamParams,
    ValidationError,
)


def test_vacuum_paired_field_is_valid():
    assert TwinBeamParams(1.0, 0.0, 0.0, 0.0, 0.0, 0.0).mean_pairs == 0.0


def test_pairs_with_zero_modes_rejected():
    with pytest.raises(ValidationError):
        TwinBeamParams(0.0, 0.5, 0.0, 0.0, 0.0, 0.0)


def test_negative_parameter_rejected():
    with pytest.raises(ValidationError):
        TwinBeamParams(1.0, -0.1, 0.0, 0.0, 0.0, 0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_parameter_rejected(bad):
    with pytest.raises(ValidationError):
        TwinBeamParams(bad, 0.1, 0.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValidationError):
        TwinBeamParams(1.0, 0.1, 0.0, 0.0, 2.0, bad)


def test_mode_counts_may_be_fractional():
    p = TwinBeamParams(179.0, 0.055, 8e-6, 320.0, 8e-3, 12.0)
    assert p.mean_noise_s == pytest.approx(0.00256)


def test_detector_unit_efficiency_is_open_boundary():
    with pytest.raises(ValidationError):
        DetectorModel(efficiency=1.0, pixels=100)
    with pytest.raises(ValidationError):
        DetectorModel(efficiency=0.0, pixels=100)
    DetectorModel(efficiency=0.9999, pixels=100)  # interior is fine


def test_detector_dark_rate_range():
    with pytest.raises(ValidationError):
        DetectorModel(efficiency=0.2, pixels=10, dark_rate=1.0)
    with pytest.raises(ValidationError):
        DetectorModel(efficiency=0.2, pixels=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_detector_non_finite_rates_rejected(bad):
    # the open and half-open ranges of the two rates hold no NaN or inf
    with pytest.raises(ValidationError):
        DetectorModel(efficiency=bad, pixels=10)
    with pytest.raises(ValidationError):
        DetectorModel(efficiency=0.2, pixels=10, dark_rate=bad)


@pytest.mark.parametrize("pixels", [True, 2.0, 100.5], ids=["bool", "float", "fraction"])
def test_detector_pixels_must_be_an_integer(pixels):
    # the integer rule SimConfig applies to frames and seed
    with pytest.raises(ValidationError):
        DetectorModel(efficiency=0.3, pixels=pixels)
    DetectorModel(efficiency=0.3, pixels=np.int64(100))  # a numpy integer is fine


def test_histogram_negative_cell_rejected():
    with pytest.raises(ValidationError):
        Histogram2D(np.array([[1.0, -1.0], [0.0, 2.0]]), 2.0)


def test_histogram_total_mismatch_rejected():
    with pytest.raises(ValidationError):
        Histogram2D(np.array([[1.0, 1.0]]), 3.0)


@pytest.mark.parametrize("frames", [1e-10, 1e-300])
def test_histogram_without_counts_rejected(frames):
    # within the sum tolerance of 1e-9 max(1, frames), but no frame was counted
    with pytest.raises(ValidationError):
        Histogram2D(np.zeros((2, 2)), frames)
    Histogram2D(np.array([[frames, 0.0]]), frames)  # the same total, counted


def test_histogram_normalization():
    h = Histogram2D(np.array([[2.0, 2.0], [4.0, 2.0]]), 10.0)
    n = h.normalized()
    assert n.is_normalized
    assert n.counts.sum() == pytest.approx(1.0, abs=1e-12)
    assert not h.is_normalized


def test_histogram_counts_are_immutable():
    h = Histogram2D(np.array([[1.0]]), 1.0)
    with pytest.raises(ValueError):
        h.counts[0, 0] = 2.0


def test_photocount_moments_variance_invariant():
    with pytest.raises(ValidationError):
        PhotocountMoments(2.0, 1.0, 3.0, 2.0, 2.0)  # mean_sq_s < mean_s^2


def test_field_moments_nonnegative():
    with pytest.raises(ValidationError):
        FieldMoments(1.0, -0.1, 0.0, 0.5, 0.0, 0.0)


def test_joint_distribution_mass_accounting():
    # the mass outside the table is 1 - total, and a table holds at most
    # 1 + _JOINT_MASS_TOL (1e-6): round-off may leave it a little above 1
    probs = np.full((2, 2), 0.2)
    jd = JointDistribution(probs)
    assert jd.total == pytest.approx(0.8)
    assert jd.truncation_mass == 1.0 - float(probs.sum())
    assert JointDistribution(np.array([[1.0 + 5e-7]])).truncation_mass < 0.0
    with pytest.raises(ValidationError):
        JointDistribution(np.array([[1.0 + 2e-6]]))


def test_joint_distribution_tolerates_tiny_negative_roundoff():
    probs = np.array([[0.5, 0.5], [-1e-13, 0.0]])
    JointDistribution(probs)
    with pytest.raises(ValidationError):
        JointDistribution(np.array([[1.0, -1e-3]]))


def test_joint_distribution_copies_unless_handed_a_private_table():
    # a caller's writable array is copied, so writing to it later changes
    # nothing; so is a read-only view, whose base may still be written
    probs = np.full((2, 2), 0.25)
    jd = JointDistribution(probs)
    assert jd.probs is not probs
    probs[0, 0] = 0.5
    assert jd.probs[0, 0] == 0.25
    assert not jd.probs.flags.writeable
    view = np.full((2, 2), 0.25)[:, :]
    view.setflags(write=False)
    assert JointDistribution(view).probs is not view
    # a read-only float array that owns its memory is taken as it is
    owned = np.full((2, 2), 0.25)
    owned.setflags(write=False)
    assert JointDistribution(owned).probs is owned
    # and is still checked
    bad = np.full((2, 2), 0.5)
    bad.setflags(write=False)
    with pytest.raises(ValidationError):
        JointDistribution(bad)


def test_qdii_grid_axes_must_increase():
    ax = np.array([0.0, 1.0, 0.5])
    with pytest.raises(ValidationError):
        QdiiGrid(ax, ax, np.zeros((3, 3)), 0.0)


@given(st.lists(st.sampled_from([0.0, 5e-324, 0.5, 1.0, 2.0, 1e308, -0.5,
                                 np.inf, -np.inf, np.nan]), max_size=6))
def test_axis_check_accepts_exactly_finite_increasing_axes(points):
    # the one-pass acceptance agrees with the four checks it stands for
    from twinbeam.model import _check_axis
    ax = np.array(points)
    valid = (ax.size >= 2 and np.all(np.isfinite(ax)) and ax[0] >= 0
             and np.all(np.diff(ax) > 0))
    if valid:
        _check_axis("axis", ax)
    else:
        with pytest.raises(ValidationError):
            _check_axis("axis", ax)


def test_qdii_grid_ordering_range():
    ax = np.array([0.0, 1.0, 2.0])
    with pytest.raises(ValidationError):
        QdiiGrid(ax, ax, np.zeros((3, 3)), -1.0)


def test_qdii_grid_normalization_is_trapezoid_integral():
    # a grid built directly reports its integral too, with no field to fill
    ax = np.linspace(0.0, 2.0, 5)
    assert QdiiGrid(ax, ax, np.ones((5, 5)), 0.0).normalization == 4.0
    w_i = np.array([0.0, 1.0, 3.0])
    values = np.outer(ax, w_i)
    # x y on [0, 2] x [0, 3] is linear in each axis, so the rule is exact: 2 * 4.5
    assert QdiiGrid(ax, w_i, values, 0.0).normalization == pytest.approx(9.0, rel=1e-15, abs=0)


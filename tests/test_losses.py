import math

import numpy as np
import pytest

from dasvrda import (
    ElasticNet,
    Logistic,
    SmoothedHinge,
    Squared,
    loss_derivative,
    loss_value,
    make_dataset,
    make_problem,
)
import loss_oracles

ALL_LOSSES = [Squared(), Logistic(), SmoothedHinge(0.5), SmoothedHinge(1.5)]


def fd_derivative(loss, t, label, h=1e-6):
    """Independent central-difference oracle for dpsi/dt."""
    return (loss_value(loss, t + h, label) - loss_value(loss, t - h, label)) / (2 * h)


def label_for(loss, rng):
    if isinstance(loss, Squared):
        return float(rng.standard_normal())
    return float(rng.choice([-1.0, 1.0]))


def test_squared_values():
    assert loss_value(Squared(), 3.0, 1.0) == 2.0
    assert loss_derivative(Squared(), 3.0, 1.0) == 2.0
    assert loss_value(Squared(), -1.5, -1.5) == 0.0


def test_logistic_values():
    assert loss_value(Logistic(), 0.0, 1.0) == pytest.approx(math.log(2.0), rel=1e-15)
    assert loss_derivative(Logistic(), 0.0, 1.0) == pytest.approx(-0.5, rel=1e-15)
    # stable in both tails
    assert loss_value(Logistic(), 1000.0, 1.0) == 0.0
    assert loss_value(Logistic(), -1000.0, 1.0) == pytest.approx(1000.0)
    assert loss_derivative(Logistic(), -1000.0, 1.0) == -1.0
    assert loss_derivative(Logistic(), 1000.0, 1.0) == pytest.approx(0.0, abs=1e-300)


def test_smoothed_hinge_pieces():
    nu = 0.5
    loss = SmoothedHinge(nu)
    # flat part
    assert loss_value(loss, 2.0, 1.0) == 0.0
    assert loss_derivative(loss, 2.0, 1.0) == 0.0
    # linear part
    assert loss_value(loss, -1.0, 1.0) == 1.0 - (-1.0) - nu / 2
    assert loss_derivative(loss, -1.0, 1.0) == -1.0
    # quadratic part: margin 0.9 sits in (1-nu, 1)
    assert loss_value(loss, 0.9, 1.0) == pytest.approx(0.1**2 / (2 * nu), rel=1e-12)
    assert loss_derivative(loss, 0.9, 1.0) == pytest.approx(-0.2, rel=1e-12)
    # mirrored label
    assert loss_derivative(loss, -0.9, -1.0) == pytest.approx(0.2, rel=1e-12)


def test_smoothed_hinge_continuity_at_breakpoints():
    for nu in (0.3, 1.0, 2.0):
        loss = SmoothedHinge(nu)
        for z in (1.0, 1.0 - nu):
            lo = loss_value(loss, z - 1e-9, 1.0)
            hi = loss_value(loss, z + 1e-9, 1.0)
            assert abs(hi - lo) < 1e-8
            dlo = loss_derivative(loss, z - 1e-9, 1.0)
            dhi = loss_derivative(loss, z + 1e-9, 1.0)
            assert abs(dhi - dlo) < 1e-8


def test_vectorized_forms_match_the_scalar_oracles():
    rng = np.random.default_rng(3)
    for loss in ALL_LOSSES:
        tails = [-1000.0, -745.0, -40.0, -1e-300, 0.0, 40.0, 745.0, 1000.0]
        t = np.concatenate((rng.uniform(-6.0, 6.0, 400), tails))
        if isinstance(loss, SmoothedHinge):
            # Margins on, just below and just above both breakpoints.
            kinks = np.array([1.0, 1.0 - loss.nu])
            t = np.concatenate((t, kinks, np.nextafter(kinks, -np.inf),
                                np.nextafter(kinks, np.inf)))
        t = np.concatenate((t, -t))
        if isinstance(loss, Squared):
            labels = rng.standard_normal(t.size)
        else:
            labels = np.repeat([1.0, -1.0], t.size // 2)  # -t mirrors t
        for vectorized, oracle in ((loss.values, loss_oracles.value),
                                   (loss.derivatives, loss_oracles.derivative)):
            expect = [oracle(loss, float(u), float(v)) for u, v in zip(t, labels)]
            np.testing.assert_allclose(vectorized(t, labels), expect,
                                       rtol=1e-13, atol=1e-300)


def test_invalid_smoothing_width():
    with pytest.raises(ValueError):
        SmoothedHinge(0.0)
    with pytest.raises(ValueError):
        SmoothedHinge(-1.0)


def test_non_finite_margin_rejected():
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="non-finite margin"):
            loss_value(Squared(), bad, 0.0)
        with pytest.raises(ValueError, match="non-finite margin"):
            loss_derivative(Logistic(), bad, 1.0)


def test_derivative_matches_finite_differences():
    rng = np.random.default_rng(0)
    for loss in ALL_LOSSES:
        for _ in range(200):
            t = float(rng.uniform(-5, 5))
            label = label_for(loss, rng)
            analytic = loss_derivative(loss, t, label)
            numeric = fd_derivative(loss, t, label)
            scale = max(1.0, abs(analytic), abs(numeric))
            assert abs(analytic - numeric) <= 1e-6 * scale


def test_midpoint_convexity():
    rng = np.random.default_rng(1)
    for loss in ALL_LOSSES:
        t = rng.uniform(-10, 10, size=(10_000, 2))
        label = label_for(loss, rng)
        for a, b in t:
            mid = loss_value(loss, (a + b) / 2, label)
            avg = (loss_value(loss, a, label) + loss_value(loss, b, label)) / 2
            assert mid <= avg + 1e-12


def test_derivative_is_lipschitz():
    rng = np.random.default_rng(2)
    for loss in ALL_LOSSES:
        lip = loss.curvature  # a unit row's smoothness constant
        for _ in range(500):
            t1, t2 = rng.uniform(-4, 4, size=2)
            label = label_for(loss, rng)
            d1 = loss_derivative(loss, t1, label)
            d2 = loss_derivative(loss, t2, label)
            assert abs(d1 - d2) <= lip * abs(t1 - t2) * (1 + 1e-12) + 1e-15


def test_smoothness_constants():
    data = make_dataset(np.array([[3.0, 4.0], [1.0, 0.0]]), [1.0, -1.0])
    for loss, expect in ((Squared(), [25.0, 1.0]), (Logistic(), [6.25, 0.25]),
                         (SmoothedHinge(0.5), [50.0, 2.0])):
        assert make_problem(data, loss, ElasticNet()).smoothness.tolist() == expect


def test_smoothness_constant_is_tight_curvature_bound():
    """The constant should upper-bound the second derivative everywhere and
    be attained on the curved piece (finite-difference Hessian scan)."""
    h = 1e-5
    for loss, attained_at in [
        (Squared(), 0.0),
        (Logistic(), 0.0),
        (SmoothedHinge(0.5), 0.8),  # inside the quadratic piece
    ]:
        const = loss.curvature  # a unit row's smoothness constant
        worst = 0.0
        for t in np.linspace(-6, 6, 2001):
            second = (
                loss_derivative(loss, t + h, 1.0) - loss_derivative(loss, t - h, 1.0)
            ) / (2 * h)
            worst = max(worst, abs(second))
            assert second <= const * (1 + 1e-6) + 1e-9
        at = (
            loss_derivative(loss, attained_at + h, 1.0)
            - loss_derivative(loss, attained_at - h, 1.0)
        ) / (2 * h)
        assert at == pytest.approx(const, rel=1e-4)


@pytest.mark.parametrize("nu", [0.0, -1.0, math.inf, math.nan])
def test_smoothed_hinge_width_must_be_finite_and_positive(nu):
    with pytest.raises(ValueError, match="finite and positive"):
        SmoothedHinge(nu)

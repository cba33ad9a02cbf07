import math

import numpy as np
import pytest

from ellreg.grid import GridSpec
from ellreg.profiles import (
    Plateau,
    box_mask,
    box_window,
    bump,
    radial_window,
    ramp,
    ramp_d1,
    ramp_d2,
)


def test_bump_support_and_peak():
    r = np.array([-1.5, -1.0, 0.0, 0.5, 1.0, 2.0])
    v = bump(r)
    assert v[0] == v[1] == v[4] == v[5] == 0.0
    assert abs(v[2] - math.exp(-1.0)) < 1e-15
    assert 0 < v[3] < v[2]


def test_ramp_endpoints_and_monotone():
    t = np.linspace(-1.0, 2.0, 601)
    v = ramp(t)
    assert np.all(v[t <= 0.0] == 0.0)
    assert np.all(v[t >= 1.0] == 1.0)
    assert np.all(np.diff(v) >= -1e-15)
    assert abs(ramp(np.array([0.5]))[0] - 0.5) < 1e-12  # symmetric step


def test_ramp_derivatives_match_finite_differences():
    t = np.linspace(0.02, 0.98, 301)
    h = 1e-6
    fd1 = (ramp(t + h) - ramp(t - h)) / (2 * h)
    assert np.max(np.abs(fd1 - ramp_d1(t))) < 1e-6
    fd2 = (ramp_d1(t + h) - ramp_d1(t - h)) / (2 * h)
    assert np.max(np.abs(fd2 - ramp_d2(t))) < 1e-4


def test_plateau_regions():
    prof = Plateau(0.5, 1.0)
    x = np.array([-2.0, -1.0, -0.75, -0.3, 0.0, 0.4, 0.5, 0.8, 1.0, 3.0])
    v = prof(x)
    assert np.all(v[np.abs(x) >= 1.0] == 0.0)
    assert np.all(v[np.abs(x) <= 0.5] == 1.0)
    inside = (np.abs(x) > 0.5) & (np.abs(x) < 1.0)
    assert np.all((v[inside] > 0.0) & (v[inside] < 1.0))


def test_plateau_derivatives_match_finite_differences():
    prof = Plateau(0.4, 1.1)
    x = np.linspace(0.45, 1.05, 200)
    h = 1e-6
    fd1 = (prof(x + h) - prof(x - h)) / (2 * h)
    assert np.max(np.abs(fd1 - prof.d1(x))) < 1e-6
    fd2 = (prof.d1(x + h) - prof.d1(x - h)) / (2 * h)
    assert np.max(np.abs(fd2 - prof.d2(x))) < 1e-4


def test_plateau_validation():
    with pytest.raises(ValueError):
        Plateau(1.0, 0.5)
    with pytest.raises(ValueError):
        Plateau(0.0, 1.0)


def test_radial_window_bounds():
    grid = GridSpec(2, 32, math.pi)
    w = radial_window(grid, 1.0, 2.0).samples[..., 0].real
    assert np.all(w >= 0.0) and np.all(w <= 1.0)
    r = np.sqrt(np.sum(grid.coords().real ** 2, axis=-1))
    assert np.all(w[r <= 1.0] == 1.0)
    assert np.all(w[r >= 2.0] == 0.0)


def test_box_window_wraps_around_seam():
    grid = GridSpec(1, 64, math.pi)
    w = box_window(grid, [math.pi - 0.1], 0.3, 0.6).samples[..., 0].real
    # support crosses the seam: nonzero near both +pi and -pi ends
    assert w[0] > 0.0 and w[-1] > 0.0
    assert np.all(w[np.abs(grid.axis_points()) < 1.0] == 0.0)


def test_box_mask():
    grid = GridSpec(2, 16, 2.0)
    mask = box_mask(grid, [0.0, 0.0], 0.5)
    coords = grid.coords().real
    inside = np.max(np.abs(coords), axis=-1) <= 0.5
    assert np.array_equal(mask, inside)

import itertools
import math

import numpy as np
import pytest

from ellreg.grid import GridSpec
from ellreg.localize import build_partition
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
    w = radial_window(grid, 1.0, 2.0)
    assert np.all(w >= 0.0) and np.all(w <= 1.0)
    r = np.sqrt(np.sum(grid.coords() ** 2, axis=-1))
    assert np.all(w[r <= 1.0] == 1.0)
    assert np.all(w[r >= 2.0] == 0.0)


def test_box_window_wraps_around_seam():
    grid = GridSpec(1, 64, math.pi)
    w = box_window(grid, [math.pi - 0.1], 0.3, 0.6)
    # support crosses the seam: nonzero near both +pi and -pi ends
    assert w[0] > 0.0 and w[-1] > 0.0
    assert np.all(w[np.abs(grid.axis_points()) < 1.0] == 0.0)


def test_box_mask():
    grid = GridSpec(2, 16, 2.0)
    mask = box_mask(grid, [0.0, 0.0], 0.5)
    coords = grid.coords()
    inside = np.max(np.abs(coords), axis=-1) <= 0.5
    assert np.array_equal(mask, inside)


def brute_min_image(grid, points, center):
    """x - c + 2Lk at the shift k in {-1, 0, 1}^m nearest the origin, per point."""
    disp = points - np.asarray(center, dtype=float)
    best = disp + 2.0 * grid.half_period * np.array((-1,) * grid.dim)
    for k in itertools.product((-1, 0, 1), repeat=grid.dim):
        d = disp + 2.0 * grid.half_period * np.array(k)
        closer = np.sum(d**2, axis=-1) < np.sum(best**2, axis=-1)
        best = np.where(closer[..., None], d, best)
    return best


def test_windows_and_masks_wrap_across_a_2d_corner():
    grid = GridSpec(2, 16, 2.0)
    center = (grid.half_period - 0.1, -grid.half_period + 0.2)
    d = np.abs(brute_min_image(grid, grid.coords(), center))
    mask = box_mask(grid, center, 0.55)
    assert np.array_equal(mask, np.all(d <= 0.55, axis=-1))
    # the cube crosses both seams: it holds a point in every corner of the lattice
    assert mask[0, 0] and mask[0, -1] and mask[-1, 0] and mask[-1, -1]
    prof = Plateau(0.3, 0.8)
    window = box_window(grid, center, 0.3, 0.8)
    assert window.shape == grid.shape and window.dtype == float
    assert np.max(np.abs(window - prof(d[..., 0]) * prof(d[..., 1]))) < 1e-14
    assert window[0, 0] > 0.0 and window[0, -1] > 0.0 and window[-1, 0] > 0.0


def test_partition_factors_match_the_brute_force_min_image():
    grid = GridSpec(2, 32, 2.0)
    delta = grid.half_period / 2.0
    part = build_partition(grid, delta)
    prof = Plateau(delta / 2.0, delta)
    centers = -grid.half_period + (delta / 2.0) * np.arange(8)
    axis = grid.axis_points()[:, None]
    factors = [prof(np.abs(brute_min_image(grid, axis, [c]))[:, 0]) for c in centers]
    chis = np.array([np.outer(factors[i], factors[j]) for i in range(8) for j in range(8)])
    assert np.max(np.abs(part.psis - chis / chis.sum(axis=0))) < 1e-14

"""Smooth bumps, ramps, and plateau windows.

Everything here is built from exp(-1/t): the standard bump exp(-1/(1 - r^2))
and the ramp e(t) / (e(t) + e(1-t)) with e(t) = exp(-1/t).  The ramp's first
and second derivatives are available in closed form, which the singular
casework relies on.  Windows and masks are real (*shape,) lattice arrays, and
every torus displacement is wrapped by the one rule `min_image`.
"""

from __future__ import annotations

import numpy as np

from .grid import GridSpec


def _exp_side(t):
    """exp(-1/t) for t > 0, else 0; underflows cleanly to zero."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t > 0.0
    with np.errstate(under="ignore"):
        out[pos] = np.exp(-1.0 / t[pos])
    return out


def bump(r):
    """exp(-1/(1-r^2)) for |r| < 1, else 0.  Vectorized."""
    r = np.asarray(r, dtype=float)
    return _exp_side(1.0 - r * r)


def ramp(t):
    """Smooth monotone 0 -> 1 transition on [0, 1]; constant outside.

    Closed form e(t) / (e(t) + e(1-t)) with e(t) = exp(-1/t), so the first
    and second derivatives below are exact, not tabulated.
    """
    t = np.asarray(t, dtype=float)
    a = _exp_side(t)
    b = _exp_side(1.0 - t)
    return a / (a + b)


def _ramp_pieces(t):
    t = np.asarray(t, dtype=float)
    mid = (t > 0.0) & (t < 1.0)
    tm = t[mid]
    return mid, tm, _exp_side(tm), _exp_side(1.0 - tm)


def ramp_d1(t):
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    mid, tm, a, b = _ramp_pieces(t)
    w = 1.0 / tm**2 + 1.0 / (1.0 - tm) ** 2
    out[mid] = a * b * w / (a + b) ** 2
    return out


def ramp_d2(t):
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    mid, tm, a, b = _ramp_pieces(t)
    s = 1.0 - tm
    u = a * b
    w = 1.0 / tm**2 + 1.0 / s**2
    du = u * (1.0 / tm**2 - 1.0 / s**2)
    dw = -2.0 / tm**3 + 2.0 / s**3
    d = (a + b) ** 2
    dd = 2.0 * (a + b) * (a / tm**2 - b / s**2)
    out[mid] = (du * w + u * dw) / d - u * w * dd / d**2
    return out


class Plateau:
    """Even C^inf profile: 1 on [-inner, inner], 0 outside [-outer, outer]."""

    def __init__(self, inner: float, outer: float):
        if not 0 < inner < outer:
            raise ValueError("need 0 < inner < outer")
        self.inner = inner
        self.outer = outer
        self._w = outer - inner

    def _t(self, x):
        return (self.outer - np.abs(x)) / self._w

    def __call__(self, x):
        return ramp(self._t(x))

    def d1(self, x):
        x = np.asarray(x, dtype=float)
        return ramp_d1(self._t(x)) * (-np.sign(x) / self._w)

    def d2(self, x):
        # sign(x)^2 = 1 wherever d1 is nonzero; the profile is flat at x = 0.
        return ramp_d2(self._t(x)) / self._w**2


def min_image(grid: GridSpec, d):
    """Torus displacements d wrapped into [-L, L): each one's nearest image."""
    return (d + grid.half_period) % (2.0 * grid.half_period) - grid.half_period


def radial_window(grid: GridSpec, inner: float, outer: float) -> np.ndarray:
    """(*shape,) lattice array: smooth plateau in |x| around the origin."""
    r = np.sqrt(np.sum(grid.coords() ** 2, axis=-1))
    return Plateau(inner, outer)(r)


def box_window(grid: GridSpec, center, inner: float, outer: float) -> np.ndarray:
    """(*shape,) lattice array: tensor-product plateau around center, torus min-image."""
    d = min_image(grid, grid.coords() - np.asarray(center, dtype=float))
    return np.prod(Plateau(inner, outer)(d), axis=-1)


def box_mask(grid: GridSpec, center, halfwidth: float) -> np.ndarray:
    """(*shape,) boolean mask of the cube of given halfwidth around center (min-image)."""
    d = min_image(grid, grid.coords() - np.asarray(center, dtype=float))
    return np.all(np.abs(d) <= halfwidth, axis=-1)

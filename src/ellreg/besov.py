"""Besov norms on the whole smoothness scale and Bessel lifts.

Positive fractional orders use the second-difference functional

    u(. + x) - 2 u + u(. - x)

measured in L^p over a dyadic set of displacements; orders above one add the
Sobolev part and apply the functional to the top derivatives (integer orders
follow the strictly-less-than bracket, giving Zygmund-type norms); orders at
or below zero are lifted to order one with a Bessel potential first.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .grid import (Field, apply_multiplier, apply_multipliers, dft, lp_norm, monomial,
                   spectral_derivatives)
from .pdo import multi_indices, mi_order, unit_directions


@dataclass(frozen=True)
class BesovParams:
    """A point (alpha, p, q) on the Besov scale; p, q may be math.inf."""

    alpha: float
    p: float
    q: float

    def __post_init__(self):
        for name in ("p", "q"):
            v = getattr(self, name)
            if not (v >= 1.0):
                raise ValueError(f"{name} must lie in [1, inf]")


def _bessel(grid, gamma: float) -> np.ndarray:
    return (1.0 + np.sum(grid.freqs() ** 2, axis=-1)) ** (-gamma / 2.0)


def bessel_lift(gamma: float, f: Field) -> Field:
    """Convolution with the Bessel potential: multiplier (1+|xi|^2)^(-gamma/2)."""
    return apply_multiplier(f, _bessel(f.grid, gamma))


def _lp_norms(stacks, grid, p: float) -> list:
    """The L^p norm of every field of every sample stack, in order."""
    return [v for stack in stacks for v in lp_norm(stack, p, grid=grid)]


def sobolev_norm(f: Field, k: int, p: float) -> float:
    """W^{k,p} norm: sum of L^p norms of all derivatives up to order k."""
    alphas = [alpha for alpha in multi_indices(f.grid.dim, k) if any(alpha)]
    return float(sum(_lp_norms(spectral_derivatives(f, alphas), f.grid, p), lp_norm(f, p)))


def displacement_shells(grid) -> list:
    """Dyadic radii from L/2 down to roughly the 2^-(log2 N - 1) floor."""
    j_max = int(np.log2(grid.points_per_axis)) - 1
    floor = 2.0 ** (-j_max)
    radii = []
    rho = grid.half_period / 2.0
    while rho >= floor and len(radii) < 40:
        radii.append(rho)
        rho *= 0.5
    if len(radii) < 2:  # tiny grids still get two shells
        radii = [grid.half_period / 2.0, grid.half_period / 4.0]
    return radii


@functools.lru_cache(maxsize=16)
def _difference_table(grid):
    """Dyadic radii, each of 8 directions' representative up to sign, the rows, and k.

    The second difference is the multiplier 2 (cos xi.h - 1), even in h, so
    antipodal directions share one displacement.  A row (h, c) is the multiplier
    c - 4 sin^2(xi.h / 2): the identity (0, 1), then (rho w, 0) shell by shell.
    k holds the frequencies (pi/L) k of one lattice axis.
    """
    dirs = unit_directions(grid.dim, 8)
    rep = [next(j for j in range(i + 1) if j == i or np.allclose(dirs[j], -w, atol=1e-12))
           for i, w in enumerate(dirs)]
    kept = sorted(set(rep))
    radii = displacement_shells(grid)
    rows = np.zeros((1 + len(radii) * len(kept), grid.dim + 1))
    rows[0, -1] = 1.0
    rows[1:, :-1] = (np.array(radii)[:, None, None] * dirs[kept]).reshape(-1, grid.dim)
    k = grid.freqs()[(slice(None),) + (0,) * grid.dim]  # axis 0's, shared by every axis
    rows.flags.writeable = False
    return radii, tuple(kept.index(j) for j in rep), rows, k


def _difference_multipliers(k, rows) -> np.ndarray:
    """c - 4 sin^2(xi.h / 2) for the rows (h, c) on the lattice of axis frequencies k.

    xi.h / 2 is a sum of per-axis angles a_d, so sin and cos of it fold in one
    axis at a time (s <- s cos a_d + c sin a_d, c <- c cos a_d - s sin a_d): the
    trigonometry runs on N points per axis, and one lattice buffer (*shape, n)
    takes the cancellation-free finish c - 4 s^2 in place.
    """
    dim, n = rows.shape[1] - 1, len(rows)
    angles = [(0.5 * (k[:, None] * rows[:, d])).reshape((len(k),) + (1,) * (dim - 1 - d) + (n,))
              for d in range(dim)]
    s, c = np.sin(angles[0]), (np.cos(angles[0]) if dim > 1 else None)
    for d in range(1, dim):
        sin_a, cos_a = np.sin(angles[d]), np.cos(angles[d])
        # the last axis needs no cos of the sum
        s, c = s * cos_a + c * sin_a, (c * cos_a - s * sin_a if d < dim - 1 else None)
    s *= s
    s *= -4.0
    s += rows[:, -1]
    return s


def _seminorm(f, alpha: float, p: float, q: float, factor=None):
    """||g||_p and the functional below, g = idft(factor * dft(f)), f a Field or its spectrum."""
    radii, rep, rows, k = _difference_table(f.grid)
    stacks = apply_multipliers(f, functools.partial(_difference_multipliers, k), rows, factor)
    del factor  # the stacks hold it only until it has multiplied dft(f)
    norm, *diffs = _lp_norms(stacks, f.grid, p)
    arr = np.reshape(diffs, (len(radii), -1))[:, rep] / np.array(radii)[:, None] ** alpha
    if np.isinf(q):
        return norm, float(np.max(arr))
    # per-shell midpoint rule in log-radius against the measure dx / |x|^m
    m = f.grid.dim  # the unit sphere in R^m has area 2 pi^(m/2) / Gamma(m/2)
    area = 2.0 * np.pi ** (m / 2.0) / math.gamma(m / 2.0)
    integral = np.sum(np.mean(arr**q, axis=1)) * area * math.log(2.0)
    return norm, float(integral ** (1.0 / q))


def second_difference_seminorm(f: Field, alpha: float, p: float, q: float) -> float:
    """The |x|^(-alpha)-weighted second-difference functional, 0 < alpha <= 1."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError("second-difference seminorm needs alpha in (0, 1]")
    return _seminorm(f, alpha, p, q)[1]


def besov_norm(f: Field, params: BesovParams) -> float:
    """The B^alpha_{p,q} norm of f, from one forward transform of f."""
    alpha, p, q = params.alpha, params.p, params.q
    F = dft(f)
    if alpha <= 0.0:
        # lift 1 - alpha orders up the scale, then measure at order one
        return float(sum(_seminorm(F, 1.0, p, q, factor=_bessel(f.grid, 1.0 - alpha))))
    if alpha <= 1.0:
        return float(sum(_seminorm(F, alpha, p, q)))
    k = math.ceil(alpha) - 1  # strictly-less-than bracket: [alpha] < alpha
    frac = alpha - k  # in (0, 1]; equals 1 at integer alpha (Zygmund case)
    lower = [beta for beta in multi_indices(f.grid.dim, k - 1) if any(beta)]
    total = sum(_lp_norms(spectral_derivatives(F, lower), f.grid, p), lp_norm(f, p))
    xi = f.grid.freqs()
    for beta in multi_indices(f.grid.dim, k):
        if mi_order(beta) == k:
            # the top derivative's L^p norm rides with its second differences
            total += sum(_seminorm(F, frac, p, q, factor=monomial(xi, beta)))
    return float(total)

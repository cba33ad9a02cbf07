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

from .grid import (
    Field,
    apply_multiplier,
    apply_multipliers,
    lp_norm,
    spectral_derivative,
    spectral_derivatives,
)
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


def bessel_lift(gamma: float, f: Field) -> Field:
    """Convolution with the Bessel potential: multiplier (1+|xi|^2)^(-gamma/2)."""
    xi = f.grid.freqs()
    mult = (1.0 + np.sum(xi**2, axis=-1)) ** (-gamma / 2.0)
    return apply_multiplier(f, mult.astype(np.complex128))


def sobolev_norm(f: Field, k: int, p: float) -> float:
    """W^{k,p} norm: sum of L^p norms of all derivatives up to order k."""
    total = 0.0
    for df in spectral_derivatives(f, multi_indices(f.grid.dim, k)):
        total += lp_norm(df, p)
    return total


def _sphere_area(m: int) -> float:
    return 2.0 * np.pi ** (m / 2.0) / math.gamma(m / 2.0)


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
def _difference_table(grid, directions: int):
    """Dyadic radii, the directions up to sign, and each direction's representative.

    The second difference is the multiplier 2 (cos xi.h - 1), even in h, so
    antipodal directions share one displacement.
    """
    dirs = unit_directions(grid.dim, directions)
    rep = [next(j for j in range(i + 1) if j == i or np.allclose(dirs[j], -w, atol=1e-12))
           for i, w in enumerate(dirs)]
    kept = sorted(set(rep))
    omegas = dirs[kept]
    omegas.flags.writeable = False
    return displacement_shells(grid), omegas, tuple(kept.index(j) for j in rep)


def second_difference_seminorm(
    f: Field, alpha: float, p: float, q: float, directions: int = 8
) -> float:
    """The |x|^(-alpha)-weighted second-difference functional, 0 < alpha <= 1."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError("second-difference seminorm needs alpha in (0, 1]")
    radii, omegas, rep = _difference_table(f.grid, directions)
    xi = f.grid.freqs()
    # 2 (cos t - 1) = -4 sin^2(t/2), free of cancellation at small t
    mults = (-4.0 * np.sin(0.5 * (xi @ (rho * w))) ** 2 for rho in radii for w in omegas)
    vals = [lp_norm(diff, p) for diff in apply_multipliers(f, mults)]
    arr = np.reshape(vals, (len(radii), len(omegas)))[:, rep] / np.array(radii)[:, None] ** alpha
    if np.isinf(q):
        return float(np.max(arr))
    # per-shell midpoint rule in log-radius against the measure dx / |x|^m
    area = _sphere_area(f.grid.dim)
    integral = np.sum(np.mean(arr**q, axis=1)) * area * math.log(2.0)
    return float(integral ** (1.0 / q))


def besov_norm(f: Field, params: BesovParams) -> float:
    alpha, p, q = params.alpha, params.p, params.q
    if alpha <= 0.0:
        # lift 1 - alpha orders up the scale, then measure at order one
        lifted = bessel_lift(1.0 - alpha, f)
        return besov_norm(lifted, BesovParams(1.0, p, q))
    if alpha <= 1.0:
        return lp_norm(f, p) + second_difference_seminorm(f, alpha, p, q)
    k = math.ceil(alpha) - 1  # strictly-less-than bracket: [alpha] < alpha
    frac = alpha - k  # in (0, 1]; equals 1 at integer alpha (Zygmund case)
    total = sobolev_norm(f, k, p)
    for beta in multi_indices(f.grid.dim, k):
        if mi_order(beta) == k:
            # one derivative at a time: a suspended stack would hold dft(f) too
            df = spectral_derivative(f, beta)
            total += second_difference_seminorm(df, frac, p, q)
    return total


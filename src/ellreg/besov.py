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

from .grid import (Field, Hermitian, SpectralField, apply_multiplier, apply_multipliers, dft,
                   lp_norm, monomial, spectral_derivatives)
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


@Hermitian
def _bessel(gamma: float, xi) -> np.ndarray:
    return (1.0 + np.sum(xi**2, axis=-1)) ** (-gamma / 2.0)


def bessel_lift(gamma: float, f: Field) -> Field:
    """Convolution with the Bessel potential: multiplier (1+|xi|^2)^(-gamma/2)."""
    return apply_multiplier(f, _bessel(gamma, f.grid.freqs()))


def _lp_norms(stacks, grid, p: float) -> list:
    """The L^p norm of every field of every sample stack, in order."""
    return [v for stack in stacks for v in lp_norm(stack, p, grid=grid)]


def sobolev_norm(f, k: int, p: float) -> float:
    """W^{k,p} norm: sum of L^p norms of all derivatives up to order k; f a Field or its spectrum."""
    F = f if isinstance(f, SpectralField) else dft(f)
    return float(sum(_lower_norms(F, multi_indices(f.grid.dim, k), p)))


def _lower_norms(F: SpectralField, alphas, p: float) -> list:
    """The L^p norms of the d^alpha f with spectrum F, for `alphas`, which start with zero.

    The order-zero term is read from the samples dft transformed; a spectrum made without
    them carries it in the derivative stack.
    """
    if F.source is None:
        return _lp_norms(spectral_derivatives(F, alphas), F.grid, p)
    derivatives = _lp_norms(spectral_derivatives(F, alphas[1:]), F.grid, p)
    return [lp_norm(Field(F.grid, F.source), p)] + derivatives


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
    """Dyadic radii, each of 8 directions' representative up to sign, and the rows.

    The second difference is the multiplier 2 (cos xi.h - 1), even in h, so
    antipodal directions share one displacement.  A row (h, c) is the multiplier
    c - 4 sin^2(xi.h / 2): the identity (0, 1), then (rho w, 0) shell by shell.
    """
    dirs = unit_directions(grid.dim, 8)
    rep = [next(j for j in range(i + 1) if j == i or np.allclose(dirs[j], -w, atol=1e-12))
           for i, w in enumerate(dirs)]
    kept = sorted(set(rep))
    radii = displacement_shells(grid)
    rows = np.zeros((1 + len(radii) * len(kept), grid.dim + 1))
    rows[0, -1] = 1.0
    rows[1:, :-1] = (np.array(radii)[:, None, None] * dirs[kept]).reshape(-1, grid.dim)
    rows.flags.writeable = False
    return radii, tuple(kept.index(j) for j in rep), rows


@Hermitian
def _difference_multipliers(rows, xi) -> np.ndarray:
    """c - 4 sin^2(xi.h / 2) for the rows (h, c) at the frequencies xi of a product lattice.

    xi.h / 2 is a sum of per-axis angles a_d, so sin and cos of it fold in one
    axis at a time (s <- s cos a_d + c sin a_d, c <- c cos a_d - s sin a_d): the
    trigonometry runs on the points of each axis, and one lattice buffer
    (*lattice, n) takes the cancellation-free finish c - 4 s^2 in place.
    """
    dim, n = rows.shape[1] - 1, len(rows)
    axes = [xi[(0,) * d + (slice(None),) + (0,) * (dim - 1 - d) + (d,)] for d in range(dim)]
    angles = [(0.5 * (k[:, None] * rows[:, d])).reshape((len(k),) + (1,) * (dim - 1 - d) + (n,))
              for d, k in enumerate(axes)]
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
    radii, rep, rows = _difference_table(f.grid)
    stacks = apply_multipliers(f, _difference_multipliers, rows, factor)
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


def besov_norm(f, params: BesovParams) -> float:
    """The B^alpha_{p,q} norm of f, a Field (transformed once) or its SpectralField."""
    return float(sum(besov_parts(f, params)))


def besov_parts(f, params: BesovParams) -> tuple:
    """The B^alpha_{p,q} norm of f as (its Sobolev part, its second-difference part).

    For alpha > 1 the Sobolev part is the W^{k,p} norm of f, k = ceil(alpha) - 1, and the
    second-difference part sums the functionals of the order-k derivatives; otherwise
    they are the L^p norm and the functional of f, or of its Bessel lift for alpha <= 0.
    f is a Field or its SpectralField, as in sobolev_norm.
    """
    alpha, p, q = params.alpha, params.p, params.q
    F = f if isinstance(f, SpectralField) else dft(f)
    if alpha <= 1.0:
        # at or below zero, lift 1 - alpha orders up the scale and measure at order one
        order, lift = (1.0, Hermitian(_bessel, 1.0 - alpha)) if alpha <= 0.0 else (alpha, None)
        norm, seminorm = _seminorm(F, order, p, q, factor=lift)
        return float(norm), seminorm
    k = math.ceil(alpha) - 1  # strictly-less-than bracket: [alpha] < alpha
    frac = alpha - k  # in (0, 1]; equals 1 at integer alpha (Zygmund case)
    sobolev = _lower_norms(F, multi_indices(f.grid.dim, k - 1), p)
    semis = []
    for beta in multi_indices(f.grid.dim, k):
        if mi_order(beta) == k:
            # the top derivative's L^p norm rides with its second differences
            norm, semi = _seminorm(F, frac, p, q, factor=Hermitian(monomial, alpha=beta))
            sobolev.append(norm)
            semis.append(semi)
    return float(sum(sobolev)), float(sum(semis))

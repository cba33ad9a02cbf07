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
                   lp_norms, monomial, power_means, spectral_derivatives)
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


def _lp_norms(stacks, grid, ps) -> dict:
    """The L^p norm of every field of every sample stack, in order, for each p of `ps`.

    Each stack is reduced once, under every p, as it comes, so no two stacks are held at once.
    """
    chunks = [lp_norms(stack, ps, grid=grid) for stack in stacks]
    return {p: [n for chunk in chunks for n in chunk[i]] for i, p in enumerate(ps)}


def sobolev_norm(f, k: int, p: float) -> float:
    """W^{k,p} norm: sum of L^p norms of all derivatives up to order k; f a Field or its spectrum."""
    F = f if isinstance(f, SpectralField) else dft(f)
    return float(sum(_lower_norms(F, multi_indices(f.grid.dim, k), [p])[p]))


def _lower_norms(F: SpectralField, alphas, ps) -> dict:
    """The L^p norms of the d^alpha f with spectrum F, for `alphas`, which start with zero,
    for each p of `ps`.

    The order-zero term is read from the samples dft transformed; a spectrum made without
    them carries it in the derivative stack.
    """
    if F.source is None:
        return _lp_norms(spectral_derivatives(F, alphas), F.grid, ps)
    derivatives = _lp_norms(spectral_derivatives(F, alphas[1:]), F.grid, ps)
    return {p: [n] + derivatives[p] for p, n in zip(ps, lp_norms(F.source, ps, grid=F.grid))}


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


def _shell_functional(grid, table, diffs, alpha: float, q: float) -> float:
    """The |x|^(-alpha)-weighted l^q functional of the L^p norms `diffs` of the second
    differences at the rows of the grid's _difference_table after its identity row."""
    radii, rep, _ = table
    arr = np.asarray(diffs).reshape(len(radii), -1)[:, rep] / np.array(radii)[:, None] ** alpha
    # per-shell midpoint rule in log-radius against dx / |x|^m, averaged over the directions
    m = grid.dim  # the unit sphere in R^m has area 2 pi^(m/2) / Gamma(m/2)
    area = 2.0 * np.pi ** (m / 2.0) / math.gamma(m / 2.0)
    return float(power_means(arr.reshape(-1), area * math.log(2.0) / len(rep), [q])[0])


def second_difference_seminorm(f: Field, alpha: float, p: float, q: float) -> float:
    """The |x|^(-alpha)-weighted second-difference functional, 0 < alpha <= 1."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError("second-difference seminorm needs alpha in (0, 1]")
    return besov_parts(f, BesovParams(alpha, p, q))[1]


def besov_norm(f, params: BesovParams) -> float:
    """The B^alpha_{p,q} norm of f, a Field (transformed once) or its SpectralField."""
    return besov_norms(f, [params])[0]


def besov_norms(f, points) -> list:
    """The B^alpha_{p,q} norms of f at each BesovParams of `points`, in order."""
    return [float(sum(parts)) for parts in _besov_parts(f, points)]


def besov_parts(f, params: BesovParams) -> tuple:
    """The B^alpha_{p,q} norm of f as (its Sobolev part, its second-difference part).

    For alpha > 1 the Sobolev part is the W^{k,p} norm of f, k = ceil(alpha) - 1, and the
    second-difference part sums the functionals of the order-k derivatives; otherwise
    they are the L^p norm and the functional of f, or of its Bessel lift for alpha <= 0.
    f is a Field or its SpectralField, as in sobolev_norm.
    """
    return _besov_parts(f, [params])[0]


def _stack_set(alpha: float) -> tuple:
    """(gamma, k): the stacks behind a B^alpha norm are the second differences of the
    order-k derivatives of f, or of its Bessel lift by gamma, and, for k >= 1, the
    lower-order derivatives.  They do not depend on p or q."""
    if alpha <= 0.0:
        # at or below zero, lift 1 - alpha orders up the scale and measure at order one
        return 1.0 - alpha, 0
    return None, math.ceil(alpha) - 1  # strictly-less-than bracket: [alpha] < alpha


def _besov_parts(f, points) -> list:
    """besov_parts at each of `points`: one dft of f and one stack set per _stack_set, each
    stack reduced under every p that the points of its set ask for."""
    F = f if isinstance(f, SpectralField) else dft(f)
    grid, dim = F.grid, F.grid.dim
    table = _difference_table(grid)
    keys = [_stack_set(P.alpha) for P in points]
    sets = {}  # stack set -> the p its stacks are reduced under, in first-asked order
    for key, P in zip(keys, points):
        sets.setdefault(key, {})[P.p] = None
    norms = {}  # stack set -> (lower-order norms, top-derivative norms) under each p
    for (gamma, k), ps in sets.items():
        if k == 0:
            lower = dict.fromkeys(ps, [])
            factors = [None if gamma is None else Hermitian(_bessel, gamma)]
        else:
            # each top derivative's L^p norm rides with its second differences
            lower = _lower_norms(F, multi_indices(dim, k - 1), ps)
            factors = [Hermitian(monomial, alpha=beta)
                       for beta in multi_indices(dim, k) if mi_order(beta) == k]
        tops = [_lp_norms(apply_multipliers(F, _difference_multipliers, table[2], factor), grid, ps)
                for factor in factors]
        norms[gamma, k] = lower, tops
    parts = []
    for (gamma, k), P in zip(keys, points):
        lower, tops = norms[gamma, k]
        order = 1.0 if gamma is not None else P.alpha - k  # in (0, 1]; 1 at integer alpha
        sobolev = lower[P.p] + [top[P.p][0] for top in tops]
        semis = [_shell_functional(grid, table, top[P.p][1:], order, P.q) for top in tops]
        parts.append((float(sum(sobolev)), float(sum(semis))))
    return parts

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

from .grid import (_STACK_POINTS, Field, Hermitian, SpectralField, _check_same, apply_multiplier,
                   apply_multipliers, dft, lp_norms, monomial, power_means, spectral_derivatives)
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


def _lp_norms(stacks, grid, ps, fields: int) -> dict:
    """The L^p norms (n, fields) of every sample stack (*shape, n, fields * l), in order, for
    each p of `ps`, (0, fields) when there are none: the stacks hold `fields` fields side by
    side on the channel axis, and each field's channel 2-norm stays its own.

    Each stack is reduced once, under every p, as it comes, so no two stacks are held at once.
    """
    chunks = [lp_norms(stack.reshape(stack.shape[:-1] + (fields, -1)), ps, grid=grid)
              for stack in stacks]
    return {p: np.concatenate([np.empty((0, fields))] + [chunk[i] for chunk in chunks])
            for i, p in enumerate(ps)}


def sobolev_norm(f, k: int, p: float) -> float:
    """W^{k,p} norm: sum of L^p norms of all derivatives up to order k; f a Field or its spectrum."""
    F = f if isinstance(f, SpectralField) else dft(f)
    return float(sum(_lower_norms(F, multi_indices(f.grid.dim, k), [p], 1)[p][:, 0]))


def _lower_norms(F: SpectralField, alphas, ps, fields: int) -> dict:
    """The L^p norms (len(alphas), fields) of the d^alpha f of the `fields` fields with spectrum
    F, side by side as in _lp_norms, for `alphas`, which start with zero, for each p of `ps`.

    The order-zero term is read from the samples dft transformed; a spectrum made without
    them carries it in the derivative stack.
    """
    if F.source is None:
        return _lp_norms(spectral_derivatives(F, alphas), F.grid, ps, fields)
    derivatives = _lp_norms(spectral_derivatives(F, alphas[1:]), F.grid, ps, fields)
    source = F.source.reshape(F.grid.shape + (fields, -1))
    return {p: np.concatenate([n[None], derivatives[p]])
            for p, n in zip(ps, lp_norms(source, ps, grid=F.grid))}


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
    """(radii, weight, rows): the dyadic radii, the functional's weight and the rows.

    The second difference is the multiplier 2 (cos xi.h - 1), even in h, so of
    unit_directions(dim, 8) each direction is kept once up to sign: each kept one
    stands for the same number of the 8 (two in 1-D and 2-D, one from 3-D up), and
    the weight, area * ln 2 / directions, averages over the kept ones.  A row (h, c)
    is the multiplier c - 4 sin^2(xi.h / 2): the identity (0, 1), then (rho w, 0)
    shell by shell.
    """
    dirs = unit_directions(grid.dim, 8)
    kept = np.array([w for i, w in enumerate(dirs)
                     if not any(np.allclose(v, -w, atol=1e-12) for v in dirs[:i])])
    radii = np.array(displacement_shells(grid))
    rows = np.zeros((1 + len(radii) * len(kept), grid.dim + 1))
    rows[0, -1] = 1.0
    rows[1:, :-1] = (radii[:, None, None] * kept).reshape(-1, grid.dim)
    radii.flags.writeable = rows.flags.writeable = False
    m = grid.dim  # the unit sphere in R^m has area 2 pi^(m/2) / Gamma(m/2)
    area = 2.0 * np.pi ** (m / 2.0) / math.gamma(m / 2.0)
    return radii, area * math.log(2.0) / len(kept), rows


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
    return batch_norms([f], points)[0]


def batch_norms(fields, points) -> list:
    """The besov_norms of each of `fields` at `points`: one list of norms per field, in order.

    The fields share one grid and one channel count.  Runs of them go through one transform
    and one stack set per _stack_set side by side on the channel axis (_batches), so that a
    run shares every multiplier build, inverse transform and reduction.  A run takes the
    real route of apply_multipliers only if all its fields are real: the program's batches
    are all real or all complex (patches share their field's realness, resolvent solutions
    are complex).  A field may be a SpectralField only in a batch of one.
    """
    return [[float(sum(parts)) for parts in field] for field in _besov_parts(fields, points)]


def besov_parts(f, params: BesovParams) -> tuple:
    """The B^alpha_{p,q} norm of f as (its Sobolev part, its second-difference part).

    For alpha > 1 the Sobolev part is the W^{k,p} norm of f, k = ceil(alpha) - 1, and the
    second-difference part sums the functionals of the order-k derivatives; otherwise
    they are the L^p norm and the functional of f, or of its Bessel lift for alpha <= 0.
    f is a Field or its SpectralField, as in sobolev_norm.
    """
    return _besov_parts([f], [params])[0][0]


def _stack_set(alpha: float) -> tuple:
    """(gamma, k): the stacks behind a B^alpha norm are the second differences of the
    order-k derivatives of f, or of its Bessel lift by gamma, and, for k >= 1, the
    lower-order derivatives.  They do not depend on p or q."""
    if alpha <= 0.0:
        # at or below zero, lift 1 - alpha orders up the scale and measure at order one
        return 1.0 - alpha, 0
    return None, math.ceil(alpha) - 1  # strictly-less-than bracket: [alpha] < alpha


def _batches(fields):
    """(count, spectrum) per run of consecutive `fields`: the spectrum of the run's samples side
    by side on the channel axis.  A run's samples hold at most _STACK_POINTS complex points,
    so that a run, like a chunk of apply_multipliers, stays within 1 MB; a larger field runs
    alone.  A field on another grid or with another channel count than the first is refused,
    as Field arithmetic refuses it."""
    run, size, first = [], 0, None
    for f in fields:
        first = f if first is None else first
        _check_same(first, f)
        points = f.grid.num_points * f.channels
        if run and size + points > _STACK_POINTS:
            yield _joined(run)
            run, size = [], 0
        run.append(f)
        size += points
    if run:
        yield _joined(run)


def _joined(run: list) -> tuple:
    """(len(run), the spectrum of the run's fields side by side); empties `run`, so that the
    fields' own samples can go once they are copied."""
    if len(run) == 1:
        f = run.pop()
        return 1, f if isinstance(f, SpectralField) else dft(f)
    grid, count = run[0].grid, len(run)
    samples = np.concatenate([f.samples for f in run], axis=-1)
    run.clear()
    return count, dft(Field(grid, samples))


def _besov_parts(fields, points) -> list:
    """besov_parts of each of `fields` at each of `points`: per run of _batches, one dft and one
    stack set per _stack_set, each stack reduced under every p of the points; then per point
    one column sum of the Sobolev parts and one functional reduction of the run's columns."""
    keys = [_stack_set(P.alpha) for P in points]
    ps = list(dict.fromkeys(P.p for P in points))
    parts = []
    for count, F in _batches(fields):
        grid, dim = F.grid, F.grid.dim
        radii, weight, rows = _difference_table(grid)
        norms = {}  # stack set -> (lower-order norms, top-derivative norms) under each p
        for gamma, k in dict.fromkeys(keys):
            if k == 0:
                lower = dict.fromkeys(ps, np.empty((0, count)))
                factors = [None if gamma is None else Hermitian(_bessel, gamma)]
            else:
                # each top derivative's L^p norm rides with its second differences
                lower = _lower_norms(F, multi_indices(dim, k - 1), ps, count)
                factors = [Hermitian(monomial, alpha=beta)
                           for beta in multi_indices(dim, k) if mi_order(beta) == k]
            tops = [_lp_norms(apply_multipliers(F, _difference_multipliers, rows, factor),
                              grid, ps, count)
                    for factor in factors]
            norms[gamma, k] = lower, tops
        del F  # so that the next run's spectrum is not made while this one is held
        columns = []
        for (gamma, k), P in zip(keys, points):
            lower, tops = norms[gamma, k]
            order = 1.0 if gamma is not None else P.alpha - k  # in (0, 1]; 1 at integer alpha
            sobolev = sum(list(lower[P.p]) + [top[P.p][0] for top in tops])
            # a contiguous row per (top derivative, field), reduced as one field alone would be:
            # np.array copies in C order, where np.stack would keep the transposes' strides
            diffs = np.array([top[P.p][1:].T.reshape(count, len(radii), -1) for top in tops])
            diffs = (diffs / (radii ** order)[:, None]).reshape(len(tops) * count, -1)
            semis = power_means(diffs.T, weight, [P.q])[0].reshape(len(tops), count)
            columns.append((sobolev, sum(semis)))
        parts += [[(float(s[j]), float(d[j])) for s, d in columns] for j in range(count)]
    return parts

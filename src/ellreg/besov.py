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

from . import grid as _grid  # _STACK_POINTS read through the module: one constant for every chunk
from .grid import (Field, Hermitian, SpectralField, _check_same, _multiplier_chunks, _power_product,
                   apply_multiplier, dft, lp_norms, monomial, power_means)
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


@Hermitian
def _monomials(alphas, xi) -> np.ndarray:
    """The derivative stack's build: (i xi)^alpha for each alpha of `alphas`."""
    return np.stack([monomial(xi, a) for a in alphas])


def _moduli(symbol, *args) -> np.ndarray:
    """|symbol(*args)| for a factor symbol(xi) or a build symbol(rows, xi) of _stack_norms.
    A monomial's is that of its real _power_product, with no complex array: the unit i^|alpha|
    has modulus one."""
    if symbol is _monomials:
        rows, xi = args
        return np.abs(np.stack([_power_product(xi, alpha) for alpha in rows]))
    if isinstance(symbol, Hermitian) and symbol.func is monomial:
        return np.abs(_power_product(*args, **symbol.keywords))
    return np.abs(symbol(*args))


@dataclass
class _Run:
    """The spectrum F of `count` fields side by side on the channel axis, as _batches makes it."""

    F: SpectralField
    count: int

    @functools.cached_property
    def amplitudes(self) -> np.ndarray:
        """Per field, the channel 2-norm of its coefficients on the lattice, one contiguous row
        per field (count, lattice)."""
        c = np.abs(self.F.coefficients.reshape(self.F.grid.num_points, self.count, -1))
        a = c[..., 0] if c.shape[-1] == 1 else _grid.power_means(c, 1.0, [2])[0]
        return np.ascontiguousarray(a.T)


def _parseval_norms(run: _Run, build, rows, factors) -> list:
    """The L^2 norms (len(rows), run.count) of the sample stacks that _multiplier_chunks(run.F,
    build, rows, factors) yields, one array per factor, with no inverse transform.  By Parseval,

        h^m sum_x |idft(m F)|^2 = (2L)^m sum_xi |m(xi)|^2 sum_l |c_xi,l|^2,

    so each is the power_means at p = 2 of the values |m factor| a (run.amplitudes), weight
    (2L)^m.  The moduli |m| are built in chunks of rows that hold at most _STACK_POINTS values
    per field; each (row, field) is its own power_means row, scaled by its own maximum, so that
    a field's norms are the same alone or in a batch, and whichever stacks share the call.
    Moduli that overflow give NaN norms, as the inverse transforms of their products give NaN
    samples.
    """
    grid, xi = run.F.grid, run.F.grid.freqs()
    per = max(1, _grid._STACK_POINTS // run.amplitudes.size)
    scales = [None if f is None else _moduli(f, xi).reshape(-1) for f in factors]
    chunks = []
    for start in range(0, len(rows), per):
        moduli = _moduli(build, rows[start:start + per], xi)
        moduli = moduli.reshape(len(moduli), -1)
        norms = []
        for scale in scales:
            m = moduli if scale is None else moduli * scale
            n = _grid.power_means(m[:, None] * run.amplitudes, grid.volume, [2])[0]
            n[np.isinf(m).any(axis=-1)] = np.nan
            norms.append(n)
        chunks.append(norms)
    return _joined_rows(chunks, len(factors), run.count)


def _joined_rows(chunks: list, width: int, count: int) -> list:
    """The norms (rows, count) of consecutive chunks of rows, each chunk a list of `width`
    arrays (n, count): one array per place, its chunks joined in order."""
    return [np.concatenate([np.empty((0, count))] + [chunk[i] for chunk in chunks])
            for i in range(width)]


def _stack_norms(run: _Run, build, rows, factors, ps) -> list:
    """The L^p norms (len(rows), run.count) of the sample stacks of _multiplier_chunks(run.F,
    build, rows, factors) for each factor and each p of `ps`, one dict per factor: p = 2 of every
    factor from the lattice (_parseval_norms), any other p from the samples of the inverse
    transforms, which only those take.  Each chunk of rows is built once for every factor.

    Each stack is reduced once, under every p, as it comes, so no two stacks are held at once.
    """
    others, grid, count = [p for p in ps if p != 2.0], run.F.grid, run.count
    reduced = [[] for _ in factors]  # per factor, the chunks' norms
    # p = 2 alone takes no inverse transform, so no chunk is built for it here
    for stacks in (_multiplier_chunks(run.F, build, rows, factors) if others else ()):
        for chunks in reduced:
            # the stacks hold the run's fields side by side on the channel axis, each field's
            # channel 2-norm its own; each is let go before the next one is made
            stack = next(stacks)
            chunks.append(lp_norms(stack.reshape((len(stack), count, -1) + grid.shape), others,
                                   grid=grid))
            del stack
    norms = [dict(zip(others, _joined_rows(chunks, len(others), count))) for chunks in reduced]
    if 2.0 in ps:
        for n, l2 in zip(norms, _parseval_norms(run, build, rows, factors)):
            n[2.0] = l2
    return norms


def sobolev_norm(f, k: int, p: float) -> float:
    """W^{k,p} norm: sum of L^p norms of all derivatives up to order k; f a Field or its spectrum."""
    run = _Run(f if isinstance(f, SpectralField) else dft(f), 1)
    return float(sum(_lower_norms(run, multi_indices(f.grid.dim, k), [p])[p][:, 0]))


def _lower_norms(run: _Run, alphas, ps) -> dict:
    """The L^p norms (len(alphas), run.count) of the d^alpha f of the fields of `run`, for
    `alphas`, which start with zero, for each p of `ps`.

    p = 2 comes from the lattice at every order (_stack_norms).  Any other p reads the
    order-zero term from the samples dft transformed; a spectrum made without them carries
    it in the derivative stack.
    """
    F, dim, others = run.F, run.F.grid.dim, [p for p in ps if p != 2.0]
    if F.source is None or not others:
        return _stack_norms(run, _monomials, alphas, [None], ps)[0]
    (norms,) = _stack_norms(run, _monomials, alphas[1:], [None], ps)
    source = F.source.reshape(F.grid.shape + (run.count, -1))  # a stack (count, l, *shape):
    zero = lp_norms(np.moveaxis(source, range(dim), range(-dim, 0)), others, grid=F.grid)
    if len(others) < len(ps):
        zero.append(_parseval_norms(run, _monomials, alphas[:1], [None])[0][0])
    return {p: np.concatenate([n[None], norms[p]]) for p, n in zip(others + [2.0], zero)}


def displacement_shells(grid) -> list:
    """The dyadic radii L / 2^j, j = 1 .. floor(log2 N): from half the half-period down to
    between h/2 and h, at every L, so that the functional is exactly homogeneous under dilation."""
    return [grid.half_period / 2.0**j for j in range(1, grid.points_per_axis.bit_length())]


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
    trigonometry runs on the points of each axis, and one row-major lattice buffer
    (n, *lattice) takes the cancellation-free finish c - 4 s^2 in place.
    """
    dim, n = rows.shape[1] - 1, len(rows)
    axes = [xi[(0,) * d + (slice(None),) + (0,) * (dim - 1 - d) + (d,)] for d in range(dim)]
    angles = [(0.5 * (rows[:, d, None] * k)).reshape((n,) + (1,) * d + (len(k),)
                                                      + (1,) * (dim - 1 - d))
              for d, k in enumerate(axes)]
    s, c = np.sin(angles[0]), (np.cos(angles[0]) if dim > 1 else None)
    for d in range(1, dim):
        sin_a, cos_a = np.sin(angles[d]), np.cos(angles[d])
        # the last axis needs no cos of the sum
        s, c = s * cos_a + c * sin_a, (c * cos_a - s * sin_a if d < dim - 1 else None)
    s *= s
    s *= -4.0
    s += rows[:, -1].reshape((n,) + (1,) * dim)
    return s


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
    real route of _multiplier_chunks only if all its fields are real: the program's batches
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
    """A _Run per run of consecutive `fields`: the spectrum of the run's samples side by side on
    the channel axis.  A run's samples hold at most _STACK_POINTS complex points,
    so that a run, like a chunk of _multiplier_chunks, stays within 1 MB; a larger field runs
    alone.  A field on another grid or with another channel count than the first is refused,
    as Field arithmetic refuses it, and so is a SpectralField in a batch of more than one."""
    run, size, first = [], 0, None
    for f in fields:
        if first is not None and (isinstance(first, SpectralField) or isinstance(f, SpectralField)):
            raise ValueError("a SpectralField is measured only in a batch of one field")
        first = f if first is None else first
        _check_same(first, f)
        points = f.grid.num_points * f.channels
        if run and size + points > _grid._STACK_POINTS:
            yield _joined(run)
            run, size = [], 0
        run.append(f)
        size += points
    if run:
        yield _joined(run)


def _joined(run: list) -> _Run:
    """The _Run of the run's fields side by side; empties `run`, so that the fields' own samples
    can go once they are copied."""
    if len(run) == 1:
        f = run.pop()
        return _Run(f if isinstance(f, SpectralField) else dft(f), 1)
    grid, count = run[0].grid, len(run)
    samples = np.concatenate([f.samples for f in run], axis=-1)
    run.clear()
    return _Run(dft(Field(grid, samples)), count)


def _top_factors(key: tuple, dim: int) -> list:
    """The factors of the top stacks of the stack set `key` = (gamma, k) of _stack_set: the
    Bessel lift by gamma, none, or each order-k derivative."""
    gamma, k = key
    if k == 0:
        return [None if gamma is None else Hermitian(_bessel, gamma)]
    return [Hermitian(monomial, alpha=beta) for beta in multi_indices(dim, k) if mi_order(beta) == k]


def _besov_parts(fields, points) -> list:
    """besov_parts of each of `fields` at each of `points`: per run of _batches, one dft, the
    top stacks of every stack set (_stack_set) in one _stack_norms call and each set's lower
    orders, each stack reduced under every p of the points; then per point one column sum of
    the Sobolev parts and one functional reduction of the run's columns."""
    keys = [_stack_set(P.alpha) for P in points]
    sets, ps = dict.fromkeys(keys), list(dict.fromkeys(P.p for P in points))
    parts = []
    for run in _batches(fields):
        grid, dim, count = run.F.grid, run.F.grid.dim, run.count
        radii, weight, rows = _difference_table(grid)
        stacks = [(key, factor) for key in sets for factor in _top_factors(key, dim)]
        top_norms = _stack_norms(run, _difference_multipliers, rows, [f for _, f in stacks], ps)
        norms = {}  # stack set -> (lower-order norms, top-derivative norms) under each p
        for gamma, k in sets:
            # each top derivative's L^p norm rides with its second differences
            lower = (_lower_norms(run, multi_indices(dim, k - 1), ps) if k
                     else dict.fromkeys(ps, np.empty((0, count))))
            norms[gamma, k] = lower, [n for (key, _), n in zip(stacks, top_norms)
                                      if key == (gamma, k)]
        del run  # so that the next run's spectrum is not made while this one is held
        columns = []
        for (gamma, k), P in zip(keys, points):
            lower, tops = norms[gamma, k]
            order = 1.0 if gamma is not None else P.alpha - k  # in (0, 1]; 1 at integer alpha
            sobolev = sum(list(lower[P.p]) + [top[P.p][0] for top in tops])
            # one row per (top derivative, field), reduced as one field alone would be
            diffs = np.array([top[P.p][1:].T.reshape(count, len(radii), -1) for top in tops])
            diffs = (diffs / (radii ** order)[:, None]).reshape(len(tops) * count, -1)
            semis = power_means(diffs, weight, [P.q])[0].reshape(len(tops), count)
            columns.append((sobolev, sum(semis)))
        parts += [[(float(s[j]), float(d[j])) for s, d in columns] for j in range(count)]
    return parts

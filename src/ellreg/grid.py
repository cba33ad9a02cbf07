"""Periodic uniform grids, sampled complex fields, and their spectral twins.

The torus [-L, L)^m stands in for R^m; all fields of interest are supported
well away from the seam, which makes the discrete Fourier transform an exact
realization of the continuum transform on band-limited data.

Conventions
-----------
Grid points are x_j = -L + j * (2L/N).  The frequency lattice is
xi = (pi/L) * k with integer k in [-N/2, N/2).  Coefficients follow

    fhat(xi) = (2L)^{-m} * integral of f(x) exp(-i xi.x) dx,

so a constant field has a single coefficient at xi = 0.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import ChannelMismatch, GridMismatch


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid on [-L, L)^m with N points per axis."""

    dim: int
    points_per_axis: int
    half_period: float

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        n = self.points_per_axis
        if n < 4 or n % 2 != 0:
            raise ValueError("points_per_axis must be even and >= 4")
        if not (math.isfinite(self.half_period) and self.half_period > 0):
            raise ValueError("half_period must be finite and positive")

    # cached on the instance: these and the lattice are read on every transform and norm
    @functools.cached_property
    def spacing(self) -> float:
        return 2.0 * self.half_period / self.points_per_axis

    @property
    def volume(self) -> float:
        return (2.0 * self.half_period) ** self.dim

    @functools.cached_property
    def shape(self) -> tuple:
        return (self.points_per_axis,) * self.dim

    @functools.cached_property
    def num_points(self) -> int:
        return self.points_per_axis ** self.dim

    def axis_points(self) -> np.ndarray:
        n = self.points_per_axis
        return -self.half_period + self.spacing * np.arange(n)

    def coords(self) -> np.ndarray:
        """Grid coordinates, shape (*shape, dim)."""
        axes = [self.axis_points()] * self.dim
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack(mesh, axis=-1)

    def axis_wavenumbers(self) -> np.ndarray:
        """Integer FFT wavenumbers k in FFT ordering."""
        n = self.points_per_axis
        return np.rint(np.fft.fftfreq(n) * n).astype(int)

    def freqs(self) -> np.ndarray:
        """Frequency lattice xi = (pi/L) k, shape (*shape, dim), FFT ordering; read-only."""
        return self._arrays[0]

    def _phase(self) -> np.ndarray:
        # exp(i pi k) per axis: accounts for the grid starting at x = -L.
        return self._arrays[1]

    @functools.cached_property
    def _arrays(self) -> tuple:
        # equal grids share one _lattice entry; this instance hashes itself for it once
        return _lattice(self)


@functools.lru_cache(maxsize=16)
def _lattice(grid: GridSpec):
    """The frequency lattice and origin phase of a grid, built once and frozen."""
    k = grid.axis_wavenumbers() * (np.pi / grid.half_period)
    freqs = np.stack(np.meshgrid(*([k] * grid.dim), indexing="ij"), axis=-1)
    sign = (-1.0) ** (grid.axis_wavenumbers() % 2)
    phase = functools.reduce(np.multiply.outer, [sign] * grid.dim)
    for arr in (freqs, phase):
        arr.flags.writeable = False
    return freqs, phase


def multi_index(alpha, dim: int) -> tuple:
    """alpha as a tuple of ints, or ValueError unless it is a multi-index of a dim-dimensional
    grid: dim entries, each a non-negative integer (a bool or a float is none)."""
    if len(alpha) != dim or not all(isinstance(a, (int, np.integer)) and not isinstance(a, bool)
                                    and a >= 0 for a in alpha):
        raise ValueError(f"{alpha!r} is not a multi-index of {dim} non-negative integers")
    return tuple(int(a) for a in alpha)


def monomial(xi: np.ndarray, alpha) -> np.ndarray:
    """(i xi)^alpha over the last axis: one frequency vector or a whole lattice, as the unit
    i^|alpha| times the real _power_product."""
    return 1j ** (sum(alpha) % 4) * _power_product(xi, alpha)


def _power_product(xi: np.ndarray, alpha) -> np.ndarray:
    """xi^alpha over the last axis, real, by repeated multiplication: |alpha| - 1 roundings at
    most, where a power takes a complex pow."""
    out = np.ones(xi.shape[:-1])
    for axis, a in enumerate(alpha):
        for _ in range(a):
            out *= xi[..., axis]
    return out


@dataclass
class Field:
    """Complex l-channel samples on a grid; shape (*grid.shape, channels)."""

    grid: GridSpec
    samples: np.ndarray

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.complex128)
        if self.samples.shape[:-1] != self.grid.shape:
            raise ValueError(
                f"sample shape {self.samples.shape} does not match grid {self.grid.shape}"
            )

    @property
    def channels(self) -> int:
        return self.samples.shape[-1]

    def __add__(self, other):
        _check_same(self, other)
        return Field(self.grid, self.samples + other.samples)

    def __sub__(self, other):
        _check_same(self, other)
        return Field(self.grid, self.samples - other.samples)

    def __mul__(self, scalar):
        return Field(self.grid, self.samples * scalar)

    __rmul__ = __mul__


@dataclass
class SpectralField:
    """Fourier coefficients on the frequency lattice, FFT ordering.

    `source` holds the samples dft transformed, when dft made the spectrum.  `real` says
    they are real; _multiplier_chunks asks only when its symbols could take the real route,
    and the answer is kept for the spectrum's later stacks.
    """

    grid: GridSpec
    coefficients: np.ndarray
    source: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients, dtype=np.complex128)
        if self.coefficients.shape[:-1] != self.grid.shape:
            raise ValueError("coefficient shape does not match grid")

    @property
    def channels(self) -> int:
        return self.coefficients.shape[-1]

    @functools.cached_property
    def real(self) -> bool:
        return self.source is not None and not self.source.imag.any()


def _check_same(a, b):
    if a.grid != b.grid:
        raise GridMismatch("fields live on different grids")
    if a.channels != b.channels:
        raise ChannelMismatch("channel counts differ")


def field_from_function(grid: GridSpec, func) -> Field:
    """Sample func(coords) -> (*shape,) or (*shape, channels) onto a Field."""
    vals = np.asarray(func(grid.coords()), dtype=np.complex128)
    if vals.shape == grid.shape:
        vals = vals[..., None]
    return Field(grid, vals)


# Per-axis transforms in fftn's order: bit-identical to fftn, without its per-call set-up.
# The first step makes one fresh array; every later axis and the scaling work in it.
def dft(f: Field) -> SpectralField:
    raw = np.fft.fft(f.samples, axis=f.grid.dim - 1)
    for axis in reversed(range(f.grid.dim - 1)):
        np.fft.fft(raw, axis=axis, out=raw)
    raw *= f.grid._phase()[..., None] / f.grid.num_points
    return SpectralField(f.grid, raw, f.samples)


def idft(F):
    """Samples of a SpectralField, as a Field; of a _Stack of _multiplier_chunks, as its
    row-major sample array (k, *shape), one contiguous plane per row of products."""
    if isinstance(F, _Stack):
        return _stack_inverse(F)
    samples = F.coefficients * F.grid._phase()[..., None]
    for axis in reversed(range(F.grid.dim)):
        np.fft.ifft(samples, axis=axis, out=samples)
    samples *= F.grid.num_points
    return Field(F.grid, samples)


def power_means(values: np.ndarray, weight: float, ps) -> list:
    """(weight * sum over the last axis of values^p)^(1/p) for each p of `ps`; the maximum at
    p = inf.

    The non-negative `values` are overwritten: each row is divided by d, its means multiplied
    back by d.  d is the power of two of the row maximum for p <= 1022 (an exact division; the
    largest quotient, at least 1/2, has a normal p-th power), and the maximum itself above.
    An inf maximum counts as the largest float, so that row's means are inf, never nan.
    A contiguous row is one pairwise sum, the same whichever rows share the call.
    """
    top = values.max(axis=-1, keepdims=True, initial=0.0)
    scaled_top, e = np.frexp(np.fmin(top, sys.float_info.max))  # scaled_top in [1/2, 1) or 0
    np.ldexp(values, -e, out=values)  # exact; a factor 2^-e would overflow at subnormal maxima
    top, e, alone = top[..., 0], e[..., 0], len(ps) == 1

    def mean(p):
        # a lone p works in `values` itself, and p = 1 reads them as they are: no copy
        powers = values if alone or p == 1.0 else values.copy()
        d = np.maximum(scaled_top, 0.5) if p > 1022 else 1.0  # 1/2 stands in for a zero row
        if p > 1022:
            powers /= d  # not x * (1/d): the max may land under 1
            d = d[..., 0]
        if p != 1.0:
            powers **= p
        return np.ldexp(d * (weight * powers.sum(axis=-1)) ** (1.0 / p), e)
    return [top if math.isinf(p) else mean(p) for p in ps]


def lp_norms(f, ps, mask: np.ndarray | None = None, grid: GridSpec | None = None) -> list:
    """Quadrature L^p norms for each p of `ps`: the power_means of the magnitude of `f`.

    `f` is a Field, or a sample stack (..., l, *grid.shape) with its `grid`, one norm per p for
    each leading index.  The magnitude is |f| for one channel, the channel 2-norm otherwise;
    `mask` is boolean, grid-shaped.  Each leading index's lattice is one contiguous row.
    """
    if isinstance(f, Field):
        grid, f, channel = f.grid, f.samples, -1
    else:
        channel = -1 - grid.dim
    mag = np.abs(f)
    if f.shape[channel] == 1:
        mag = mag.squeeze(channel)
    else:
        mag = power_means(mag if channel == -1 else np.moveaxis(mag, channel, -1), 1.0, [2])[0]
    lead = mag.ndim - grid.dim
    mag = np.ascontiguousarray(mag)  # a row per leading index: one pairwise sum each
    if mask is None:
        mag = mag.reshape(mag.shape[:lead] + (-1,))
    else:
        mag = mag[(slice(None),) * lead + (mask,)]
    return [n if n.ndim else float(n) for n in power_means(mag, grid.spacing ** grid.dim, ps)]


def lp_norm(f, p: float, mask: np.ndarray | None = None, grid: GridSpec | None = None):
    """The lp_norms of f at the one exponent p."""
    return lp_norms(f, [p], mask, grid)[0]


# Complex points one stacked inverse transform may hold (1 MB of complex128):
# a 1-D grid stacks hundreds of multipliers, a 256^2 field goes one at a time.
_STACK_POINTS = 1 << 16


class Hermitian(functools.partial):
    """A symbol family, bound like functools.partial, with m(-xi) = conj(m(xi)) at every real xi.

    `Hermitian(func, *args)(*rows, xi)` is `func(*args, *rows, xi)`: the family's values at
    the frequencies xi (*lattice, dim) that _multiplier_chunks asks for, which are the whole
    lattice or, for a real field, its half lattice and its Nyquist hyperplanes.  A family is
    declared where it is defined, with `@Hermitian`; binding it, `Hermitian(family, *args)`,
    keeps it Hermitian.
    """


def _multiplier_chunks(f, build, params, factors):
    """The samples of idft(m * factor * dft(f)) for the multipliers m of `params`, under each
    factor of `factors`, with one build per chunk for all of them.

    `f` is a Field or its SpectralField, so that stacks can share one forward transform.
    The multipliers of consecutive `params` rows come as one row-major array (n, *shape):
    `build(rows, xi)` at the frequencies xi of the lattice.  A factor is None or a scalar
    symbol `factor(xi)`, and multiplies dft(f) once.  Per chunk of at most _STACK_POINTS
    complex points of the whole lattice, yields an iterator of the chunk's sample stacks
    (n, l, *shape), one per factor, in order, to be read before the next chunk.  A stack holds
    one contiguous plane per (row, channel), which the inverse transforms in place and
    lp_norms sums as one row.

    The spectrum of a real field times Hermitian symbols is Hermitian off the Nyquist
    hyperplanes, so when f is real and build and every factor are Hermitian, the products are
    built on the half lattice and the leading axes' Nyquist hyperplanes only (_half_pieces),
    and idft inverts them with irfft (_half_inverse) into new arrays.  Everything else takes
    the whole lattice, where each product is transformed in place into the stack it yields.
    """
    if len(params) == 0:  # no rows: no coefficients to make ready
        return
    F = f if isinstance(f, SpectralField) else dft(f)
    grid, xi, phase = F.grid, F.grid.freqs(), F.grid._phase()
    per = max(1, _STACK_POINTS // F.coefficients.size)
    real = (isinstance(build, Hermitian)
            and all(isinstance(factor, (Hermitian, type(None))) for factor in factors) and F.real)
    pieces = _half_pieces(grid) if real else ((slice(None),) * grid.dim,)

    def rows_first(factor, s):
        # the piece's coefficients times the origin phase and the factor, channels first
        c = F.coefficients[s] * phase[s][..., None]
        if factor is not None:
            c *= factor(xi[s])[..., None]  # in place: c is the piece's own
        return np.ascontiguousarray(c.transpose((grid.dim,) + tuple(range(grid.dim))))

    coeffs = [[rows_first(factor, s) for s in pieces] for factor in factors]
    del factors  # only the products are needed by the chunks
    for start in range(0, len(params), per):
        ms = [build(params[start:start + per], xi[s]) for s in pieces]
        # each stack is made as it is read: map binds this chunk's ms and keeps no stack
        yield map(functools.partial(_stack_samples, grid, ms, real), coeffs)


def _stack_samples(grid: GridSpec, ms: list, real: bool, cs: list) -> np.ndarray:
    """The sample stack (n, l, *shape) of the multipliers `ms` (n, *piece) times the
    row-major coefficients `cs` (l, *piece), piece by piece."""
    products = [m[:, None] * c for m, c in zip(ms, cs)]
    rows = [p.reshape((-1,) + p.shape[2:]) for p in products]
    samples = idft(_Stack(grid, rows[0], tuple(rows[1:]) if real else None))
    return samples.reshape(products[0].shape[:2] + grid.shape)


def _half_pieces(grid: GridSpec) -> tuple:
    """Index tuples into the lattice: the half lattice (last axis k = 0..N/2), then each
    leading axis d's whole Nyquist hyperplane k_d = -N/2, kept as a length-1 axis."""
    h, lead = grid.points_per_axis // 2, (slice(None),) * (grid.dim - 1)
    planes = tuple(lead[:d] + (slice(h, h + 1),) for d in range(grid.dim - 1))
    return (lead + (slice(h + 1),),) + planes


@dataclass
class _Stack:
    """Row-major products (k, *lattice) of _multiplier_chunks, already times the origin phase
    exp(i pi k), for idft, which transforms `coefficients` in place: on the whole lattice, or,
    with `planes`, a real field's products with Hermitian symbols on the pieces of
    _half_pieces, `coefficients` on the half lattice and `planes[d]` on leading axis d's
    Nyquist hyperplane."""

    grid: GridSpec
    coefficients: np.ndarray
    planes: tuple | None = None


def _stack_inverse(F: _Stack) -> np.ndarray:
    """The samples (k, *shape) of F: plain sums (norm="forward" leaves the inverse unscaled),
    as idft's N^m ifftn; on the whole lattice, F's own array, transformed in place."""
    if F.planes is not None:
        return _half_inverse(F)
    for axis in range(1, F.grid.dim + 1):
        np.fft.ifft(F.coefficients, axis=-axis, out=F.coefficients, norm="forward")
    return F.coefficients


def _half_inverse(F: _Stack) -> np.ndarray:
    """Samples of the lattice product that F holds, every Nyquist bin carried exactly.

    Off the Nyquist hyperplanes k_d = -N/2 the product is Hermitian.  On them the lattice
    evaluates m at -N/2 from both sides, so the product G need not be: a real field's odd
    derivatives and 2-D second differences have an imaginary part there, which irfft
    alone would drop.  So G is split on each hyperplane into its Hermitian part, whose
    samples are real, and its anti-Hermitian part (G(k) - conj G(-k)) / 2, whose samples
    are imaginary.  The Hermitian part goes with the rest through ifft on the leading
    axes and irfft on the last, which symmetrizes the last axis's k = 0 and k = -N/2
    columns itself; a leading hyperplane's other bins are set to it here.  Each
    hyperplane's anti-Hermitian part, less the lower axes' ones (a bin counts once),
    gives the imaginary part by its (m-1)-dimensional transform times (-1)^{j_d}.
    Lattice axis d is array axis d + 1, after the stack axis.
    """
    grid = F.grid
    dim, n = grid.dim, grid.points_per_axis
    h, row, lead = n // 2, (slice(None),), (slice(None),) * (dim - 1)
    half = F.coefficients
    planes = list(F.planes) + [half[row + lead + (slice(h, h + 1),)]]
    negative = -np.arange(n) % n  # the index of -k
    antis = []
    for d, plane in enumerate(planes):
        mirror = plane.conj()  # conj G(-k), -k taken mod N on every axis but d
        for axis in range(dim):
            if axis != d:
                mirror = mirror.take(negative, axis + 1)
        if d < dim - 1:
            half[row + lead[:d] + (slice(h, h + 1),) + lead[d + 1:] + (slice(1, h),)] = (
                0.5 * (plane[..., 1:h] + mirror[..., 1:h]))
        anti = 0.5 * (plane - mirror)
        for e in range(d):
            anti[row + lead[:e] + (h,)] = 0.0
        antis.append(anti)
    for axis in reversed(range(dim - 1)):
        np.fft.ifft(half, axis=axis + 1, out=half, norm="forward")
    out = np.empty(half.shape[:1] + grid.shape, dtype=np.complex128)
    np.fft.irfft(half, n, axis=-1, out=out.real, norm="forward")
    imag = out.imag
    for d, anti in enumerate(antis):
        for axis in reversed(range(dim)):
            if axis != d:
                np.fft.ifft(anti, axis=axis + 1, out=anti, norm="forward")
        even, odd = row + lead[:d] + (slice(0, None, 2),), row + lead[:d] + (slice(1, None, 2),)
        if d == 0:  # the first hyperplane writes every sample's imaginary part
            imag[even], imag[odd] = anti.imag, -anti.imag
        else:
            imag[even] += anti.imag
            imag[odd] -= anti.imag
    return out


def multiply(F: SpectralField, values: np.ndarray) -> SpectralField:
    """The spectrum values * F of one lattice array: scalar (*shape,) or matrix (*shape, l, l)."""
    if values.ndim == F.grid.dim:
        return SpectralField(F.grid, F.coefficients * values[..., None])
    return SpectralField(F.grid, np.einsum("...ij,...j->...i", values, F.coefficients))


def apply_multiplier(f, values: np.ndarray) -> Field:
    """idft(values * dft(f)) for one lattice array `values`; f a Field or its SpectralField."""
    return idft(multiply(f if isinstance(f, SpectralField) else dft(f), values))


def spectral_derivative(f, alpha) -> Field:
    """Exact band-limited partial derivative of multi-index alpha; f a Field or its
    SpectralField."""
    return apply_multiplier(f, monomial(f.grid.freqs(), multi_index(alpha, f.grid.dim)))


def translate(f: Field, h) -> Field:
    """Band-limited translation x -> x + h via the phase exp(i xi.h)."""
    h = np.asarray(h, dtype=float)
    if h.shape != (f.grid.dim,):
        raise ValueError("shift vector has wrong length")
    return apply_multiplier(f, np.exp(1j * (f.grid.freqs() @ h)))


def random_band_limited_field(
    grid: GridSpec, channels: int, rng: np.random.Generator, band_fraction: float = 0.25
) -> Field:
    """Random smooth field: Gaussian coefficients with a Gaussian spectral taper."""
    xi = grid.freqs()
    cutoff = band_fraction * np.pi * grid.points_per_axis / (2.0 * grid.half_period)
    taper = np.exp(-np.sum((xi / cutoff) ** 2, axis=-1))
    shape = grid.shape + (channels,)
    coeff = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * taper[..., None]
    return idft(SpectralField(grid, coeff))


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


def monomial(xi: np.ndarray, alpha) -> np.ndarray:
    """(i xi)^alpha over the last axis: one frequency vector or a whole lattice."""
    out = np.ones(xi.shape[:-1], dtype=np.complex128)
    for axis, a in enumerate(alpha):
        if a:
            out = out * (1j * xi[..., axis]) ** a
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
    they are real; apply_multipliers asks only when its symbols could take the real route,
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


def idft(F) -> Field:
    """Samples of a SpectralField, or of a _HalfSpectrum (the real route of apply_multipliers)."""
    if isinstance(F, _HalfSpectrum):
        return Field(F.grid, _half_inverse(F))
    samples = F.coefficients * F.grid._phase()[..., None]
    for axis in reversed(range(F.grid.dim)):
        np.fft.ifft(samples, axis=axis, out=samples)
    samples *= F.grid.num_points
    return Field(F.grid, samples)


def power_means(values: np.ndarray, weight: float, ps) -> list:
    """(weight * sum over axis 0 of values^p)^(1/p) for each p of `ps`; the maximum at p = inf.

    The non-negative `values` are overwritten: each column is divided by d, its means multiplied
    back by d.  d is the power of two of the column maximum for p <= 1022 (an exact division;
    the largest quotient, at least 1/2, has a normal p-th power), and the maximum itself above.
    An inf maximum counts as the largest float, so that column's means are inf, never nan.
    """
    top = values.max(axis=0, initial=0.0)
    scaled_top, e = np.frexp(np.fmin(top, sys.float_info.max))  # scaled_top in [1/2, 1) or 0
    np.ldexp(values, -e, out=values)  # exact; a factor 2^-e would overflow at subnormal maxima

    def mean(p):
        d = np.maximum(scaled_top, 0.5) if p > 1022 else 1.0  # 1/2 stands in for a zero column
        scaled = values / d if p > 1022 else values  # not x * (1/d): the max may land under 1
        return np.ldexp(d * (weight * (scaled ** p).sum(axis=0)) ** (1.0 / p), e)
    return [top if math.isinf(p) else mean(p) for p in ps]


def lp_norms(f, ps, mask: np.ndarray | None = None, grid: GridSpec | None = None) -> list:
    """Quadrature L^p norms for each p of `ps`: the power_means of the magnitude of `f`.

    `f` is a Field, or a sample stack (*grid.shape, n, l) with its `grid`: n norms per p.  The
    magnitude is |f| for one channel, the channel 2-norm otherwise; `mask` is boolean, grid-shaped.
    """
    if isinstance(f, Field):
        grid, f = f.grid, f.samples
    mag = np.abs(f)
    mag = mag[..., 0] if f.shape[-1] == 1 else power_means(np.moveaxis(mag, -1, 0), 1.0, [2])[0]
    mag = mag.reshape((grid.num_points,) + mag.shape[grid.dim:]) if mask is None else mag[mask]
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
    the frequencies xi (*lattice, dim) that apply_multipliers asks for, which are the whole
    lattice or, for a real field, its half lattice and its Nyquist hyperplanes.  A family is
    declared where it is defined, with `@Hermitian`; binding it, `Hermitian(family, *args)`,
    keeps it Hermitian.
    """


def apply_multipliers(f, build, params, factor=None):
    """Yield the samples of idft(m * factor * dft(f)) for the multipliers m of `params`.

    `f` is a Field or its SpectralField, so that stacks can share one forward transform.
    The multipliers of consecutive `params` rows come as one array, scalar (*shape, n) or
    matrix (*shape, n, l1, l0): `build(rows)` on the whole lattice, or `build(rows, xi)` for
    a Hermitian build.  `factor` multiplies dft(f) once: a lattice array, scalar (*shape,)
    or matrix (*shape, l, l), or a scalar Hermitian symbol `factor(xi)`.  Each chunk of at
    most _STACK_POINTS complex points of the whole lattice goes back through one stacked
    inverse transform and is yielded as one sample stack (*shape, n, l).

    The spectrum of a real field times Hermitian symbols is Hermitian off the Nyquist
    hyperplanes, so when f is real and build and factor are Hermitian, the products are
    built on the half lattice and the leading axes' Nyquist hyperplanes only, and idft
    inverts them with irfft (_half_inverse).  Everything else takes the whole lattice.
    """
    F = f if isinstance(f, SpectralField) else dft(f)
    grid, dim, per = F.grid, F.grid.dim, max(1, _STACK_POINTS // F.coefficients.size)
    hermitian = isinstance(build, Hermitian)
    if hermitian and isinstance(factor, (Hermitian, type(None))) and F.real:
        yield from _half_stacks(F, build, params, factor, per)
        return
    xi = grid.freqs() if hermitian or isinstance(factor, Hermitian) else None
    coeff = F.coefficients
    if factor is not None:
        coeff = _times(factor(xi) if isinstance(factor, Hermitian) else factor, coeff, dim)
        del factor  # only the product is needed by the chunks
    for start in range(0, len(params), per):
        rows = params[start:start + per]
        product = _times(build(rows, xi) if hermitian else build(rows), coeff, dim)
        samples = idft(SpectralField(grid, product.reshape(grid.shape + (-1,)))).samples
        yield samples.reshape(product.shape)


def _half_stacks(F: SpectralField, build, params, factor, per: int):
    """apply_multipliers on the pieces of _half_pieces, for a real field's spectrum F."""
    grid, dim, xi = F.grid, F.grid.dim, F.grid.freqs()
    pieces = _half_pieces(grid)
    # the origin phase once here, not once per chunk in idft
    coeffs = [F.coefficients[s] * grid._phase()[s][..., None] for s in pieces]
    if factor is not None:
        coeffs = [_times(factor(xi[s]), c, dim) for s, c in zip(pieces, coeffs)]
        del factor  # only the products are needed by the chunks
    for start in range(0, len(params), per):
        rows = params[start:start + per]
        products = [_times(build(rows, xi[s]), c, dim) for s, c in zip(pieces, coeffs)]
        stack = products[0].shape[dim:]
        half, *planes = [p.reshape(p.shape[:dim] + (-1,)) for p in products]
        samples = idft(_HalfSpectrum(grid, half, tuple(planes))).samples
        yield samples.reshape(grid.shape + stack)


def _times(m: np.ndarray, F: np.ndarray, dim: int) -> np.ndarray:
    """m * F for coefficients F (*lattice, l) and one lattice multiplier or a stack of them.

    m is scalar (*lattice,) or matrix (*lattice, l, l), giving (*lattice, l), or a stack,
    scalar (*lattice, n) or matrix (*lattice, n, l1, l0), giving (*lattice, n, l).
    """
    if m.ndim == dim:
        return F * m[..., None]
    if m.ndim == dim + 1:
        return F[..., None, :] * m[..., None]
    return np.einsum("...ij,...j->...i" if m.ndim == dim + 2 else "...cij,...j->...ci", m, F)


def _half_pieces(grid: GridSpec) -> tuple:
    """Index tuples into the lattice: the half lattice (last axis k = 0..N/2), then each
    leading axis d's whole Nyquist hyperplane k_d = -N/2, kept as a length-1 axis."""
    h, lead = grid.points_per_axis // 2, (slice(None),) * (grid.dim - 1)
    planes = tuple(lead[:d] + (slice(h, h + 1),) for d in range(grid.dim - 1))
    return (lead + (slice(h + 1),),) + planes


@dataclass
class _HalfSpectrum:
    """Products of a real field's spectrum with Hermitian symbols on the pieces of _half_pieces,
    already times the origin phase exp(i pi k): `coefficients` on the half lattice, `planes[d]`
    on leading axis d's Nyquist hyperplane.  idft transforms `coefficients` in place."""

    grid: GridSpec
    coefficients: np.ndarray
    planes: tuple


def _half_inverse(F: _HalfSpectrum) -> np.ndarray:
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
    """
    grid = F.grid
    dim, n = grid.dim, grid.points_per_axis
    h, lead = n // 2, (slice(None),) * (dim - 1)
    half, planes = F.coefficients, list(F.planes) + [F.coefficients[lead + (slice(h, h + 1),)]]
    negative = -np.arange(n) % n  # the index of -k
    antis = []
    for d, plane in enumerate(planes):
        mirror = plane.conj()  # conj G(-k), -k taken mod N on every axis but d
        for axis in range(dim):
            if axis != d:
                mirror = mirror.take(negative, axis)
        if d < dim - 1:
            half[lead[:d] + (slice(h, h + 1),) + lead[d + 1:] + (slice(1, h),)] = (
                0.5 * (plane[..., 1:h, :] + mirror[..., 1:h, :]))
        anti = 0.5 * (plane - mirror)
        for e in range(d):
            anti[lead[:e] + (h,)] = 0.0
        antis.append(anti)
    # plain sums (norm="forward" leaves the inverse unscaled), as idft's N^m ifftn
    for axis in reversed(range(dim - 1)):
        np.fft.ifft(half, axis=axis, out=half, norm="forward")
    out = np.empty(grid.shape + half.shape[dim:], dtype=np.complex128)
    np.fft.irfft(half, n, axis=dim - 1, out=out.real, norm="forward")
    imag = out.imag
    for d, anti in enumerate(antis):
        for axis in reversed(range(dim)):
            if axis != d:
                np.fft.ifft(anti, axis=axis, out=anti, norm="forward")
        even, odd = lead[:d] + (slice(0, None, 2),), lead[:d] + (slice(1, None, 2),)
        if d == 0:  # the first hyperplane writes every sample's imaginary part
            imag[even], imag[odd] = anti.imag, -anti.imag
        else:
            imag[even] += anti.imag
            imag[odd] -= anti.imag
    return out


def apply_multiplier(f: Field, values: np.ndarray) -> Field:
    """Multiply coefficients by one lattice array: scalar (*shape,) or matrix (*shape, l, l)."""
    (samples,) = apply_multipliers(f, lambda rows: np.expand_dims(rows[0], f.grid.dim), [values])
    return Field(f.grid, samples[..., 0, :])


def spectral_derivatives(f, alphas, factor=None):
    """Stacks (*shape, n, l) of the band-limited d^alpha f; f, factor as in apply_multipliers."""
    alphas = [tuple(int(a) for a in alpha) for alpha in alphas]
    if any(len(alpha) != f.grid.dim for alpha in alphas):
        raise ValueError("multi-index length must equal grid dimension")
    return apply_multipliers(f, _monomials, alphas, factor)


@Hermitian
def _monomials(alphas, xi) -> np.ndarray:
    return np.stack([monomial(xi, a) for a in alphas], -1)


def spectral_derivative(f: Field, alpha) -> Field:
    """Exact band-limited partial derivative of multi-index alpha."""
    (stack,) = spectral_derivatives(f, [alpha])
    return Field(f.grid, stack[..., 0, :])


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


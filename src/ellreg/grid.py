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
from dataclasses import dataclass

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

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_period / self.points_per_axis

    @property
    def volume(self) -> float:
        return (2.0 * self.half_period) ** self.dim

    @property
    def shape(self) -> tuple:
        return (self.points_per_axis,) * self.dim

    @property
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
        return _lattice(self)[0]

    def _phase(self) -> np.ndarray:
        # exp(i pi k) per axis: accounts for the grid starting at x = -L.
        return _lattice(self)[1]


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
    """Fourier coefficients on the frequency lattice, FFT ordering."""

    grid: GridSpec
    coefficients: np.ndarray

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients, dtype=np.complex128)
        if self.coefficients.shape[:-1] != self.grid.shape:
            raise ValueError("coefficient shape does not match grid")


def _check_same(a, b):
    if a.grid != b.grid:
        raise GridMismatch("fields live on different grids")
    if a.samples.shape[-1] != b.samples.shape[-1]:
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
    return SpectralField(f.grid, raw)


def idft(F: SpectralField) -> Field:
    samples = F.coefficients * F.grid._phase()[..., None]
    for axis in reversed(range(F.grid.dim)):
        np.fft.ifft(samples, axis=axis, out=samples)
    samples *= F.grid.num_points
    return Field(F.grid, samples)


def lp_norm(f, p: float, mask: np.ndarray | None = None, grid: GridSpec | None = None):
    """Quadrature L^p norm; uniform-weight Riemann sum, sample max for p = inf.

    `f` is a Field, or a sample stack (*grid.shape, n, l) with its `grid`: n norms in one
    reduction.  The magnitude is |f| for one channel, the channel 2-norm otherwise.
    """
    if isinstance(f, Field):
        grid, f = f.grid, f.samples
    mag = np.abs(f[..., 0]) if f.shape[-1] == 1 else np.sqrt(np.sum(np.abs(f) ** 2, axis=-1))
    mag = mag.reshape((grid.num_points,) + mag.shape[grid.dim:])  # grid axes flattened
    if mask is not None:
        mag = mag[np.reshape(mask, -1)]
    if np.isinf(p):
        norms = np.max(mag, axis=0, initial=0.0)
    else:
        norms = (grid.spacing ** grid.dim * np.sum(mag ** p, axis=0)) ** (1.0 / p)
    return norms if norms.ndim else float(norms)


# Complex points one stacked inverse transform may hold (1 MB of complex128):
# a 1-D grid stacks hundreds of multipliers, a 256^2 field goes one at a time.
_STACK_POINTS = 1 << 16


def apply_multipliers(f, build, params, factor: np.ndarray | None = None):
    """Yield the samples of idft(m * factor * dft(f)) for the multipliers m = build(params).

    `f` is a Field or its SpectralField, so that stacks can share one forward transform;
    `factor`, scalar (*shape,) or matrix (*shape, l, l), multiplies it once.  `build(rows)`
    gives the multipliers of consecutive `params` rows as one array, scalar (*shape, n) or
    matrix (*shape, n, l1, l0).  Each chunk of at most _STACK_POINTS complex points goes
    back through one stacked inverse transform and is yielded as one sample stack.
    """
    F = f.coefficients if isinstance(f, SpectralField) else dft(f).coefficients
    if factor is not None:
        scalar = factor.ndim == f.grid.dim
        F = F * factor[..., None] if scalar else np.einsum("...ij,...j->...i", factor, F)
        del factor  # only the product is needed by the chunks
    per = max(1, _STACK_POINTS // F.size)
    for start in range(0, len(params), per):
        yield _inverse_chunk(F, f.grid, build, params[start:start + per])


def _inverse_chunk(F: np.ndarray, grid: GridSpec, build, rows) -> np.ndarray:
    """Samples of the products m * F for the multipliers m = build(rows), shape (*shape, n, l)."""
    m = build(rows)
    if m.ndim == grid.dim + 1:
        coeff = F[..., None, :] * m[..., None]
    else:
        coeff = np.einsum("...cij,...j->...ci", m, F)
    del m  # the multipliers are not needed by the inverse transform
    samples = idft(SpectralField(grid, coeff.reshape(grid.shape + (-1,)))).samples
    return samples.reshape(coeff.shape)


def apply_multiplier(f: Field, values: np.ndarray) -> Field:
    """Multiply coefficients by one lattice array: scalar (*shape,) or matrix (*shape, l, l)."""
    (samples,) = apply_multipliers(f, lambda rows: np.expand_dims(rows[0], f.grid.dim), [values])
    return Field(f.grid, samples[..., 0, :])


def spectral_derivatives(f, alphas, factor: np.ndarray | None = None):
    """Stacks (*shape, n, l) of the band-limited d^alpha f; f, factor as in apply_multipliers."""
    alphas = [tuple(int(a) for a in alpha) for alpha in alphas]
    if any(len(alpha) != f.grid.dim for alpha in alphas):
        raise ValueError("multi-index length must equal grid dimension")
    xi = f.grid.freqs()
    return apply_multipliers(f, lambda rows: np.stack([monomial(xi, a) for a in rows], -1),
                             alphas, factor)


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


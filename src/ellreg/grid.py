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
import itertools
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

    def copy(self) -> "Field":
        return Field(self.grid, self.samples.copy())

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

    @property
    def channels(self) -> int:
        return self.coefficients.shape[-1]


def _check_same(a, b):
    if a.grid != b.grid:
        raise GridMismatch("fields live on different grids")
    if a.samples.shape[-1] != b.samples.shape[-1]:
        raise ChannelMismatch("channel counts differ")


def field_from_function(grid: GridSpec, func, channels: int | None = None) -> Field:
    """Sample func(coords) -> (*shape,) or (*shape, channels) onto a Field."""
    vals = np.asarray(func(grid.coords()), dtype=np.complex128)
    if vals.shape == grid.shape:
        vals = vals[..., None]
    return Field(grid, vals)


def dft(f: Field) -> SpectralField:
    axes = tuple(range(f.grid.dim))
    raw = np.fft.fftn(f.samples, axes=axes)
    coeff = raw * (f.grid._phase()[..., None] / f.grid.num_points)
    return SpectralField(f.grid, coeff)


def idft(F: SpectralField) -> Field:
    axes = tuple(range(F.grid.dim))
    pre = F.coefficients * F.grid._phase()[..., None]
    samples = np.fft.ifftn(pre, axes=axes) * F.grid.num_points
    return Field(F.grid, samples)


def pointwise_norm(f: Field) -> np.ndarray:
    """Euclidean norm over channels at every grid point."""
    return np.sqrt(np.sum(np.abs(f.samples) ** 2, axis=-1))


def lp_norm(f: Field, p: float, mask: np.ndarray | None = None) -> float:
    """Quadrature L^p norm; uniform-weight Riemann sum, sample max for p = inf."""
    mag = pointwise_norm(f)
    if mask is not None:
        mag = mag[mask]
    if mag.size == 0:
        return 0.0
    if np.isinf(p):
        return float(np.max(mag))
    w = f.grid.spacing ** f.grid.dim
    return float((w * np.sum(mag ** p)) ** (1.0 / p))


# Complex points one stacked inverse transform may hold (1 MB of complex128):
# a 1-D grid stacks hundreds of multipliers, a 256^2 field goes one at a time.
_STACK_POINTS = 1 << 16


def apply_multipliers(f: Field, multipliers):
    """Yield idft(m * dft(f)) for each lattice multiplier m, in order.

    One forward transform serves the whole stack.  Each m is scalar (*shape,)
    or a matrix (*shape, l1, l0); the products ride along the channel axis and
    go back through stacked inverse transforms of at most _STACK_POINTS
    complex points.  `multipliers` may be lazy: one chunk is built at a time.
    """
    F = dft(f).coefficients
    per = max(1, _STACK_POINTS // F.size)
    stack = iter(multipliers)
    while (out := _inverse_chunk(F, f.grid, stack, per)) is not None:
        for j in range(out.shape[-2]):
            yield Field(f.grid, out[..., j, :])


def _inverse_chunk(F: np.ndarray, grid: GridSpec, stack, per: int):
    """Samples of the next (at most per) products m * F, shape (*shape, count, l)."""
    chunk = list(itertools.islice(stack, per))
    if not chunk:
        return None
    width = F.shape[-1] if chunk[0].ndim == grid.dim else chunk[0].shape[-2]
    coeff = np.empty(grid.shape + (len(chunk), width), dtype=np.complex128)
    for j in range(len(chunk)):
        if chunk[j].ndim == grid.dim:
            np.multiply(F, chunk[j][..., None], out=coeff[..., j, :])
        else:
            np.einsum("...ij,...j->...i", chunk[j], F, out=coeff[..., j, :])
    del chunk  # the multipliers are not needed by the inverse transform
    samples = idft(SpectralField(grid, coeff.reshape(grid.shape + (-1,)))).samples
    return samples.reshape(grid.shape + (-1, width))


def apply_multiplier(f: Field, values: np.ndarray) -> Field:
    """Multiply coefficients by one lattice array: scalar (*shape,) or matrix (*shape, l, l)."""
    return next(apply_multipliers(f, [values]))


def spectral_derivatives(f: Field, alphas):
    """Exact band-limited d^alpha f for each multi-index, from one forward transform."""
    alphas = [tuple(int(a) for a in alpha) for alpha in alphas]
    if any(len(alpha) != f.grid.dim for alpha in alphas):
        raise ValueError("multi-index length must equal grid dimension")
    xi = f.grid.freqs()
    stack = apply_multipliers(f, (monomial(xi, a) for a in alphas if any(a)))
    for alpha in alphas:
        yield next(stack) if any(alpha) else f.copy()


def spectral_derivative(f: Field, alpha) -> Field:
    """Exact band-limited partial derivative of multi-index alpha."""
    return next(spectral_derivatives(f, [alpha]))


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


"""Linear partial differential operators with smooth matrix coefficients.

An operator is a finite map from multi-indices to matrix coefficient arrays
of shape (*grid.shape, out_channels, in_channels).  Derivatives of fields are
spectral (exact on band-limited data); coefficient multiplication is
pointwise.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass, field
from reprlib import repr as brief  # a bounded repr, also of a deeply nested list
from types import MappingProxyType

import numpy as np

from .errors import ChannelMismatch, GridMismatch
from .grid import Field, GridSpec, dft, idft, monomial, multi_index, multiply


def multi_indices(dim: int, max_order: int):
    """All alpha in N^dim, dim >= 1, with |alpha| <= max_order: order by order, each order's in
    lexicographic order."""
    return [alpha for total in range(max_order + 1) for alpha in _compositions(total, dim)]


def _compositions(total: int, dim: int) -> list:
    """The alpha in N^dim with |alpha| = total, in lexicographic order."""
    if dim == 1:
        return [(total,)]
    return [(first,) + rest for first in range(total + 1)
            for rest in _compositions(total - first, dim - 1)]


def mi_order(alpha) -> int:
    return sum(alpha)


@dataclass(eq=False, frozen=True)
class PDOperator:
    """Sum over alpha of C_alpha(x) d^alpha, C_alpha an (l1 x l0) matrix field; read-only."""

    grid: GridSpec
    order: int
    in_channels: int
    out_channels: int
    coeffs: dict = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for alpha, arr in self.coeffs.items():
            alpha = multi_index(alpha, self.grid.dim)
            if mi_order(alpha) > self.order:
                raise ValueError(f"|{alpha}| exceeds declared order {self.order}")
            arr = np.asarray(arr, dtype=np.complex128)
            expected = self.grid.shape + (self.out_channels, self.in_channels)
            if arr.shape == (self.out_channels, self.in_channels):
                arr = np.broadcast_to(arr, expected)
            if arr.shape != expected:
                raise ValueError(f"coefficient for {alpha} has shape {arr.shape}")
            clean[alpha] = arr = arr.copy()
            arr.flags.writeable = False
        object.__setattr__(self, "coeffs", MappingProxyType(clean))

    def coefficient(self, alpha) -> np.ndarray:
        alpha = tuple(int(a) for a in alpha)
        expected = self.grid.shape + (self.out_channels, self.in_channels)
        return self.coeffs.get(alpha, np.zeros(expected, dtype=np.complex128))

    def principal_indices(self):
        return [a for a in self.coeffs if mi_order(a) == self.order]

    def is_constant_coefficient(self) -> bool:
        """Every coefficient exactly equal to its sample at the origin index."""
        origin = (0,) * self.grid.dim
        return all((arr == arr[origin]).all() for arr in self.coeffs.values())

    @functools.cached_property
    def symbol(self) -> np.ndarray | None:
        """The full symbol sum_alpha C_alpha (i xi)^alpha on the lattice, built once and
        read-only: (*shape,) for one channel, (*shape, l1, l0) otherwise; None when a
        coefficient varies."""
        if not self.is_constant_coefficient():
            return None
        origin, xi = (0,) * self.grid.dim, self.grid.freqs()
        sym = np.zeros(self.grid.shape + (self.out_channels, self.in_channels), dtype=np.complex128)
        for alpha, arr in self.coeffs.items():
            sym += monomial(xi, alpha)[..., None, None] * arr[origin]
        if self.out_channels == self.in_channels == 1:
            sym = sym[..., 0, 0]
        sym.flags.writeable = False
        return sym

    @functools.cached_property
    def _split_setups(self) -> dict:
        """The set-ups of `resolvent._split_solve` on this operator, by split and spectral
        parameter: kept, like `symbol`, as long as the operator lives."""
        return {}

    def frozen_at(self, x_index) -> "PDOperator":
        """Constant-coefficient operator with all coefficients evaluated at x_index."""
        x_index = tuple(int(i) for i in x_index)
        coeffs = {a: np.array(arr[x_index]) for a, arr in self.coeffs.items()}
        return PDOperator(self.grid, self.order, self.in_channels, self.out_channels, coeffs)


def operator_from_constant(grid: GridSpec, coeffs: dict, order: int) -> PDOperator:
    """Build an operator from {alpha: scalar or matrix} constant coefficients."""
    mats = {}
    channels = None
    for alpha, val in coeffs.items():
        mat = np.atleast_2d(np.asarray(val, dtype=np.complex128))
        mats[tuple(alpha)] = mat
        channels = mat.shape
    l1, l0 = channels
    return PDOperator(grid, order, l0, l1, mats)


def neg_laplacian(grid: GridSpec, channels: int = 1) -> PDOperator:
    """-Delta acting on each of `channels` channels."""
    eye = -np.eye(channels)
    coeffs = {}
    for axis in range(grid.dim):
        alpha = tuple(2 if a == axis else 0 for a in range(grid.dim))
        coeffs[alpha] = eye
    return operator_from_constant(grid, coeffs, order=2)


def apply(P: PDOperator, f, factor: np.ndarray | None = None) -> Field:
    """P f for a Field f, or for a SpectralField f, whose coefficients the lattice array `factor`
    multiplies first: a constant P multiplies the spectrum by P.symbol, one inverse transform
    for all its terms; a variable P sums C_alpha idft((i xi)^alpha F), one per term."""
    if f.grid != P.grid:
        raise GridMismatch("operator and field grids differ")
    if f.channels != P.in_channels:
        raise ChannelMismatch(f"field has {f.channels} channels, operator expects {P.in_channels}")
    F = dft(f) if isinstance(f, Field) else f
    if factor is not None:
        F = multiply(F, factor)
    if P.symbol is not None:
        return idft(multiply(F, P.symbol))
    out, xi = np.zeros(P.grid.shape + (P.out_channels,), dtype=np.complex128), P.grid.freqs()
    for alpha, coeff in P.coeffs.items():
        out += np.einsum("...ij,...j->...i", coeff, idft(multiply(F, monomial(xi, alpha))).samples)
    return Field(P.grid, out)


def symbol_field(P: PDOperator, xi) -> np.ndarray:
    """Principal symbol sum_{|alpha|=n} C_alpha(x) (i xi)^alpha at every grid point."""
    xi = np.asarray(xi, dtype=float)
    out = np.zeros(P.grid.shape + (P.out_channels, P.in_channels), dtype=np.complex128)
    for alpha in P.principal_indices():
        out += monomial(xi, alpha) * P.coeffs[alpha]
    return out


def unit_directions(dim: int, count: int) -> np.ndarray:
    """Deterministic quasi-uniform unit vectors; (count, dim)."""
    if dim == 1:
        return np.array([[1.0], [-1.0]])
    if dim == 2:
        ang = 2.0 * np.pi * np.arange(count) / count
        return np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    rng = np.random.default_rng(0)
    vecs = rng.standard_normal((count, dim))
    return vecs / np.linalg.norm(vecs, axis=-1, keepdims=True)


def _resolvent_blocks(lam: complex, sym: np.ndarray):
    """lam - sym per point, its smallest singular values, and where it is singular.

    A block is singular when its smallest singular value is at most
    1e-14 (|lam| + |sym|_F) there, a test free of scale and channel count.
    """
    mats = lam * np.eye(sym.shape[-1]) - sym
    if mats.shape[-1] == 1:
        smin = np.abs(mats[..., 0, 0])
    else:
        smin = np.linalg.svd(mats, compute_uv=False)[..., -1]
    return mats, smin, smin <= 1e-14 * (abs(lam) + np.linalg.norm(sym, axis=(-2, -1)))


def parameter_ellipticity_constant(Q: PDOperator, theta0: float, arc_samples: int = 17):
    """Least C with |(r^n e^{i theta0} - sigma(i xi))^-1| <= C (r+|xi|)^-n, sampled.

    Samples (r, rho w) on the quarter-sphere r^2 + rho^2 = 1 (enough by joint homogeneity) at
    `arc_samples` arc points, 64 unit directions w (2 in 1-D), and x over the grid (its first
    point for a constant-coefficient Q, where every point gives its blocks): sigma(rho w) is
    rho^n sigma(w), so the direction symbols serve every arc point.  Returns (C, ok), ok False
    if a sampled matrix is singular by the scale-free test of `_resolvent_blocks` (C is then over
    the other directions), or if an eigenvalue mu of some sigma(w) is on the ray t e^{i theta0},
    t >= 0: the block at (r, rho w) with (r / rho)^n = |mu|, sampled or not, is singular.
    """
    if Q.in_channels != Q.out_channels:
        raise ChannelMismatch("parameter-ellipticity requires square channels")
    n = Q.order
    worst = 0.0
    dirs = unit_directions(Q.grid.dim, 64)
    sym = np.stack([symbol_field(Q, omega) for omega in dirs])  # (directions, *shape, l, l)
    if Q.is_constant_coefficient():  # every grid point gives the first point's blocks
        sym = sym.reshape((len(dirs), -1) + sym.shape[-2:])[:, :1]
    mu = np.linalg.eigvals(sym)
    ok = not np.any(np.abs(mu - np.abs(mu) * np.exp(1j * theta0)) <= 1e-12 * np.abs(mu))
    for s in np.linspace(0.0, np.pi / 2.0, arc_samples):
        r, rho = float(np.sin(s)), float(np.cos(s))
        _, smin, singular = _resolvent_blocks((r**n) * np.exp(1j * theta0), rho**n * sym)
        singular = singular.reshape(len(dirs), -1).any(axis=1)  # per direction
        ok = ok and not singular.any()
        worst = max(worst, (r + rho) ** n / float(np.min(smin[~singular], initial=np.inf)))
    return worst, ok


# ---------------------------------------------------------------------------
# Operator description files (JSON)
# ---------------------------------------------------------------------------

_TOKENS = ("x", "x-1", "const", "product")


def _eval_token(grid: GridSpec, spec: dict) -> np.ndarray:
    token = spec["token"]
    _known(spec, ("token", "axis", "scale") + (("factors",) if token == "product" else ()), "token")
    axis = _integer(spec.get("axis", 0), "axis", 0, below=grid.dim)
    scale = _number(spec.get("scale", 1.0), "scale")
    x = grid.coords()[..., axis]
    if token == "x":
        vals = x
    elif token == "x-1":
        vals = x - 1.0
    elif token == "const":
        vals = np.ones(grid.shape)
    elif token == "product":
        vals = np.ones(grid.shape)
        for sub in spec["factors"]:
            vals = vals * _eval_token(grid, sub)[..., 0, 0]
    else:
        raise ValueError(f"unknown coefficient token {token!r}; allowed: {_TOKENS}")
    return (scale * vals)[..., None, None].astype(np.complex128)


def _integer(value, name: str, least: int, below: int | None = None) -> int:
    """value, a JSON integer (not a bool, a float or a string) in [least, below)."""
    if (isinstance(value, bool) or not isinstance(value, int) or value < least
            or below is not None and value >= below):
        bound = "" if below is None else f" and < {below}"
        raise ValueError(f"{name} must be an integer >= {least}{bound}, not {value!r}")
    return value


def _number(value, name: str) -> float:
    """value, a finite JSON number (not a bool or a string)."""
    if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
        raise ValueError(f"{name} must be a finite number, not {brief(value)}")
    return float(value)


def _known(spec: dict, keys: tuple, what: str) -> None:
    """Refuse a key of spec outside `keys`: a misspelt key is never silently dropped."""
    if unknown := set(spec) - set(keys):
        raise ValueError(f"unknown {what} keys {brief(sorted(unknown))}; allowed: {keys}")


def operator_from_description(grid: GridSpec, desc: dict) -> PDOperator:
    """Build an operator from {order, channels, entries: [{alpha, coeff}]}.

    A coeff is either a constant matrix (nested list of finite numbers, or of
    [re, im] pairs of them) or a token spec {"token": ..., "scale": ..., "axis": ...}
    drawn from a small closed-form whitelist, its scale a finite number and its
    axis an integer in [0, dim).  No number is read from a string or a bool; no key is ignored.
    """
    _known(desc, ("order", "channels", "entries"), "description")
    order = _integer(desc["order"], "order", 0)
    channels = _integer(desc.get("channels", 1), "channels", 1)
    coeffs: dict = {}
    for i, entry in enumerate(desc["entries"]):
        if not isinstance(entry, dict):
            raise ValueError(
                f"entry {i} must be an object with alpha and coeff, not {brief(entry)}")
        alpha = tuple(entry["alpha"])  # PDOperator refuses what is not a multi-index
        _known(entry, ("alpha", "coeff"), "entry")
        cspec = entry["coeff"]
        if isinstance(cspec, dict):
            arr = _eval_token(grid, cspec)
            if channels != 1:
                raise ValueError("token coefficients are scalar-channel only")
        else:
            entries = np.asarray(cspec, dtype=object)  # a ragged list has list entries
            mat = np.reshape([_number(v, "a coefficient entry") for v in entries.ravel()],
                             entries.shape)
            if mat.ndim == 3:  # [re, im] pairs
                if mat.shape[-1] != 2:
                    raise ValueError(f"a complex entry is an [re, im] pair, not {brief(cspec)}")
                mat = mat[..., 0] + 1j * mat[..., 1]
            arr = np.atleast_2d(mat).astype(np.complex128)
        if alpha in coeffs:
            coeffs[alpha] = coeffs[alpha] + np.broadcast_to(
                arr, grid.shape + (channels, channels)
            )
        else:
            coeffs[alpha] = arr
    return PDOperator(grid, order, channels, channels, coeffs)

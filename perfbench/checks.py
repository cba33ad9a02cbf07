"""Reference values and output checks, computed with numpy alone.

Nothing here imports ellreg.  Every reference is either a closed form, a
Fourier-side (Parseval) evaluation of the quantity the program measures, or
a property the method must have.  Each check returns a list of failure
messages; an empty list means the output passed.
"""

from __future__ import annotations

import math

import numpy as np


# ---------------------------------------------------------------------------
# Lattice helpers (the conventions of the torus [-L, L)^m, N points per axis)
# ---------------------------------------------------------------------------


def axis_freqs(n: int, half_period: float) -> np.ndarray:
    """xi = (pi/L) k for integer k in FFT ordering."""
    return np.rint(np.fft.fftfreq(n) * n) * (math.pi / half_period)


def lattice(dim: int, n: int, half_period: float) -> np.ndarray:
    """Frequency vectors, shape (n,)*dim + (dim,)."""
    k = axis_freqs(n, half_period)
    return np.stack(np.meshgrid(*([k] * dim), indexing="ij"), axis=-1)


def _phase(dim: int, n: int) -> np.ndarray:
    # exp(i pi k) per axis: the grid starts at x = -L
    sign = (-1.0) ** (np.rint(np.fft.fftfreq(n) * n) % 2)
    out = sign
    for _ in range(dim - 1):
        out = np.multiply.outer(out, sign)
    return out


def samples_from_coefficients(coeff: np.ndarray, dim: int) -> np.ndarray:
    """Samples of sum_k c_k exp(i xi_k . x) on the grid, channel axis last."""
    n = coeff.shape[0]
    axes = tuple(range(dim))
    return np.fft.ifftn(coeff * _phase(dim, n)[..., None], axes=axes) * n**dim


def coefficients_from_samples(samples: np.ndarray, dim: int) -> np.ndarray:
    n = samples.shape[0]
    axes = tuple(range(dim))
    return np.fft.fftn(samples, axes=axes) * (_phase(dim, n)[..., None] / n**dim)


def band_limited_coefficients(dim, n, half_period, channels, rng, band_fraction=0.25):
    """Gaussian coefficients under a Gaussian spectral taper.

    Draws in the order the CLI's documented random field does (real parts,
    then imaginary parts), so the same PCG64 seed gives the same field.
    """
    xi = lattice(dim, n, half_period)
    cutoff = band_fraction * math.pi * n / (2.0 * half_period)
    taper = np.exp(-np.sum((xi / cutoff) ** 2, axis=-1))
    shape = (n,) * dim + (channels,)
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * taper[..., None]


# ---------------------------------------------------------------------------
# Besov quantities
# ---------------------------------------------------------------------------


def dyadic_radii(n: int, half_period: float) -> list:
    """Displacements L/2, L/4, ... down to 2^-(log2 N - 1); at least two."""
    floor = 2.0 ** (-(int(math.log2(n)) - 1))
    radii = []
    rho = half_period / 2.0
    while rho >= floor and len(radii) < 40:
        radii.append(rho)
        rho *= 0.5
    if len(radii) < 2:
        radii = [half_period / 2.0, half_period / 4.0]
    return radii


def directions(dim: int) -> np.ndarray:
    """The unit displacement directions: +-1 in 1-D, eight angles in 2-D."""
    if dim == 1:
        return np.array([[1.0], [-1.0]])
    ang = 2.0 * math.pi * np.arange(8) / 8
    return np.stack([np.cos(ang), np.sin(ang)], axis=-1)


def _sphere_area(dim: int) -> float:
    return 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)


def exp_mode_besov(k: int, alpha: float, p: float, q: float, n: int, half_period: float) -> float:
    """Closed-form second-difference Besov norm of exp(ikx) on 1-D [-L, L).

    |exp(ikx)| = 1, and the second difference at displacement rho has modulus
    |2 - 2 cos k rho| everywhere, so every L^p norm is that factor times
    (2L)^(1/p).  Orders <= 0 carry the Bessel factor (1 + k^2)^(-(1 - alpha)/2)
    and are measured at order one; orders above one add the Sobolev part.
    """
    lp_unit = 1.0 if math.isinf(p) else (2.0 * half_period) ** (1.0 / p)
    radii = dyadic_radii(n, half_period)

    def seminorm(amp, a):
        vals = [amp * abs(2.0 - 2.0 * math.cos(k * rho)) * lp_unit / rho**a for rho in radii]
        if math.isinf(q):
            return max(vals)
        return (sum(v**q for v in vals) * _sphere_area(1) * math.log(2.0)) ** (1.0 / q)

    if alpha <= 0.0:
        amp = (1.0 + k * k) ** (-(1.0 - alpha) / 2.0)
        return amp * lp_unit + seminorm(amp, 1.0)
    if alpha <= 1.0:
        return lp_unit + seminorm(1.0, alpha)
    order = math.ceil(alpha) - 1
    sobolev = sum(abs(k) ** j * lp_unit for j in range(order + 1))
    return sobolev + seminorm(float(abs(k)) ** order, alpha - order)


def _multi_indices(dim: int, max_order: int):
    return [a for a in np.ndindex(*([max_order + 1] * dim)) if sum(a) <= max_order]


def _l2(coeff: np.ndarray, volume: float) -> float:
    return math.sqrt(volume * float(np.sum(np.abs(coeff) ** 2)))


def fourier_besov_22(coeff: np.ndarray, dim: int, half_period: float, alpha: float) -> float:
    """The B^alpha_{2,2} norm the program measures, evaluated by Parseval.

    coeff holds Fourier coefficients (*grid, channels).  Each second
    difference is the multiplier 2 cos(xi . h) - 2, each derivative (i xi)^a
    and the lift (1 + |xi|^2)^(-gamma/2); L^2 norms are sums of |coeff|^2.
    """
    n = coeff.shape[0]
    xi = lattice(dim, n, half_period)
    volume = (2.0 * half_period) ** dim
    if alpha <= 0.0:
        lift = (1.0 + np.sum(xi**2, axis=-1)) ** (-(1.0 - alpha) / 2.0)
        return fourier_besov_22(coeff * lift[..., None], dim, half_period, 1.0)
    radii = dyadic_radii(n, half_period)
    dirs = directions(dim)

    def seminorm(c, a):
        total = 0.0
        power = np.abs(c) ** 2
        for rho in radii:
            per_dir = []
            for omega in dirs:
                mult = (2.0 * np.cos(xi @ (rho * omega)) - 2.0) ** 2
                per_dir.append(volume * float(np.sum(power * mult[..., None])) / rho ** (2 * a))
            total += float(np.mean(per_dir))
        return math.sqrt(total * _sphere_area(dim) * math.log(2.0))

    if alpha <= 1.0:
        return _l2(coeff, volume) + seminorm(coeff, alpha)
    order = math.ceil(alpha) - 1
    total = 0.0
    for beta in _multi_indices(dim, order):
        deriv = coeff * np.prod([(1j * xi[..., i]) ** b for i, b in enumerate(beta)], axis=0)[..., None]
        total += _l2(deriv, volume)
        if sum(beta) == order:
            total += seminorm(deriv, alpha - order)
    return total


def fourier_sobolev_22(coeff: np.ndarray, dim: int, half_period: float, order: int) -> float:
    """W^{order,2} norm: the sum over |a| <= order of ||d^a f||_2, by Parseval."""
    n = coeff.shape[0]
    xi = lattice(dim, n, half_period)
    volume = (2.0 * half_period) ** dim
    total = 0.0
    for beta in _multi_indices(dim, order):
        mult = np.prod([np.abs(xi[..., i]) ** b for i, b in enumerate(beta)], axis=0)
        total += _l2(coeff * mult[..., None], volume)
    return total


def apriori_reference(coeff: np.ndarray, half_period: float, r: float, beta: float) -> float:
    """(r^2 ||u||_{B^beta} + ||u||_{B^{beta+2}}) / ||g||_{B^beta} at p = q = 2.

    For Q = -d^2 and theta0 = pi the solution is u^ = g^ / (-r^2 - xi^2).
    """
    xi = lattice(1, coeff.shape[0], half_period)[..., 0]
    u = coeff / (-(r**2) - xi**2)[..., None]
    g_norm = fourier_besov_22(coeff, 1, half_period, beta)
    low = fourier_besov_22(u, 1, half_period, beta)
    high = fourier_besov_22(u, 1, half_period, beta + 2.0)
    return (r**2 * low + high) / g_norm


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def check_close(label: str, got, want, rtol: float) -> list:
    got = float(got)
    if not math.isfinite(got) or _rel(got, want) > rtol:
        return [f"{label}: {got!r} differs from reference {want!r} (rtol {rtol})"]
    return []


def check_partition(label: str, results: dict, dim: int, patches: int) -> list:
    """The partition of unity sums to one within 1e-9 and overlaps at most 7^m."""
    out = []
    if not results["partition_sum_error"] <= 1e-9:
        out.append(f"{label}: partition sums to one only within {results['partition_sum_error']}")
    if not 1 <= results["max_overlap"] <= 7**dim:
        out.append(f"{label}: overlap {results['max_overlap']} exceeds 7^{dim}")
    if results["num_patches"] != patches:
        out.append(f"{label}: {results['num_patches']} patches, expected {patches}")
    for key in ("ratio_min", "ratio_max"):
        if not (math.isfinite(results[key]) and results[key] > 0):
            out.append(f"{label}: {key} = {results[key]!r}")
    return out


def check_stable_last_doubling(trajectories: dict, tol: float = 0.05) -> list:
    """Every norm trajectory changes by at most tol at the last grid doubling."""
    out = []
    for name, vals in trajectories.items():
        change = abs(vals[-1] / vals[-2] - 1.0)
        if not change <= tol:
            out.append(f"{name}: last-doubling change {change:.4g} exceeds {tol}")
    return out


def check_samples(label: str, got: np.ndarray, want: np.ndarray, rtol: float) -> list:
    scale = float(np.max(np.abs(want)))
    err = float(np.max(np.abs(got - want))) / scale
    if not err <= rtol:
        return [f"{label}: max relative deviation {err:.3e} exceeds {rtol}"]
    return []


def check_at_most(label: str, value, bound: float) -> list:
    if value is None or not float(value) <= bound:
        return [f"{label}: {value!r} exceeds {bound!r}"]
    return []


def check_converging(label: str, errors, ratio: float = 0.25) -> list:
    """A smooth case converges: the last error is at most `ratio` of the first."""
    if not all(math.isfinite(e) and e >= 0 for e in errors) or not errors[-1] <= ratio * errors[0]:
        return [f"{label}: errors {errors} do not fall below {ratio} of the first"]
    return []

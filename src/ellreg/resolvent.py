"""Constructive solvers for the parameter-elliptic system r^n e^{i theta0} u - Q u = g.

One route, mirroring the constructive half of the existence proof: split
Q = A + D, invert the constant-coefficient part A exactly and absorb D by a
contraction.  The exact solve takes A = Q, the Neumann iteration the principal
part of Q, and the localized iteration Q frozen at a point, with D cut off to
the cube around it.  A-priori-estimate ratios are measured, not assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from reprlib import repr as brief  # an order past the float range is too long to print

import numpy as np

from .besov import BesovParams, batch_norms, besov_norms
from .errors import NotContracting, SingularSymbol, SupportViolation, VariableCoefficients, ZeroRHS
from .grid import Field, SpectralField, dft, idft, lp_norm, multiply, power_means
from .pdo import PDOperator, _resolvent_blocks, apply, mi_order
from .profiles import box_mask, box_window


@dataclass
class ResolventProblem:
    Q: PDOperator
    theta0: float
    r: float
    g: Field

    def __post_init__(self):
        if self.Q.in_channels != self.Q.out_channels:
            raise ValueError("resolvent problems need square channel counts")
        if self.g.grid != self.Q.grid:
            raise ValueError("data and operator grids differ")


@dataclass
class SolveReport:
    u: Field
    residual_linf: float
    iterations: int
    contraction_estimate: float | None
    increments: list  # L^2 increments of the fixed-point iterates; not part of as_dict

    def as_dict(self):
        return {
            "residual_linf": self.residual_linf,
            "iterations": self.iterations,
            "contraction_estimate": self.contraction_estimate,
        }


def _spectral_parameter(r: float, n: int, theta0: float) -> complex:
    """r^n e^{i theta0}, the one formula of every solve, or OverflowError when n or r^n is not
    a finite float: parse_config applies it to a config's r, before any solve."""
    try:
        order = float(n)  # as float ** int converts n, whatever r is
    except OverflowError:
        raise OverflowError(f"order {brief(n)} is past the float range") from None
    try:
        return float(r) ** order * np.exp(1j * theta0)
    except OverflowError:
        raise OverflowError(f"r={r:g}: r^{brief(n)} overflows a float") from None


def residual(problem: ResolventProblem, u: Field, mask: np.ndarray | None = None) -> float:
    """Max-norm of r^n e^{i theta0} u - Q u - g (on `mask`), recomputed from scratch."""
    lam = _spectral_parameter(problem.r, problem.Q.order, problem.theta0)
    res = lam * u - apply(problem.Q, u) - problem.g
    return lp_norm(res, math.inf, mask=mask)


def _resolvent_multiplier(A: PDOperator, r: float, theta0: float):
    """(r^n e^{i theta0} - A.symbol)^{-1} on the lattice, scalar for one channel; raises on
    singularity.

    A must have constant coefficients.  Singular frequencies are found by the
    scale-free test of `pdo._resolvent_blocks`.
    """
    if A.symbol is None:
        raise VariableCoefficients("the exactly inverted part A of Q = A + D must be constant")
    l = A.in_channels
    lam = _spectral_parameter(r, A.order, theta0)
    mats, _, bad = _resolvent_blocks(lam, A.symbol.reshape(A.grid.shape + (l, l)))
    if np.any(bad):
        idx = np.unravel_index(int(np.argmax(bad)), A.grid.shape)
        raise SingularSymbol(A.grid.freqs()[idx])
    return 1.0 / mats[..., 0, 0] if l == 1 else np.linalg.inv(mats)


def _l2(F: SpectralField) -> float:
    """The L^2 norm of idft(F) by Parseval: ((2L)^m sum_xi sum_l |c_xi,l|^2)^(1/2)."""
    return float(power_means(np.abs(F.coefficients).reshape(-1), F.grid.volume, [2.0])[0])


def _fixed_point(correction, G: SpectralField, tol: float, max_iter: int, what: str):
    """Iterate x <- G + correction(x) on spectra from x = G until the L^2 increment is
    <= tol (1 + ||x||_2).

    Returns (x, contraction, increments): the last ratio of successive increments and the
    list of all of them, each the difference of consecutive corrections measured on the
    lattice (_l2), so that G's rounding stays out of it.  Raises NotContracting, with that
    list, when the ratio reaches 1 - 1e-3 from the third step on, or when max_iter steps do
    not converge.
    """
    x, c, increments, contraction = G, 0.0, [], None
    for iterations in range(1, max_iter + 1):
        c_next = correction(x).coefficients
        increments.append(inc := _l2(SpectralField(G.grid, c_next - c)))
        if iterations > 1 and increments[-2] > 0:
            contraction = inc / increments[-2]
            if iterations >= 3 and contraction >= 1.0 - 1e-3:
                raise NotContracting(
                    f"{what}: not contracting (ratio {contraction:.4f})", contraction, increments
                )
        x, c = SpectralField(G.grid, G.coefficients + c_next), c_next
        if inc <= tol * (1.0 + _l2(x)):
            return x, contraction, increments
    raise NotContracting(f"{what}: no convergence within {max_iter} iterations", contraction,
                         increments)


def _split_solve(problem: ResolventProblem, A: PDOperator, cutoff, mask, tol: float, what: str):
    """Solve with the split Q = A + D: A inverted exactly, D absorbed by a contraction.

    Iterates H <- G + dft(cutoff D A^{-1} idft(H)) on the spectrum from H = G = dft(g) and
    returns u = idft(A^{-1} H), with its residual on `mask`.  When cutoff D is constant (a
    scalar cutoff, a constant D), cutoff D A^{-1} is one lattice multiplier, built once, and a
    step takes no transform; otherwise a step takes two.  With D = 0 this is the exact solve
    u = A^{-1} g.
    """
    Q, G = problem.Q, dft(problem.g)
    minv = _resolvent_multiplier(A, problem.r, problem.theta0)
    D = PDOperator(Q.grid, Q.order, Q.in_channels, Q.out_channels,
                   {a: d for a, C in Q.coeffs.items() if np.any(d := C - A.coefficient(a))})
    if D.coeffs:
        if np.ndim(cutoff) == 0 and D.symbol is not None:
            M = cutoff * (D.symbol * minv if Q.in_channels == 1 else D.symbol @ minv)

            def correction(H):
                return multiply(H, M)
        else:

            def correction(H):
                return dft(Field(Q.grid, cutoff * apply(D, H, minv).samples))

        H, contraction, increments = _fixed_point(correction, G, tol, 200, what)
    else:
        H, contraction, increments = G, None, []
    u = idft(multiply(H, minv))
    return SolveReport(u, residual(problem, u, mask), len(increments), contraction, increments)


def solve_constant(problem: ResolventProblem) -> SolveReport:
    """Exact multiplier solve, A = Q; all coefficients must be constant."""
    return _split_solve(problem, problem.Q, 1.0, None, 0.0, "constant solve")


def solve_neumann_lower_order(problem: ResolventProblem) -> SolveReport:
    """Neumann iteration absorbing the lower-order part of Q.

    A is the principal part, which must have constant coefficients.  Raises
    NotContracting when the measured per-step contraction shows the spectral
    parameter is below the convergence threshold.
    """
    Q = problem.Q
    principal = {a: arr for a, arr in Q.coeffs.items() if mi_order(a) == Q.order}
    A = PDOperator(Q.grid, Q.order, Q.in_channels, Q.out_channels, principal)
    return _split_solve(problem, A, 1.0, None, 1e-12, f"Neumann solve at r={problem.r}")


def _supporting_cube(g: Field, x0_index, delta: float) -> np.ndarray:
    """The cube mask of radius delta about grid point x0_index, or SupportViolation when g
    exceeds 1e-10 of its maximum outside it: the one support rule of solve_frozen_localized,
    which parse_config applies to a frozen solve's fixture."""
    cube = box_mask(g.grid, g.grid.coords()[tuple(x0_index)], delta)
    g_out = float(np.max(np.abs(g.samples[~cube]), initial=0.0))
    g_max = float(np.max(np.abs(g.samples)))
    if g_max > 0 and g_out > 1e-10 * g_max:
        raise SupportViolation(f"g leaks outside the delta={delta} cube (leak {g_out:.3e})")
    return cube


def solve_frozen_localized(problem: ResolventProblem, x0_index, delta: float) -> SolveReport:
    """Frozen-coefficient iteration for data supported in a small cube.

    A is Q frozen at x0 and the cutoff equals one on the support cube, where
    the residual is measured.
    """
    grid = problem.Q.grid
    x0_index = tuple(int(i) for i in x0_index)
    x0 = grid.coords()[x0_index]

    cube = _supporting_cube(problem.g, x0_index, delta)
    phi = box_window(grid, x0, delta, min(2.0 * delta, 0.95 * grid.half_period))
    return _split_solve(problem, problem.Q.frozen_at(x0_index), phi[..., None], cube, 1e-11,
                        f"frozen solve at r={problem.r}")


def apriori_ratios(g: Field, Q: PDOperator, solutions, beta, pq) -> list:
    """Measured a-priori quotients (r^n ||u||_{B^b} + ||u||_{B^{b+n}}) / ||g||_{B^b}.

    One per (r, u) of `solutions`, b of `beta` and (p, q) of `pq`, in that nesting order.
    g is measured once at every (b, p, q); the u are measured in one batch at those points
    and at b + n.
    """
    n = Q.order
    low = [BesovParams(b, p, q) for b in beta for p, q in pq]
    high = [BesovParams(b + n, p, q) for b in beta for p, q in pq]
    data = besov_norms(g, low)
    if 0.0 in data:
        raise ZeroRHS("cannot form a-priori ratio against zero data")
    ratios = []
    for (r, _), norms in zip(solutions, batch_norms([u for _, u in solutions], low + high)):
        ratios += [(r**n * lo + hi) / d
                   for lo, hi, d in zip(norms[:len(low)], norms[len(low):], data)]
    return ratios

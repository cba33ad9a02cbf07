"""Constructive solvers for the parameter-elliptic system r^n e^{i theta0} u - Q u = g.

Three routes, mirroring the constructive half of the existence proof:
an exact constant-coefficient multiplier solve, a Neumann fixed-point
iteration absorbing lower-order terms, and a frozen-coefficient iteration for
data supported in a small cube.  A-priori-estimate ratios are measured, not
assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .besov import BesovParams, besov_norm
from .errors import NotContracting, SingularSymbol, SupportViolation, ZeroRHS
from .grid import Field, apply_multiplier, lp_norm, monomial
from .pdo import PDOperator, _min_singular_values, apply, mi_order
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
    apriori_ratio: float | None
    iterations: int
    contraction_estimate: float | None

    def as_dict(self):
        return {
            "residual_linf": self.residual_linf,
            "apriori_ratio": self.apriori_ratio,
            "iterations": self.iterations,
            "contraction_estimate": self.contraction_estimate,
        }


def residual(problem: ResolventProblem, u: Field, mask: np.ndarray | None = None) -> float:
    """Max-norm of r^n e^{i theta0} u - Q u - g (on `mask`), recomputed from scratch."""
    lam = problem.r**problem.Q.order * np.exp(1j * problem.theta0)
    res = lam * u - apply(problem.Q, u) - problem.g
    return lp_norm(res, math.inf, mask=mask)


def _lattice_symbol(Q: PDOperator) -> np.ndarray:
    """Constant-coefficient symbol on the lattice."""
    grid = Q.grid
    origin = (0,) * grid.dim
    xi = grid.freqs()
    ell = Q.in_channels
    out = np.zeros(grid.shape + (ell, ell), dtype=np.complex128)
    for alpha, arr in Q.coeffs.items():
        out += monomial(xi, alpha)[..., None, None] * arr[origin]
    return out


def _resolvent_multiplier(Q: PDOperator, r: float, theta0: float):
    """(r^n e^{i theta0} - symbol)^{-1} on the lattice; raises on singularity.

    A frequency is singular when the block's smallest singular value is below
    1e-14 (|lambda| + |symbol|_F) there, a test free of scale and channel count.
    """
    grid = Q.grid
    sym = _lattice_symbol(Q)
    ell = Q.in_channels
    lam = r**Q.order * np.exp(1j * theta0)
    mats = lam * np.eye(ell) - sym
    scale = abs(lam) + np.linalg.norm(sym, axis=(-2, -1))
    bad = _min_singular_values(mats) <= 1e-14 * scale
    if np.any(bad):
        idx = np.unravel_index(int(np.argmax(bad)), grid.shape)
        raise SingularSymbol(grid.freqs()[idx])
    return 1.0 / mats if ell == 1 else np.linalg.inv(mats)


def _fixed_point(step, x0: Field, tol: float, max_iter: int, what: str):
    """Iterate x <- step(x) from x0 until the L^2 increment is <= tol (1 + ||x||_2).

    Returns (x, iterations, contraction) with contraction the last ratio of
    successive increments.  Raises NotContracting when that ratio reaches
    1 - 1e-3 from the third step on, or when max_iter steps do not converge.
    """
    x, prev_inc, contraction = x0, None, None
    for iterations in range(1, max_iter + 1):
        x_next = step(x)
        inc = lp_norm(x_next - x, 2.0)
        if prev_inc is not None and prev_inc > 0:
            contraction = inc / prev_inc
            if iterations >= 3 and contraction >= 1.0 - 1e-3:
                raise NotContracting(
                    f"{what}: not contracting (ratio {contraction:.4f})", contraction
                )
        x = x_next
        if inc <= tol * (1.0 + lp_norm(x, 2.0)):
            return x, iterations, contraction
        prev_inc = inc
    raise NotContracting(f"{what}: no convergence within {max_iter} iterations", contraction)


def solve_constant(problem: ResolventProblem) -> SolveReport:
    """Exact multiplier solve; all coefficients must be constant."""
    Q = problem.Q
    if not Q.is_constant_coefficient(tol=1e-10):
        raise ValueError("solve_constant needs constant coefficients")
    minv = _resolvent_multiplier(Q, problem.r, problem.theta0)
    u = apply_multiplier(problem.g, minv)
    return SolveReport(u, residual(problem, u), None, 0, None)


def solve_neumann_lower_order(
    problem: ResolventProblem, max_iter: int = 200, tol: float = 1e-12
) -> SolveReport:
    """Neumann iteration absorbing the lower-order part of Q.

    Iterates h <- g + (Q - Q_n) A^{-1} h with A the constant-coefficient
    principal resolvent; u = A^{-1} h.  Raises NotContracting when the
    measured per-step contraction shows the spectral parameter is below the
    convergence threshold.
    """
    Q = problem.Q
    grid = Q.grid
    principal = {a: arr for a, arr in Q.coeffs.items() if mi_order(a) == Q.order}
    lower = {a: arr for a, arr in Q.coeffs.items() if mi_order(a) < Q.order}
    Qn = PDOperator(grid, Q.order, Q.in_channels, Q.out_channels, principal)
    if not Qn.is_constant_coefficient(tol=1e-10):
        raise ValueError("principal part must be constant-coefficient")
    low_order = max([mi_order(a) for a in lower], default=0)
    Qlow = PDOperator(grid, low_order, Q.in_channels, Q.out_channels, lower)
    minv = _resolvent_multiplier(Qn, problem.r, problem.theta0)

    def step(h):
        return problem.g + apply(Qlow, apply_multiplier(h, minv)) if lower else problem.g

    h, iterations, contraction = _fixed_point(
        step, problem.g, tol, max_iter, f"Neumann solve at r={problem.r}"
    )
    u = apply_multiplier(h, minv)
    return SolveReport(u, residual(problem, u), None, iterations, contraction)


def solve_frozen_localized(
    problem: ResolventProblem,
    x0_index,
    delta: float,
    max_iter: int = 200,
    tol: float = 1e-11,
) -> SolveReport:
    """Frozen-coefficient iteration for data supported in a small cube.

    Iterates u <- A0^{-1}(g + phi (Q - Q(x0)) u) with A0 the resolvent of the
    operator frozen at x0 and phi a cutoff equal to one on the support cube.
    """
    Q = problem.Q
    grid = Q.grid
    x0_index = tuple(int(i) for i in x0_index)
    x0 = grid.coords().real[x0_index]

    mask_out = ~box_mask(grid, x0, delta)
    g_out = float(np.max(np.abs(problem.g.samples[mask_out]), initial=0.0))
    g_max = float(np.max(np.abs(problem.g.samples)))
    if g_max > 0 and g_out > 1e-10 * g_max:
        raise SupportViolation(
            f"g leaks outside the delta={delta} cube (leak {g_out:.3e})"
        )

    Q0 = Q.frozen_at(x0_index)
    minv = _resolvent_multiplier(Q0, problem.r, problem.theta0)
    phi = box_window(grid, x0, delta, min(2.0 * delta, 0.95 * grid.half_period))
    phi_vals = phi.samples[..., 0].real[..., None]

    def step(u):
        correction = apply(Q, u) - apply(Q0, u)
        return apply_multiplier(Field(grid, problem.g.samples + phi_vals * correction.samples), minv)

    u, iterations, contraction = _fixed_point(
        step, apply_multiplier(problem.g, minv), tol, max_iter, f"frozen solve at r={problem.r}"
    )

    res_in = residual(problem, u, box_mask(grid, x0, delta))
    return SolveReport(u, res_in, None, iterations, contraction)


def apriori_ratio(
    u: Field,
    g: Field,
    Q: PDOperator,
    r: float,
    theta0: float,
    beta: float,
    p: float,
    q: float,
    theta: float | None = None,
) -> float:
    """Measured a-priori quotient for a solve pair (u, g).

    Default: (r^n ||u||_{B^beta} + ||u||_{B^{beta+n}}) / ||g||_{B^beta}.
    With theta given: ||u||_{B^{beta+theta n}} r^{(1-theta) n} / ||g||_{B^beta}.
    """
    n = Q.order
    g_norm = besov_norm(g, BesovParams(beta, p, q))
    if g_norm == 0.0:
        raise ZeroRHS("cannot form a-priori ratio against zero data")
    if theta is not None:
        u_norm = besov_norm(u, BesovParams(beta + theta * n, p, q))
        return u_norm * r ** ((1.0 - theta) * n) / g_norm
    low = besov_norm(u, BesovParams(beta, p, q))
    high = besov_norm(u, BesovParams(beta + n, p, q))
    return (r**n * low + high) / g_norm

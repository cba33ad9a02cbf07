"""The explicit 1-D counterexample suite and regularity-gap measurements.

Centerpiece: the third-order operator -x d^3 + (x-1) d^2 whose graph space
contains u = phi(x) ln|x| (with phi(x) = x near zero).  That element is one
derivative short of the operator order and cannot be approximated by smooth
elements in the graph norm; both facts are measured here on refined
reference grids whose cells exclude the singular point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .besov import BesovParams, besov_parts, sobolev_norm
from .grid import Field, GridSpec, dft, lp_norm, spectral_derivative
from .mollify import mollify, ratios, rel_changes
from .profiles import Plateau, bump, radial_window


# ---------------------------------------------------------------------------
# Staggered reference line grids (cells exclude x = 0)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LineGrid:
    """Uniform staggered grid on [-L, L): x_j = -L + (j + 1/2) h."""

    n: int
    half_period: float

    @property
    def h(self) -> float:
        return 2.0 * self.half_period / self.n

    def points(self) -> np.ndarray:
        return -self.half_period + (np.arange(self.n) + 0.5) * self.h

    def lp(self, vals: np.ndarray, p: float, mask=None) -> float:
        # the same cell width h as the periodic grid, so one quadrature serves both
        return lp_norm(Field(GridSpec(1, self.n, self.half_period), vals[:, None]), p, mask)

    def fd1(self, vals: np.ndarray) -> np.ndarray:
        return (np.roll(vals, -1) - np.roll(vals, 1)) / (2.0 * self.h)

    def fd2(self, vals: np.ndarray) -> np.ndarray:
        return (np.roll(vals, -1) - 2.0 * vals + np.roll(vals, 1)) / self.h**2

    def value_at_zero(self, vals: np.ndarray) -> float:
        # 0 falls between the two central staggered points
        i = self.n // 2
        return float(0.5 * (vals[i - 1] + vals[i]).real)

    def antiderivative_from_zero(self, vals: np.ndarray) -> np.ndarray:
        cum = np.concatenate([[0.0], np.cumsum((vals[1:] + vals[:-1]) * 0.5 * self.h)])[: self.n]
        return cum - self.value_at_zero(cum)


@dataclass
class SingularElement:
    """u = phi ln|x| with phi = x * plateau; all derivatives in closed form."""

    plateau: Plateau

    def u(self, x):
        x = np.asarray(x, dtype=float)
        return self.plateau(x) * x * np.log(np.abs(x))

    def du(self, x):
        x = np.asarray(x, dtype=float)
        c, c1 = self.plateau(x), self.plateau.d1(x)
        ln = np.log(np.abs(x))
        return (c1 * x + c) * ln + c

    def d2u(self, x):
        x = np.asarray(x, dtype=float)
        c, c1, c2 = self.plateau(x), self.plateau.d1(x), self.plateau.d2(x)
        ln = np.log(np.abs(x))
        return c2 * x * ln + 2.0 * c1 * (ln + 1.0) + c / x

    def v(self, x):
        """x * d2u: smooth everywhere, equals 1 near the origin."""
        x = np.asarray(x, dtype=float)
        c, c1, c2 = self.plateau(x), self.plateau.d1(x), self.plateau.d2(x)
        ln = np.log(np.abs(x))
        return c2 * x * x * ln + 2.0 * c1 * x * (ln + 1.0) + c


# ---------------------------------------------------------------------------
# Hardy averaging on the spectral grid
# ---------------------------------------------------------------------------


@dataclass
class HardyReport:
    h: Field
    h_norm: float
    dg_norm: float
    ratio: float


def hardy_average(g: Field, p: float) -> HardyReport:
    """h(x) = x^{-1} * integral_0^x dg, with h(0) = dg(0), plus the Hardy ratio."""
    if g.grid.dim != 1 or g.channels != 1:
        raise ValueError("hardy_average expects a scalar 1-D field")
    grid = g.grid
    x = grid.coords()[..., 0]
    dg = spectral_derivative(g, (1,)).samples[..., 0]
    cum = np.concatenate(
        [[0.0 + 0.0j], np.cumsum((dg[1:] + dg[:-1]) * 0.5 * grid.spacing)]
    )
    zero_idx = grid.points_per_axis // 2  # x = 0 is a grid point
    cum = cum - cum[zero_idx]
    h = np.empty_like(cum)
    nonzero = x != 0.0
    h[nonzero] = cum[nonzero] / x[nonzero]
    h[~nonzero] = dg[~nonzero]
    h_field = Field(grid, h[..., None])
    h_norm = lp_norm(h_field, p)
    dg_norm = lp_norm(Field(grid, dg[..., None]), p)
    ratio = h_norm / dg_norm if dg_norm > 0 else math.inf
    return HardyReport(h_field, h_norm, dg_norm, ratio)


# ---------------------------------------------------------------------------
# Non-density witness
# ---------------------------------------------------------------------------


def _trace_constant(line: LineGrid, p: float) -> float:
    """Measured constant in |w(0)| <= C (||w||_p + ||w'||_p) over bump probes."""
    x = line.points()
    best = 0.0
    for width in (0.05, 0.1, 0.2, 0.5, 1.0, 2.0):
        w = bump(x / width) * np.e
        denom = line.lp(w, p) + line.lp(line.fd1(w), p)
        if denom > 0:
            best = max(best, line.value_at_zero(w) / denom)
    return best


def nondensity_witness(p: float, eps_seq, n_ref: int) -> dict:
    """Smooth candidates u_eps get L^p-close to u while the graph distance stays up.

    For u = phi ln|x|, v = x d2 u equals 1 at the origin but x d2 u_eps
    vanishes there for every smooth u_eps, so the W^{1,p} distance of
    v_eps to v is bounded below via the 1-D trace inequality.  The torus is
    [-pi, pi) and phi = x on [-1/2, 1/2], 0 outside [-1, 1].
    """
    line = LineGrid(n_ref, math.pi)
    elem = SingularElement(Plateau(0.5, 1.0))
    x = line.points()
    u = elem.u(x)
    v = elem.v(x)
    # the staggered samples are a half-cell translate of the periodic grid, so
    # the grid's convolution (kernel at integer offsets) applies unchanged
    u_hat = dft(Field(GridSpec(1, n_ref, math.pi), u[:, None]))  # one transform for every eps

    rows = []
    for eps in eps_seq:
        u_eps = mollify(u_hat, eps).samples[:, 0].real
        v_eps = x * line.fd2(u_eps)
        w = v_eps - v
        graph_err = line.lp(w, p) + line.lp(line.fd1(w), p)
        rows.append(
            {
                "eps": float(eps),
                "v_eps_at_0": line.value_at_zero(v_eps),
                "u_lp_error": line.lp(u_eps - u, p),
                "graph_error": float(graph_err),
            }
        )
    c_trace = _trace_constant(line, p)
    finest = rows[-2:]
    floor = min(r["graph_error"] for r in finest)
    return {
        "p": p,
        "v_at_0": 1.0,  # closed form: v = 1 identically near the origin
        "rows": rows,
        "trace_constant": c_trace,
        "trace_lower_bound": 1.0 / c_trace if c_trace > 0 else math.inf,
        "graph_error_floor": floor,
        "u_lp_decay": rows[0]["u_lp_error"] / rows[-1]["u_lp_error"]
        if rows[-1]["u_lp_error"] > 0
        else math.inf,
    }


# ---------------------------------------------------------------------------
# W^{1,p} inclusion / W^{2,p} exclusion under refinement
# ---------------------------------------------------------------------------


def w1p_inclusion_check(p: float) -> dict:
    """Reconstruct du from g = x d2u and track L^p_loc norms under refinement.

    Since d2u = g(0)/x + h with h the averaged derivative (g(x) - g(0))/x,
    du is rebuilt as g(0) ln|x| + antiderivative of h + fitted Heaviside and
    constant terms; its windowed L^p norm must be refinement-stable while the
    windowed L^p norm of d2u (a principal-value 1/x) must grow.  The element is
    the witness's, the window |x| <= pi/4 and N = 2048, 4096, 8192 on [-pi, pi).
    """
    resolutions, window = (2048, 4096, 8192), math.pi / 4.0
    elem = SingularElement(Plateau(0.5, 1.0))
    w1_norms, w2_norms, fits, recon_err = [], [], [], []
    for n in resolutions:
        line = LineGrid(n, math.pi)
        x = line.points()
        g = elem.v(x)  # g = x d2u
        g0 = line.value_at_zero(g)
        h = (g - g0) / x
        anti = line.antiderivative_from_zero(h)
        base = g0 * np.log(np.abs(x)) + anti
        du_true = elem.du(x)
        fit_mask = np.abs(x) > window
        design = np.stack([(x > 0).astype(float), np.ones_like(x)], axis=-1)
        coef, *_ = np.linalg.lstsq(design[fit_mask], (du_true - base)[fit_mask], rcond=None)
        a0, const = float(coef[0]), float(coef[1])
        du_rec = base + a0 * design[..., 0] + const
        win = np.abs(x) <= window
        w1_norms.append(line.lp(du_rec, p, mask=win))
        w2_norms.append(line.lp(elem.d2u(x), p, mask=win))
        fits.append({"a0": a0, "C": const})
        recon_err.append(line.lp(du_rec - du_true, p, mask=fit_mask))
    return {
        "p": p,
        "resolutions": list(resolutions),
        "w1p_window_norms": w1_norms,
        "w1p_rel_changes": rel_changes(w1_norms),
        "w2p_window_seminorms": w2_norms,
        "w2p_growth_factors": ratios(w2_norms),
        "fits": fits,
        "reconstruction_error": recon_err,
    }


# ---------------------------------------------------------------------------
# Regularity-gap trajectories
# ---------------------------------------------------------------------------


def log_singular_field(grid: GridSpec) -> Field:
    """|x|^2 log|x| in m = 2, windowed to |x| < 2: second derivatives are log-singular."""
    win = radial_window(grid, 1.0, 2.0)  # before r2: see docs/DECISIONS.md, "One torus geometry"
    r2 = np.sum(grid.coords() ** 2, axis=-1)
    vals = np.zeros(grid.shape)
    nz = r2 > 0
    vals[nz] = r2[nz] * 0.5 * np.log(r2[nz])
    return Field(grid, (vals * win)[..., None])


def regularity_gap_experiment(grid_sizes, half_period: float) -> dict:
    """Refinement trajectories of the windowed singular field's norms.

    The L^1-scale claim: the windowed field stays in W^{k-1,1} and in the
    Besov endpoint B^k_{1,inf}, k = 2; for p = 2 the full W^{k,2} norm is
    stable.  A trajectory is stable when its last relative change is at most
    5%.  The W^{k,1} divergence seen in external counterexamples is
    deliberately not certified here.
    """
    k = 2
    trajectories = {"w_k_2": [], "w_km1_1": [], "besov_k_1_inf": []}
    for n in grid_sizes:
        # one forward transform serves all three norms; the Besov norm's Sobolev part
        # is the W^{k-1,1} norm
        F = dft(log_singular_field(GridSpec(2, n, half_period)))
        trajectories["w_k_2"].append(sobolev_norm(F, k, 2.0))
        sobolev, seminorms = besov_parts(F, BesovParams(float(k), 1.0, math.inf))
        trajectories["w_km1_1"].append(sobolev)
        trajectories["besov_k_1_inf"].append(sobolev + seminorms)

    verdicts = {}
    for name, vals in trajectories.items():
        changes = rel_changes(vals)
        verdicts[name] = {"rel_changes": changes, "stable": bool(changes and changes[-1] <= 0.05)}
    return {
        "grid_sizes": list(grid_sizes),
        "trajectories": trajectories,
        "verdicts": verdicts,
        "note": (
            "W^{k,1} divergence is not certified: no counterexample is "
            "constructed here, only the positive stability claims are measured."
        ),
    }

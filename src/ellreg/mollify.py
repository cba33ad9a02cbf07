"""Friedrichs mollification by the bump profile, and the convergence experiments built on it."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EpsilonOutOfRange
from .grid import Field, GridSpec, apply_multiplier, dft, lp_norms
from .pdo import PDOperator, apply
from .profiles import bump


def kernel_field(grid: GridSpec, eps: float) -> Field:
    """Sample the bump dilate h_eps on the grid, renormalized to exact unit discrete mass."""
    r = np.sqrt(np.sum(grid.coords() ** 2, axis=-1)) / eps
    vals = bump(r)
    mass = vals.sum() * grid.spacing**grid.dim
    if mass <= 0:
        raise EpsilonOutOfRange(f"eps={eps} leaves no kernel samples")
    return Field(grid, (vals / mass)[..., None])


def mollifier_symbol(grid: GridSpec, eps: float) -> np.ndarray:
    """Lattice multiplier (*shape,) of convolution with the sampled dilate h_eps."""
    if not (2.0 * grid.spacing <= eps < grid.half_period / 4.0):
        raise EpsilonOutOfRange(
            f"eps={eps} outside [{2 * grid.spacing}, {grid.half_period / 4.0})"
        )
    return dft(kernel_field(grid, eps)).coefficients[..., 0] * grid.volume


def mollify(f, eps: float) -> Field:
    """Convolution with the sampled, unit-mass dilate h_eps; f a Field or its SpectralField."""
    return apply_multiplier(f, mollifier_symbol(f.grid, eps))


def admissible_eps_sequence(grid: GridSpec, count: int) -> list:
    """Halving sweep from L/8 down, truncated at the 2*spacing floor; never empty."""
    eps = grid.half_period / 8.0
    out = []
    floor = 2.0 * grid.spacing
    for _ in range(count):
        if eps < floor:
            break
        out.append(eps)
        eps *= 0.5
    if not out:
        raise EpsilonOutOfRange(f"no eps: L/8 is below the 2*spacing floor {floor:.4g}")
    return out


def ratios(values) -> list:
    """The trajectory record: consecutive ratios b/a; verdicts on them live with their users."""
    return [b / a for a, b in zip(values, values[1:])]


def rel_changes(values) -> list:
    """Consecutive relative changes |b/a - 1|."""
    return [abs(r - 1.0) for r in ratios(values)]


def log2_rates(values) -> list:
    """Consecutive log2(a/b); inf where a value is not positive."""
    return [float(np.log2(a / b)) if b > 0 and a > 0 else np.inf for a, b in zip(values, values[1:])]


@dataclass
class ErrorTable:
    """Per-epsilon errors plus trend diagnostics."""

    norm_kind: str
    rows: list = field(default_factory=list)  # [{"eps": ..., "error": ...}]

    def errors(self):
        return [row["error"] for row in self.rows]

    @property
    def final_over_first(self) -> float:
        e = self.errors()
        if not e or e[0] == 0.0:
            return 0.0
        return e[-1] / e[0]

    @property
    def converging(self) -> bool:
        return self.final_over_first < 0.25

    def rates(self):
        """log2 error ratios between consecutive epsilon halvings."""
        return log2_rates(self.errors())

    def as_dict(self):
        return {
            "rows": self.rows,
            "norm_kind": self.norm_kind,
            "final_over_first": self.final_over_first,
            "converging": self.converging,
            "rates": self.rates(),
        }


def mollifier_convergence_tables(ops, f: Field, ps, eps_seq, window_mask) -> list:
    """The mollifier_convergence_experiment of each (P, p) in ops x ps, one symbol per eps."""
    F = dft(f)  # P f_eps - P f is P (K_eps - 1) F: one transform per (eps, P), nothing cancels
    tables = [ErrorTable(norm_kind=f"L{p}(window)") for _ in ops for p in ps]
    for eps in eps_seq:
        factor = mollifier_symbol(f.grid, eps) - 1.0
        errors = [e for P in ops for e in lp_norms(apply(P, F, factor), ps, mask=window_mask)]
        for table, err in zip(tables, errors):
            table.rows.append({"eps": float(eps), "error": float(err)})
    return tables


def mollifier_convergence_experiment(P: PDOperator, f, p, eps_seq, window_mask) -> ErrorTable:
    """Errors ||P f_eps - P f||_{L^p(window)} along an epsilon sweep."""
    return mollifier_convergence_tables([P], f, [p], eps_seq, window_mask)[0]

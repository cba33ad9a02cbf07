"""The three workloads: inputs made from the workload seed, one op each, checks.

`build(name, seed, out_root)` returns a Workload.  Its inputs (experiment
configs, fields, operators) are a pure function of the seed, and its
reference values are computed once, with numpy alone, by `checks`.  `op()`
runs one fixed bundle of program work and returns what the check needs;
`check(result)` returns a list of failure messages, empty when every output
matches its reference.

Ops call the program through its module attributes (`resolvent.solve_constant`,
`cli.run_experiment`), so the traced run's wrappers see every call.
"""

from __future__ import annotations

import csv
import importlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
from ellreg import cli, resolvent
from ellreg.grid import Field, GridSpec
from ellreg.pdo import PDOperator, operator_from_constant
from ellreg.resolvent import ResolventProblem

# the package's `mollify` attribute is the function, not the module
mollify = importlib.import_module("ellreg.mollify")

PI = math.pi
NAMES = ("apriori-1d", "field-2d", "solve-iterate")


@dataclass
class Workload:
    op: object  # () -> result
    check: object  # result -> list of failure messages
    inputs: dict = field(default_factory=dict)  # a summary, for the trace file


def build(name: str, seed: int, out_root: Path) -> Workload:
    rng = np.random.default_rng([seed, NAMES.index(name)])
    return {"apriori-1d": _apriori_1d, "field-2d": _field_2d, "solve-iterate": _solve_iterate}[
        name
    ](rng, out_root)


def _sub_seed(rng) -> int:
    return int(rng.integers(1, 2**31 - 1))


def _config(kind, dim, n, half_period, parameters, seed):
    return {
        "schema_version": 1,
        "kind": kind,
        "grid": {"dim": dim, "points_per_axis": n, "half_period": half_period},
        "parameters": parameters,
        "seed": seed,
        "output_dir": kind,
    }


def _read_csv(path: Path) -> list:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return [[float(v) for v in row] for row in rows[1:]]


def _run_configs(configs, out_root: Path) -> dict:
    """Run each config through the CLI's experiment runner; kind -> out_dir."""
    return {
        cfg["kind"]: cli.run_experiment(cli.parse_config(cfg), output_root=str(out_root))
        for cfg in configs
    }


class _Determinism:
    """Each config must write the same results.json bytes every time it runs."""

    def __init__(self):
        self.first = {}

    def check(self, out_dirs: dict) -> list:
        problems = []
        for kind, out_dir in out_dirs.items():
            blob = (out_dir / "results.json").read_bytes()
            if self.first.setdefault(kind, blob) != blob:
                problems.append(f"{kind}: results.json differs from the first run of its config")
        return problems


def _patch_checks(label, dim, half_period, patches, rng_seed, count):
    """References for a patch-equivalence run: B^1_{2,2} of each random field."""
    gen = np.random.Generator(np.random.PCG64(rng_seed))
    n = {1: 128, 2: 64}[dim]
    refs = []
    for _ in range(count):
        coeff = checks.band_limited_coefficients(dim, n, half_period, 1, gen)
        refs.append(checks.fourier_besov_22(coeff, dim, half_period, 1.0))

    def check(results: dict, out_dir: Path) -> list:
        problems = checks.check_partition(label, results, dim, patches)
        rows = _read_csv(out_dir / "patch_equivalence.csv")
        if len(rows) != count:
            return problems + [f"{label}: {len(rows)} samples, expected {count}"]
        for row, ref in zip(rows, refs):
            problems += checks.check_close(f"{label} global norm {int(row[0])}", row[1], ref, 1e-9)
        return problems

    return check


# ---------------------------------------------------------------------------
# apriori-1d: thousands of tiny transforms through the CLI runner
# ---------------------------------------------------------------------------


def _apriori_1d(rng, out_root: Path) -> Workload:
    apriori_seed, patch_seed = _sub_seed(rng), _sub_seed(rng)
    k = int(rng.integers(1, 17))
    choices = [1.0, 2.0, "inf"]
    p, q = choices[int(rng.integers(3))], choices[int(rng.integers(3))]
    r_list, betas = [4.0, 8.0, 16.0], [-2.0, 0.0, 1.0]
    alphas = [-1.0, 0.0, 0.5, 1.0, 2.0]
    configs = [
        _config(
            "apriori-sweep", 1, 128, PI,
            {"count": 1, "r": r_list, "beta": betas, "pq": [[2, 2], [1, "inf"], ["inf", "inf"]]},
            apriori_seed,
        ),
        _config("besov-norm", 1, 256, PI, {"wavenumber": k, "alpha": alphas, "p": p, "q": q}, seed=0),
        _config("patch-equivalence", 1, 128, PI, {}, patch_seed),
    ]

    pf, qf = (math.inf if v == "inf" else float(v) for v in (p, q))
    besov_refs = {str(a): checks.exp_mode_besov(k, a, pf, qf, 256, PI) for a in alphas}
    g_coeff = checks.band_limited_coefficients(
        1, 128, PI, 1, np.random.Generator(np.random.PCG64(apriori_seed))
    )
    apriori_refs = {
        (r, b): checks.apriori_reference(g_coeff, PI, r, b) for r in r_list for b in betas
    }
    patch_check = _patch_checks("patch-equivalence", 1, PI, 8, patch_seed, 5)
    determinism = _Determinism()

    def op():
        return _run_configs(configs, out_root)

    def check(out_dirs: dict) -> list:
        problems = determinism.check(out_dirs)
        res = json.loads((out_dirs["besov-norm"] / "results.json").read_text())["results"]
        for a, ref in besov_refs.items():
            problems += checks.check_close(f"besov-norm alpha={a}", res["norms"][a], ref, 1e-9)
        rows = _read_csv(out_dirs["apriori-sweep"] / "apriori_ratios.csv")
        if len(rows) != len(apriori_refs) * 3:
            problems.append(f"apriori-sweep: {len(rows)} rows")
        for _, r, b, pp, qq, ratio in rows:
            if not (math.isfinite(ratio) and ratio > 0):
                problems.append(f"apriori-sweep r={r} beta={b} p={pp}: ratio {ratio!r}")
            elif pp == 2.0 and qq == 2.0:
                problems += checks.check_close(
                    f"apriori-sweep r={r} beta={b} p=q=2", ratio, apriori_refs[(r, b)], 1e-9
                )
        res = json.loads((out_dirs["apriori-sweep"] / "results.json").read_text())["results"]
        problems += checks.check_close(
            "apriori-sweep max_ratio", res["max_ratio"], max(row[5] for row in rows), 0.0
        )
        out_dir = out_dirs["patch-equivalence"]
        res = json.loads((out_dir / "results.json").read_text())["results"]
        return problems + patch_check(res, out_dir)

    inputs = {"configs": configs}
    return Workload(op, check, inputs)


# ---------------------------------------------------------------------------
# field-2d: the same Besov/grid path on arrays up to 256^2
# ---------------------------------------------------------------------------


def _field_2d(rng, out_root: Path) -> Workload:
    from ellreg.casework import log_singular_field

    half_period = float(3.0 + rng.uniform(0.0, 1.0))
    patch_seed = _sub_seed(rng)
    sizes = [128, 256]
    configs = [
        _config("regularity-gap", 2, sizes[0], half_period, {"grid_sizes": sizes}, seed=0),
        _config(
            "patch-equivalence", 2, 64, half_period,
            {"delta": half_period, "count": 1}, patch_seed,
        ),
    ]
    # the experiment builds its own log-singular field; W^{2,2} is its
    # Parseval-side norm
    w22_refs = []
    for n in sizes:
        samples = log_singular_field(GridSpec(2, n, half_period)).samples
        coeff = checks.coefficients_from_samples(samples, 2)
        w22_refs.append(checks.fourier_sobolev_22(coeff, 2, half_period, 2))
    patch_check = _patch_checks("patch-equivalence-2d", 2, half_period, 16, patch_seed, 1)

    def op():
        return _run_configs(configs, out_root)

    def check(out_dirs: dict) -> list:
        res = json.loads((out_dirs["regularity-gap"] / "results.json").read_text())["results"]
        traj = res["trajectories"]
        problems = []
        for n, got, ref in zip(sizes, traj["w_k_2"], w22_refs):
            problems += checks.check_close(f"regularity-gap w_k_2 at {n}^2", got, ref, 1e-9)
        problems += checks.check_stable_last_doubling(traj)
        if not all(v["stable"] for v in res["verdicts"].values()):
            problems.append("regularity-gap: a verdict is not stable")
        out_dir = out_dirs["patch-equivalence"]
        res = json.loads((out_dir / "results.json").read_text())["results"]
        return problems + patch_check(res, out_dir)

    inputs = {"configs": configs}
    return Workload(op, check, inputs)


# ---------------------------------------------------------------------------
# solve-iterate: resolvent loops, single-field transforms, no Besov norm
# ---------------------------------------------------------------------------


def _bump(t: np.ndarray) -> np.ndarray:
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - t[inside] ** 2))
    return out


def _field(grid: GridSpec, coeff: np.ndarray) -> Field:
    return Field(grid, checks.samples_from_coefficients(coeff, grid.dim))


def _solve_iterate(rng, out_root: Path) -> Workload:
    theta0 = PI
    cases = []  # (label, callable, check)

    # Neumann solves on 1-D N=1024: u^ = g^ / (lam - sigma(xi))
    g1024 = GridSpec(1, 1024, PI)
    xi = checks.axis_freqs(1024, PI)
    neumann_ops = {
        "-d2+2d": ({(2,): -1.0, (1,): 2.0}, xi**2 + 2j * xi, 2j * xi),
        "-d2+1": ({(2,): -1.0, (0,): 1.0}, xi**2 + 1.0, np.ones_like(xi)),
    }
    for label, (coeffs, sigma, sigma_low) in neumann_ops.items():
        Q = operator_from_constant(g1024, coeffs, order=2)
        for r in (6.0, 12.0):
            coeff = checks.band_limited_coefficients(1, 1024, PI, 1, rng)
            lam = r**2 * np.exp(1j * theta0)
            u_ref = checks.samples_from_coefficients(coeff / (lam - sigma)[:, None], 1)
            step_norm = float(np.max(np.abs(sigma_low) / np.abs(lam - xi**2)))
            problem = ResolventProblem(Q, theta0, r, _field(g1024, coeff))

            def neumann_check(rep, label=f"neumann {label} r={r}", u_ref=u_ref, bound=step_norm):
                return checks.check_samples(label, rep.u.samples, u_ref, 1e-9) + checks.check_at_most(
                    f"{label} contraction", rep.contraction_estimate, (1.0 + 1e-9) * bound
                )

            cases.append((f"neumann {label} r={r}",
                          lambda problem=problem: resolvent.solve_neumann_lower_order(problem),
                          neumann_check))

    # frozen-coefficient solve of -(1 + 0.3 cos x) d^2 on N=256, data in the cube
    g256 = GridSpec(1, 256, PI)
    x = g256.coords().real[..., 0]
    a = 1.0 + 0.3 * np.cos(x)
    Qf = PDOperator(g256, 2, 1, 1, {(2,): -a[:, None, None]})
    i0 = int(rng.integers(96, 161))
    delta = PI / 4.0
    d = (x - x[i0] + PI) % (2.0 * PI) - PI
    gvals = _bump(d / (0.9 * delta)) * np.cos(rng.uniform(1.0, 4.0) * d + rng.uniform(0, 2 * PI))
    r_frozen = 6.0
    lam_f = r_frozen**2 * np.exp(1j * theta0)
    frozen_problem = ResolventProblem(Qf, theta0, r_frozen, Field(g256, gvals[:, None]))
    xi256 = checks.axis_freqs(256, PI)
    cube = np.abs(d) <= delta

    def frozen_check(rep):
        u = rep.u.samples
        u_xx = checks.samples_from_coefficients(
            -(xi256**2)[:, None] * checks.coefficients_from_samples(u, 1), 1
        )
        res = lam_f * u[:, 0] + a * u_xx[:, 0] - gvals
        return checks.check_at_most("frozen residual in the cube", float(np.max(np.abs(res[cube]))), 1e-8)

    cases.append(("frozen", lambda: resolvent.solve_frozen_localized(frozen_problem, (i0,), delta), frozen_check))

    # 3-channel constant-coefficient solve at r = 8: one 3x3 solve per frequency
    A = np.eye(3) + 0.1 * rng.standard_normal((3, 3))
    A = (A + A.T) / 2.0
    B, C = 0.2 * rng.standard_normal((3, 3)), 0.2 * rng.standard_normal((3, 3))
    Q3 = operator_from_constant(g256, {(2,): -A, (1,): B, (0,): C}, order=2)
    coeff3 = checks.band_limited_coefficients(1, 256, PI, 3, rng)
    lam3 = 8.0**2 * np.exp(1j * theta0)
    sym3 = A * (xi256**2)[:, None, None] + 1j * xi256[:, None, None] * B + C
    u3_hat = np.linalg.solve(lam3 * np.eye(3) - sym3, coeff3[..., None])[..., 0]
    u3_ref = checks.samples_from_coefficients(u3_hat, 1)
    problem3 = ResolventProblem(Q3, theta0, 8.0, _field(g256, coeff3))
    cases.append(("3-channel", lambda: resolvent.solve_constant(problem3),
                  lambda rep: checks.check_samples("3-channel solve", rep.u.samples, u3_ref, 1e-9)))

    # mollifier error sweep at N=2048 on smooth data: every case converges
    g2048 = GridSpec(1, 2048, PI)
    x2048 = g2048.coords().real[..., 0]
    center, width = rng.uniform(-0.5, 0.5), rng.uniform(1.0, 3.0)
    smooth = Field(g2048, (np.exp(-width * (x2048 - center) ** 2) * _bump(x2048 / 2.5))[:, None])
    eps_seq = [PI / 8.0 * 0.5**j for j in range(6)]
    window = np.abs(x2048) <= PI / 2.0
    operators = {
        "identity": operator_from_constant(g2048, {(0,): 1.0}, order=0),
        "d": operator_from_constant(g2048, {(1,): 1.0}, order=1),
        "-d2": operator_from_constant(g2048, {(2,): -1.0}, order=2),
    }
    for label, P in operators.items():
        for p in (1.0, 2.0, math.inf):
            cases.append((
                f"mollify {label} p={p}",
                lambda P=P, p=p: mollify.mollifier_convergence_experiment(P, smooth, p, eps_seq, window),
                lambda table, tag=f"mollify {label} p={p}": checks.check_converging(tag, table.errors()),
            ))

    def op():
        return [run() for _, run, _ in cases]

    def check(results: list) -> list:
        problems = []
        for (_, _, case_check), result in zip(cases, results):
            problems += case_check(result)
        return problems

    inputs = {"cases": [label for label, _, _ in cases], "frozen_x0_index": i0}
    return Workload(op, check, inputs)

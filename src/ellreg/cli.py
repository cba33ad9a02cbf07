"""Experiment runner: config parsing, dispatch, and artifact emission.

Every experiment is a pure function of (config, seed); artifacts are a
results.json with sorted keys, one CSV per table, and a manifest naming the
mathematical statement each run exercises.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import casework
from .besov import BesovParams, besov_norm
from .mollify import (
    admissible_eps_sequence,
    mollifier_convergence_experiment,
    uniform_convergence_experiment,
)
from .errors import ConfigError, EllregError, ExperimentError
from .grid import Field, GridSpec, field_from_function, lp_norm, random_band_limited_field
from .localize import build_partition, patch_norm
from .pdo import (
    PDOperator,
    laplacian,
    operator_from_constant,
    operator_from_description,
    parameter_ellipticity_constant,
)
from .profiles import radial_window
from .resolvent import (
    ResolventProblem,
    apriori_ratio,
    solve_constant,
    solve_frozen_localized,
    solve_neumann_lower_order,
)

SCHEMA_VERSION = 1
OUTPUT_ROOT_ENV = "ELLREG_OUTPUT_ROOT"

_CONFIG_KEYS = {"schema_version", "kind", "grid", "parameters", "seed", "output_dir"}


@dataclass
class ExperimentConfig:
    kind: str
    grid: GridSpec
    parameters: dict
    seed: int
    output_dir: str


def parse_config(obj: dict) -> ExperimentConfig:
    if not isinstance(obj, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(obj) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if obj.get("schema_version", SCHEMA_VERSION) != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {obj.get('schema_version')}")
    kind = obj.get("kind")
    if kind not in CATALOG:
        raise ConfigError(f"unknown experiment kind {kind!r}")
    gspec = obj.get("grid", {})
    try:
        grid = GridSpec(
            int(gspec.get("dim", 1)),
            int(gspec.get("points_per_axis", 256)),
            float(gspec.get("half_period", math.pi)),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad grid: {exc}") from exc
    params = obj.get("parameters", {})
    if not isinstance(params, dict):
        raise ConfigError("parameters must be an object")
    return ExperimentConfig(
        kind, grid, params, int(obj.get("seed", 0)), str(obj.get("output_dir", kind))
    )


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def _window_mask(grid: GridSpec) -> np.ndarray:
    coords = grid.coords().real
    return np.max(np.abs(coords), axis=-1) <= grid.half_period / 2.0


def _fixture_field(grid: GridSpec, name: str) -> Field:
    coords = grid.coords().real
    win = radial_window(grid, grid.half_period / 4.0, grid.half_period / 2.0)
    w = win.samples[..., 0].real
    r = np.sqrt(np.sum(coords**2, axis=-1))
    if name == "smooth":
        vals = np.exp(-(r**2)) * w
    elif name == "kink":
        vals = r * w
    elif name == "cubic-kink":
        vals = r**3 * w
    elif name == "wave":
        vals = np.cos(3.0 * coords[..., 0]) * w
    else:
        raise ConfigError(f"unknown fixture {name!r}")
    return Field(grid, vals[..., None])


def _sample_count(cfg: ExperimentConfig, default: int) -> int:
    count = int(cfg.parameters.get("count", default))
    if count < 1:
        raise ConfigError(f"count must be >= 1, got {count}")
    return count


def _named_operator(grid: GridSpec, name) -> PDOperator:
    if isinstance(name, dict):
        try:
            return operator_from_description(grid, name)
        except (ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"bad operator description: {exc}") from exc
    if name == "neg-laplacian":
        return laplacian(grid, sign=-1.0)
    if name == "neg-laplacian-plus-one":
        Q = laplacian(grid, sign=-1.0)
        Q.coeffs[(0,) * grid.dim] = np.broadcast_to(
            np.eye(1, dtype=np.complex128), grid.shape + (1, 1)
        ).copy()
        return Q
    if name == "neg-d2-drift":
        if grid.dim != 1:
            raise ConfigError("neg-d2-drift is one-dimensional")
        return operator_from_constant(grid, {(2,): -1.0, (1,): 2.0}, order=2)
    if name == "derivative":
        alpha = tuple(1 if a == 0 else 0 for a in range(grid.dim))
        return operator_from_constant(grid, {alpha: 1.0}, order=1)
    if name == "identity":
        return operator_from_constant(grid, {(0,) * grid.dim: 1.0}, order=0)
    raise ConfigError(f"unknown operator {name!r}")


# ---------------------------------------------------------------------------
# Experiment handlers: each returns (results_dict, [(table_name, header, rows)])
# ---------------------------------------------------------------------------


def _run_mollify(cfg: ExperimentConfig):
    p_list = cfg.parameters.get("p", [1.0, 2.0])
    cases = cfg.parameters.get(
        "cases",
        [
            {"operator": "identity", "fixture": "kink"},
            {"operator": "derivative", "fixture": "kink"},
            {"operator": "neg-laplacian", "fixture": "cubic-kink"},
            {"operator": "neg-laplacian", "fixture": "kink"},
        ],
    )
    eps_seq = admissible_eps_sequence(cfg.grid, count=int(cfg.parameters.get("eps_count", 6)))
    mask = _window_mask(cfg.grid)
    results = {"eps_seq": [float(e) for e in eps_seq], "cases": []}
    tables = []
    for case in cases:
        P = _named_operator(cfg.grid, case["operator"])
        f = _fixture_field(cfg.grid, case["fixture"])
        per_p = {}
        for p in p_list:
            table = mollifier_convergence_experiment(P, f, float(p), eps_seq, mask)
            per_p[str(p)] = table.as_dict()
            tables.append(
                (
                    f"mollify_{case['operator']}_{case['fixture']}_p{p}",
                    ["eps", "error"],
                    [[row["eps"], row["error"]] for row in table.rows],
                )
            )
        results["cases"].append(
            {"operator": case["operator"], "fixture": case["fixture"], "by_p": per_p}
        )
    return results, tables


def _run_uniform(cfg: ExperimentConfig):
    fixture = cfg.parameters.get("fixture", "smooth")
    op_name = cfg.parameters.get("operator", "neg-laplacian")
    P = _named_operator(cfg.grid, op_name)
    f = _fixture_field(cfg.grid, fixture)
    eps_seq = admissible_eps_sequence(cfg.grid, count=int(cfg.parameters.get("eps_count", 6)))
    table = uniform_convergence_experiment(P, f, eps_seq, _window_mask(cfg.grid))
    rates = table.rates()
    results = {
        "operator": op_name,
        "fixture": fixture,
        "table": table.as_dict(),
        "final_rates": rates[-2:],
    }
    return results, [
        ("uniform_errors", ["eps", "error"], [[r["eps"], r["error"]] for r in table.rows])
    ]


def _make_rhs(cfg: ExperimentConfig, rng: np.random.Generator) -> Field:
    kind = cfg.parameters.get("rhs", "random")
    if kind == "random":
        return random_band_limited_field(cfg.grid, 1, rng)
    return _fixture_field(cfg.grid, kind)


def _run_resolvent(cfg: ExperimentConfig):
    method = cfg.parameters.get("method", "constant")
    if method == "frozen" and cfg.parameters.get("rhs", "random") == "random":
        raise ConfigError("method 'frozen' needs a localized rhs fixture: the random rhs is global")
    op_name = cfg.parameters.get("operator", "neg-laplacian")
    Q = _named_operator(cfg.grid, op_name)
    r = float(cfg.parameters.get("r", 8.0))
    theta0 = float(cfg.parameters.get("theta0", math.pi))
    rng = _rng(cfg.seed)
    g = _make_rhs(cfg, rng)
    problem = ResolventProblem(Q, theta0, r, g)
    if method == "constant":
        report = solve_constant(problem)
    elif method == "neumann":
        report = solve_neumann_lower_order(problem)
    elif method == "frozen":
        x0 = tuple(cfg.parameters.get("x0_index", (cfg.grid.points_per_axis // 2,) * cfg.grid.dim))
        # the fixtures are windowed out to radius L/2
        delta = float(cfg.parameters.get("delta", cfg.grid.half_period / 2.0))
        report = solve_frozen_localized(problem, x0, delta)
    else:
        raise ConfigError(f"unknown solve method {method!r}")
    results = {
        "method": method,
        "operator": op_name,
        "r": r,
        "theta0": theta0,
        "report": report.as_dict(),
        "g_linf": lp_norm(g, math.inf),
    }
    return results, []


def _run_apriori(cfg: ExperimentConfig):
    count = _sample_count(cfg, 10)
    r_list = [float(r) for r in cfg.parameters.get("r", [4.0, 8.0, 16.0])]
    betas = [float(b) for b in cfg.parameters.get("beta", [-2.0, 0.0, 1.0])]
    pq_list = [tuple(pq) for pq in cfg.parameters.get("pq", [[2, 2], [1, "inf"], ["inf", "inf"]])]
    pq_list = [(float(p) if p != "inf" else math.inf, float(q) if q != "inf" else math.inf) for p, q in pq_list]
    Q = _named_operator(cfg.grid, cfg.parameters.get("operator", "neg-laplacian"))
    theta0 = float(cfg.parameters.get("theta0", math.pi))
    rng = _rng(cfg.seed)
    rows = []
    overall = 0.0
    for idx in range(count):
        g = random_band_limited_field(cfg.grid, 1, rng)
        for r in r_list:
            problem = ResolventProblem(Q, theta0, r, g)
            u = solve_constant(problem).u
            for beta in betas:
                for p, q in pq_list:
                    ratio = apriori_ratio(u, g, Q, r, theta0, beta, p, q)
                    overall = max(overall, ratio)
                    rows.append([idx, r, beta, p, q, ratio])
    results = {
        "count": count,
        "r": r_list,
        "beta": betas,
        "max_ratio": overall,
    }
    header = ["sample", "r", "beta", "p", "q", "ratio"]
    return results, [("apriori_ratios", header, rows)]


def _run_besov(cfg: ExperimentConfig):
    alphas = [float(a) for a in cfg.parameters.get("alpha", [-1.0, 0.0, 0.5, 1.0, 2.0])]
    p = float(cfg.parameters.get("p", 2.0))
    q_raw = cfg.parameters.get("q", 2.0)
    q = math.inf if q_raw == "inf" else float(q_raw)
    k = int(cfg.parameters.get("wavenumber", 3))
    f = field_from_function(cfg.grid, lambda x: np.exp(1j * k * x[..., 0]))
    rows = []
    for alpha in alphas:
        rows.append([alpha, besov_norm(f, BesovParams(alpha, p, q))])
    results = {
        "fixture": f"exp(i {k} x)",
        "p": p,
        "q": "inf" if math.isinf(q) else q,
        "norms": {str(a): n for a, n in rows},
        "all_finite": all(math.isfinite(n) for _, n in rows),
    }
    return results, [("besov_norms", ["alpha", "norm"], rows)]


def _run_patch(cfg: ExperimentConfig):
    delta = float(cfg.parameters.get("delta", cfg.grid.half_period / 2.0))
    beta = float(cfg.parameters.get("beta", 1.0))
    p = float(cfg.parameters.get("p", 2.0))
    count = _sample_count(cfg, 5)
    part = build_partition(cfg.grid, delta)
    rng = _rng(cfg.seed)
    rows = []
    for idx in range(count):
        f = random_band_limited_field(cfg.grid, 1, rng)
        global_norm = besov_norm(f, BesovParams(beta, p, p))
        local_norm = patch_norm(f, part, beta, p)
        rows.append([idx, global_norm, local_norm, local_norm / global_norm])
    ratios = [row[3] for row in rows]
    results = {
        "delta": delta,
        "num_patches": part.num_patches,
        "max_overlap": part.max_overlap(),
        "partition_sum_error": float(np.max(np.abs(part.psis.sum(axis=0) - 1.0))),
        "ratio_min": min(ratios),
        "ratio_max": max(ratios),
    }
    header = ["sample", "global_norm", "patch_norm", "ratio"]
    return results, [("patch_equivalence", header, rows)]


def _run_example_a(cfg: ExperimentConfig):
    p = float(cfg.parameters.get("p", 2.0))
    n_ref = int(cfg.parameters.get("n_ref", 8192))
    eps_seq = [float(e) for e in cfg.parameters.get("eps", [0.4, 0.2, 0.1, 0.05])]
    witness = casework.nondensity_witness(p, eps_seq, n_ref=n_ref)
    hardy_ps = [float(v) for v in cfg.parameters.get("hardy_p", [1.5, 2.0, 4.0])]
    rng = _rng(cfg.seed)
    hardy_rows = []
    for hp in hardy_ps:
        g = random_band_limited_field(cfg.grid, 1, rng)
        rep = casework.hardy_average(g, hp)
        hardy_rows.append([hp, rep.ratio, hp / (hp - 1.0)])
    results = {
        "v0": witness["v_at_0"],
        "v_eps_at_0": [row["v_eps_at_0"] for row in witness["rows"]],
        "graph_error_floor": witness["graph_error_floor"],
        "u_lp_decay": witness["u_lp_decay"],
        "trace_constant": witness["trace_constant"],
        "hardy": [{"p": r[0], "ratio": r[1], "bound": r[2]} for r in hardy_rows],
    }
    tables = [
        (
            "nondensity",
            ["eps", "v_eps_at_0", "u_lp_error", "graph_error"],
            [[r["eps"], r["v_eps_at_0"], r["u_lp_error"], r["graph_error"]] for r in witness["rows"]],
        ),
        ("hardy_ratios", ["p", "ratio", "bound"], hardy_rows),
    ]
    return results, tables


def _run_gap(cfg: ExperimentConfig):
    sizes = [int(n) for n in cfg.parameters.get("grid_sizes", [64, 128, 256])]
    report = casework.regularity_gap_experiment(
        grid_sizes=sizes, half_period=cfg.grid.half_period
    )
    rows = []
    for i, n in enumerate(report["grid_sizes"]):
        rows.append(
            [
                n,
                report["trajectories"]["w_k_2"][i],
                report["trajectories"]["w_km1_1"][i],
                report["trajectories"]["besov_k_1_inf"][i],
            ]
        )
    header = ["points_per_axis", "w_2_2", "w_1_1", "besov_2_1_inf"]
    return report, [("regularity_gap", header, rows)]


def _run_calibrate(cfg: ExperimentConfig):
    rows = []
    for dim in (1, 2):
        grid = GridSpec(dim, 32, math.pi)
        Q = laplacian(grid, sign=-1.0)
        c, ok = parameter_ellipticity_constant(Q, math.pi)
        rows.append([f"param_ellipticity_neg_laplacian_m{dim}", c, int(ok)])
    line = casework.LineGrid(4096, math.pi)
    for p in (1.5, 2.0, 4.0):
        rows.append([f"trace_constant_p{p}", casework._trace_constant(line, p), 1])
    results = {"entries": {row[0]: row[1] for row in rows}}
    return results, [("calibration", ["name", "value", "ok"], rows)]


CATALOG = {
    "mollify-convergence": {
        "handler": _run_mollify,
        "topic": "smoothing error P f_eps - P f in L^p on a window, swept over eps",
        "default": {"grid": {"dim": 1, "points_per_axis": 2048}, "parameters": {}},
    },
    "uniform-convergence": {
        "handler": _run_uniform,
        "topic": "sup-norm smoothing error for smooth data, with measured decay order",
        "default": {"grid": {"dim": 1, "points_per_axis": 2048}, "parameters": {}},
    },
    "resolvent-solve": {
        "handler": _run_resolvent,
        "topic": "solve r^n e^{i theta0} u - Q u = g by multiplier or fixed-point iteration",
        "default": {"grid": {"dim": 1, "points_per_axis": 256}, "parameters": {"method": "constant"}},
    },
    "apriori-sweep": {
        "handler": _run_apriori,
        "topic": "measured a-priori quotients over a random corpus and parameter grid",
        "default": {"grid": {"dim": 1, "points_per_axis": 128}, "parameters": {"count": 5}},
    },
    "besov-norm": {
        "handler": _run_besov,
        "topic": "Besov norms of a single Fourier mode across the smoothness scale",
        "default": {"grid": {"dim": 1, "points_per_axis": 128}, "parameters": {}},
    },
    "patch-equivalence": {
        "handler": _run_patch,
        "topic": "partition-of-unity patch norms against the global norm",
        "default": {"grid": {"dim": 1, "points_per_axis": 128}, "parameters": {}},
    },
    "example-a": {
        "handler": _run_example_a,
        "topic": "graph-space non-density witness for -x d^3 + (x-1) d^2, plus Hardy ratios",
        "default": {"grid": {"dim": 1, "points_per_axis": 256}, "parameters": {}},
    },
    "regularity-gap": {
        "handler": _run_gap,
        "topic": "refinement trajectories of Sobolev and Besov norms of a log-singular field",
        "default": {"grid": {"dim": 2, "points_per_axis": 64}, "parameters": {"grid_sizes": [64, 128]}},
    },
    "calibrate": {
        "handler": _run_calibrate,
        "topic": "measured constants (parameter-ellipticity, trace) for the test fixtures",
        "default": {"grid": {"dim": 1, "points_per_axis": 64}, "parameters": {}},
    },
}


# ---------------------------------------------------------------------------
# Artifact emission
# ---------------------------------------------------------------------------


def _sanitize(obj):
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and math.isinf(obj):
        return "inf" if obj > 0 else "-inf"
    return obj


def write_artifacts(out_dir: Path, cfg: ExperimentConfig, results: dict, tables):
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "kind": cfg.kind,
        "seed": cfg.seed,
        "grid": {
            "dim": cfg.grid.dim,
            "points_per_axis": cfg.grid.points_per_axis,
            "half_period": cfg.grid.half_period,
        },
        "results": _sanitize(results),
    }
    with open(out_dir / "results.json", "w", newline="\n") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
    for name, header, rows in tables:
        with open(out_dir / f"{name}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                writer.writerow(_sanitize(list(row)))
    manifest = {
        "kind": cfg.kind,
        "topic": CATALOG[cfg.kind]["topic"],
        "rng": "numpy PCG64",
        "schema_version": SCHEMA_VERSION,
        "tables": sorted(name for name, _, _ in tables),
    }
    with open(out_dir / "manifest.json", "w", newline="\n") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")


def run_experiment(cfg: ExperimentConfig, output_root: str | None = None) -> Path:
    root = Path(output_root or os.environ.get(OUTPUT_ROOT_ENV, "."))
    out_dir = root / cfg.output_dir
    handler = CATALOG[cfg.kind]["handler"]
    try:
        results, tables = handler(cfg)
    except ConfigError:
        raise
    except EllregError as exc:
        raise ExperimentError(f"{cfg.kind}: {type(exc).__name__}: {exc}") from exc
    write_artifacts(out_dir, cfg, results, tables)
    return out_dir


# ---------------------------------------------------------------------------
# Command-line entry points
# ---------------------------------------------------------------------------


def _load_config_file(path: str) -> ExperimentConfig:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(obj)


def _cmd_run(args) -> int:
    cfg = _load_config_file(args.config)
    out = run_experiment(cfg, output_root=args.output_root)
    print(f"wrote {out}/results.json")
    return 0


def _cmd_validate(args) -> int:
    _load_config_file(args.config)
    print("ok")
    return 0


def _cmd_list(args) -> int:
    if args.json:
        catalog = {
            kind: {"topic": entry["topic"], "default_config": entry["default"]}
            for kind, entry in CATALOG.items()
        }
        print(json.dumps(catalog, sort_keys=True, indent=2))
        return 0
    for kind in sorted(CATALOG):
        print(f"{kind}: {CATALOG[kind]['topic']}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ellreg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment config")
    p_run.add_argument("config")
    p_run.add_argument("--output-root", default=None)
    p_run.set_defaults(func=_cmd_run)

    p_val = sub.add_parser("validate", help="check a config without running it")
    p_val.add_argument("config")
    p_val.set_defaults(func=_cmd_validate)

    p_list = sub.add_parser("list", help="show the experiment catalog")
    p_list.add_argument("--json", action="store_true")
    p_list.set_defaults(func=_cmd_list)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ExperimentError, EllregError) as exc:
        print(f"experiment error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

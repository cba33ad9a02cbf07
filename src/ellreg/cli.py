"""Experiment runner: config parsing, dispatch, and artifact emission.

Every experiment is a pure function of (config, seed); artifacts are a
results.json with sorted keys, one CSV per table, and a manifest naming the
mathematical statement each run exercises.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import io
import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from pathlib import Path, PurePath
from reprlib import repr as brief  # a bounded repr: config errors echo values in one short line
from textwrap import shorten  # a bounded, one-line exception text

import numpy as np

from . import casework
from .besov import BesovParams, besov_norms
from .mollify import (admissible_eps_sequence, eps_range, mollifier_convergence_experiment,
                      mollifier_convergence_tables)
from .errors import (ConfigError, EllregError, EpsilonOutOfRange, ExperimentError,
                     IncommensurableDelta, SupportViolation)
from .grid import Field, GridSpec, dft, field_from_function, lp_norm, random_band_limited_field
from .localize import build_partition, global_and_patch_norm, partition_count
from .pdo import (
    PDOperator,
    neg_laplacian,
    operator_from_constant,
    operator_from_description,
    parameter_ellipticity_constant,
)
from .profiles import box_mask, radial_window
from .resolvent import (
    ResolventProblem,
    _spectral_parameter,
    _supporting_cube,
    apriori_ratios,
    solve_constant,
    solve_frozen_localized,
    solve_neumann_lower_order,
)

SCHEMA_VERSION = 1
OUTPUT_ROOT_ENV = "ELLREG_OUTPUT_ROOT"

_CONFIG_KEYS = {"schema_version", "kind", "grid", "parameters", "seed", "output_dir"}
_GRID_DEFAULTS = {"dim": 1, "points_per_axis": 256, "half_period": math.pi}


@dataclass
class ExperimentConfig:
    kind: str
    grid: GridSpec
    parameters: dict  # every keyword argument of the kind's handler, coerced
    seed: int
    output_dir: str


@dataclass(eq=False)
class _Operator:
    """An `operator` parameter: its config spelling and the operator built from it."""

    spec: object
    op: PDOperator


# Fixture profiles f(r, x), multiplied by a window that ends at radius L/2
_FIXTURES = {
    "smooth": lambda r, x: np.exp(-(r**2)),
    "kink": lambda r, x: r,
    "cubic-kink": lambda r, x: r**3,
    "wave": lambda r, x: np.cos(3.0 * x[..., 0]),
}


def _subdirectory(path: str, grid) -> bool:
    """Whether a run can write under its output root only, at `path`: a relative path with no
    '..' part, no NUL byte and no name over 255 bytes (NAME_MAX) in the file system's encoding."""
    pure = PurePath(path)
    try:
        names = [os.fsencode(name) for name in pure.parts]
    except UnicodeEncodeError:  # a lone surrogate has no bytes
        return False
    return (not pure.is_absolute() and ".." not in pure.parts and "\0" not in path
            and all(len(name) <= 255 for name in names))


# The range of every scalar of a parameter, by name: (test on the grid, what it asks)
_EXPONENT = (lambda v, g: v >= 1.0, '>= 1 or "inf"')
_RANGES = {
    **dict.fromkeys(("p", "q", "pq"), _EXPONENT),
    **dict.fromkeys(("count", "eps_count"), (lambda v, g: v >= 1, ">= 1")),
    **dict.fromkeys(("r", "delta", "eps"), (lambda v, g: v > 0.0, "> 0")),
    # the reference grids take the main grid's 2^22-point cap; regularity-gap's are 2-D
    "n_ref": (lambda v, g: 4 <= v <= 1 << 22 and v % 2 == 0, "even, >= 4 and <= 2^22"),
    "grid_sizes": (lambda v, g: 4 <= v and v * v <= 1 << 22 and v % 2 == 0,
                   "even, >= 4 and <= 2^11 (2-D grids of at most 2^22 points)"),
    "seed": (lambda v, g: v >= 0, ">= 0"),
    "hardy_p": (lambda v, g: v > 1.0, "> 1"),
    "x0_index": (lambda v, g: 0 <= v < g.points_per_axis, "a grid index"),
    "method": (lambda v, g: v in ("constant", "neumann", "frozen"), "constant, neumann or frozen"),
    "fixture": (lambda v, g: v in _FIXTURES, f"one of {list(_FIXTURES)}"),
    "rhs": (lambda v, g: v == "random" or v in _FIXTURES, f"random or one of {list(_FIXTURES)}"),
    "output_dir": (_subdirectory,
                   "a relative path with no '..' part, NUL byte or name over 255 bytes"),
}


def _coerce(name: str, value, default, grid: GridSpec | None):
    """`value` cast like `default` and range-checked by `name`, or ConfigError.

    A list default takes a non-empty list of items like its first item, a
    tuple default a list of its length, a dict default an object with its
    keys.  An int takes only a JSON integer, a float a finite JSON number,
    and an exponent also the string "inf".  An `operator` is built here.
    """
    if name == "operator":
        return _Operator(value, _named_operator(grid, value))
    if isinstance(default, dict):
        if isinstance(value, dict) and set(value) != set(default):
            raise ConfigError(f"{name} must have the keys {sorted(default)}, got {brief(value)}")
        return _fields(name, value, default, grid)
    if isinstance(default, tuple):  # a record: one item per position
        if not isinstance(value, (list, tuple)) or len(value) != len(default):
            raise ConfigError(f"{name} must be a list of {len(default)}, got {brief(value)}")
        return tuple(_coerce(name, v, d, grid) for v, d in zip(value, default))
    if isinstance(default, list):  # a sequence of items like the first
        if not isinstance(value, (list, tuple)) or not value:
            raise ConfigError(f"{name} must be a non-empty list, got {brief(value)}")
        return [_coerce(name, v, default[0], grid) for v in value]
    rule = _RANGES.get(name)
    if isinstance(default, str):
        ok, need = isinstance(value, str), "a string"
    elif isinstance(default, int):
        ok, need = type(value) is int, "an integer"
    elif value == "inf" and rule is _EXPONENT:
        ok, value = True, math.inf
    else:
        ok = type(value) in (int, float) and abs(value) <= sys.float_info.max
        need = 'a finite number or "inf"' if rule is _EXPONENT else "a finite number"
        value = float(value) if ok else value
    if not ok:
        raise ConfigError(f"{name} must be {need}, got {brief(value)}")
    if rule is not None and not rule[0](value, grid):
        raise ConfigError(f"{name} must be {rule[1]}, got {brief(value)}")
    return value


def _fields(what: str, raw, schema: dict, grid: GridSpec | None) -> dict:
    if not isinstance(raw, dict):
        raise ConfigError(f"{what} must be an object")
    if unknown := set(raw) - set(schema):
        raise ConfigError(f"unknown {what} keys: {brief(sorted(unknown))}")
    return {name: _coerce(name, raw.get(name, d), d, grid) for name, d in schema.items()}


def parse_config(obj: dict) -> ExperimentConfig:
    """The one parse behind `validate` and `run`: checks a config, fills every default.

    A kind's schema is the keyword parameters of its handler, a grid-dependent default
    a callable of the grid; its `refuse`, if any, then checks what the config decides.
    """
    if not isinstance(obj, dict):
        raise ConfigError("config must be a JSON object")
    if unknown := set(obj) - _CONFIG_KEYS:
        raise ConfigError(f"unknown config keys: {brief(sorted(unknown))}")
    if obj.get("schema_version", SCHEMA_VERSION) != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {brief(obj.get('schema_version'))}")
    kind = obj.get("kind")
    if not isinstance(kind, str) or kind not in CATALOG:
        raise ConfigError(f"unknown experiment kind {brief(kind)}")
    try:
        grid = GridSpec(**_fields("grid", obj.get("grid", {}), _GRID_DEFAULTS, None))
    except ValueError as exc:
        raise ConfigError(f"bad grid: {exc}") from exc
    # operators are built on the grid here: 2^22 points are 64 MiB per coefficient
    if grid.dim > 22 or grid.num_points > 1 << 22:  # dim > 22 gives > 2^44 points
        raise ConfigError(f"grid has {grid.points_per_axis}^{grid.dim} points, more than 2^22")
    _, *args = inspect.signature(CATALOG[kind]["handler"]).parameters.values()
    schema = {a.name: a.default(grid) if callable(a.default) else a.default for a in args}
    params = _fields("parameters", obj.get("parameters", {}), schema, grid)
    if refuse := CATALOG[kind]["refuse"]:
        try:  # the library's own predicates, which decide from the numbers alone
            refuse(grid, **params)
        except (EpsilonOutOfRange, IncommensurableDelta, SupportViolation, OverflowError) as exc:
            raise ConfigError(str(exc)) from exc
    seed = _coerce("seed", obj.get("seed", 0), 0, grid)
    output_dir = _coerce("output_dir", obj.get("output_dir", kind), kind, grid)
    return ExperimentConfig(kind, grid, params, seed, output_dir)


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def _window_mask(grid: GridSpec) -> np.ndarray:
    return box_mask(grid, (0.0,) * grid.dim, grid.half_period / 2.0)


def _fixture_field(grid: GridSpec, name: str) -> Field:
    coords = grid.coords()
    w = radial_window(grid, grid.half_period / 4.0, grid.half_period / 2.0)
    r = np.sqrt(np.sum(coords**2, axis=-1))
    return Field(grid, (_FIXTURES[name](r, coords) * w)[..., None])


def _named_operator(grid: GridSpec, name) -> PDOperator:
    if isinstance(name, dict):
        try:
            return operator_from_description(grid, name)
        except (ValueError, LookupError, TypeError, ArithmeticError) as exc:
            raise ConfigError(f"bad operator description: {shorten(str(exc), 150)}") from exc
    if name == "neg-laplacian":
        return neg_laplacian(grid)
    if name == "neg-laplacian-plus-one":
        lap = neg_laplacian(grid)
        return PDOperator(grid, 2, 1, 1, {**lap.coeffs, (0,) * grid.dim: np.ones((1, 1))})
    if name == "neg-d2-drift":
        if grid.dim != 1:
            raise ConfigError("neg-d2-drift is one-dimensional")
        return operator_from_constant(grid, {(2,): -1.0, (1,): 2.0}, order=2)
    if name == "derivative":
        alpha = tuple(1 if a == 0 else 0 for a in range(grid.dim))
        return operator_from_constant(grid, {alpha: 1.0}, order=1)
    if name == "identity":
        return operator_from_constant(grid, {(0,) * grid.dim: 1.0}, order=0)
    raise ConfigError(f"unknown operator {brief(name)}")


# ---------------------------------------------------------------------------
# Experiment handlers: each returns (results_dict, [(table_name, header, rows)]).
# Its keyword parameters are the kind's schema, whose defaults are only read: parse_config
# coerces and fills in every one, then calls the kind's refuse(grid, **params), beside it.
# ---------------------------------------------------------------------------


def _error_csv(name: str, table) -> tuple:
    """One mollifier sweep's (eps, error) table."""
    return name, ["eps", "error"], [[row["eps"], row["error"]] for row in table.rows]


def _refuse_sweep(grid: GridSpec, **_):
    admissible_eps_sequence(grid, 1)  # a sweep must hold at least one eps


def _run_mollify(
    cfg: ExperimentConfig,
    p=[1.0, 2.0],
    cases=[
        {"operator": "identity", "fixture": "kink"},
        {"operator": "derivative", "fixture": "kink"},
        {"operator": "neg-laplacian", "fixture": "cubic-kink"},
        {"operator": "neg-laplacian", "fixture": "kink"},
    ],
    eps_count=6,
):
    eps_seq = admissible_eps_sequence(cfg.grid, count=eps_count)
    mask = _window_mask(cfg.grid)
    fixtures = dict.fromkeys(case["fixture"] for case in cases)  # in order of first appearance
    spectra = {name: dft(_fixture_field(cfg.grid, name)) for name in fixtures}
    results = {"eps_seq": [float(e) for e in eps_seq], "cases": []}
    tables = {}  # by name: equal cases share their tables, written and listed once
    for i, case in enumerate(cases):
        operator, fixture = case["operator"], case["fixture"]
        sweeps = mollifier_convergence_tables(operator.op, spectra[fixture], p, eps_seq, mask)
        # a named operator keeps its name; a description's repr may be any length
        label = operator.spec if isinstance(operator.spec, str) else f"case{i}"
        for exponent, table in zip(p, sweeps):
            name = f"mollify_{label}_{fixture}_p{exponent}"
            tables[name] = _error_csv(name, table)
        by_p = {str(exponent): table.as_dict() for exponent, table in zip(p, sweeps)}
        results["cases"].append({"operator": operator, "fixture": fixture, "by_p": by_p})
    return results, list(tables.values())


def _run_uniform(cfg: ExperimentConfig, fixture="smooth", operator="neg-laplacian", eps_count=6):
    f = _fixture_field(cfg.grid, fixture)
    eps_seq = admissible_eps_sequence(cfg.grid, count=eps_count)
    table = mollifier_convergence_experiment(operator.op, f, math.inf, eps_seq,
                                             _window_mask(cfg.grid))
    results = {
        "operator": operator,
        "fixture": fixture,
        "table": table.as_dict(),
        "final_rates": table.rates()[-2:],
    }
    return results, [_error_csv("uniform_errors", table)]


def _refuse_resolvent(grid: GridSpec, method, operator, r, theta0, rhs, x0_index, delta):
    _spectral_parameter(r, operator.op.order, theta0)
    if method == "frozen":  # its rhs fixture must lie in the solve's cube
        if rhs == "random":
            raise ConfigError("method 'frozen' needs a localized rhs fixture: "
                              "the random rhs is global")
        _supporting_cube(_fixture_field(grid, rhs), x0_index, delta)


def _run_resolvent(
    cfg: ExperimentConfig,
    method="constant",
    operator="neg-laplacian",
    r=8.0,
    theta0=math.pi,
    rhs="random",
    x0_index=lambda grid: (grid.points_per_axis // 2,) * grid.dim,
    delta=lambda grid: grid.half_period / 2.0,  # the fixtures are windowed out to radius L/2
):
    g = (random_band_limited_field(cfg.grid, 1, _rng(cfg.seed)) if rhs == "random"
         else _fixture_field(cfg.grid, rhs))
    problem = ResolventProblem(operator.op, theta0, r, g)
    if method == "constant":
        report = solve_constant(problem)
    elif method == "neumann":
        report = solve_neumann_lower_order(problem)
    else:
        report = solve_frozen_localized(problem, x0_index, delta)
    results = {
        "method": method,
        "operator": operator,
        "r": r,
        "theta0": theta0,
        "report": report.as_dict(),
        "g_linf": lp_norm(g, math.inf),
    }
    return results, []


def _refuse_apriori(grid: GridSpec, r, operator, theta0, **_):
    for radius in r:
        _spectral_parameter(radius, operator.op.order, theta0)


def _run_apriori(
    cfg: ExperimentConfig,
    count=10,
    r=[4.0, 8.0, 16.0],
    beta=[-2.0, 0.0, 1.0],
    pq=[(2.0, 2.0), (1.0, "inf"), ("inf", "inf")],
    operator="neg-laplacian",
    theta0=math.pi,
):
    Q = operator.op
    rng = _rng(cfg.seed)
    rows = []
    overall = 0.0
    for idx in range(count):
        g = random_band_limited_field(cfg.grid, 1, rng)
        solutions = [(radius, solve_constant(ResolventProblem(Q, theta0, radius, g)).u)
                     for radius in r]
        ratios = apriori_ratios(g, Q, solutions, beta, pq)
        overall = max([overall] + ratios)
        points = ((radius, b, p, q) for radius in r for b in beta for p, q in pq)
        rows += [[idx, *point, ratio] for point, ratio in zip(points, ratios)]
    results = {"count": count, "r": r, "beta": beta, "max_ratio": overall}
    header = ["sample", "r", "beta", "p", "q", "ratio"]
    return results, [("apriori_ratios", header, rows)]


def _run_besov(cfg: ExperimentConfig, alpha=[-1.0, 0.0, 0.5, 1.0, 2.0], p=2.0, q=2.0, wavenumber=3):
    f = field_from_function(cfg.grid, lambda x: np.exp(1j * wavenumber * x[..., 0]))
    norms = besov_norms(f, [BesovParams(a, p, q) for a in alpha])
    rows = [[a, n] for a, n in zip(alpha, norms)]
    results = {
        "fixture": f"exp(i {wavenumber} x)",
        "p": p,
        "q": q,
        "norms": {str(a): n for a, n in rows},
        "all_finite": all(math.isfinite(n) for _, n in rows),
    }
    return results, [("besov_norms", ["alpha", "norm"], rows)]


def _refuse_patch(grid: GridSpec, delta, **_):
    partition_count(grid, delta)  # here delta is the partition spacing, not a cube radius


def _run_patch(
    cfg: ExperimentConfig, delta=lambda grid: grid.half_period / 2.0, beta=1.0, p=2.0, count=5
):
    part = build_partition(cfg.grid, delta)
    rng = _rng(cfg.seed)
    rows = []
    for idx in range(count):
        f = random_band_limited_field(cfg.grid, 1, rng)
        global_norm, local_norm = global_and_patch_norm(f, part, beta, p)
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


def _refuse_example_a(grid: GridSpec, n_ref, eps, **_):
    if grid.dim != 1:  # casework.hardy_average takes 1-D fields, which it samples on the grid
        raise ConfigError(f"example-a needs a 1-D grid for its Hardy ratios, got dim {grid.dim}")
    lo, hi = eps_range(casework.witness_grid(n_ref))  # widths on the witness's reference grid
    if bad := [e for e in eps if not lo <= e < hi]:
        raise ConfigError(f"eps must lie in [{lo:.4g}, {hi:.4g}) on the n_ref grid, "
                          f"got {brief(bad[0])}")


def _run_example_a(
    cfg: ExperimentConfig, p=2.0, n_ref=8192, eps=[0.4, 0.2, 0.1, 0.05], hardy_p=[1.5, 2.0, 4.0]
):
    witness = casework.nondensity_witness(p, eps, n_ref=n_ref)
    rng = _rng(cfg.seed)
    hardy_rows = []
    for hp in hardy_p:
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


def _refuse_gap(grid: GridSpec, grid_sizes):
    casework._check_window(grid_sizes, grid.half_period)


def _run_gap(cfg: ExperimentConfig, grid_sizes=[64, 128, 256]):
    report = casework.regularity_gap_experiment(grid_sizes, cfg.grid.half_period)
    traj = report["trajectories"]
    rows = list(zip(report["grid_sizes"], traj["w_k_2"], traj["w_km1_1"], traj["besov_k_1_inf"]))
    header = ["points_per_axis", "w_2_2", "w_1_1", "besov_2_1_inf"]
    return report, [("regularity_gap", header, rows)]


def _run_calibrate(cfg: ExperimentConfig):
    rows = []
    for dim in (1, 2):
        grid = GridSpec(dim, 32, math.pi)
        Q = neg_laplacian(grid)
        c, ok = parameter_ellipticity_constant(Q, math.pi)
        rows.append([f"param_ellipticity_neg_laplacian_m{dim}", c, int(ok)])
    line = casework.LineGrid(4096, math.pi)
    for p in (1.5, 2.0, 4.0):
        rows.append([f"trace_constant_p{p}", casework._trace_constant(line, p), 1])
    results = {"entries": {row[0]: row[1] for row in rows}}
    return results, [("calibration", ["name", "value", "ok"], rows)]


CATALOG = {
    kind: {"handler": handler, "refuse": refuse, "topic": topic}
    for kind, handler, refuse, topic in [
        ("mollify-convergence", _run_mollify, _refuse_sweep,
         "smoothing error P f_eps - P f in L^p on a window, swept over eps"),
        ("uniform-convergence", _run_uniform, _refuse_sweep,
         "sup-norm smoothing error for smooth data, with measured decay order"),
        ("resolvent-solve", _run_resolvent, _refuse_resolvent,
         "solve r^n e^{i theta0} u - Q u = g by multiplier or fixed-point iteration"),
        ("apriori-sweep", _run_apriori, _refuse_apriori,
         "measured a-priori quotients over a random corpus and parameter grid"),
        ("besov-norm", _run_besov, None,
         "Besov norms of a single Fourier mode across the smoothness scale"),
        ("patch-equivalence", _run_patch, _refuse_patch,
         "partition-of-unity patch norms against the global norm"),
        ("example-a", _run_example_a, _refuse_example_a,
         "graph-space non-density witness for -x d^3 + (x-1) d^2, plus Hardy ratios"),
        ("regularity-gap", _run_gap, _refuse_gap,
         "refinement trajectories of Sobolev and Besov norms of a log-singular field"),
        ("calibrate", _run_calibrate, None,
         "measured constants (parameter-ellipticity, trace) for the test fixtures"),
    ]
}


# ---------------------------------------------------------------------------
# Artifact emission
# ---------------------------------------------------------------------------


def _sanitize(obj):
    """JSON-ready copy: +-inf become "inf"/"-inf"; a NaN is an ExperimentError."""
    if isinstance(obj, _Operator):
        return _sanitize(obj.spec)
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and math.isnan(obj):
        raise ExperimentError("a result is NaN; nothing was written")
    if isinstance(obj, float) and math.isinf(obj):
        return "inf" if obj > 0 else "-inf"
    return obj


# Linux's PATH_MAX, the terminating NUL included: no longer path names a file
_PATH_MAX = 4096


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _csv_text(header, rows) -> str:
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows([header, *rows])
    return buf.getvalue()


def write_artifacts(out_dir: Path, cfg: ExperimentConfig, results: dict, tables):
    """Render every artifact, then write each as a new file: an old one is unlinked, never
    truncated or renamed over, and a symlink in its place is replaced, not followed."""
    payload = {"schema_version": SCHEMA_VERSION, "kind": cfg.kind, "seed": cfg.seed,
               "grid": asdict(cfg.grid), "results": _sanitize(results)}
    manifest = {"kind": cfg.kind, "topic": CATALOG[cfg.kind]["topic"], "rng": "numpy PCG64",
                "schema_version": SCHEMA_VERSION, "tables": sorted(name for name, _, _ in tables)}
    csvs = {f"{name}.csv": _csv_text(header, _sanitize(rows)) for name, header, rows in tables}
    artifacts = {"results.json": _json_text(payload), **csvs, "manifest.json": _json_text(manifest)}
    if len(os.fsencode(out_dir)) + 1 + max(map(len, map(os.fsencode, artifacts))) >= _PATH_MAX:
        raise ConfigError(f"cannot make output directory {brief(str(out_dir))}: "
                          f"its artifact paths reach the {_PATH_MAX}-byte path limit")
    path = out_dir
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, text in artifacts.items():
            path = out_dir / name
            path.unlink(missing_ok=True)
            with open(path, "x", newline="") as fh:
                fh.write(text)
    except (OSError, ValueError, RecursionError) as exc:  # too deep under the root, or unwritable
        reason = getattr(exc, "strerror", None) or shorten(str(exc), 100)
        what = "make output directory" if path is out_dir else "write"
        raise ConfigError(f"cannot {what} {brief(str(path))}: {reason}") from None


def run_experiment(cfg: ExperimentConfig, output_root: str | None = None) -> Path:
    root = Path(output_root or os.environ.get(OUTPUT_ROOT_ENV, "."))
    out_dir = root / cfg.output_dir
    handler = CATALOG[cfg.kind]["handler"]
    try:
        results, tables = handler(cfg, **cfg.parameters)
    except ConfigError:
        raise
    except (EllregError, ArithmeticError) as exc:
        raise ExperimentError(f"{cfg.kind}: {type(exc).__name__}: {exc}") from exc
    write_artifacts(out_dir, cfg, results, tables)
    return out_dir


# ---------------------------------------------------------------------------
# Command-line entry points
# ---------------------------------------------------------------------------


def _load_config_file(path: str) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON, bad UTF-8, or nested too deep
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
        catalog = {}
        for kind, entry in CATALOG.items():
            cfg = parse_config({"kind": kind})
            default = _sanitize({**vars(cfg), "grid": asdict(cfg.grid)})
            catalog[kind] = {"topic": entry["topic"], "default_config": default}
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
        # a non-finite result is reported once, below, not as numpy warnings
        with np.errstate(all="ignore"):
            return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ExperimentError, EllregError) as exc:
        print(f"experiment error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

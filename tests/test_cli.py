import inspect
import json
import math
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellreg import cli
from ellreg.cli import (
    CATALOG,
    ExperimentConfig,
    _sanitize,
    _window_mask,
    main,
    parse_config,
    run_experiment,
)
from ellreg.besov import BesovParams, besov_norm
from ellreg.errors import ConfigError
from ellreg.grid import GridSpec, random_band_limited_field
from ellreg.pdo import neg_laplacian
from ellreg.resolvent import ResolventProblem, solve_constant

SHIPPED = sorted((pathlib.Path(__file__).resolve().parent.parent / "configs").glob("*.json"))


EXPECTED_KINDS = {
    "mollify-convergence",
    "uniform-convergence",
    "resolvent-solve",
    "apriori-sweep",
    "besov-norm",
    "patch-equivalence",
    "example-a",
    "regularity-gap",
    "calibrate",
}


def test_catalog_kinds_and_topics(capsys):
    assert set(CATALOG) == EXPECTED_KINDS
    for entry in CATALOG.values():
        assert entry["topic"]
        assert "handler" in entry
    # the full defaults that `list --json` shows are a config that parses to itself
    assert main(["list", "--json"]) == 0
    for kind, entry in json.loads(capsys.readouterr().out).items():
        default = entry["default_config"]
        cfg = parse_config(default)
        assert (cfg.kind, cfg.seed, cfg.output_dir) == (kind, default["seed"], default["output_dir"])
        assert cfg.grid == GridSpec(**default["grid"])
        assert _sanitize(cfg.parameters) == default["parameters"]


def test_parse_config_defaults():
    cfg = parse_config({"kind": "besov-norm"})
    assert cfg.kind == "besov-norm"
    assert cfg.grid.dim == 1
    assert cfg.grid.half_period == math.pi
    assert cfg.seed == 0
    assert cfg.output_dir == "besov-norm"


def test_parse_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        parse_config({"kind": "besov-norm", "extra": 1})


def test_parse_config_rejects_unknown_kind():
    with pytest.raises(ConfigError):
        parse_config({"kind": "no-such-experiment"})


def test_parse_config_rejects_bad_schema():
    with pytest.raises(ConfigError):
        parse_config({"kind": "besov-norm", "schema_version": 99})


def test_parse_config_rejects_bad_grid():
    with pytest.raises(ConfigError):
        parse_config({"kind": "besov-norm", "grid": {"points_per_axis": "many"}})


def test_parse_config_rejects_non_finite_half_period():
    # JSON 1e400 parses to inf; it must not reach results.json as Infinity/NaN
    with pytest.raises(ConfigError):
        parse_config({"kind": "besov-norm", "grid": json.loads('{"half_period": 1e400}')})


def test_reference_grids_are_capped_at_2_22_points():
    # parse only: the largest accepted reference grids hold exactly 2^22 points
    assert parse_config({"kind": "example-a", "parameters": {"n_ref": 1 << 22}})
    assert parse_config({"kind": "regularity-gap", "parameters": {"grid_sizes": [2048]}})
    for kind, params in [("example-a", {"n_ref": (1 << 22) + 2}),
                         ("regularity-gap", {"grid_sizes": [64, 2050]})]:
        with pytest.raises(ConfigError, match="2\\^22"):
            parse_config({"kind": kind, "parameters": params})


def test_parse_config_rejects_non_dict_parameters():
    with pytest.raises(ConfigError):
        parse_config({"kind": "besov-norm", "parameters": [1, 2]})


def _write_config(tmp_path, obj, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_run_writes_artifacts(tmp_path):
    cfg_path = _write_config(
        tmp_path,
        {
            "kind": "besov-norm",
            "grid": {"dim": 1, "points_per_axis": 64},
            "seed": 7,
            "output_dir": "out",
        },
    )
    code = main(["run", cfg_path, "--output-root", str(tmp_path)])
    assert code == 0
    out = tmp_path / "out"
    payload = json.loads((out / "results.json").read_text())
    assert payload["kind"] == "besov-norm"
    assert payload["seed"] == 7
    assert payload["results"]["all_finite"] is True
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["rng"] == "numpy PCG64"
    assert manifest["tables"] == ["besov_norms"]
    csv_text = (out / "besov_norms.csv").read_text()
    assert csv_text.splitlines()[0] == "alpha,norm"


def test_apriori_sweep_rows_are_one_point_norm_quotients(tmp_path):
    # repeated r and beta keep their own rows, in config order, though their norms are shared
    cfg = parse_config({"kind": "apriori-sweep", "grid": {"points_per_axis": 64},
                        "parameters": {"count": 1, "r": [4.0, 4.0], "beta": [0.0, 0.0]},
                        "seed": 5, "output_dir": "sweep"})
    out = run_experiment(cfg, output_root=str(tmp_path))
    lines = (out / "apriori_ratios.csv").read_text().splitlines()
    assert lines[0] == "sample,r,beta,p,q,ratio"
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    pq = [(2.0, 2.0), (1.0, math.inf), (math.inf, math.inf)]
    assert [row[:5] for row in rows] == [[0, r, b, p, q] for r in (4.0, 4.0) for b in (0.0, 0.0)
                                         for p, q in pq]
    g = random_band_limited_field(cfg.grid, 1, cli._rng(5))
    u = solve_constant(ResolventProblem(neg_laplacian(cfg.grid), math.pi, 4.0, g)).u
    for _, r, b, p, q, ratio in rows:
        low, high = (besov_norm(u, BesovParams(a, p, q)) for a in (b, b + 2.0))
        assert ratio == (r**2 * low + high) / besov_norm(g, BesovParams(b, p, q))
    results = json.loads((out / "results.json").read_text())["results"]
    assert results["max_ratio"] == max(row[5] for row in rows)


def test_run_deterministic_byte_identical(tmp_path):
    obj = {
        "kind": "patch-equivalence",
        "grid": {"dim": 1, "points_per_axis": 64},
        "seed": 11,
        "output_dir": "a",
    }
    cfg_a = _write_config(tmp_path, obj, "a.json")
    obj["output_dir"] = "b"
    cfg_b = _write_config(tmp_path, obj, "b.json")
    assert main(["run", cfg_a, "--output-root", str(tmp_path)]) == 0
    assert main(["run", cfg_b, "--output-root", str(tmp_path)]) == 0
    a = (tmp_path / "a" / "results.json").read_bytes()
    b = (tmp_path / "b" / "results.json").read_bytes()
    assert a == b


def test_output_root_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("ELLREG_OUTPUT_ROOT", str(tmp_path))
    cfg = parse_config(
        {"kind": "besov-norm", "grid": {"points_per_axis": 64}, "output_dir": "env-out"}
    )
    out = run_experiment(cfg)
    assert out == tmp_path / "env-out"
    assert (out / "results.json").exists()


def test_validate_good_and_bad(tmp_path, capsys):
    good = _write_config(tmp_path, {"kind": "calibrate"}, "good.json")
    assert main(["validate", good]) == 0
    assert "ok" in capsys.readouterr().out
    bad = _write_config(tmp_path, {"kind": "calibrate", "bogus": 1}, "bad.json")
    assert main(["validate", bad]) == 2


def test_validate_unreadable_and_malformed(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "missing.json")]) == 2
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert main(["validate", str(garbled)]) == 2
    # not UTF-8, and nested deeper than the JSON parser recurses
    (tmp_path / "utf16.json").write_bytes(b"\xff\xfe")
    deep = 200_000
    (tmp_path / "deep.json").write_text(
        '{"kind": "besov-norm", "parameters": {"alpha": ' + "[" * deep + "]" * deep + "}}"
    )
    capsys.readouterr()
    for name in ("utf16.json", "deep.json"):
        path = str(tmp_path / name)
        for argv in (["validate", path], ["run", path, "--output-root", str(tmp_path)]):
            _assert_one_line_failure(capsys, 2, argv, "config error:")


def test_one_point_sweeps_write_empty_trajectories(tmp_path):
    # one grid size or one eps leaves no consecutive pair: empty changes and rates, no verdict
    def run(kind, grid, parameters):
        cfg = {"kind": kind, "grid": grid, "parameters": parameters, "output_dir": kind}
        assert main(["run", _write_config(tmp_path, cfg), "--output-root", str(tmp_path)]) == 0
        return json.loads((tmp_path / kind / "results.json").read_text())["results"]

    gap = run("regularity-gap", {"dim": 2, "points_per_axis": 16}, {"grid_sizes": [16]})
    assert set(gap["verdicts"]) == {"w_k_2", "w_km1_1", "besov_k_1_inf"}
    assert all(v == {"rel_changes": [], "stable": False} for v in gap["verdicts"].values())
    uniform = run("uniform-convergence", {"dim": 1, "points_per_axis": 256}, {"eps_count": 1})
    assert uniform["table"]["converging"] is False
    assert uniform["table"]["final_over_first"] == 1.0
    assert uniform["table"]["rates"] == [] and uniform["final_rates"] == []
    witness = run("example-a", {"dim": 1, "points_per_axis": 256}, {"eps": [0.4], "n_ref": 1024})
    assert witness["u_lp_decay"] == 1.0


def test_experiment_error_exit_code(tmp_path):
    # the Neumann iteration does not contract at r = 1, which surfaces
    # as an experiment failure rather than a config problem
    cfg_path = _write_config(
        tmp_path,
        {
            "kind": "resolvent-solve",
            "grid": {"dim": 1, "points_per_axis": 64},
            "parameters": {"method": "neumann", "operator": "neg-laplacian-plus-one", "r": 1.0},
            "seed": 3,
            "output_dir": "fail",
        },
    )
    assert main(["run", cfg_path, "--output-root", str(tmp_path)]) == 3
    assert not (tmp_path / "fail").exists()


def _assert_one_line_failure(capsys, code, argv, expected):
    assert main(argv) == code
    err = capsys.readouterr().err
    assert expected in err and err.count("\n") == 1


def test_unknown_coefficient_token_is_a_config_error(tmp_path, capsys):
    operator = {"order": 2, "entries": [{"alpha": [2], "coeff": {"token": "exp"}}]}
    cfg_path = _write_config(tmp_path, {
        "kind": "resolvent-solve", "grid": {"dim": 1, "points_per_axis": 64},
        "parameters": {"operator": operator}, "output_dir": "token",
    })
    _assert_one_line_failure(capsys, 2, ["run", cfg_path, "--output-root", str(tmp_path)], "'exp'")
    assert not (tmp_path / "token").exists()


def _nested(value, depth):
    for _ in range(depth):
        value = [value]
    return value


# a value that the message echoes: an alpha list nested 900 deep once printed a 1.8 kB line
LONG_VALUES = {
    "nested-alpha": {"kind": "besov-norm", "parameters": {"alpha": _nested(0.5, 900)}},
    "long-kind": {"kind": "k" * 5000},
    "long-key": {"kind": "besov-norm", "parameters": {"a" * 5000: 1.0}},
    # operator_from_description's own messages, echoed through the cli
    **{name: {"kind": "resolvent-solve", "parameters": {"operator": {
        "order": order, "entries": [{"alpha": [2], "coeff": coeff}]}}} for name, order, coeff in [
            ("long-token", 2, {"token": "z" * 3000}),
            ("long-string-coeff", 2, "z" * 3000),
            ("long-order", "x" * 3000, -1.0),
            # a JSON integer: r^n once printed n in full, 301 digits
            ("huge-order", 10**300, [[-1.0]]),
            # past the float range: the message itself once failed to format the order
            ("huge-order-past-floats", 10**400, [[-1.0]])]},
}


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("name", sorted(LONG_VALUES))
def test_config_error_echoes_a_bounded_value(tmp_path, capsys, command, name):
    cfg_path = _write_config(tmp_path, LONG_VALUES[name])
    argv = [command, cfg_path] + (["--output-root", str(tmp_path)] if command == "run" else [])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1 and len(err) <= 201


@pytest.mark.parametrize("kind, count", [("patch-equivalence", 0), ("apriori-sweep", -1)])
def test_sample_count_below_one_is_a_config_error(tmp_path, capsys, kind, count):
    cfg_path = _write_config(tmp_path, {"kind": kind, "parameters": {"count": count}})
    argv = ["run", cfg_path, "--output-root", str(tmp_path)]
    _assert_one_line_failure(capsys, 2, argv, "count must be >= 1")
    assert not (tmp_path / kind).exists()


def test_example_a_eps_outside_the_mollifier_range_is_a_config_error(tmp_path, capsys):
    # the bounds are mollify.eps_range on the 8192-point reference grid
    cfg_path = _write_config(tmp_path, {"kind": "example-a", "parameters": {"eps": [1.0]}})
    argv = ["run", cfg_path, "--output-root", str(tmp_path)]
    _assert_one_line_failure(capsys, 2, argv, "eps must lie in [0.001534, 0.7854) on the n_ref grid")
    assert not (tmp_path / "example-a").exists()


def test_a_partition_past_the_sample_cap_is_refused_before_it_is_built(tmp_path):
    # delta = pi / 2^19 divides the period of the default 256-point grid: 2^21 translates,
    # 2^29 samples, 4 GiB for the 1-D factors alone.  The run goes in a child process under a
    # 1.5 GiB address-space limit, so that a regression ends there in a MemoryError
    cfg_path = _write_config(tmp_path, {"kind": "patch-equivalence",
                                        "parameters": {"delta": math.pi / 2**19}})
    script = ("import resource, sys\n"
              "resource.setrlimit(resource.RLIMIT_AS, (3 << 29, 3 << 29))\n"
              "from ellreg.cli import main\n"
              "sys.exit(main(sys.argv[1:]))\n")
    src = str(pathlib.Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    argv = [sys.executable, "-c", script, "run", cfg_path, "--output-root", str(tmp_path)]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert "more than 2^22 samples" in proc.stderr and proc.stderr.count("\n") == 1
    assert not (tmp_path / "patch-equivalence").exists()
    # the config alone decides it, so validate refuses it too
    assert main(["validate", cfg_path]) == 2


def _frozen_config(tmp_path, rhs, name):
    parameters = {"method": "frozen", "operator": "neg-laplacian", "rhs": rhs}
    obj = {"kind": "resolvent-solve", "grid": {"dim": 1, "points_per_axis": 128},
           "parameters": parameters, "seed": 5, "output_dir": name}
    return _write_config(tmp_path, obj, f"{name}.json")


def test_frozen_solve_default_delta_covers_the_fixtures(tmp_path):
    cfg_path = _frozen_config(tmp_path, "smooth", "frozen")
    assert main(["run", cfg_path, "--output-root", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "frozen" / "results.json").read_text())["results"]["report"]
    assert report["residual_linf"] < 1e-8


def test_frozen_solve_rejects_the_global_random_rhs(tmp_path, capsys):
    cfg_path = _frozen_config(tmp_path, "random", "frozen-random")
    assert main(["run", cfg_path, "--output-root", str(tmp_path)]) == 2
    assert "random rhs is global" in capsys.readouterr().err
    assert not (tmp_path / "frozen-random").exists()


def test_list_plain_and_json(capsys):
    assert main(["list"]) == 0
    plain = capsys.readouterr().out
    for kind in EXPECTED_KINDS:
        assert kind in plain
    assert main(["list", "--json"]) == 0
    catalog = json.loads(capsys.readouterr().out)
    assert set(catalog) == EXPECTED_KINDS
    for entry in catalog.values():
        assert "topic" in entry and "default_config" in entry


def test_calibrate_subcommand(tmp_path):
    # the measured-constants table is the shipped calibrate config, run like any other
    config = pathlib.Path(__file__).resolve().parent.parent / "configs" / "calibrate.json"
    assert main(["run", str(config), "--output-root", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "calibrate" / "results.json").read_text())
    entries = payload["results"]["entries"]
    assert abs(entries["param_ellipticity_neg_laplacian_m1"] - 2.0) < 1e-3
    assert abs(entries["param_ellipticity_neg_laplacian_m2"] - 2.0) < 1e-3


def test_shipped_configs_parse():
    assert len(SHIPPED) == len(EXPECTED_KINDS)
    kinds = set()
    for path in SHIPPED:
        cfg = parse_config(json.loads(path.read_text()))
        assert isinstance(cfg, ExperimentConfig)
        kinds.add(cfg.kind)
    assert kinds == EXPECTED_KINDS


def test_window_mask_is_the_centered_cube_on_every_shipped_grid():
    # the min-image box mask around the origin equals max_i |x_i| <= L/2
    for path in SHIPPED:
        grid = parse_config(json.loads(path.read_text())).grid
        cube = np.max(np.abs(grid.coords()), axis=-1) <= grid.half_period / 2.0
        assert np.array_equal(_window_mask(grid), cube), path.name


_TOKEN_EXP = {"order": 2, "entries": [{"alpha": [2], "coeff": {"token": "exp"}}]}
_VARIABLE_OP = {"order": 2, "entries": [{"alpha": [2], "coeff": {"token": "x", "scale": 0.1}},
                                        {"alpha": [0], "coeff": [[1.0]]}]}

# (id, kind, config change, exit code of `run`).  Each config once ended in a
# traceback, a wrong result (NaN, a silently ignored or misread key), or a
# `validate` that disagreed with `run`.  Grids are 64 points unless changed.
PROBES = [
    ("seed-str", "besov-norm", {"seed": "abc"}, 2),
    ("r-str", "resolvent-solve", {"parameters": {"r": "fast"}}, 2),
    ("p-below-1", "besov-norm", {"parameters": {"p": 0.5}}, 2),
    ("p-list-str", "mollify-convergence", {"parameters": {"p": "x"}}, 2),
    ("case-no-fixture", "mollify-convergence", {"parameters": {"cases": [{"operator": "identity"}]}}, 2),
    ("count-str", "patch-equivalence", {"parameters": {"count": "x"}}, 2),
    ("pq-str", "apriori-sweep", {"parameters": {"pq": [[2, "x"]]}}, 2),
    ("hardy-p-1", "example-a", {"parameters": {"hardy_p": [1.0]}}, 2),
    ("n-ref-odd", "example-a", {"parameters": {"n_ref": 1001}}, 2),
    ("n-ref-huge", "example-a", {"parameters": {"n_ref": 1 << 30}}, 2),  # 16 GiB per field
    ("grid-sizes-huge", "regularity-gap", {"parameters": {"grid_sizes": [65536]}}, 2),
    ("alpha-negative", "resolvent-solve",
     {"parameters": {"operator": {"order": 2, "entries": [{"alpha": [-1], "coeff": [[1]]}]}}}, 2),
    # order, channels and each alpha entry are JSON integers: each of these once ran, as
    # order 2, order 1 or one channel, or failed on a coefficient's shape (channels 0)
    *[(f"operator-{name}", "resolvent-solve", {"parameters": {"operator": {
        "order": 2, "entries": [{"alpha": [2], "coeff": [[-1.0]]}], **change}}}, 2)
      for name, change in [
          ("order-float", {"order": 2.7}), ("order-str", {"order": "2"}),
          ("channels-str", {"channels": "1"}), ("channels-0", {"channels": 0}),
          ("alpha-float", {"entries": [{"alpha": [1.5], "coeff": [[-1.0]]}]}),
          ("alpha-str", {"entries": [{"alpha": ["2"], "coeff": [[-1.0]]}]}),
          ("alpha-bool", {"entries": [{"alpha": [True], "coeff": [[-1.0]]}]}),
          # a token's axis is an integer in [0, dim), its scale and each coefficient entry a
          # finite JSON number, a complex entry an [re, im] pair: each of these once passed
          # `validate`, then ran as axis 0, the last axis, scale 2, 1+0j or 1, or failed `run`
          *[(name, {"entries": [{"alpha": [2], "coeff": coeff}]}) for name, coeff in [
              ("axis-float", {"token": "x", "axis": 0.5}),
              ("axis-str", {"token": "x", "axis": "0"}),
              ("axis-negative", {"token": "x", "axis": -1}),
              ("scale-str", {"token": "x", "scale": "2"}),
              ("scale-str-nan", {"token": "x", "scale": "nan"}),
              ("coeff-triple", [[[1, 0, 99]]]), ("coeff-str", [["1"]]), ("coeff-bool", True),
              ("coeff-str-nan", [["nan"]]), ("coeff-str-inf", [["inf"]]),
              # an unknown key is refused: each of these once ran with the key dropped
              ("token-key", {"token": "x", "scal": 5}),
              ("factors-not-product", {"token": "x", "factors": [{"token": "x"}]})]],
          ("description-key", {"chanels": 3}),
          ("entry-key", {"entries": [{"alpha": [2], "coeff": [[-1.0]], "extra": 1}]})]],
    ("grid-list", "besov-norm", {"grid": [64]}, 2),
    ("wavenumber-float", "besov-norm", {"parameters": {"wavenumber": 1e300}}, 2),
    ("grid-sizes-str", "regularity-gap", {"parameters": {"grid_sizes": "64"}}, 2),
    ("alpha-str", "besov-norm", {"parameters": {"alpha": "1"}}, 2),
    ("theta0-str-nan", "resolvent-solve", {"parameters": {"theta0": "nan"}}, 2),
    ("theta0-nan", "resolvent-solve", {"parameters": {"theta0": math.nan}}, 2),
    ("r-inf", "resolvent-solve", {"parameters": {"r": math.inf}}, 2),  # JSON 1e400
    ("typo", "besov-norm", {"parameters": {"alhpa": [1.0]}}, 2),
    ("eps-count-0", "mollify-convergence", {"parameters": {"eps_count": 0}}, 2),
    ("points-float", "besov-norm", {"grid": {"points_per_axis": 64.9}}, 2),
    ("grid-key", "besov-norm", {"grid": {"points_per_axis": 64, "spacing": 1.0}}, 2),
    ("grid-huge", "besov-norm", {"grid": {"dim": 3, "points_per_axis": 256}}, 2),
    ("token-exp", "resolvent-solve", {"parameters": {"operator": _TOKEN_EXP}}, 2),
    ("count-0", "patch-equivalence", {"parameters": {"count": 0}}, 2),
    ("method-str", "resolvent-solve", {"parameters": {"method": "x"}}, 2),
    ("frozen-random-rhs", "resolvent-solve", {"parameters": {"method": "frozen", "rhs": "random"}}, 2),
    ("x0-index-short", "resolvent-solve", {"grid": {"dim": 2, "points_per_axis": 64},
                                           "parameters": {"x0_index": [3]}}, 2),
    ("output-dir-int", "besov-norm", {"output_dir": 5}, 2),
    # a run writes under its output root only: this one once wrote beside it, with exit 0
    ("output-dir-parent", "calibrate", {"output_dir": "../escaped"}, 2),
    # names no file system can make: each once passed `validate`, then ended `run` in a
    # traceback (exit 1) after the experiment ran
    ("output-dir-nul", "calibrate", {"output_dir": "a\u0000b"}, 2),
    ("output-dir-long-name", "calibrate", {"output_dir": "x" * 300}, 2),
    ("output-dir-long-utf8-name", "calibrate", {"output_dir": "\u00e9" * 128}, 2),  # 256 bytes
    ("output-dir-lone-surrogate", "calibrate", {"output_dir": "a\ud800"}, 2),
    ("delta-incommensurable", "patch-equivalence", {"parameters": {"delta": 1.0}}, 2),
    ("delta-subnormal", "patch-equivalence", {"parameters": {"delta": 5e-324}}, 2),
    ("delta-past-the-cap", "patch-equivalence", {"parameters": {"delta": math.pi / 2**19}}, 2),
    ("alpha-nan-result", "besov-norm", {"parameters": {"alpha": [400.0]}}, 3),
    ("r-overflow", "resolvent-solve", {"parameters": {"r": 1e200}}, 2),
    ("constant-variable-op", "resolvent-solve", {"parameters": {"operator": _VARIABLE_OP}}, 3),
    ("neumann-variable-op", "resolvent-solve",
     {"parameters": {"operator": _VARIABLE_OP, "method": "neumann"}}, 3),
    # eps outside mollify.eps_range: each once passed `validate` and failed `run`
    ("mollify-16-points", "mollify-convergence", {"grid": {"points_per_axis": 16}}, 2),
    ("uniform-16-points", "uniform-convergence", {"grid": {"points_per_axis": 16}}, 2),
    ("mollify-8-points", "mollify-convergence", {"grid": {"points_per_axis": 8}}, 2),
    ("uniform-8-points", "uniform-convergence", {"grid": {"points_per_axis": 8}}, 2),
    ("example-a-eps-wide", "example-a", {"parameters": {"eps": [1.0]}}, 2),
    ("example-a-eps-narrow", "example-a", {"parameters": {"eps": [0.0001]}}, 2),
    # a frozen solve's fixture, out to radius L/2, leaks out of a cube of radius delta < L/2
    ("frozen-smooth-delta-0.01", "resolvent-solve",
     {"parameters": {"method": "frozen", "rhs": "smooth", "delta": 0.01}}, 2),
    ("frozen-smooth-delta-1", "resolvent-solve",
     {"parameters": {"method": "frozen", "rhs": "smooth", "delta": 1.0}}, 2),
    # the Hardy ratios sample 1-D fields on the grid: a 2-D grid ended in a ValueError traceback
    ("example-a-2d", "example-a", {"grid": {"dim": 2, "points_per_axis": 16}}, 2),
    # a regularity-gap spacing 2L/n that leaves the field's window |x| < 2 unsampled: the
    # field is zero, and its relative changes once divided by zero (exit 3).  At L = 63.957
    # the window's ramp is subnormal at the nearest sample, and the norms vanish as well
    *[(f"gap-empty-window-{name}", "regularity-gap",
       {"grid": {"half_period": L}, "parameters": {"grid_sizes": sizes}}, 2)
      for name, L, sizes in [("100-4", 100.0, [4, 8]), ("100-64", 100.0, [64, 128]),
                             ("64-64", 64.0, [64, 128]), ("subnormal", 63.957, [64, 128])]],
    # a tiny half period: the W^{k-1,1} norm, like L^3 log(1/L), underflows to zero, and its
    # relative changes once divided by zero (exit 3)
    *[(f"gap-tiny-half-period-{L:g}", "regularity-gap",
       {"grid": {"half_period": L}, "parameters": {"grid_sizes": [16, 32]}}, 2)
      for L in (1e-110, 1e-150)],
    # r^n overflows a float: each once ended in OverflowError (exit 3)
    ("r-overflow-1e300", "resolvent-solve", {"parameters": {"r": 1e300}}, 2),
    ("apriori-r-overflow", "apriori-sweep", {"parameters": {"r": [4.0, 1e200]}}, 2),
]


@pytest.mark.parametrize("kind, change, code", [p[1:] for p in PROBES], ids=[p[0] for p in PROBES])
def test_bad_configs_exit_with_one_line_and_write_nothing(tmp_path, capsys, kind, change, code):
    obj = {"kind": kind, "grid": {"points_per_axis": 64}, "output_dir": "out", **change}
    path = _write_config(tmp_path, obj)
    # `validate` agrees with `run` on every configuration error
    assert main(["validate", path]) == (2 if code == 2 else 0)
    capsys.readouterr()
    argv = ["run", path, "--output-root", str(tmp_path)]
    _assert_one_line_failure(capsys, code, argv, "config error" if code == 2 else "experiment error")
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize("kind, change", [p[1:3] for p in PROBES if p[3] == 2],
                         ids=[p[0] for p in PROBES if p[3] == 2])
def test_validate_prints_the_config_error_that_run_prints(tmp_path, capsys, kind, change):
    path = _write_config(tmp_path, {"kind": kind, "grid": {"points_per_axis": 64}, **change})
    assert main(["validate", path]) == 2
    line = capsys.readouterr().err
    assert main(["run", path, "--output-root", str(tmp_path)]) == 2
    assert capsys.readouterr().err == line


def test_refusals_stop_at_their_boundaries(tmp_path):
    # r^2 = 1e300 is a float, a spacing 126/64 < 2 samples the window, and (1e-100)^3 is normal
    for name, kind, grid, parameters in [
            ("r", "resolvent-solve", {"points_per_axis": 64}, {"r": 1e150}),
            ("gap", "regularity-gap", {"half_period": 63.0}, {"grid_sizes": [64, 128]}),
            ("gap-tiny", "regularity-gap", {"half_period": 1e-100}, {"grid_sizes": [16, 32]})]:
        cfg = {"kind": kind, "grid": grid, "parameters": parameters, "output_dir": name}
        assert main(["run", _write_config(tmp_path, cfg), "--output-root", str(tmp_path)]) == 0


_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 3)
    | st.sampled_from([1001, 10**20, -(2**63), "inf", "x", "kink", "random", "frozen", "identity"])
    | st.floats(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(
        st.sampled_from(["operator", "fixture", "order", "entries", "alpha", "coeff", "token"]),
        inner,
        max_size=3,
    ),
    max_leaves=6,
)


@settings(max_examples=300)
@given(st.sampled_from(SHIPPED), st.data())
def test_mutated_shipped_configs_parse_or_raise_config_error(path, data):
    # parse only: a valid mutation may be far too large to run
    obj = json.loads(path.read_text())
    obj["grid"]["points_per_axis"] = 64  # so that a valid grid mutation stays small
    names = {
        None: sorted(cli._CONFIG_KEYS) + ["bogus"],
        "grid": ["dim", "points_per_axis", "half_period", "bogus"],
        "parameters": sorted(parse_config(obj).parameters) + ["bogus"],
    }
    for _ in range(data.draw(st.integers(1, 3))):
        section = data.draw(st.sampled_from([None, "grid", "parameters"]))
        target = obj if section is None else obj.get(section)
        if not isinstance(target, dict):
            continue
        key = data.draw(st.sampled_from(names[section]))
        if data.draw(st.booleans()):
            target.pop(key, None)
        else:
            target[key] = data.draw(_JSON)
    try:
        assert isinstance(parse_config(obj), ExperimentConfig)
    except ConfigError:
        pass


# explicit mutations of the shipped configs, each once valid to `validate` and refused by `run`
EPS_OUT_OF_RANGE = [
    ("example-a", ("parameters", "eps"), [1.0]),
    ("example-a", ("parameters", "eps"), [0.0001]),
    ("uniform-convergence", ("grid", "points_per_axis"), 8),
    ("mollify-convergence", ("grid", "points_per_axis"), 8),
]


@pytest.mark.parametrize("name, key, value", EPS_OUT_OF_RANGE)
def test_mutated_shipped_configs_outside_the_eps_range_raise_config_error(name, key, value):
    obj = json.loads(SHIPPED[0].with_name(f"{name}.json").read_text())
    obj[key[0]][key[1]] = value
    with pytest.raises(ConfigError, match="eps"):
        parse_config(obj)


def test_handlers_read_no_parameters_by_hand():
    # each handler's keyword parameters are its kind's schema: no ad-hoc reads
    source = pathlib.Path(cli.__file__).read_text()
    assert not re.search(r"parameters\.get\(", source)
    assert "default" not in {key for entry in CATALOG.values() for key in entry}


def test_parse_config_names_no_kind_and_maps_library_errors_in_one_except():
    # a kind's config-only checks live in its CATALOG entry's refuse, beside its handler
    source = inspect.getsource(parse_config)
    assert "method" not in source and not [kind for kind in CATALOG if kind in source]
    caught = re.findall(r"except \(?([\w, ]+?)\)? as", source)
    library = [c for c in caught if "SupportViolation" in c]
    assert len(library) == 1 and len(caught) == 2  # the other maps GridSpec's ValueError
    assert {"EpsilonOutOfRange", "IncommensurableDelta"} <= set(library[0].split(", "))


def test_mollify_convergence_sweeps_each_fixture_once(tmp_path, transform_calls):
    # one sweep per fixture over its distinct operators, each eps one inverse per operator:
    # kink 1 + 6 * 3, cubic-kink 1 + 6 * 1, and, cold, one symbol transform per distinct eps
    # (the fixtures share the six), which the symbol memo keeps for the warm run
    root = pathlib.Path(__file__).resolve().parent.parent
    cfg = parse_config(json.loads((root / "configs" / "mollify-convergence.json").read_text()))
    transform_calls.clear()
    run_experiment(cfg, output_root=str(tmp_path / "cold"))
    assert len(transform_calls) == 19 + 7 + 6
    transform_calls.clear()
    out = run_experiment(cfg, output_root=str(tmp_path))
    assert len(transform_calls) == 19 + 7
    cases = json.loads((out / "results.json").read_text())["results"]["cases"]
    assert [(c["operator"], c["fixture"]) for c in cases] == [
        ("identity", "kink"), ("derivative", "kink"),
        ("neg-laplacian", "cubic-kink"), ("neg-laplacian", "kink")]
    assert sorted(json.loads((out / "manifest.json").read_text())["tables"]) == sorted(
        f"mollify_{c['operator']}_{c['fixture']}_p{p}" for c in cases for p in (1.0, 2.0))


def test_mollify_convergence_repeated_case_keeps_its_rows(tmp_path, transform_calls):
    case = {"operator": "derivative", "fixture": "kink"}
    cfg = parse_config({"kind": "mollify-convergence", "grid": {"points_per_axis": 256},
                        "parameters": {"cases": [case, case], "p": [2.0], "eps_count": 3}})
    transform_calls.clear()
    run_experiment(cfg, output_root=str(tmp_path / "cold"))
    # cold: the fixture once, each eps's symbol once, and each case one inverse per eps
    assert len(transform_calls) == 1 + 3 + 2 * 3
    transform_calls.clear()
    out = run_experiment(cfg, output_root=str(tmp_path))
    assert len(transform_calls) == 1 + 2 * 3  # warm: the symbols come from the memo
    first, second = json.loads((out / "results.json").read_text())["results"]["cases"]
    assert first == second and len(first["by_p"]["2.0"]["rows"]) == 3
    # the two cases share their one table, written and listed once
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["tables"] == ["mollify_derivative_kink_p2.0"]


def test_mollify_tables_of_a_described_operator_are_named_by_its_case(tmp_path):
    # six token entries once named a table after the description's repr, longer than a file
    # name may be: run wrote results.json, then ended in OSError (exit 1)
    entries = [{"alpha": [1], "coeff": {"token": "x", "scale": 0.1 * k}} for k in range(1, 7)]
    cases = [{"operator": {"order": 1, "entries": entries}, "fixture": "kink"},
             {"operator": "identity", "fixture": "kink"}, {"operator": "identity", "fixture": "kink"}]
    path = _write_config(tmp_path, {"kind": "mollify-convergence", "grid": {"points_per_axis": 256},
                                    "parameters": {"cases": cases}, "output_dir": "six"})
    assert main(["run", path, "--output-root", str(tmp_path)]) == 0
    names = [f"mollify_{label}_kink_p{p}" for label in ("case0", "identity") for p in (1.0, 2.0)]
    assert json.loads((tmp_path / "six" / "manifest.json").read_text())["tables"] == names
    assert sorted(p.name for p in (tmp_path / "six").glob("*.csv")) == [f"{n}.csv" for n in names]


@pytest.mark.parametrize("output_dir", ["a/" * 2100, "a/" * 1500], ids=["too-long", "too-deep"])
def test_an_output_dir_too_long_under_its_root_fails_run_with_one_line(tmp_path, capsys,
                                                                        output_dir):
    # each name is short, so only the made path is refused: past PATH_MAX, or nested past
    # the recursion of mkdir(parents=True)
    path = _write_config(tmp_path, {"kind": "calibrate", "output_dir": output_dir})
    assert main(["validate", path]) == 0 and capsys.readouterr().out == "ok\n"
    argv = ["run", path, "--output-root", str(tmp_path / "root")]
    _assert_one_line_failure(capsys, 2, argv, "config error: cannot make output directory")
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_an_artifact_path_past_the_limit_is_refused_before_any_directory_is_made(
        tmp_path, capsys, monkeypatch):
    # the 4,088-byte directory could be made, but none of its files could be opened in it
    monkeypatch.chdir(tmp_path)
    output_dir = "/".join(["x" * 250] * 16 + ["y" * 70])
    path = _write_config(tmp_path, {"kind": "calibrate", "output_dir": output_dir})
    assert main(["validate", path]) == 0 and capsys.readouterr().out == "ok\n"
    argv = ["run", path, "--output-root", "r"]
    _assert_one_line_failure(capsys, 2, argv, "its artifact paths reach the 4096-byte path limit")
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_an_artifact_that_cannot_be_opened_fails_run_with_one_line(tmp_path, capsys):
    (tmp_path / "root" / "calibrate" / "results.json").mkdir(parents=True)
    path = _write_config(tmp_path, {"kind": "calibrate", "output_dir": "calibrate"})
    argv = ["run", path, "--output-root", str(tmp_path / "root")]
    _assert_one_line_failure(capsys, 2, argv, "results.json': Is a directory")
    assert [p.name for p in (tmp_path / "root" / "calibrate").iterdir()] == ["results.json"]


def test_a_rerun_makes_new_files_and_leaves_links_to_the_old_ones_alone(tmp_path):
    # each artifact is unlinked and made anew, never truncated and rewritten in place
    root, links = tmp_path / "root", tmp_path / "links"
    links.mkdir()
    obj = {"kind": "besov-norm", "grid": {"points_per_axis": 64}, "seed": 1, "output_dir": "out"}
    assert main(["run", _write_config(tmp_path, obj), "--output-root", str(root)]) == 0
    first = {p.name: p.read_bytes() for p in (root / "out").iterdir()}
    for name in first:
        os.link(root / "out" / name, links / name)
    obj["seed"] = 2
    assert main(["run", _write_config(tmp_path, obj), "--output-root", str(root)]) == 0
    assert {p.name: p.read_bytes() for p in links.iterdir()} == first
    assert (root / "out" / "results.json").read_bytes() != first["results.json"]


def test_a_results_json_symlink_is_replaced_and_its_target_left_alone(tmp_path):
    # a run writes under its output root only: the old in-place write went through the link
    outside = tmp_path / "outside.json"
    outside.write_text("not an artifact\n")
    (tmp_path / "root" / "calibrate").mkdir(parents=True)
    results = tmp_path / "root" / "calibrate" / "results.json"
    results.symlink_to(outside)
    path = _write_config(tmp_path, {"kind": "calibrate"})
    assert main(["run", path, "--output-root", str(tmp_path / "root")]) == 0
    assert outside.read_text() == "not an artifact\n"
    assert not results.is_symlink() and json.loads(results.read_text())["kind"] == "calibrate"


def test_an_absolute_output_dir_is_refused_and_nothing_is_written(tmp_path, capsys):
    # under both commands, and before the run: the root and the absolute directory stay unmade
    path = _write_config(tmp_path, {"kind": "calibrate", "output_dir": str(tmp_path / "abs")})
    for argv in (["validate", path], ["run", path, "--output-root", str(tmp_path / "root")]):
        _assert_one_line_failure(capsys, 2, argv, "output_dir must be a relative path")
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

import json
import math
import pathlib

import pytest

from ellreg.cli import (
    CATALOG,
    ExperimentConfig,
    main,
    parse_config,
    run_experiment,
)
from ellreg.errors import ConfigError


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


def test_catalog_kinds_and_topics():
    assert set(CATALOG) == EXPECTED_KINDS
    for entry in CATALOG.values():
        assert entry["topic"]
        assert "handler" in entry and "default" in entry


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


def test_validate_unreadable_and_malformed(tmp_path):
    assert main(["validate", str(tmp_path / "missing.json")]) == 2
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert main(["validate", str(garbled)]) == 2


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


@pytest.mark.parametrize("kind, count", [("patch-equivalence", 0), ("apriori-sweep", -1)])
def test_sample_count_below_one_is_a_config_error(tmp_path, capsys, kind, count):
    cfg_path = _write_config(tmp_path, {"kind": kind, "parameters": {"count": count}})
    argv = ["run", cfg_path, "--output-root", str(tmp_path)]
    _assert_one_line_failure(capsys, 2, argv, "count must be >= 1")
    assert not (tmp_path / kind).exists()


def test_example_a_eps_outside_the_mollifier_range_is_an_experiment_error(tmp_path, capsys):
    cfg_path = _write_config(tmp_path, {"kind": "example-a", "parameters": {"eps": [1.0]}})
    argv = ["run", cfg_path, "--output-root", str(tmp_path)]
    _assert_one_line_failure(capsys, 3, argv, "EpsilonOutOfRange: eps=1.0 outside")
    assert not (tmp_path / "example-a").exists()


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
    here = pathlib.Path(__file__).resolve().parent.parent / "configs"
    paths = sorted(here.glob("*.json"))
    assert len(paths) == len(EXPECTED_KINDS)
    kinds = set()
    for path in paths:
        cfg = parse_config(json.loads(path.read_text()))
        assert isinstance(cfg, ExperimentConfig)
        kinds.add(cfg.kind)
    assert kinds == EXPECTED_KINDS

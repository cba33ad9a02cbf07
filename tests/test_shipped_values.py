"""Every number the nine shipped configs write, against values recorded before a change.

tests/data/shipped/<config>.json holds the results.json that `ellreg run configs/<config>.json`
wrote when the values were recorded.  A performance change that claims to keep results
equal to within rounding is checked here: every numeric leaf must stay within REL
relative.  A recorded value below NEAR_ZERO is a rounding-size quantity (the 3e-13
residual of a solve, a one-ulp partition error) that moves by its own size under any
reordering of sums, so it gets the absolute floor ABS_FLOOR instead.  No key needs more
room: the largest recorded move, 1.7e-13 relative on regularity-gap's besov_k_1_inf
rel_changes, came with the half-spectrum route.
"""

import json
import pathlib

import pytest

from ellreg import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
RECORDED = ROOT / "tests" / "data" / "shipped"
CONFIGS = sorted((ROOT / "configs").glob("*.json"))

REL = 1e-12
NEAR_ZERO = 1e-9
ABS_FLOOR = 1e-12


def leaves(obj, path=()):
    """(key path, value) of every leaf of a JSON value."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from leaves(value, path + (key,))
    elif isinstance(obj, list):
        for index, value in enumerate(obj):
            yield from leaves(value, path + (index,))
    else:
        yield path, obj


def test_every_shipped_config_has_recorded_values():
    assert [c.stem for c in CONFIGS] == sorted(p.stem for p in RECORDED.glob("*.json"))
    assert len(CONFIGS) == 9


@pytest.mark.parametrize("config", CONFIGS, ids=lambda path: path.stem)
def test_shipped_values_match_the_recorded_ones(config, tmp_path):
    cfg = cli.parse_config(json.loads(config.read_text()))
    out_dir = cli.run_experiment(cfg, output_root=str(tmp_path))
    got = dict(leaves(json.loads((out_dir / "results.json").read_text())))
    want = dict(leaves(json.loads((RECORDED / config.name).read_text())))
    assert got.keys() == want.keys()
    for path, recorded in want.items():
        value = got[path]
        if isinstance(recorded, bool) or not isinstance(recorded, (int, float)):
            assert value == recorded, path
            continue
        if abs(recorded) < NEAR_ZERO:
            assert abs(value - recorded) <= ABS_FLOOR, (path, value, recorded)
        else:
            assert abs(value - recorded) <= REL * abs(recorded), (path, value, recorded)
